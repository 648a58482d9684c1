// EngineStats: the single counter block for every expensive decision the
// engine makes. One instance lives in each EngineContext; all layers
// (homomorphism search, containment, implication, rewriting) increment it,
// so one object answers "what did this workload cost and what did the cache
// save" — surfaced by the shell's `stats` command and the benches.
//
// Every counter is a relaxed atomic so a context shared across TaskPool
// workers never loses an update. Counts are exact; only the *interleaving*
// of increments differs between thread counts (the totals of a fixed
// workload do not, except that cancelled-and-repaired parallel items may
// charge their probe work twice — see docs/engine.md).
#ifndef CQAC_ENGINE_STATS_H_
#define CQAC_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace cqac {

/// A relaxed atomic counter with plain-uint64_t ergonomics (`++`, `+=`,
/// implicit read). Relaxed is enough: counters never order other memory.
class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(const StatCounter&) = delete;
  StatCounter& operator=(const StatCounter&) = delete;

  uint64_t operator++() { return Add(1) + 1; }    // pre-increment
  uint64_t operator++(int) { return Add(1); }     // post-increment
  StatCounter& operator+=(uint64_t d) {
    Add(d);
    return *this;
  }
  operator uint64_t() const { return value_.load(std::memory_order_relaxed); }

  /// Raises the counter to `v` if it is currently lower (high-water marks,
  /// e.g. the serve queue-depth peak). Relaxed CAS loop; monotone like
  /// every other counter, so snapshot deltas never underflow.
  void MaxWith(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  uint64_t Add(uint64_t d) {
    return value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> value_{0};
};

/// A plain, copyable point-in-time copy of every EngineStats counter.
/// Snapshots support subtraction, so a caller that brackets a unit of work
/// with two snapshots gets the exact counter deltas attributable to it —
/// the serve layer uses this to account per-session engine work against
/// the one shared context (src/serve/session.h).
struct StatsSnapshot {
  uint64_t containment_calls = 0;
  uint64_t containment_cache_hits = 0;
  uint64_t containment_cache_misses = 0;
  uint64_t implication_calls = 0;
  uint64_t implication_cache_hits = 0;
  uint64_t implication_cache_misses = 0;
  uint64_t disjunction_implications = 0;
  uint64_t hom_enumerations = 0;
  uint64_t homomorphisms_found = 0;
  uint64_t intern_requests = 0;
  uint64_t queries_interned = 0;
  uint64_t fingerprint_collisions = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_flushes = 0;
  uint64_t budget_exhaustions = 0;
  uint64_t eval_batches = 0;
  uint64_t eval_smallint_fallbacks = 0;
  uint64_t eval_index_builds = 0;
  uint64_t plan_decisions = 0;
  uint64_t plan_join_reorders = 0;
  uint64_t plan_unions_pruned = 0;
  uint64_t plan_retunes = 0;
  uint64_t rewrite_candidates = 0;
  uint64_t rewrite_verified_rejects = 0;
  uint64_t parallel_sections = 0;
  uint64_t parallel_tasks = 0;
  uint64_t parallel_wall_ns = 0;
  uint64_t ivm_applies = 0;
  uint64_t ivm_incremental_applies = 0;
  uint64_t ivm_rebuild_fallbacks = 0;
  uint64_t ivm_base_delta_tuples = 0;
  uint64_t ivm_view_delta_tuples = 0;
  uint64_t ivm_overdeletions = 0;
  uint64_t ivm_rederivations = 0;
  uint64_t audit_obligations = 0;
  uint64_t audit_failures = 0;
  uint64_t audit_unfold_disjuncts = 0;
  uint64_t audit_replayed_tuples = 0;
  uint64_t audit_wall_ns = 0;
  uint64_t serve_requests = 0;
  uint64_t serve_overload_rejections = 0;
  uint64_t serve_queue_peak = 0;
  uint64_t store_records_appended = 0;
  uint64_t store_bytes_logged = 0;
  uint64_t store_fsyncs = 0;
  uint64_t store_snapshots_written = 0;
  uint64_t store_recovery_replayed_records = 0;
  uint64_t store_recovery_sessions = 0;

  /// Counter-wise difference (`after - before`). Counters only grow, so a
  /// later-minus-earlier snapshot of the same stats block never underflows.
  StatsSnapshot operator-(const StatsSnapshot& o) const;

  /// Counter-wise accumulation (per-session running totals).
  StatsSnapshot& operator+=(const StatsSnapshot& o);

  /// Fraction of containment lookups answered from the cache (0 when none).
  double ContainmentHitRate() const;

  /// Renders the snapshot as one flat JSON object with snake_case keys
  /// matching the field names.
  std::string ToJson() const;
};

struct EngineStats {
  // Containment layer.
  StatCounter containment_calls;
  StatCounter containment_cache_hits;
  StatCounter containment_cache_misses;

  // Constraint-implication layer.
  StatCounter implication_calls;
  StatCounter implication_cache_hits;
  StatCounter implication_cache_misses;
  StatCounter disjunction_implications;

  // Homomorphism enumeration.
  StatCounter hom_enumerations;
  StatCounter homomorphisms_found;

  // Canonicalization / interning.
  StatCounter intern_requests;
  StatCounter queries_interned;  // distinct canonical forms seen
  StatCounter fingerprint_collisions;

  // Cache maintenance.
  StatCounter cache_evictions;
  StatCounter cache_flushes;

  // Budget enforcement.
  StatCounter budget_exhaustions;

  // Columnar join evaluation (src/eval/batch.h).
  StatCounter eval_batches;              // non-empty batches emitted
  StatCounter eval_smallint_fallbacks;   // column promotions off the i64 path
  StatCounter eval_index_builds;         // Database-owned column indexes built

  // Cost-based planner (src/plan).
  StatCounter plan_decisions;      // cost comparisons made
  StatCounter plan_join_reorders;  // evaluations that left syntactic order
  StatCounter plan_unions_pruned;  // union disjuncts pruned before eval
  StatCounter plan_retunes;        // adaptive-threshold re-estimations

  // Rewriting layer.
  StatCounter rewrite_candidates;
  StatCounter rewrite_verified_rejects;

  // Parallel sections (TaskPool fan-outs that actually ran concurrently).
  StatCounter parallel_sections;
  StatCounter parallel_tasks;
  StatCounter parallel_wall_ns;  // wall-clock summed over sections

  // Incremental view maintenance (src/ivm).
  StatCounter ivm_applies;              // delta batches applied
  StatCounter ivm_incremental_applies;  // ... maintained incrementally
  StatCounter ivm_rebuild_fallbacks;    // ... that fell back to rebuild
  StatCounter ivm_base_delta_tuples;    // base tuples inserted + retracted
  StatCounter ivm_view_delta_tuples;    // view tuples added + removed
  StatCounter ivm_overdeletions;        // DRed tuples speculatively deleted
  StatCounter ivm_rederivations;        // DRed tuples rescued by re-derive

  // Independent audit pass (src/analysis/audit).
  StatCounter audit_obligations;       // proof obligations checked
  StatCounter audit_failures;          // ... that were rejected
  StatCounter audit_unfold_disjuncts;  // MCR unfolding disjuncts certified
  StatCounter audit_replayed_tuples;   // IVM tuples replayed vs the oracle
  StatCounter audit_wall_ns;           // wall-clock spent auditing

  // Serve transport (src/serve/server.cc; always zero outside a server —
  // the shell's `stats` prints them so serve and shell read identically).
  StatCounter serve_requests;             // requests this shard executed
  StatCounter serve_overload_rejections;  // lines bounced off a full queue
  StatCounter serve_queue_peak;           // request-queue high-water mark

  // Durable store (src/store; zero without --data-dir).
  StatCounter store_records_appended;  // commit records appended to the WAL
  StatCounter store_bytes_logged;      // framed bytes written to the WAL
  StatCounter store_fsyncs;            // fsyncs issued by the policy
  StatCounter store_snapshots_written; // compact snapshots written
  StatCounter store_recovery_replayed_records;  // log-tail records replayed
  StatCounter store_recovery_sessions;          // sessions recovered

  void Reset();

  /// Copies every counter into a plain snapshot. Individual loads are
  /// relaxed; under concurrent mutation the snapshot is per-counter exact
  /// but not a cross-counter atomic cut (fine for reporting).
  StatsSnapshot Snapshot() const;

  /// Fraction of containment calls answered from the cache (0 when none).
  double ContainmentHitRate() const;

  /// Multi-line human-readable rendering (the shell's `stats` output).
  std::string ToString() const;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_STATS_H_
