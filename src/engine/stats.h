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

// Every engine counter, declared once, grouped by layer. StatsSnapshot and
// EngineStats declare their fields from this list, and Reset, Snapshot, the
// snapshot arithmetic and the JSON rendering walk it; a new counter is one
// X(name) here plus its line in EngineStats::ToString. perfbench reads the
// counters by these names from every `stats` reply.
#define CQAC_ENGINE_STATS_FIELDS(X)                                          \
  /* Containment layer. */                                                   \
  X(containment_calls)                                                       \
  X(containment_cache_hits)                                                  \
  X(containment_cache_misses)                                                \
  /* Constraint-implication layer. */                                        \
  X(implication_calls)                                                       \
  X(implication_cache_hits)                                                  \
  X(implication_cache_misses)                                                \
  X(disjunction_implications)                                                \
  /* Homomorphism enumeration. */                                            \
  X(hom_enumerations)                                                        \
  X(homomorphisms_found)                                                     \
  /* Canonicalization / interning; queries_interned counts distinct */      \
  /* canonical forms. */                                                     \
  X(intern_requests)                                                         \
  X(queries_interned)                                                        \
  X(fingerprint_collisions)                                                  \
  /* Cache maintenance. */                                                   \
  X(cache_evictions)                                                         \
  X(cache_flushes)                                                           \
  /* Budget enforcement. */                                                  \
  X(budget_exhaustions)                                                      \
  /* Columnar join evaluation (src/eval/batch.h): non-empty batches, */      \
  /* column promotions off the i64 path, Database-owned indexes built. */    \
  X(eval_batches)                                                            \
  X(eval_smallint_fallbacks)                                                 \
  X(eval_index_builds)                                                       \
  /* Cost-based planner (src/plan): cost comparisons and evaluations */      \
  /* that left syntactic order. plan_unions_pruned and plan_retunes are */   \
  /* always 0: nothing prunes a union before evaluating it, and the */       \
  /* planner keeps no self-tuning calibration to retune. They stay, like */  \
  /* ivm_overdeletions and ivm_rederivations below, because perfbench's */   \
  /* frozen DeterministicCounters list (perfbench/replay.cc) reads them */   \
  /* by name from every `stats` reply, and a missing name makes every */     \
  /* benchmark run report "correct": false. */                               \
  X(plan_decisions)                                                          \
  X(plan_join_reorders)                                                      \
  X(plan_unions_pruned)                                                      \
  X(plan_retunes)                                                            \
  /* Rewriting layer: MCDs constructed, candidate rewritings, and the */     \
  /* candidates verification rejected. */                                    \
  X(rewrite_mcds)                                                            \
  X(rewrite_candidates)                                                      \
  X(rewrite_verified_rejects)                                                \
  /* Parallel sections (TaskPool fan-outs that actually ran */               \
  /* concurrently); the wall-clock is summed over sections. */               \
  X(parallel_sections)                                                       \
  X(parallel_tasks)                                                          \
  X(parallel_wall_ns)                                                        \
  /* Incremental view maintenance (src/ivm): delta batches applied, */       \
  /* those maintained incrementally, those rebuilt, base tuples inserted */  \
  /* + retracted, view tuples added + removed. The last two are always */    \
  /* 0 (the counting maintainer never over-deletes); kept for */             \
  /* perfbench, see plan_unions_pruned. */                                   \
  X(ivm_applies)                                                             \
  X(ivm_incremental_applies)                                                 \
  X(ivm_rebuild_fallbacks)                                                   \
  X(ivm_base_delta_tuples)                                                   \
  X(ivm_view_delta_tuples)                                                   \
  X(ivm_overdeletions)                                                       \
  X(ivm_rederivations)                                                       \
  /* Independent audit pass (src/analysis/audit): proof obligations */       \
  /* checked, those rejected, MCR unfolding disjuncts certified, IVM */      \
  /* tuples replayed against the oracle, wall-clock spent auditing. */       \
  X(audit_obligations)                                                       \
  X(audit_failures)                                                          \
  X(audit_unfold_disjuncts)                                                  \
  X(audit_replayed_tuples)                                                   \
  X(audit_wall_ns)                                                           \
  /* Serve transport (src/serve/server.cc; always zero outside a server, */  \
  /* the shell's `stats` prints them so serve and shell read */              \
  /* identically): requests this shard executed, lines bounced off a */      \
  /* full queue, the request-queue high-water mark. */                       \
  X(serve_requests)                                                          \
  X(serve_overload_rejections)                                               \
  X(serve_queue_peak)                                                        \
  /* Durable store (src/store; zero without --data-dir): commit records */   \
  /* appended to the WAL, framed bytes written, fsyncs the policy */         \
  /* issued, compact snapshots written, log-tail records replayed and */     \
  /* sessions recovered. */                                                  \
  X(store_records_appended)                                                  \
  X(store_bytes_logged)                                                      \
  X(store_fsyncs)                                                            \
  X(store_snapshots_written)                                                 \
  X(store_recovery_replayed_records)                                         \
  X(store_recovery_sessions)

/// A plain, copyable point-in-time copy of every EngineStats counter.
/// Snapshots support subtraction, so a caller that brackets a unit of work
/// with two snapshots gets the exact counter deltas attributable to it —
/// the serve layer uses this to account per-session engine work against
/// the one shared context (src/serve/session.h).
struct StatsSnapshot {
#define CQAC_STATS_DECLARE(f) uint64_t f = 0;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_DECLARE)
#undef CQAC_STATS_DECLARE

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
#define CQAC_STATS_DECLARE(f) StatCounter f;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_DECLARE)
#undef CQAC_STATS_DECLARE

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
