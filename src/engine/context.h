// EngineContext: the shared engine seam of the rewriting stack.
//
// One EngineContext bundles the three things every expensive decision
// needs:
//   * a Budget (enumeration caps, wall-clock deadline, cache byte cap);
//   * an EngineStats counter block;
//   * a canonical-query interner plus a byte-bounded LRU decision cache,
//     which together memoize containment and implication results across
//     calls that are identical up to variable renaming.
//
// Every containment, rewriting and evaluation entry point (src/containment,
// src/rewriting, src/eval) takes the caller's `EngineContext&` as its first
// parameter, and there is no context-free twin: work is charged to the
// budget, memo and counters of whoever asked for it. The caller decides the
// context's lifetime — one per request, per session, or per test. What stays
// context-free is listed in docs/engine.md (reference oracles, certificate
// checkers, the src/constraints primitives).
//
// Thread-safety model. A context is safely shareable across the workers of
// an attached TaskPool: Intern, CacheLookup/CacheStore, every stats counter,
// and the cancellation flag are internally synchronized (sharded LRU with
// per-shard mutexes, a mutex-guarded interner, relaxed atomics). What stays
// single-threaded is *coordination*: one thread drives an engine call on a
// context at a time and fans work out beneath it via CtxParallelFor /
// ParallelOutcomes (src/engine/parallel.h); budget() limits must not be
// mutated while a parallel section is in flight. Deadline exhaustion and
// RequestCancel() propagate to all workers through ShouldStop().
#ifndef CQAC_ENGINE_CONTEXT_H_
#define CQAC_ENGINE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/task_pool.h"
#include "src/engine/budget.h"
#include "src/engine/cache.h"
#include "src/engine/stats.h"
#include "src/ir/canonical.h"
#include "src/ir/query.h"

namespace cqac {

/// Empty: the planner keeps no learned state, so a snapshot carries none.
/// It stays only because perfbench/replay.cc:305, frozen with the
/// benchmark, passes `ctx_.adaptive()` to ShardStore::WriteSnapshot; the
/// benchmark change of ROADMAP item 1 removes it with that parameter and
/// EngineContext::adaptive().
struct AdaptiveState {};

/// The result of interning a query: a dense id unique per canonical form
/// (collision-verified) plus the renaming-invariant fingerprint.
struct InternedQuery {
  uint64_t id = 0;
  uint64_t fingerprint = 0;
};

class EngineContext {
 public:
  EngineContext() : cache_(budget_.max_cache_bytes) {}
  explicit EngineContext(Budget budget)
      : budget_(budget), cache_(budget.max_cache_bytes) {}

  Budget& budget() { return budget_; }
  const Budget& budget() const { return budget_; }

  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

  /// Always empty (see AdaptiveState): kept only because perfbench, frozen
  /// with the benchmark, calls `store_->WriteSnapshot(ctx_.adaptive(),
  /// refs)` at perfbench/replay.cc:305.
  AdaptiveState adaptive() const { return {}; }

  /// Attaches a task pool (not owned; must outlive the context's use of
  /// it). Null or a 0-thread pool means every engine loop runs serially.
  void set_task_pool(TaskPool* pool) { pool_ = pool; }
  TaskPool* task_pool() const { return pool_; }

  /// Worker threads available for fan-out (0 = serial execution).
  size_t parallelism() const { return pool_ ? pool_->thread_count() : 0; }

  /// Cooperative cancellation, shared by all workers fanned out under this
  /// context. A parallel section raises it when one task hits a budget
  /// error so siblings stop burning work; the section clears it again
  /// before merging (see parallel.h). Long-running inner loops poll
  /// ShouldStop() alongside their deadline checks.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  void ClearCancel() { cancel_.store(false, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }
  /// True when work should wind down: deadline passed or cancel requested.
  bool ShouldStop() const {
    return cancel_requested() || budget_.DeadlineExceeded();
  }

  /// False when the budget allows no cache bytes: containment and
  /// implication then skip the interner and the memo (stats and the other
  /// budget limits still apply).
  bool caching_enabled() const { return budget_.max_cache_bytes > 0; }

  /// Canonicalizes and interns `q`. Queries equal up to variable renaming
  /// and subgoal order receive the same id; 64-bit fingerprint collisions
  /// are detected by exact canonical-text comparison and resolved to
  /// distinct ids. Callers should pass preprocessed queries (the
  /// containment layer does) so comparison-implied equalities do not split
  /// canonical classes. Thread-safe.
  InternedQuery Intern(const Query& q);

  /// Decision memo. Keys are exact strings; see MakeContainmentKey /
  /// implication serialization for the two key families in use.
  /// Thread-safe.
  std::optional<bool> CacheLookup(const std::string& key);
  void CacheStore(const std::string& key, bool value);

  /// Key for a directed containment decision `q2 contained-in q1` under the
  /// given fast-path setting, from interned pair ids.
  static std::string MakeContainmentKey(const InternedQuery& contained,
                                        const InternedQuery& container,
                                        bool fast_path);

  size_t cache_bytes() const;
  size_t cache_entries() const { return cache_.entries(); }

  /// Stats plus cache occupancy and parallelism, for the shell's `stats`
  /// command.
  std::string ToString() const;

 private:
  /// Flushes interner + cache when their combined footprint exceeds the
  /// byte budget (the interner itself is append-only between flushes).
  /// Caller holds intern_mu_.
  void EnforceByteBudget();

  Budget budget_;
  EngineStats stats_;

  TaskPool* pool_ = nullptr;  // not owned
  std::atomic<bool> cancel_{false};

  // Interner: fingerprint -> candidate interned ids; texts_ owns the
  // canonical strings (id = index). Guarded by intern_mu_.
  mutable std::mutex intern_mu_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> by_fingerprint_;
  std::vector<std::string> texts_;
  size_t intern_bytes_ = 0;

  DecisionCache cache_;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_CONTEXT_H_
