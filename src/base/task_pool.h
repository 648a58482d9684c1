// TaskPool: a small work-stealing thread pool for the engine's
// embarrassingly-parallel loops (MCD combination search, candidate
// verification, per-disjunct containment, join evaluation).
//
// The only scheduling primitive is ParallelFor(n, body): the index range
// [0, n) is split into contiguous chunks, the chunks are dealt round-robin
// to per-worker deques, and idle workers steal chunks from the back of
// other workers' deques. The calling thread participates in execution, so
// a pool is never required to make progress and `ParallelFor` cannot
// deadlock even when every worker is busy.
//
// Thread count 0 constructs a pool with no worker threads: ParallelFor then
// degenerates to a plain serial loop in index order, bit-identical to not
// having a pool at all. Nested ParallelFor calls (from inside a body) also
// run inline serially — parallelism is one level deep by design, which
// keeps the engine's deterministic-merge drivers easy to reason about.
//
// The pool itself is oblivious to budgets and cancellation: bodies observe
// EngineContext::ShouldStop() themselves (see src/engine/parallel.h).
#ifndef CQAC_BASE_TASK_POOL_H_
#define CQAC_BASE_TASK_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/function_ref.h"

namespace cqac {

class TaskPool {
 public:
  /// The most worker threads a tool's --threads flag may ask for; the
  /// command-line tools refuse a larger count before they build a pool.
  static constexpr size_t kMaxThreads = 256;

  /// Spawns `threads` worker threads (0 = serial pool, no threads).
  explicit TaskPool(size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Number of worker threads (0 for a serial pool).
  size_t thread_count() const { return workers_.size(); }

  /// Executing `body(i)` for every i in [0, n), possibly concurrently;
  /// returns when all n calls have completed. The caller's thread executes
  /// chunks too. With no workers, or n < 2, or when called from inside a
  /// pool task, runs serially inline in ascending index order.
  void ParallelFor(size_t n, FunctionRef<void(size_t)> body);

  /// The machine's hardware concurrency (>= 1).
  static size_t HardwareConcurrency();

  /// True while the calling thread is executing a pool chunk. The engine's
  /// deterministic-merge helpers use it to keep parallelism one level deep.
  static bool InPoolTask();

 private:
  // One contiguous chunk of a ParallelFor. `job` identifies the owning call
  // so stale entries (impossible by construction, but cheap to assert) are
  // never mixed across calls.
  struct Job;
  struct Chunk {
    Job* job;
    size_t lo, hi;
  };

  struct Queue {
    std::mutex mu;
    std::deque<Chunk> chunks;
  };

  void WorkerLoop(size_t self);
  // Pops a chunk: own queue front first, then steal from the back of the
  // other queues. Returns false when no work is available anywhere.
  bool TryPop(size_t self, Chunk* out);
  void RunChunk(const Chunk& c);

  std::vector<std::unique_ptr<Queue>> queues_;  // one per worker + caller slot
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  size_t work_epoch_ = 0;  // bumped whenever new chunks are published
};

}  // namespace cqac

#endif  // CQAC_BASE_TASK_POOL_H_
