// Shared --threads plumbing for the benchmark binaries.
//
// google-benchmark rejects flags it does not know, so every bench main must
// strip `--threads N` / `--threads=N` from argv before benchmark::Initialize.
// Use CQAC_BENCHMARK_MAIN() instead of BENCHMARK_MAIN(); benchmarks that
// exercise EngineContext-aware code paths attach the global pool with
// AttachPool and report the fan-out counters with RecordParallelCounters so
// the JSON output records the thread count, parallel wall time, and the
// measured serial-vs-parallel speedup of the workload.
#ifndef CQAC_BENCH_BENCH_THREADS_H_
#define CQAC_BENCH_BENCH_THREADS_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"

namespace cqac {
namespace bench {

inline size_t& ThreadsFlag() {
  static size_t threads = 0;
  return threads;
}

// Removes --threads from argv (benchmark::Initialize aborts on unknown
// flags) and records the requested worker count.
inline void StripThreadsFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "%s: --threads requires a count\n", argv[0]);
        std::exit(1);
      }
      value = argv[++i];
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    }
    if (value == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    if (!ParseSize(value, &ThreadsFlag()) ||
        ThreadsFlag() > TaskPool::kMaxThreads) {
      std::fprintf(stderr, "%s: invalid thread count '%s' (at most %zu)\n",
                   argv[0], value, TaskPool::kMaxThreads);
      std::exit(1);
    }
  }
  *argc = out;
}

// One pool for the whole binary; built on first use, after flag parsing.
inline TaskPool& GlobalPool() {
  static TaskPool pool(ThreadsFlag());
  return pool;
}

inline void AttachPool(EngineContext& ctx) {
  if (ThreadsFlag() > 0) ctx.set_task_pool(&GlobalPool());
}

template <typename Fn>
double TimeOnceMs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

inline void RecordParallelCounters(benchmark::State& state,
                                   const EngineContext& ctx) {
  state.counters["threads"] = static_cast<double>(ThreadsFlag());
  state.counters["parallel_sections"] =
      static_cast<double>(uint64_t{ctx.stats().parallel_sections});
  state.counters["parallel_tasks"] =
      static_cast<double>(uint64_t{ctx.stats().parallel_tasks});
  state.counters["parallel_wall_ms"] =
      static_cast<double>(uint64_t{ctx.stats().parallel_wall_ns}) / 1e6;
  state.counters["eval_batches"] =
      static_cast<double>(uint64_t{ctx.stats().eval_batches});
  state.counters["eval_smallint_fallbacks"] =
      static_cast<double>(uint64_t{ctx.stats().eval_smallint_fallbacks});
  state.counters["plan_decisions"] =
      static_cast<double>(uint64_t{ctx.stats().plan_decisions});
  state.counters["plan_join_reorders"] =
      static_cast<double>(uint64_t{ctx.stats().plan_join_reorders});
}

// Runs `workload(ctx)` once against a fresh serial context and once against
// a fresh pool-attached context, recording both wall times, their ratio,
// and the parallel run's fan-out counters. Fresh contexts keep the
// comparison honest: neither run sees a warm decision cache. With
// --threads 0 both runs are serial and speedup ~= 1.
template <typename Fn>
void RecordSpeedup(benchmark::State& state, Fn&& workload) {
  double serial_ms = TimeOnceMs([&] {
    EngineContext ctx;
    workload(ctx);
  });
  EngineContext pctx;
  AttachPool(pctx);
  double parallel_ms = TimeOnceMs([&] { workload(pctx); });
  state.counters["serial_ms"] = serial_ms;
  state.counters["parallel_ms"] = parallel_ms;
  state.counters["speedup"] = parallel_ms > 0 ? serial_ms / parallel_ms : 0;
  RecordParallelCounters(state, pctx);
}

// Injects `--benchmark_out=BENCH_<tag>.json --benchmark_out_format=json`
// unless the caller already passed --benchmark_out, so binaries built with
// CQAC_BENCHMARK_MAIN_WITH_JSON always leave a machine-readable result file
// (the CI bench-smoke step uploads them as artifacts). Counters land in the
// JSON verbatim, so speedup/maintained/etc. are diffable across runs.
// Returns an argv whose storage outlives benchmark::Initialize (statics).
inline char** InjectJsonOutFlag(const char* tag, int* argc, char** argv) {
  static std::vector<std::string> owned;
  static std::vector<char*> args;
  bool has_out = false;
  for (int i = 1; i < *argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  for (int i = 0; i < *argc; ++i) args.push_back(argv[i]);
  if (!has_out) {
    owned.reserve(2);
    owned.push_back(std::string("--benchmark_out=BENCH_") + tag + ".json");
    owned.push_back("--benchmark_out_format=json");
    for (std::string& s : owned) args.push_back(s.data());
  }
  args.push_back(nullptr);
  *argc = static_cast<int>(args.size()) - 1;
  return args.data();
}

}  // namespace bench
}  // namespace cqac

#define CQAC_BENCHMARK_MAIN()                                       \
  int main(int argc, char** argv) {                                 \
    cqac::bench::StripThreadsFlag(&argc, argv);                     \
    benchmark::Initialize(&argc, argv);                             \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                            \
    benchmark::Shutdown();                                          \
    return 0;                                                       \
  }

// Like CQAC_BENCHMARK_MAIN, but the run also writes BENCH_<tag>.json to the
// working directory (google-benchmark's JSON reporter; console output is
// unchanged).
#define CQAC_BENCHMARK_MAIN_WITH_JSON(tag)                          \
  int main(int argc, char** argv) {                                 \
    cqac::bench::StripThreadsFlag(&argc, argv);                     \
    char** args = cqac::bench::InjectJsonOutFlag(tag, &argc, argv); \
    benchmark::Initialize(&argc, args);                             \
    if (benchmark::ReportUnrecognizedArguments(argc, args)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                            \
    benchmark::Shutdown();                                          \
    return 0;                                                       \
  }

#endif  // CQAC_BENCH_BENCH_THREADS_H_
