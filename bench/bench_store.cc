// E17: the durable store (src/store) — log append cost per fsync policy,
// snapshot write/load cost, and the headline recovery claim: loading the
// newest snapshot and replaying the O(delta) log tail must beat recovering
// the same state by rematerializing from the full logged history by at
// least an order of magnitude on the 8000-tuple IVM workload (the same
// workload bench_ivm uses for the incremental-vs-rebuild claim). The
// `speedup` counter records the measured ratio directly.
//
// The comparison is apples-to-apples: both sides go through the one public
// recovery entry point, RecoverShard. One shard directory holds a snapshot
// plus a 16-record tail; its twin holds the identical history as raw log
// records only, so recovering it replays everything from the empty state —
// exactly what a durability layer without snapshots would have to do.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_threads.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/ivm/maintain.h"
#include "src/store/log.h"
#include "src/store/snapshot.h"
#include "src/store/store.h"

namespace cqac {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, removed with its contents on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "cqac_bench_store_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) std::abort();
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The bench_ivm workload: two join views plus a comparison-guarded one over
// an 8000-tuples-per-relation random base.
const char* kViewRules[] = {
    "v_join(X, Y) :- r(X, Z), s(Z, Y).",
    "v_band(X, Y) :- r(X, Y), X <= Y.",
    "v_tri(X, Y) :- r(X, Z), s(Z, W), t(W, Y).",
};

const std::map<std::string, int> kSchema = {{"r", 2}, {"s", 2}, {"t", 2}};

Database MakeBase(size_t tuples) {
  Rng rng(20260806);
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = tuples;
  spec.value_min = 0;
  spec.value_max = static_cast<int64_t>(tuples);
  return gen::RandomDatabase(rng, kSchema, spec);
}

ivm::MaterializedViewSet MakeSession(EngineContext& ctx,
                                     const Database& base) {
  ivm::MaterializedViewSet session;
  for (const char* rule : kViewRules)
    if (!session.AddView(ctx, MustParseQuery(rule)).ok()) std::abort();
  if (!session.ApplyInsert(ctx, base).ok()) std::abort();
  return session;
}

std::vector<std::string> ViewTexts() {
  return std::vector<std::string>(std::begin(kViewRules),
                                  std::end(kViewRules));
}

// ---- log append throughput per fsync policy --------------------------------

void BM_LogAppend(benchmark::State& state) {
  store::FsyncPolicy policy =
      static_cast<store::FsyncPolicy>(state.range(0));
  TempDir dir;
  store::LogWriter::Options options;
  options.fsync = policy;
  auto w = store::LogWriter::Open(dir.path() + "/wal", 0, 1, options,
                                  nullptr);
  if (!w.ok()) std::abort();
  uint64_t lsn = 0;
  uint64_t bytes = 0;
  store::LogRecord r;
  r.type = store::RecordType::kFact;
  r.session = "bench";
  r.text = "r(12345, 67890).";
  for (auto _ : state) {
    r.lsn = ++lsn;
    auto appended = w.value()->Append(r);
    if (!appended.ok()) std::abort();
    bytes += appended.value();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.counters["fsyncs"] = static_cast<double>(w.value()->fsyncs());
  state.counters["records"] = static_cast<double>(lsn);
  state.SetLabel(store::FsyncPolicyName(policy));
}
BENCHMARK(BM_LogAppend)
    ->Arg(static_cast<int>(store::FsyncPolicy::kAlways))
    ->Arg(static_cast<int>(store::FsyncPolicy::kInterval))
    ->Arg(static_cast<int>(store::FsyncPolicy::kNever))
    ->Unit(benchmark::kMicrosecond);

// ---- snapshot write / load -------------------------------------------------

void BM_SnapshotWriteAndLoad(benchmark::State& state) {
  const size_t kTuples = static_cast<size_t>(state.range(0));
  TempDir dir;
  EngineContext ctx;
  bench::AttachPool(ctx);
  Database base = MakeBase(kTuples);
  ivm::MaterializedViewSet session = MakeSession(ctx, base);
  std::string name = "bench";
  std::vector<std::string> texts = ViewTexts();
  store::SessionSnapshotRef ref{&name, &texts, &session};
  std::string path = dir.path() + "/snap.cqs";

  double write_total = 0, load_total = 0;
  int64_t rounds = 0;
  for (auto _ : state) {
    write_total += bench::TimeOnceMs([&] {
      if (!store::WriteSnapshotFile(path, 1, {ref}).ok())
        std::abort();
    });
    load_total += bench::TimeOnceMs([&] {
      auto snap = store::ReadSnapshotFile(path);
      if (!snap.ok()) std::abort();
      benchmark::DoNotOptimize(snap.value().sessions.size());
    });
    ++rounds;
  }
  state.counters["write_ms"] = write_total / static_cast<double>(rounds);
  state.counters["load_ms"] = load_total / static_cast<double>(rounds);
  state.counters["snapshot_bytes"] =
      static_cast<double>(fs::file_size(path));
  state.counters["base_tuples"] =
      static_cast<double>(session.base().TotalTuples());
  state.counters["view_tuples"] =
      static_cast<double>(session.views().TotalTuples());
}
BENCHMARK(BM_SnapshotWriteAndLoad)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

// ---- the headline: snapshot + O(delta) tail vs rematerialization ----------

/// Builds two shard directories holding the SAME logical history — the
/// base arriving as a long stream of small commits (the shape a live
/// server's WAL actually has: one record per acknowledged request), then
/// `tail` single-fact commits:
///   shard-0: snapshot at the materialization point + `tail` log records
///   shard-1: raw log records only (views + every base commit + tail)
/// Recovering shard-1 is what a durability layer without snapshots must
/// do: replay the entire history through the maintainers, paying view
/// maintenance once per commit. Recovering shard-0 pays one O(state)
/// snapshot load plus O(delta) tail replay, independent of history length.
void BuildRecoveryFixtures(const std::string& data_dir, size_t tuples,
                           size_t tail) {
  EngineContext ctx;
  Database base = MakeBase(tuples);

  // The base as a stream of ~kBatch-fact commits.
  constexpr size_t kBatch = 240;
  std::vector<std::string> commits;
  {
    std::vector<std::string> pending;
    for (const auto& [pred, rel] : base.relations())
      for (const Tuple& t : rel)
        pending.push_back(StrCat(pred, TupleToString(t), "."));
    for (size_t i = 0; i < pending.size(); i += kBatch) {
      size_t end = std::min(i + kBatch, pending.size());
      std::vector<std::string> chunk(
          pending.begin() + static_cast<ptrdiff_t>(i),
          pending.begin() + static_cast<ptrdiff_t>(end));
      commits.push_back(Join(chunk, " "));
    }
  }

  store::StoreOptions options;
  options.fsync = store::FsyncPolicy::kNever;
  auto with_snapshot = store::ShardStore::Open(data_dir, 0, 2, options,
                                               nullptr);
  auto logs_only = store::ShardStore::Open(data_dir, 1, 2, options, nullptr);
  if (!with_snapshot.ok() || !logs_only.ok()) std::abort();

  for (const char* rule : kViewRules) {
    if (!with_snapshot.value()
             ->Append(store::RecordType::kView, "bench", rule)
             .ok())
      std::abort();
    if (!logs_only.value()
             ->Append(store::RecordType::kView, "bench", rule)
             .ok())
      std::abort();
  }
  for (const std::string& commit : commits) {
    if (!with_snapshot.value()
             ->Append(store::RecordType::kFact, "bench", commit)
             .ok())
      std::abort();
    if (!logs_only.value()
             ->Append(store::RecordType::kFact, "bench", commit)
             .ok())
      std::abort();
  }

  // Snapshot shard 0 at the materialization point; its WAL compacts down
  // to a barrier, so recovery = load snapshot + replay `tail` records.
  ivm::MaterializedViewSet session = MakeSession(ctx, base);
  std::string name = "bench";
  std::vector<std::string> texts = ViewTexts();
  store::SessionSnapshotRef ref{&name, &texts, &session};
  if (!with_snapshot.value()->WriteSnapshot({}, {ref}).ok())
    std::abort();

  for (size_t i = 0; i < tail; ++i) {
    std::string fact = StrCat("r(", i + 1, ", ", (i * 7) % tuples, ").");
    if (!with_snapshot.value()
             ->Append(store::RecordType::kFact, "bench", fact)
             .ok())
      std::abort();
    if (!logs_only.value()
             ->Append(store::RecordType::kFact, "bench", fact)
             .ok())
      std::abort();
  }
}

void BM_RecoverSnapshotTailVsRematerialize(benchmark::State& state) {
  const size_t kTuples = static_cast<size_t>(state.range(0));
  const size_t kTail = 16;
  TempDir dir;
  BuildRecoveryFixtures(dir.path(), kTuples, kTail);
  std::string snapshot_shard = store::ShardDirPath(dir.path(), 0);
  std::string logs_shard = store::ShardDirPath(dir.path(), 1);

  double recover_total = 0, remat_total = 0;
  int64_t rounds = 0;
  uint64_t tail_replayed = 0, full_replayed = 0;
  for (auto _ : state) {
    recover_total += bench::TimeOnceMs([&] {
      EngineContext ctx;
      bench::AttachPool(ctx);
      auto rec = store::RecoverShard(ctx, snapshot_shard);
      if (!rec.ok() || rec.value().sessions.size() != 1) std::abort();
      tail_replayed = rec.value().replayed_records;
      benchmark::DoNotOptimize(rec.value().sessions[0]->store.views());
    });
    remat_total += bench::TimeOnceMs([&] {
      EngineContext ctx;
      bench::AttachPool(ctx);
      auto rec = store::RecoverShard(ctx, logs_shard);
      if (!rec.ok() || rec.value().sessions.size() != 1) std::abort();
      full_replayed = rec.value().replayed_records;
      benchmark::DoNotOptimize(rec.value().sessions[0]->store.views());
    });
    ++rounds;
  }
  state.counters["recover_ms"] = recover_total / static_cast<double>(rounds);
  state.counters["rematerialize_ms"] =
      remat_total / static_cast<double>(rounds);
  state.counters["speedup"] =
      recover_total > 0 ? remat_total / recover_total : 0;
  state.counters["tail_records"] = static_cast<double>(tail_replayed);
  state.counters["full_records"] = static_cast<double>(full_replayed);
  state.counters["threads"] = static_cast<double>(bench::ThreadsFlag());
}
BENCHMARK(BM_RecoverSnapshotTailVsRematerialize)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN_WITH_JSON("store")
