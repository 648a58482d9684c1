// In-process replays of one shard's exact request sequence (setup, warm-up
// and the timed prefix the live run completed), with no sockets.
//
//   OracleShard  runs every line through the real op layer,
//                serve::Service::ExecuteParsed, untraced. Its responses are
//                the correctness oracle, its per-request times give
//                serve.exec_*, and its counters must equal the server's.
//   TracedShard  runs the same sequence of public calls each op handler
//                makes (src/serve/service.cc), with a span around every
//                call. Run with spans off and on, it gives the per-layer
//                times and the tracing overhead; its responses and counters
//                must equal the oracle's byte for byte.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/context.h"
#include "src/serve/service.h"
#include "src/store/store.h"
#include "workloads.h"

namespace perfbench {

// kDrain: untimed requests after the timed phase that bring the log tail
// to Workload::recovery_tail before the crash.
enum class Phase { kSetup, kWarmup, kTimed, kDrain };

struct Step {
  const Request* request = nullptr;
  Phase phase = Phase::kSetup;
};

/// Opens the per-shard store exactly as cqac_serve --data-dir does, on a
/// directory store::InitDataDir has prepared; an empty `data_dir` keeps the
/// shard in memory. Empty string on success.
std::string OpenShardStore(const std::string& data_dir, size_t shard,
                           const Workload& w, cqac::EngineContext* ctx,
                           std::unique_ptr<cqac::store::ShardStore>* out);

class OracleShard {
 public:
  OracleShard(size_t shard, const std::string& data_dir, const Workload& w);
  /// Empty on success.
  std::string Open();
  /// Executes every step; fills responses and per-request exec times (ms).
  void Run(const std::vector<Step>& steps);

  std::vector<std::string> responses;
  std::vector<double> exec_ms;
  /// Counters just before the first timed request and just after the last.
  cqac::StatsSnapshot timed_start, timed_end;

  cqac::EngineContext& context() { return ctx_; }
  cqac::serve::Service& service() { return service_; }

 private:
  size_t shard_;
  std::string data_dir_;
  const Workload& workload_;
  cqac::EngineContext ctx_;
  cqac::serve::Service service_;
  std::unique_ptr<cqac::store::ShardStore> store_;
};

/// Span names, one per public call the handlers make.
enum class SpanName : uint8_t {
  kRequest,        // serve: the whole request (parse + ExecuteParsed)
  kParse,          // serve: ParseJson + ParseRequestEnvelope
  kRender,         // serve: response JSON
  kParseQuery,     // ir: ParseQuery / ParseQueryWithInfo
  kValidate,       // ir: Query::Validate
  kClassify,       // analysis: ClassifyQuery / Query::Classify dispatch
  kPlanRewrite,    // rewriting: PlanForQuery
  kRewrite,        // rewriting: RewriteLsiQuery / BucketRewrite
  kExpand,         // containment: ExpandRewriting
  kContain,        // containment: IsContained
  kEvaluate,       // eval: EvaluateQuery
  kJoinOrder,      // plan: PlanJoinOrder
  kEvaluateUnion,  // eval: EvaluateUnion
  kParseFacts,     // eval: Database::FromFacts
  kApply,          // ivm: ApplyInsert / ApplyRetract
  kAddView,        // ivm: MaterializedViewSet::AddView
  kAppend,         // store: ShardStore::Append
  kSnapshot,       // store: ShardStore::WriteSnapshot
  kCount
};
const char* SpanNameString(SpanName n);
inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

struct SpanRecord {
  uint32_t request = 0;
  int32_t parent = -1;
  SpanName name = SpanName::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class TracedShard {
 public:
  TracedShard(size_t shard, const std::string& data_dir, const Workload& w,
              bool spans);
  ~TracedShard();
  std::string Open();
  void Run(const std::vector<Step>& steps);

  std::vector<std::string> responses;
  double wall_s = 0;

  // Filled only with spans on.
  std::vector<SpanRecord> spans;
  /// Engine-counter delta of each request (parallel to the steps).
  std::vector<cqac::StatsSnapshot> request_delta;
  /// Counter deltas summed per span name, over the whole replay.
  std::array<cqac::StatsSnapshot, kSpanNames> name_delta{};
  /// Union disjuncts kept by the rewriting calls of each request.
  std::vector<uint64_t> rewrite_kept;
  /// Result rows of the eval / answers calls of each request.
  std::vector<uint64_t> rows_out;
  /// Size of each snapshot file written.
  std::vector<uint64_t> snapshot_bytes;

  cqac::EngineContext& context();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Counters that depend only on the request sequence, never on timing.
/// The server's `stats` counters, the oracle and both traced passes must
/// agree on every one. Returns a description of the first mismatch, or
/// empty.
std::string CompareDeterministicCounters(const cqac::StatsSnapshot& a,
                                         const cqac::StatsSnapshot& b);

/// The deterministic counters as name=value pairs (for the report).
std::vector<std::pair<std::string, uint64_t>> DeterministicCounters(
    const cqac::StatsSnapshot& s);

/// The result fields the oracle checks for `op`, rendered canonically from
/// a response line (`ok`, the error code, and the op's result fields).
std::string ResultFields(Op op, const std::string& response);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
