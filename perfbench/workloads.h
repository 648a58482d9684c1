// The benchmark's three request streams. Each is a pure function of the
// workload name and the seed: the server only ever sees the request lines.
//
//   rewrite_mix  mediator traffic: 16 sessions with ~6 generated views each,
//                a Zipf-skewed query pool, rewrite/answers/contain/classify
//                plus a trickle of single-tuple facts.
//   ivm_stream   durable ingest: fact batches and retracts beside standing
//                answers and point evals on 12k-tuple relations whose size
//                holds steady.
//   join_scan    analytical reads: 3-4-atom acyclic joins with selective
//                comparisons over ~50k-tuple relations with skewed keys.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kShards = 2;

enum class Op { kView, kFact, kRetract, kRewrite, kAnswers, kEval, kContain,
                kClassify };

const char* OpName(Op op);
inline bool IsRead(Op op) {
  return op == Op::kRewrite || op == Op::kAnswers || op == Op::kEval ||
         op == Op::kContain || op == Op::kClassify;
}
inline bool IsWrite(Op op) { return op == Op::kFact || op == Op::kRetract; }

struct Request {
  Op op = Op::kView;
  std::string session;
  std::string line;     // one protocol line, without the '\n'
  bool repeat = false;  // its query text was already sent in this session
};

/// Workload-specific generator state for one shard's timed stream.
class ShardGenerator {
 public:
  virtual ~ShardGenerator() = default;
  virtual Request Next() = 0;
};

struct ShardStream {
  std::vector<std::string> sessions;
  std::vector<Request> setup;   // views and base facts
  std::vector<Request> warmup;  // the untimed prefix of the timed mix
  std::unique_ptr<ShardGenerator> timed;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<ShardStream> shards;  // kShards entries
  /// `answers` request lines whose results must survive a crash unchanged.
  std::vector<std::string> standing;
  /// cqac_serve --snapshot-every: records logged between snapshots.
  uint64_t snapshot_every = 0;
  /// cqac_serve --fsync policy.
  std::string fsync = "interval";
  /// Log records past the last snapshot at the crash: before the SIGKILL
  /// perfbench continues the stream, untimed, until each shard's log tail
  /// has exactly this length, so every recovery replays the same amount.
  /// 0 leaves the tail as the timed phase left it.
  uint64_t recovery_tail = 0;
  /// SIGKILL/restart cycles; recover_s is their median.
  int recoveries = 5;
  /// Relation sizes per session as loaded by setup (property report).
  std::string base_sizes;
  /// Sessions whose `answers` may legitimately answer not_found.
  bool not_found_expected = false;
};

/// Builds `name` at `seed`; returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
