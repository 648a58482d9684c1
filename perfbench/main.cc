// perfbench: the closed-loop serve benchmark of cqac_serve.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR
//
// One run: set the server up five times (setup_s is their median), drive
// the last through a timed closed loop with one connection per shard, read
// its counters, continue each shard's stream untimed until its log tail
// has a fixed length, SIGKILL the server and restart it on the same data
// directory several times (recover_s is their median), then replay the
// exact per-shard request sequences in process: the oracle checks every
// response and counter, and with --trace 1 a span-traced replay gives the
// per-layer metrics. The last stdout line is the JSON result; everything
// before it is the report.
#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "live.h"
#include "replay.h"
#include "src/base/strings.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/serve/json_value.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqac::StrCat;

constexpr int kSetups = 5;
// The stream hash and the repeatable counts cover setup, warm-up and this
// many timed requests per shard: a prefix every run completes.
constexpr size_t kPrefixTimedRequests = 500;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2) return v[mid];
  return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return (h ^ '\n') * 1099511628211ull;
}

bool HasErrorCode(const std::string& response, const char* code) {
  return response.find(StrCat("\"code\":\"", code, "\"")) != std::string::npos;
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

// ---- live run ----------------------------------------------------------------

// Mirrors a shard's snapshot cadence (ShardStore): a view, fact or retract
// appends one log record, and so does the first request that creates a
// session (every op but classify does); a snapshot resets the count once
// it reaches --snapshot-every.
class LogCadence {
 public:
  explicit LogCadence(uint64_t every) : every_(every) {}
  void Add(const Request& r) {
    if (IsWrite(r.op) || r.op == Op::kView) ++since_;
    if (r.op != Op::kClassify && sessions_.insert(r.session).second) ++since_;
    if (every_ > 0 && since_ >= every_) since_ = 0;
  }
  uint64_t since_snapshot() const { return since_; }

 private:
  uint64_t every_;
  uint64_t since_ = 0;
  std::set<std::string> sessions_;
};

struct ShardLive {
  std::vector<Request> timed;  // what the timed phase sent, in order
  std::vector<Request> spare;  // drawn for it but not sent in it
  std::vector<Request> drain;  // untimed, after it (Workload::recovery_tail)
  std::vector<std::string> responses;
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // when each response arrived, from the start
  std::vector<bool> transport_ok;
  std::vector<double> setup_write_ms;  // fact ops of every setup
  double warmup_s = 0;        // the last set-up's warm-up
  size_t drawn_ahead = 0;     // timed requests drawn before the clock started
  double inline_draw_s = 0;   // drawing requests inside the timed phase
  uint64_t log_tail = 0;      // log records past the last snapshot at the kill
};

struct LiveRun {
  std::vector<ShardLive> shards = std::vector<ShardLive>(kShards);
  std::vector<double> setup_s;
  double timed_wall_s = 0;
  double cpu_s = 0;
  // Window boundaries of the timed phase, in seconds from its start, with
  // the server's CPU seconds and the machine's CPU times read at each.
  std::vector<double> window_s, window_cpu_s;
  std::vector<CpuTimes> window_host;
  double rss_mib = 0;
  std::vector<std::map<std::string, uint64_t>> server_counters;
  uint64_t data_dir_bytes = 0;
  std::vector<double> recover_s;
  bool recovery_ok = true;
  std::string recovery_detail;
  double ping_b2b_ms = 0;
  double ping_idle_ms = 0;
  std::string error;
};

std::vector<std::string> ServerArgs(const Workload& w,
                                    const std::string& data_dir) {
  return {"--port", "0", "--shards", StrCat(kShards), "--threads", "0",
          "--data-dir", data_dir, "--snapshot-every",
          StrCat(w.snapshot_every), "--fsync", w.fsync};
}

// Runs `requests` in a closed loop; every response must be ok (or the
// workload's expected not_found).
std::string RunPrefix(Connection& conn, const std::vector<Request>& requests,
                      bool not_found_ok, std::vector<double>* write_ms) {
  std::string response;
  for (const Request& r : requests) {
    const auto t0 = Clock::now();
    if (!conn.Call(r.line, &response)) return "transport error in setup";
    double ms = SecondsSince(t0) * 1e3;
    if (!IsOk(response) && !(not_found_ok && HasErrorCode(response, "not_found")))
      return StrCat("setup request failed: ", r.line.substr(0, 200), " -> ",
                    response.substr(0, 300));
    if (r.op == Op::kFact) write_ms->push_back(ms);
  }
  return "";
}

template <typename Fn>
void ForEachShard(Fn&& fn) {
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kShards; ++s) threads.emplace_back(fn, s);
  for (std::thread& t : threads) t.join();
}

// Starts a server on a fresh data directory and runs setup and warm-up.
std::string SetUp(const Args& args, Workload& w, ServerProcess& server,
                  std::vector<Connection>& conns, LiveRun& run) {
  const std::string data_dir = args.work_dir + "/data";
  RemoveTree(data_dir);
  const auto t0 = Clock::now();
  std::string err = server.Start(args.serve_bin, ServerArgs(w, data_dir),
                                 args.work_dir + "/server.log");
  if (!err.empty()) return err;
  for (Connection& c : conns)
    if (!c.Connect(server.port())) return "connect failed";
  std::vector<std::string> errors(kShards);
  ForEachShard([&](size_t s) {
    ShardStream& stream = w.shards[s];
    std::vector<double>* writes = &run.shards[s].setup_write_ms;
    errors[s] = RunPrefix(conns[s], stream.setup, false, writes);
    const auto warmup_start = Clock::now();
    if (errors[s].empty())
      errors[s] = RunPrefix(conns[s], stream.warmup, w.not_found_expected, writes);
    run.shards[s].warmup_s = SecondsSince(warmup_start);
  });
  run.setup_s.push_back(SecondsSince(t0));
  for (const std::string& e : errors)
    if (!e.empty()) return e;
  return "";
}

using Counters = std::map<std::string, uint64_t>;

// Every shard's engine counters, from the `stats` op.
bool ReadShardCounters(Connection& conn, std::vector<Counters>* out) {
  std::string response;
  if (!conn.Call("{\"op\":\"stats\"}", &response)) return false;
  auto stats = cqac::serve::ParseJson(response);
  const cqac::serve::JsonValue* shards =
      stats.ok() ? stats.value().Find("shard_stats") : nullptr;
  if (shards == nullptr || shards->array_items().size() != kShards) return false;
  out->clear();
  for (const auto& shard : shards->array_items()) {
    const cqac::serve::JsonValue* engine = shard.Find("engine");
    if (engine == nullptr) return false;
    Counters& c = out->emplace_back();
    for (const auto& [key, value] : engine->object_items())
      if (value.is_number()) c[key] = static_cast<uint64_t>(value.number_value());
  }
  return true;
}

// The standing queries' answers and every session's tuple count.
std::vector<std::string> DurableState(Connection& conn, const Workload& w,
                                      bool* transport_ok) {
  std::vector<std::string> out;
  std::string response;
  for (const std::string& line : w.standing) {
    *transport_ok &= conn.Call(line, &response);
    out.push_back(ResultFields(Op::kAnswers, response));
  }
  for (const ShardStream& shard : w.shards)
    for (const std::string& s : shard.sessions) {
      *transport_ok &= conn.Call(
          StrCat("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"", s,
                 "\"}"),
          &response);
      auto json = cqac::serve::ParseJson(response);
      const cqac::serve::JsonValue* facts =
          json.ok() ? json.value().Find("facts") : nullptr;
      out.push_back(StrCat(s, " total_tuples=",
                           facts ? Num(facts->number_value()) : "?"));
    }
  return out;
}

void RunLive(const Args& args, Workload& w, LiveRun& run) {
  ServerProcess server;
  std::vector<Connection> conns(kShards);
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      server.Kill();
      conns = std::vector<Connection>(kShards);
    }
    run.error = SetUp(args, w, server, conns, run);
    if (!run.error.empty()) return;
  }

  // The timed requests are drawn before the clock starts, three times as
  // many as the last warm-up's rate would complete, so that the closed loop
  // times the server and not the generator. A shard that outruns them draws
  // more inline; the report states that time.
  ForEachShard([&](size_t s) {
    ShardLive& out = run.shards[s];
    const double rate = w.shards[s].warmup.size() / std::max(out.warmup_s, 1e-3);
    out.drawn_ahead = static_cast<size_t>(3 * rate * args.seconds) + 100;
    while (out.timed.size() < out.drawn_ahead)
      out.timed.push_back(w.shards[s].timed->Next());
  });

  // Timed phase: one closed-loop client per shard, zero think time. The
  // main thread reads the server's CPU time at every whole second; the
  // windowed metrics come from those one-second windows.
  run.window_cpu_s.push_back(ProcessCpuSeconds(server.pid()));
  run.window_host.push_back(ReadCpuTimes());
  run.window_s.push_back(0);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(args.seconds);
  std::vector<std::thread> clients;
  for (size_t s = 0; s < kShards; ++s)
    clients.emplace_back([&, s] {
      ShardLive& out = run.shards[s];
      std::string response;
      size_t sent = 0;
      while (Clock::now() < deadline) {
        if (sent == out.timed.size()) {
          const auto draw_start = Clock::now();
          out.timed.push_back(w.shards[s].timed->Next());
          out.inline_draw_s += SecondsSince(draw_start);
        }
        const auto t0 = Clock::now();
        bool ok = conns[s].Call(out.timed[sent++].line, &response);
        out.latency_ms.push_back(SecondsSince(t0) * 1e3);
        out.done_s.push_back(SecondsSince(start));
        out.transport_ok.push_back(ok);
        out.responses.push_back(ok ? response : "");
        if (!ok) break;
      }
      out.spare.assign(std::make_move_iterator(out.timed.begin() + sent),
                       std::make_move_iterator(out.timed.end()));
      out.timed.resize(sent);
    });
  for (int k = 1; k <= args.seconds; ++k) {
    std::this_thread::sleep_until(start + std::chrono::seconds(k));
    run.window_s.push_back(SecondsSince(start));
    run.window_cpu_s.push_back(ProcessCpuSeconds(server.pid()));
    run.window_host.push_back(ReadCpuTimes());
  }
  for (std::thread& t : clients) t.join();
  run.timed_wall_s = SecondsSince(start);
  run.cpu_s = ProcessCpuSeconds(server.pid()) - run.window_cpu_s[0];
  run.rss_mib = ProcessPeakRssMiB(server.pid());

  Connection& ctl = conns[0];
  std::string response;
  if (!ReadShardCounters(ctl, &run.server_counters)) {
    run.error = "stats after the timed phase failed";
    return;
  }

  // Bring every shard's log tail to the workload's fixed length, sending
  // the requests drawn for the timed phase but not sent in it first.
  std::vector<std::string> errors(kShards);
  ForEachShard([&](size_t s) {
    ShardLive& live = run.shards[s];
    LogCadence log(w.snapshot_every);
    for (const auto* phase : {&w.shards[s].setup, &w.shards[s].warmup, &live.timed})
      for (const Request& r : *phase) log.Add(r);
    std::string response;
    size_t next_spare = 0;
    while (w.recovery_tail > 0 && log.since_snapshot() != w.recovery_tail &&
           live.drain.size() < 20000) {
      live.drain.push_back(next_spare < live.spare.size()
                               ? std::move(live.spare[next_spare++])
                               : w.shards[s].timed->Next());
      const Request& r = live.drain.back();
      log.Add(r);
      if (!conns[s].Call(r.line, &response) ||
          !(IsOk(response) ||
            (w.not_found_expected && HasErrorCode(response, "not_found")))) {
        errors[s] = StrCat("drain request failed: ", r.line.substr(0, 200));
        return;
      }
    }
    live.log_tail = log.since_snapshot();
    if (w.recovery_tail > 0 && live.log_tail != w.recovery_tail)
      errors[s] = StrCat("shard ", s, " log tail is ", live.log_tail,
                         " records after ", live.drain.size(),
                         " drain requests, not ", w.recovery_tail);
  });
  for (const std::string& e : errors)
    if (!e.empty()) {
      run.error = e;
      return;
    }

  bool transport_ok = true;
  const std::vector<std::string> before = DurableState(ctl, w, &transport_ok);

  // Wake-up diagnostics: back-to-back pings, then pings after a 10 ms gap.
  std::vector<double> b2b, idle;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    transport_ok &= ctl.Call("{\"op\":\"ping\"}", &response);
    b2b.push_back(SecondsSince(t0) * 1e3);
  }
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto t0 = Clock::now();
    transport_ok &= ctl.Call("{\"op\":\"ping\"}", &response);
    idle.push_back(SecondsSince(t0) * 1e3);
  }
  run.ping_b2b_ms = Median(b2b);
  run.ping_idle_ms = Median(idle);
  run.data_dir_bytes = DirectoryBytes(args.work_dir + "/data");

  // Crash recovery: SIGKILL, exec on the same data dir, and time until the
  // first standing query answers as it did before the kill. Each restart
  // must replay exactly the log tail the drain left.
  for (int i = 0; i < w.recoveries && transport_ok; ++i) {
    conns = std::vector<Connection>(kShards);
    const auto t0 = Clock::now();
    server.Kill();
    std::string err = server.Start(args.serve_bin,
                                   ServerArgs(w, args.work_dir + "/data"),
                                   args.work_dir + "/server.log");
    if (!err.empty() || !conns[0].Connect(server.port())) {
      run.error = "restart failed: " + err;
      return;
    }
    transport_ok &= conns[0].Call(w.standing[0], &response);
    std::string first = ResultFields(Op::kAnswers, response);
    run.recover_s.push_back(SecondsSince(t0));
    std::vector<std::string> after = DurableState(conns[0], w, &transport_ok);
    std::vector<Counters> counters;
    transport_ok &= ReadShardCounters(conns[0], &counters);
    for (size_t s = 0; s < counters.size() && run.recovery_ok; ++s) {
      const uint64_t replayed = counters[s]["store_recovery_replayed_records"];
      if (replayed != run.shards[s].log_tail) {
        run.recovery_ok = false;
        run.recovery_detail = StrCat("shard ", s, " replayed ", replayed,
                                     " log records, not ", run.shards[s].log_tail);
      }
    }
    if (run.recovery_ok && first != before[0]) {
      run.recovery_ok = false;
      run.recovery_detail = StrCat("pre-kill ", before[0].substr(0, 200),
                                   " vs first answer ", first.substr(0, 200));
    }
    for (size_t j = 0; j < before.size() && run.recovery_ok; ++j)
      if (j >= after.size() || after[j] != before[j]) {
        run.recovery_ok = false;
        run.recovery_detail = StrCat("pre-kill ", before[j].substr(0, 200),
                                     " vs recovered ",
                                     j < after.size() ? after[j].substr(0, 200)
                                                      : "<missing>");
      }
  }
  if (!transport_ok) run.error = "a request after the timed phase failed";
  server.Kill();
}

// ---- oracle replay -------------------------------------------------------------

std::vector<std::vector<Step>> BuildSteps(const Workload& w, const LiveRun& run) {
  std::vector<std::vector<Step>> steps(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (const Request& r : w.shards[s].setup) steps[s].push_back({&r, Phase::kSetup});
    for (const Request& r : w.shards[s].warmup) steps[s].push_back({&r, Phase::kWarmup});
    for (const Request& r : run.shards[s].timed) steps[s].push_back({&r, Phase::kTimed});
    for (const Request& r : run.shards[s].drain) steps[s].push_back({&r, Phase::kDrain});
  }
  return steps;
}

// Bytes of the live state as canonical text: base facts and view rules.
uint64_t CanonicalStateBytes(OracleShard& shard) {
  uint64_t bytes = 0;
  for (cqac::serve::Session* s : shard.service().sessions().Sessions()) {
    for (const std::string& v : s->view_texts) bytes += v.size() + 1;
    for (const auto& [pred, rel] : s->store.base().relations())
      for (const cqac::Tuple& t : rel) {
        std::string line = pred + "(";
        for (size_t i = 0; i < t.size(); ++i)
          line += StrCat(i ? ", " : "", t[i].ToString());
        bytes += line.size() + 3;  // ").\n"
      }
  }
  return bytes;
}

// The join of the first two body atoms (with the comparisons over their
// variables) divided by the query's output, for up to 20 eval queries.
std::vector<double> BlowupFactors(const std::vector<Step>& steps,
                                  OracleShard& shard) {
  std::vector<double> out;
  std::set<std::string> done;
  cqac::EngineContext ctx;
  for (const Step& step : steps) {
    if (out.size() >= 20) break;
    if (step.phase != Phase::kTimed || step.request->op != Op::kEval) continue;
    auto json = cqac::serve::ParseJson(step.request->line);
    if (!json.ok()) continue;
    std::string text = json.value().Find("query")->string_value();
    if (!done.insert(text).second) continue;
    cqac::serve::Session* session =
        shard.service().sessions().Find(step.request->session);
    auto q = cqac::ParseQuery(text);
    if (session == nullptr || !q.ok() || q.value().body().size() < 2) continue;
    const cqac::Database& base = session->store.base();
    const cqac::Query& query = q.value();
    auto full = cqac::EvaluateQuery(ctx, query, base);
    cqac::Query pair("pair");
    std::map<int, int> vars;
    for (size_t j = 0; j < 2; ++j)
      for (const cqac::Term& t : query.body()[j].args)
        if (t.is_var() && !vars.count(t.var()))
          vars[t.var()] = pair.AddVariable(query.VarName(t.var()));
    auto map_term = [&](const cqac::Term& t) {
      return t.is_var() ? cqac::Term::Var(vars.at(t.var())) : t;
    };
    for (const auto& [from, to] : vars)
      pair.head().args.push_back(cqac::Term::Var(to));
    for (size_t j = 0; j < 2; ++j) {
      cqac::Atom a = query.body()[j];
      for (cqac::Term& t : a.args) t = map_term(t);
      pair.AddBodyAtom(std::move(a));
    }
    for (const cqac::Comparison& c : query.comparisons())
      if ((!c.lhs.is_var() || vars.count(c.lhs.var())) &&
          (!c.rhs.is_var() || vars.count(c.rhs.var())))
        pair.AddComparison(
            cqac::Comparison(map_term(c.lhs), c.op, map_term(c.rhs)));
    auto prefix = cqac::EvaluateQuery(ctx, pair, base);
    if (full.ok() && prefix.ok())
      out.push_back(static_cast<double>(prefix.value().size()) /
                    std::max<size_t>(1, full.value().size()));
  }
  return out;
}

// What the oracle replay of one shard leaves behind once its engine state
// is freed.
struct OracleRun {
  std::vector<std::string> responses;
  std::vector<double> exec_ms;
  cqac::StatsSnapshot counters;  // after the whole sequence
  cqac::StatsSnapshot timed_start, timed_end;
  uint64_t state_bytes = 0;
  std::vector<double> blowups;
};

std::string ReplayOracle(const Args& args, const Workload& w,
                         const std::vector<std::vector<Step>>& steps,
                         std::vector<OracleRun>* out) {
  const std::string dir = args.work_dir + "/replay-oracle";
  RemoveTree(dir);
  cqac::Status init = cqac::store::InitDataDir(dir, kShards);
  if (!init.ok()) return init.ToString();
  out->assign(kShards, OracleRun{});
  std::vector<std::string> errors(kShards);
  ForEachShard([&](size_t s) {
    OracleShard shard(s, dir, w);
    errors[s] = shard.Open();
    if (!errors[s].empty()) return;
    shard.Run(steps[s]);
    OracleRun& r = (*out)[s];
    r.responses = std::move(shard.responses);
    r.exec_ms = std::move(shard.exec_ms);
    r.counters = shard.context().stats().Snapshot();
    r.timed_start = shard.timed_start;
    r.timed_end = shard.timed_end;
    r.state_bytes = CanonicalStateBytes(shard);
    r.blowups = BlowupFactors(steps[s], shard);
  });
  RemoveTree(dir);
  for (const std::string& e : errors)
    if (!e.empty()) return e;
  return "";
}

// ---- checks and end-to-end figures ----------------------------------------------

struct Summary {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report
  std::string fidelity;               // first counter mismatch, or empty
  std::vector<double> read_ms, write_ms;
  bool writes_from_setup = false;
  // Completed requests and latencies per window (LiveRun::window_s).
  std::vector<uint64_t> window_done;
  std::vector<std::vector<double>> window_read_ms, window_write_ms;
  std::vector<double> wire_ms;  // per read: wire latency - exec time
  std::map<Op, uint64_t> op_counts;
  uint64_t repeats = 0, query_ops = 0, read_bytes = 0;
};

void Fail(Summary& s, const std::string& what) {
  ++s.failed;
  if (s.failures.size() < 5) s.failures.push_back(what);
}

Summary Summarize(const Workload& w, const LiveRun& run,
                  const std::vector<OracleRun>& oracle) {
  Summary sum;
  const size_t windows = run.window_s.size() - 1;
  sum.window_done.resize(windows);
  sum.window_read_ms.resize(windows);
  sum.window_write_ms.resize(windows);
  for (size_t s = 0; s < kShards; ++s) {
    const ShardLive& live = run.shards[s];
    const size_t offset = w.shards[s].setup.size() + w.shards[s].warmup.size();
    for (size_t i = 0; i < live.timed.size(); ++i) {
      const Request& r = live.timed[i];
      ++sum.attempted;
      ++sum.op_counts[r.op];
      if (!IsWrite(r.op)) {
        ++sum.query_ops;
        sum.repeats += r.repeat;
      }
      if (!live.transport_ok[i]) {
        Fail(sum, StrCat("transport error on ", r.line.substr(0, 200)));
        continue;
      }
      const std::string& got = live.responses[i];
      // The window the response arrived in; none after the last boundary.
      const size_t k = std::upper_bound(run.window_s.begin(), run.window_s.end(),
                                        live.done_s[i]) -
                       run.window_s.begin() - 1;
      if (k < windows) ++sum.window_done[k];
      if (IsRead(r.op)) {
        sum.read_ms.push_back(live.latency_ms[i]);
        if (k < windows) sum.window_read_ms[k].push_back(live.latency_ms[i]);
        sum.wire_ms.push_back(live.latency_ms[i] -
                              oracle[s].exec_ms[offset + i]);
        sum.read_bytes += got.size() + 1;
      } else {
        sum.write_ms.push_back(live.latency_ms[i]);
        if (k < windows) sum.window_write_ms[k].push_back(live.latency_ms[i]);
      }
      bool expected_error =
          w.not_found_expected && HasErrorCode(got, "not_found");
      if (!IsOk(got) && !expected_error) {
        Fail(sum, StrCat(r.line.substr(0, 200), " -> ", got.substr(0, 300)));
        continue;
      }
      std::string a = ResultFields(r.op, got);
      std::string b = ResultFields(r.op, oracle[s].responses[offset + i]);
      if (a != b)
        Fail(sum, StrCat("oracle mismatch on ", r.line.substr(0, 200),
                         ": server ", a.substr(0, 200), " replay ",
                         b.substr(0, 200)));
    }
    // The server's counters were read right after the timed phase.
    for (const auto& [name, value] : DeterministicCounters(oracle[s].timed_end)) {
      auto it = run.server_counters[s].find(name);
      uint64_t server = it == run.server_counters[s].end() ? ~0ull : it->second;
      if (server != value && sum.fidelity.empty())
        sum.fidelity = StrCat("shard ", s, " ", name, ": server ", server,
                              " replay ", value);
    }
  }
  // join_scan's timed mix has no writes; its writes are the setup loads.
  sum.writes_from_setup = sum.write_ms.empty();
  if (sum.writes_from_setup)
    for (const ShardLive& live : run.shards)
      sum.write_ms.insert(sum.write_ms.end(), live.setup_write_ms.begin(),
                          live.setup_write_ms.end());
  return sum;
}

void WriteRequests(const std::string& path, const Workload& w,
                   const LiveRun& run, const std::vector<OracleRun>& oracle) {
  std::ofstream out(path);
  out << "shard\top\tdone_s\tlatency_ms\texec_ms\tresponse_bytes\trequest\n";
  for (size_t s = 0; s < kShards; ++s) {
    const size_t offset = w.shards[s].setup.size() + w.shards[s].warmup.size();
    for (size_t i = 0; i < run.shards[s].timed.size(); ++i)
      out << s << '\t' << OpName(run.shards[s].timed[i].op) << '\t'
          << run.shards[s].done_s[i] << '\t' << run.shards[s].latency_ms[i]
          << '\t' << oracle[s].exec_ms[offset + i] << '\t'
          << run.shards[s].responses[i].size() << '\t'
          << run.shards[s].timed[i].line << '\n';
  }
}

// Host steal share of each window of the timed phase.
std::vector<double> WindowSteal(const LiveRun& run) {
  std::vector<double> out;
  for (size_t k = 0; k + 1 < run.window_host.size(); ++k)
    out.push_back(Ratio(run.window_host[k + 1].steal - run.window_host[k].steal,
                        run.window_host[k + 1].total - run.window_host[k].total));
  return out;
}

void WriteWindows(const std::string& path, const LiveRun& run,
                  const Summary& sum) {
  std::ofstream out(path);
  out << "window\tstart_s\tend_s\trequests\tserver_cpu_s\tsteal_share\n";
  const std::vector<double> steal = WindowSteal(run);
  for (size_t k = 0; k < sum.window_done.size(); ++k)
    out << k << '\t' << run.window_s[k] << '\t' << run.window_s[k + 1] << '\t'
        << sum.window_done[k] << '\t'
        << run.window_cpu_s[k + 1] - run.window_cpu_s[k] << '\t' << steal[k]
        << '\n';
}

struct EndToEnd {
  const char* name;
  double value;
  const char* unit;
};

// Medians over the timed phase's one-second windows: a burst of host
// steal or disk latency that covers a few windows moves them little, where
// it would move a figure pooled over the whole phase. The p99s stay
// pooled: a window holds too few requests for its own tail, and resampling
// whole windows of a run mostly showed the pooled p99 to be the steadier.
struct Windowed {
  double read_p50 = 0, write_p50 = 0, tput_rps = 0, cpu_us_per_op = 0;
};

Windowed WindowMedians(const LiveRun& run, const Summary& sum) {
  std::vector<double> r50, w50, tput, cpu;
  for (size_t k = 0; k < sum.window_done.size(); ++k) {
    const uint64_t n = sum.window_done[k];
    if (n == 0) continue;
    tput.push_back(n / (run.window_s[k + 1] - run.window_s[k]));
    cpu.push_back((run.window_cpu_s[k + 1] - run.window_cpu_s[k]) * 1e6 / n);
    if (!sum.window_read_ms[k].empty())
      r50.push_back(Percentile(sum.window_read_ms[k], 0.5));
    if (!sum.window_write_ms[k].empty())
      w50.push_back(Percentile(sum.window_write_ms[k], 0.5));
  }
  Windowed out;
  out.read_p50 = Median(r50);
  // Setup bulk loads (no timed writes) are not windowed but pooled.
  out.write_p50 = sum.writes_from_setup ? Percentile(sum.write_ms, 0.5) : Median(w50);
  out.tput_rps = Median(tput);
  out.cpu_us_per_op = Median(cpu);
  return out;
}

// ---- per-layer metrics -----------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* maps_to;
  bool in_json;  // false: structurally idle on some workload; report only
};

const LayerMetric kLayerMetrics[] = {
    {"serve.parse_us", "us", "read_p50_ms", true},
    {"serve.exec_read_p50_ms", "ms", "read_p50_ms", true},
    {"serve.exec_write_p50_ms", "ms", "write_p50_ms", true},
    {"serve.wire_overhead_ms", "ms", "read_p50_ms", true},
    {"serve.response_bytes", "bytes", "read_p50_ms", true},
    {"ir.parse_query_us", "us", "read_p50_ms", true},
    {"analysis.classify_us", "us", "read_p50_ms", true},
    {"rewriting.rewrite_p50_ms", "ms", "read_p50_ms", true},
    {"rewriting.rewrite_p99_ms", "ms", "read_p99_ms", true},
    {"rewriting.candidates", "count", "read_p99_ms,cpu_us_per_op", true},
    {"rewriting.useful_ratio", "ratio", "read_p99_ms,cpu_us_per_op", true},
    {"containment.contain_ms", "ms", "read_p50_ms", false},
    {"containment.calls", "count", "read_p50_ms", true},
    {"containment.hit_ratio", "ratio", "read_p50_ms", true},
    {"constraints.implication_calls", "count", "read_p99_ms", true},
    {"constraints.hit_ratio", "ratio", "read_p99_ms", true},
    {"engine.cache_bytes", "bytes", "server_rss_mb", true},
    {"engine.evictions", "count", "read_p50_ms", true},
    {"engine.distinct_ratio", "ratio", "read_p50_ms", true},
    {"plan.decisions", "count", "read_p50_ms", true},
    {"plan.join_reorders", "count", "read_p50_ms", true},
    {"plan.unions_pruned", "count", "read_p50_ms", true},
    {"eval.eval_p50_ms", "ms", "read_p50_ms", true},
    {"eval.eval_p99_ms", "ms", "read_p99_ms", true},
    {"eval.rows_out", "count", "read_p50_ms", true},
    {"eval.batches", "count", "read_p50_ms", true},
    {"eval.blowup", "ratio", "read_p99_ms", true},
    {"eval.parse_facts_us", "us", "write_p50_ms", true},
    {"ivm.apply_p50_ms", "ms", "write_p50_ms", true},
    {"ivm.apply_p99_ms", "ms", "write_p99_ms", true},
    {"ivm.incremental_ratio", "ratio", "write_p99_ms", true},
    {"ivm.view_delta_per_base", "ratio", "write_p50_ms", true},
    {"ivm.add_view_ms", "ms", "setup_s", true},
    {"store.append_p50_us", "us", "write_p50_ms", true},
    {"store.append_p99_us", "us", "write_p99_ms", true},
    {"store.fsyncs", "count", "write_p99_ms", true},
    {"store.bytes_per_write", "bytes", "store_amp", true},
    {"store.snapshot_ms", "ms", "write_p99_ms", true},
    {"store.snapshots", "count", "write_p99_ms,store_amp", true},
    {"store.snapshot_bytes", "bytes", "store_amp", true},
    {"store.recover_ms", "ms", "recover_s", true},
    {"store.snapshot_read_ms", "ms", "recover_s", true},
    {"store.wal_read_ms", "ms", "recover_s", true},
    {"store.replayed_records", "count", "recover_s", true},
    {"trace.coverage", "ratio", "-", true},
    {"trace.overhead", "ratio", "-", true},
};

void WriteSpans(const std::string& path, const TracedShard& t) {
  std::ofstream out(path);
  out << "span\trequest\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    out << i << '\t' << s.request << '\t' << s.parent << '\t'
        << SpanNameString(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
}

// Runs the handler replay of every shard, with spans off or on.
std::string ReplayTraced(const Args& args, const Workload& w,
                         const std::vector<std::vector<Step>>& steps,
                         bool spans,
                         std::vector<std::unique_ptr<TracedShard>>* out) {
  const std::string dir = args.work_dir + (spans ? "/replay-on" : "/replay-off");
  RemoveTree(dir);
  cqac::Status init = cqac::store::InitDataDir(dir, kShards);
  if (!init.ok()) return init.ToString();
  std::vector<std::string> errors(kShards);
  for (size_t s = 0; s < kShards; ++s)
    out->push_back(std::make_unique<TracedShard>(s, dir, w, spans));
  ForEachShard([&](size_t s) {
    errors[s] = (*out)[s]->Open();
    if (errors[s].empty()) (*out)[s]->Run(steps[s]);
  });
  RemoveTree(dir);
  for (const std::string& e : errors)
    if (!e.empty()) return e;
  return "";
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

// The traced replay and the per-layer figures. Returns false when a traced
// pass did not reproduce the oracle.
bool TraceLayers(const Args& args, const Workload& w,
                 const std::vector<std::vector<Step>>& steps,
                 const std::vector<OracleRun>& oracle, const Summary& sum,
                 std::map<std::string, double>* layer) {
  // Spans-off passes run before and after the spans-on pass, so that
  // neither side alone pays the allocator's first touch of fresh memory.
  double wall_off = 0;
  std::string fidelity;
  auto replay_off = [&] {
    std::vector<std::unique_ptr<TracedShard>> off;
    std::string err = ReplayTraced(args, w, steps, false, &off);
    if (!err.empty()) fidelity = err;
    for (size_t s = 0; s < kShards && fidelity.empty(); ++s) {
      wall_off += off[s]->wall_s / 2;
      if (!CompareDeterministicCounters(off[s]->context().stats().Snapshot(),
                                        oracle[s].counters).empty() ||
          off[s]->responses != oracle[s].responses)
        fidelity = StrCat("spans-off replay of shard ", s, " differs");
    }
  };
  replay_off();
  std::vector<std::unique_ptr<TracedShard>> on;
  std::string err = ReplayTraced(args, w, steps, true, &on);
  if (!err.empty()) fidelity = err;
  for (size_t s = 0; s < kShards && fidelity.empty(); ++s) {
    std::string diff = CompareDeterministicCounters(
        on[s]->context().stats().Snapshot(), oracle[s].counters);
    if (!diff.empty() || on[s]->responses != oracle[s].responses)
      fidelity = StrCat("spans-on replay of shard ", s, " differs ", diff);
  }
  std::printf("traced replay fidelity (responses and counters vs oracle): %s\n",
              fidelity.empty() ? "ok" : fidelity.c_str());
  if (!fidelity.empty()) return false;

  // Span durations by name, timed phase and whole stream.
  std::vector<double> timed_ms[kSpanNames], all_ms[kSpanNames];
  std::vector<double> parse_us, parse_query_us, contain_ms, exec_read,
      exec_write, exec_write_all, per_read[6];
  double covered = 0, rooted = 0, wall_on = 0;
  uint64_t kept = 0, rows = 0, row_reqs = 0, writes = 0;
  cqac::StatsSnapshot timed, whole;
  std::map<std::string, std::pair<double, double>> self;  // total, self ms
  std::string counts;
  std::array<cqac::StatsSnapshot, kSpanNames> name_totals{};
  for (size_t s = 0; s < kShards; ++s) {
    const TracedShard& t = *on[s];
    wall_on += t.wall_s;
    for (size_t n = 0; n < kSpanNames; ++n) name_totals[n] += t.name_delta[n];
    std::vector<double> child(t.spans.size(), 0);
    std::vector<double> req_query(steps[s].size()), req_contain(steps[s].size()),
        req_parse(steps[s].size());
    for (size_t i = t.spans.size(); i-- > 0;) {
      const SpanRecord& sp = t.spans[i];
      const double d = (sp.end_ns - sp.start_ns) / 1e6;
      const size_t n = static_cast<size_t>(sp.name);
      const bool in_timed = steps[s][sp.request].phase == Phase::kTimed;
      if (sp.parent >= 0) child[sp.parent] += d;
      all_ms[n].push_back(d);
      if (sp.name == SpanName::kParseQuery) req_query[sp.request] += d;
      if (sp.name == SpanName::kExpand || sp.name == SpanName::kContain)
        req_contain[sp.request] += d;
      if (sp.name == SpanName::kParse) req_parse[sp.request] += d;
      if (!in_timed) continue;
      timed_ms[n].push_back(d);
      auto& e = self[SpanNameString(sp.name)];
      e.first += d;
      e.second += d - child[i];  // children sit later in `spans`: complete
      if (sp.parent < 0) rooted += d;
      else if (t.spans[sp.parent].parent < 0) covered += d;
    }
    for (size_t i = 0; i < steps[s].size(); ++i) {
      const Request& r = *steps[s][i].request;
      whole += t.request_delta[i];
      if (IsWrite(r.op)) exec_write_all.push_back(oracle[s].exec_ms[i]);
      if (steps[s][i].phase != Phase::kTimed) continue;
      timed += t.request_delta[i];
      parse_us.push_back(req_parse[i] * 1e3);
      if (req_query[i] > 0) parse_query_us.push_back(req_query[i] * 1e3);
      if (r.op == Op::kContain) contain_ms.push_back(req_contain[i]);
      if (IsWrite(r.op)) {
        exec_write.push_back(oracle[s].exec_ms[i]);
        ++writes;
      }
      if (!IsRead(r.op)) continue;
      exec_read.push_back(oracle[s].exec_ms[i]);
      const cqac::StatsSnapshot& d = t.request_delta[i];
      per_read[0].push_back(d.containment_calls);
      per_read[1].push_back(d.implication_calls);
      per_read[2].push_back(d.plan_decisions);
      per_read[3].push_back(d.plan_join_reorders);
      per_read[4].push_back(d.plan_unions_pruned);
      per_read[5].push_back(d.eval_batches);
      kept += t.rewrite_kept[i];
      if (r.op == Op::kEval || r.op == Op::kAnswers) {
        rows += t.rows_out[i];
        ++row_reqs;
      }
    }
    // Counts over the fixed prefix repeat exactly across runs of a seed.
    cqac::StatsSnapshot prefix;
    const size_t end = std::min(steps[s].size(), w.shards[s].setup.size() +
                                                     w.shards[s].warmup.size() +
                                                     kPrefixTimedRequests);
    for (size_t i = 0; i < end; ++i) prefix += t.request_delta[i];
    counts += StrCat(s ? " |" : "", " shard ", s, ":");
    for (const auto& [name, v] : DeterministicCounters(prefix))
      counts += StrCat(" ", name, "=", v);
    WriteSpans(StrCat(args.work_dir, "/spans-shard", s, ".tsv"), t);
  }
  // A layer the timed mix leaves idle is measured over the whole stream.
  auto spans_q = [&](std::initializer_list<SpanName> names, double q) {
    bool any = false;
    for (SpanName n : names) any |= !timed_ms[static_cast<size_t>(n)].empty();
    std::vector<double> v;
    for (SpanName n : names) {
      const auto& src = (any ? timed_ms : all_ms)[static_cast<size_t>(n)];
      v.insert(v.end(), src.begin(), src.end());
    }
    return Percentile(v, q);
  };
  const cqac::StatsSnapshot& writes_delta = timed.ivm_applies ? timed : whole;

  // The store layer on the killed run's data directory.
  double recover_ms = 0, snap_read_ms = 0, wal_read_ms = 0;
  uint64_t replayed = 0, timed_snaps = 0;
  std::vector<double> snapshot_bytes;
  size_t cache_bytes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const std::string dir = cqac::store::ShardDirPath(
        args.work_dir + "/data", static_cast<uint32_t>(s));
    cqac::EngineContext ctx;
    auto t0 = Clock::now();
    auto rec = cqac::store::RecoverShard(ctx, dir);
    recover_ms += SecondsSince(t0) * 1e3;
    if (rec.ok()) replayed += rec.value().replayed_records;
    auto snaps = cqac::store::ListSnapshots(dir);
    if (snaps.ok() && !snaps.value().empty()) {
      t0 = Clock::now();
      auto data = cqac::store::ReadSnapshotFile(snaps.value().back().second);
      snap_read_ms += SecondsSince(t0) * 1e3;
    }
    t0 = Clock::now();
    auto log = cqac::store::ReadLog(dir + "/wal");
    wal_read_ms += SecondsSince(t0) * 1e3;
    for (uint64_t b : on[s]->snapshot_bytes) snapshot_bytes.push_back(b);
    timed_snaps += oracle[s].timed_end.store_snapshots_written -
                   oracle[s].timed_start.store_snapshots_written;
    cache_bytes += on[s]->context().cache_bytes();
  }
  std::vector<double> blowups;
  for (const OracleRun& o : oracle)
    blowups.insert(blowups.end(), o.blowups.begin(), o.blowups.end());
  const size_t rewrite_calls =
      timed_ms[static_cast<size_t>(SpanName::kPlanRewrite)].size() +
      timed_ms[static_cast<size_t>(SpanName::kRewrite)].size();

  auto& m = *layer;
  m["serve.parse_us"] = Median(parse_us);
  m["serve.exec_read_p50_ms"] = Median(exec_read);
  m["serve.exec_write_p50_ms"] = Median(exec_write.empty() ? exec_write_all : exec_write);
  m["serve.wire_overhead_ms"] = Median(sum.wire_ms);
  m["serve.response_bytes"] = Ratio(sum.read_bytes, sum.read_ms.size());
  m["ir.parse_query_us"] = Median(parse_query_us);
  m["analysis.classify_us"] = spans_q({SpanName::kClassify}, 0.5) * 1e3;
  m["rewriting.rewrite_p50_ms"] = spans_q({SpanName::kPlanRewrite, SpanName::kRewrite}, 0.5);
  m["rewriting.rewrite_p99_ms"] = spans_q({SpanName::kPlanRewrite, SpanName::kRewrite}, 0.99);
  m["rewriting.candidates"] = Ratio(timed.rewrite_candidates, rewrite_calls);
  m["rewriting.useful_ratio"] = Ratio(kept, timed.rewrite_candidates);
  m["containment.contain_ms"] = Median(contain_ms);
  m["containment.calls"] = Mean(per_read[0]);
  m["containment.hit_ratio"] = Ratio(timed.containment_cache_hits, timed.containment_calls);
  m["constraints.implication_calls"] = Mean(per_read[1]);
  m["constraints.hit_ratio"] = Ratio(timed.implication_cache_hits, timed.implication_calls);
  m["engine.cache_bytes"] = cache_bytes;
  m["engine.evictions"] = timed.cache_evictions;
  m["engine.distinct_ratio"] = Ratio(timed.queries_interned, timed.intern_requests);
  m["plan.decisions"] = Mean(per_read[2]);
  m["plan.join_reorders"] = Mean(per_read[3]);
  m["plan.unions_pruned"] = Mean(per_read[4]);
  m["eval.eval_p50_ms"] = spans_q({SpanName::kEvaluate, SpanName::kEvaluateUnion}, 0.5);
  m["eval.eval_p99_ms"] = spans_q({SpanName::kEvaluate, SpanName::kEvaluateUnion}, 0.99);
  m["eval.rows_out"] = Ratio(rows, row_reqs);
  m["eval.batches"] = Mean(per_read[5]);
  m["eval.blowup"] = Median(blowups);
  m["eval.parse_facts_us"] = spans_q({SpanName::kParseFacts}, 0.5) * 1e3;
  m["ivm.apply_p50_ms"] = spans_q({SpanName::kApply}, 0.5);
  m["ivm.apply_p99_ms"] = spans_q({SpanName::kApply}, 0.99);
  m["ivm.incremental_ratio"] = Ratio(writes_delta.ivm_incremental_applies, writes_delta.ivm_applies);
  m["ivm.view_delta_per_base"] = Ratio(writes_delta.ivm_view_delta_tuples, writes_delta.ivm_base_delta_tuples);
  m["ivm.add_view_ms"] = spans_q({SpanName::kAddView}, 0.5);
  m["store.append_p50_us"] = spans_q({SpanName::kAppend}, 0.5) * 1e3;
  m["store.append_p99_us"] = spans_q({SpanName::kAppend}, 0.99) * 1e3;
  m["store.fsyncs"] = timed.store_fsyncs;
  m["store.bytes_per_write"] = writes ? Ratio(timed.store_bytes_logged, writes)
                                      : Ratio(whole.store_bytes_logged, exec_write_all.size());
  m["store.snapshot_ms"] = spans_q({SpanName::kSnapshot}, 0.5);
  m["store.snapshots"] = timed_snaps;
  m["store.snapshot_bytes"] = Mean(snapshot_bytes);
  m["store.recover_ms"] = recover_ms;
  m["store.snapshot_read_ms"] = snap_read_ms;
  m["store.wal_read_ms"] = wal_read_ms;
  m["store.replayed_records"] = replayed;
  m["trace.coverage"] = Ratio(covered, rooted);
  on.clear();
  replay_off();
  if (!fidelity.empty()) {
    std::printf("traced replay fidelity: %s\n", fidelity.c_str());
    return false;
  }
  m["trace.overhead"] = Ratio(wall_on, wall_off);

  std::printf("per-layer (traced replay; timed phase, or the whole stream "
              "where the timed mix leaves a layer idle):\n");
  for (const LayerMetric& l : kLayerMetrics)
    std::printf("layer %-30s %14s %-6s -> %s%s\n", l.name,
                Fixed(m[l.name], 4).c_str(), l.unit, l.maps_to,
                l.in_json ? "" : "  (report only)");
  std::printf("self time per span name (timed phase, both shards):\n");
  for (const auto& [name, v] : self)
    std::printf("span %-22s total %12s ms self %12s ms\n", name.c_str(),
                Fixed(v.first, 2).c_str(), Fixed(v.second, 2).c_str());
  std::printf("counter deltas per span name (whole replay, both shards):\n");
  for (size_t n = 0; n < kSpanNames; ++n) {
    std::string line;
    for (const auto& [name, v] : DeterministicCounters(name_totals[n]))
      if (v) line += StrCat(" ", name, "=", v);
    if (!line.empty())
      std::printf("span %-22s%s\n", SpanNameString(static_cast<SpanName>(n)),
                  line.c_str());
  }
  std::printf("counts (setup + warm-up + first %zu timed requests per shard)"
              "%s\n", kPrefixTimedRequests, counts.c_str());
  return true;
}

// ---- the run ---------------------------------------------------------------------

// Confines perfbench, and through fork the server, to the first two CPUs
// it may use: one per shard. A request's four thread handoffs (client,
// reader, engine, writer) then land on a vCPU that is already running. On
// a 4-vCPU guest whose host steals time in bursts, unpinned handoffs to a
// halted or descheduled vCPU halved throughput and doubled read_p50 on
// rewrite_mix; pinned, read_p50 moved 5% between quiet and stolen periods.
std::string pinned_cpus = "all";

void PinToTwoCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pin;
  CPU_ZERO(&pin);
  std::string names;
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < 2; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pin);
      names += StrCat(n++ ? "," : "", cpu);
    }
  if (sched_setaffinity(0, sizeof(pin), &pin) == 0) pinned_cpus = names;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const CpuTimes cpu_start = ReadCpuTimes();
  LiveRun run;
  RunLive(args, *w, run);
  const CpuTimes cpu_end = ReadCpuTimes();
  if (!run.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", run.error.c_str());
    return 1;
  }

  const std::vector<std::vector<Step>> steps = BuildSteps(*w, run);
  std::vector<OracleRun> oracle;
  std::string err = ReplayOracle(args, *w, steps, &oracle);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: oracle replay: %s\n", err.c_str());
    return 1;
  }
  const Summary sum = Summarize(*w, run, oracle);
  WriteRequests(args.work_dir + "/requests.tsv", *w, run, oracle);
  WriteWindows(args.work_dir + "/windows.tsv", run, sum);

  uint64_t state_bytes = 0;
  for (const OracleRun& o : oracle) state_bytes += o.state_bytes;
  const Windowed win = WindowMedians(run, sum);
  const EndToEnd e2e[] = {
      {"read_p50_ms", win.read_p50, "ms"},
      {"read_p99_ms", Percentile(sum.read_ms, 0.99), "ms"},
      {"write_p50_ms", win.write_p50, "ms"},
      {"write_p99_ms", Percentile(sum.write_ms, 0.99), "ms"},
      {"tput_rps", win.tput_rps, "req/s"},
      {"cpu_us_per_op", win.cpu_us_per_op, "us"},
      {"setup_s", Median(run.setup_s), "s"},
      {"recover_s", Median(run.recover_s), "s"},
      {"server_rss_mb", run.rss_mib, "MiB"},
      {"store_amp", Ratio(run.data_dir_bytes, state_bytes), "ratio"},
  };
  const double fail_ratio = Ratio(sum.failed, sum.attempted);

  // ---- report ----
  std::printf("workload %s seed %llu: %d s closed loop, %zu shards, 1 client "
              "connection per shard, zero think time\n",
              w->name.c_str(), static_cast<unsigned long long>(w->seed),
              args.seconds, kShards);
  uint64_t hash = 1469598103934665603ull;
  for (size_t s = 0; s < kShards; ++s) {
    for (const Request& r : w->shards[s].setup) hash = Fnv(hash, r.line);
    for (const Request& r : w->shards[s].warmup) hash = Fnv(hash, r.line);
    const auto& timed = run.shards[s].timed;
    for (size_t i = 0; i < std::min(kPrefixTimedRequests, timed.size()); ++i)
      hash = Fnv(hash, timed[i].line);
  }
  std::printf("property stream_hash %016llx (setup + warm-up + first %zu "
              "timed requests per shard)\n",
              static_cast<unsigned long long>(hash), kPrefixTimedRequests);
  std::string shares;
  for (const auto& [op, n] : sum.op_counts)
    shares += StrCat(" ", OpName(op), "=",
                     Fixed(100.0 * n / sum.attempted, 1), "%");
  std::printf("property op_shares%s\n", shares.c_str());
  std::printf("property repeat_share %s (query-bearing requests whose query "
              "text was sent before in the session)\n",
              Fixed(Ratio(sum.repeats, sum.query_ops), 3).c_str());
  std::printf("property sessions_per_shard %zu %zu, base %s per session\n",
              w->shards[0].sessions.size(), w->shards[1].sessions.size(),
              w->base_sizes.c_str());
  std::vector<double> blowups;
  for (const OracleRun& o : oracle)
    blowups.insert(blowups.end(), o.blowups.begin(), o.blowups.end());
  if (blowups.empty())
    std::printf("property eval.blowup n/a (no multi-atom eval ops)\n");
  else
    std::printf("property eval.blowup median %s max %s over %zu eval "
                "queries (first-two-atom join / output)\n",
                Fixed(Median(blowups), 2).c_str(),
                Fixed(*std::max_element(blowups.begin(), blowups.end()), 2)
                    .c_str(),
                blowups.size());
  std::string snaps;
  for (const OracleRun& o : oracle)
    snaps += StrCat(" ", o.timed_end.store_snapshots_written -
                             o.timed_start.store_snapshots_written);
  std::printf("property timed_snapshots_per_shard%s\n", snaps.c_str());
  const CpuTimes d{cpu_end.total - cpu_start.total,
                   cpu_end.steal - cpu_start.steal};
  const std::vector<double> steal = WindowSteal(run);
  std::printf("env nproc %ld, pinned to cpus %s, steal share %s (timed "
              "windows: max %s), ping p50 back-to-back %s ms, after 10 ms "
              "idle %s ms, perfbench threads %zu, connections %zu\n",
              sysconf(_SC_NPROCESSORS_ONLN), pinned_cpus.c_str(),
              Fixed(Ratio(d.steal, d.total), 4).c_str(),
              Fixed(steal.empty() ? 0 : *std::max_element(steal.begin(), steal.end()), 4).c_str(),
              Fixed(run.ping_b2b_ms, 4).c_str(),
              Fixed(run.ping_idle_ms, 4).c_str(), kShards + 1, kShards);
  std::printf("timed: %llu attempted, %llu failed; %zu reads, %zu writes%s\n",
              static_cast<unsigned long long>(sum.attempted),
              static_cast<unsigned long long>(sum.failed), sum.read_ms.size(),
              sum.write_ms.size(),
              sum.writes_from_setup
                  ? " (no timed writes: write_* are the setup bulk loads)"
                  : "");
  std::printf("timed: read_p50, write_p50, tput and cpu are medians over %zu "
              "one-second windows; pooled over the phase they are %s ms, %s "
              "ms, %s req/s, %s us/op\n",
              sum.window_done.size(), Fixed(Percentile(sum.read_ms, 0.5), 4).c_str(),
              Fixed(Percentile(sum.write_ms, 0.5), 4).c_str(),
              Fixed(Ratio(sum.attempted, run.timed_wall_s), 1).c_str(),
              Fixed(Ratio(run.cpu_s * 1e6, sum.attempted), 1).c_str());
  std::string drawn;
  for (const ShardLive& live : run.shards)
    drawn += StrCat(drawn.empty() ? "" : ", ", live.drawn_ahead, " ahead / ",
                    Fixed(live.inline_draw_s * 1e3, 2), " ms inline");
  std::printf("driver: timed requests drawn per shard: %s\n", drawn.c_str());
  for (const std::string& f : sum.failures) std::printf("FAIL %s\n", f.c_str());
  std::printf("replay fidelity (server stats vs oracle replay): %s\n",
              sum.fidelity.empty() ? "ok" : sum.fidelity.c_str());
  std::string tails;
  for (const ShardLive& live : run.shards)
    tails += StrCat(tails.empty() ? "" : " ", live.log_tail);
  std::printf("recovery check (%d SIGKILL restarts, log tails %s replayed): "
              "%s%s\n", w->recoveries, tails.c_str(),
              run.recovery_ok ? "ok" : "FAILED ", run.recovery_detail.c_str());
  for (const EndToEnd& m : e2e)
    std::printf("metric %-14s %14s %s\n", m.name, Fixed(m.value, 4).c_str(),
                m.unit);
  std::printf("metric %-14s %14s ratio\n", "fail_ratio",
              Num(fail_ratio).c_str());

  bool correct = sum.failed == 0 && sum.fidelity.empty() && run.recovery_ok;
  std::map<std::string, double> layer;
  if (args.trace)
    correct = TraceLayers(args, *w, steps, oracle, sum, &layer) && correct;

  // ---- result line ----
  std::string metrics;
  auto add = [&](const std::string& name, double v, const char* unit) {
    metrics += StrCat(metrics.empty() ? "" : ", ", "\"", name,
                      "\": {\"value\": ", Num(v), ", \"unit\": \"", unit, "\"}");
  };
  if (args.trace) {
    for (const LayerMetric& l : kLayerMetrics)
      if (l.in_json) add(l.name, layer[l.name], l.unit);
  } else {
    for (const EndToEnd& m : e2e) add(m.name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(sum.attempted),
              static_cast<unsigned long long>(sum.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atoi(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--serve-bin") args.serve_bin = value;
    else if (key == "--work-dir") args.work_dir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.serve_bin.empty() || args.work_dir.empty() ||
      args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  perfbench::PinToTwoCpus();
  return perfbench::Run(args);
}
