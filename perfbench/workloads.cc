#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/gen/generators.h"
#include "src/ir/json.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

using cqac::Rng;
using cqac::StrCat;
using Fields = std::vector<std::pair<const char*, std::string>>;
using IntTuple = std::vector<int64_t>;

Request MakeRequest(Op op, const std::string& session, const Fields& fields,
                    bool repeat = false) {
  std::string line = StrCat("{\"op\":\"", OpName(op), "\",\"session\":",
                            cqac::JsonQuote(session));
  for (const auto& [key, value] : fields)
    line += StrCat(",\"", key, "\":", cqac::JsonQuote(value));
  line += "}";
  return Request{op, session, std::move(line), repeat};
}

std::string FactsText(const std::vector<std::pair<std::string, IntTuple>>& facts) {
  std::string out;
  for (const auto& [pred, t] : facts) {
    if (!out.empty()) out += ' ';
    out += pred + "(";
    for (size_t i = 0; i < t.size(); ++i) out += StrCat(i ? ", " : "", t[i]);
    out += ").";
  }
  return out;
}

// Session names balanced over the shards by the server's own pinning.
std::vector<std::vector<std::string>> PickSessions(const std::string& prefix,
                                                   size_t per_shard) {
  std::vector<std::vector<std::string>> out(kShards);
  for (int i = 0;; ++i) {
    bool full = true;
    for (const auto& s : out) full = full && s.size() >= per_shard;
    if (full) return out;
    std::string name = StrCat(prefix, i);
    auto& bucket = out[cqac::serve::ShardForSession(name, kShards)];
    if (bucket.size() < per_shard) bucket.push_back(name);
  }
}

// Stable across platforms, unlike std::hash.
uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// Seed of the fixed part of every workload: its schema, views and base
// data. The seed argument draws the requests after setup. Redrawn per
// seed, rewrite_mix's view sets moved CPU per op by half, and
// ivm_stream's base moved its eval times by 40% (read_p99 7.4 vs 10.5 ms,
// each reproducible): the benchmark would measure the draw, not the
// program.
constexpr uint64_t kDesignSeed = 20020603;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Index in [0, n) skewed towards 0 like Zipf(1): P(i) ~ 1/(i+1).
size_t ZipfIndex(Rng& rng, size_t n) {
  double u = std::uniform_real_distribution<double>(0, 1)(rng.engine());
  size_t i = static_cast<size_t>(std::pow(static_cast<double>(n) + 1, u)) - 1;
  return std::min(i, n - 1);
}

// Draws keys in [0, n) from Zipf(s) through a precomputed CDF.
class ZipfKeys {
 public:
  ZipfKeys(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = sum += std::pow(i + 1.0, -s);
    for (double& c : cdf_) c /= sum;
  }
  int64_t Draw(Rng& rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(rng.engine());
    return std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  }

 private:
  std::vector<double> cdf_;
};

// A random chain query: no self-joins, and every atom shares a variable
// with the one before it. Self-joins and cross products let one request's
// rewriting and evaluation cost swing by four orders of magnitude, which
// would make the tail a property of the seed rather than of the program.
// Views cut from a chain are chains too.
cqac::Query ChainQuery(Rng& rng, const cqac::gen::QuerySpec& spec) {
  while (true) {
    cqac::Query q = cqac::gen::RandomQuery(rng, spec, "q");
    std::set<std::string> preds;
    bool chain = true;
    for (size_t i = 0; i < q.body().size(); ++i) {
      preds.insert(q.body()[i].predicate);
      if (i == 0) continue;
      bool shared = false;
      for (const cqac::Term& t : q.body()[i].args)
        for (const cqac::Term& u : q.body()[i - 1].args)
          shared |= t.is_var() && u.is_var() && t.var() == u.var();
      chain &= shared;
    }
    if (chain && preds.size() == q.body().size()) return q;
  }
}

// Picks an op by cumulative percentage.
template <size_t N>
Op PickOp(Rng& rng, const std::pair<Op, int> (&mix)[N]) {
  int r = static_cast<int>(rng.Uniform(0, 99));
  for (const auto& [op, pct] : mix) {
    if (r < pct) return op;
    r -= pct;
  }
  return mix[N - 1].first;
}

// ---- rewrite_mix -----------------------------------------------------------

// Base values of rewrite_mix. Comparison constants stay in [0, 20] (the
// generator's default), so comparisons select about a quarter to a half
// of a column while joins stay sparse enough that no request dominates.
constexpr int64_t kMediatorDomain = 40;

struct MediatorSession {
  std::string name;
  cqac::Query seed_query;
  cqac::ViewSet views;
  std::vector<std::string> predicates;
  std::vector<std::string> asked;      // every query text sent, in order
  std::vector<std::string> answerable;  // ... that `answers` may take
  std::set<std::string> seen;
};

class RewriteMixGenerator : public ShardGenerator {
 public:
  RewriteMixGenerator(uint64_t seed, std::vector<MediatorSession> sessions)
      : rng_(seed), sessions_(std::move(sessions)) {}

  Request Next() override {
    static constexpr std::pair<Op, int> kMix[] = {
        {Op::kRewrite, 50}, {Op::kAnswers, 25}, {Op::kContain, 10},
        {Op::kClassify, 10}, {Op::kFact, 5}};
    MediatorSession& s = sessions_[rng_.Uniform(0, sessions_.size() - 1)];
    Op op = PickOp(rng_, kMix);
    if (op == Op::kFact) {
      IntTuple t = {rng_.Uniform(0, kMediatorDomain), rng_.Uniform(0, kMediatorDomain)};
      return MakeRequest(op, s.name,
                         {{"facts", FactsText({{rng_.Pick(s.predicates), t}})}});
    }
    bool repeat = false;
    std::string query = DrawQuery(s, op == Op::kAnswers, &repeat);
    if (op != Op::kContain)
      return MakeRequest(op, s.name, {{"query", query}}, repeat);
    return MakeRequest(op, s.name,
                       {{"query", query}, {"candidate", Candidate(s)}}, repeat);
  }

  // A fresh random query of a class mix that runs all three rewrite paths:
  // CQ/LSI/RSI -> RewriteLSIQuery, CQAC-SI over SI views -> Datalog MCR,
  // other SI and general comparisons -> the verified bucket algorithm.
  static cqac::Query FreshQuery(Rng& rng) {
    static constexpr cqac::gen::AcMode kModes[] = {
        cqac::gen::AcMode::kNone,   cqac::gen::AcMode::kLsi,
        cqac::gen::AcMode::kRsi,    cqac::gen::AcMode::kCqacSi,
        cqac::gen::AcMode::kSi,     cqac::gen::AcMode::kGeneral};
    cqac::gen::QuerySpec spec;
    spec.num_subgoals = static_cast<int>(rng.Uniform(2, 3));
    spec.num_predicates = 3;
    spec.num_vars = 4;
    spec.ac_density = 0.6;
    spec.ac_mode = kModes[rng.Uniform(0, 5)];
    return ChainQuery(rng, spec);
  }

 private:
  std::string DrawQuery(MediatorSession& s, bool for_answers, bool* repeat) {
    std::vector<std::string>& pool = for_answers ? s.answerable : s.asked;
    if (!pool.empty() && rng_.Chance(0.5)) {
      const std::string& q = pool[ZipfIndex(rng_, pool.size())];
      *repeat = true;
      return q;
    }
    while (true) {
      cqac::Query q = FreshQuery(rng_);
      cqac::AcClass cls = q.Classify();
      bool lsi_path = cls == cqac::AcClass::kNone ||
                      cls == cqac::AcClass::kLsi || cls == cqac::AcClass::kRsi;
      bool datalog = q.IsCqacSi() && !q.IsConjunctiveOnly() && !lsi_path &&
                     s.views.AllSiOnly();
      if (for_answers && datalog) continue;
      std::string text = q.ToString();
      *repeat = !s.seen.insert(text).second;
      if (!*repeat) {
        s.asked.push_back(text);
        if (!datalog) s.answerable.push_back(text);
      }
      return text;
    }
  }

  // A candidate rewriting: half the time a chain of one or two view atoms
  // (checked through its expansion), otherwise another pool query.
  std::string Candidate(MediatorSession& s) {
    if (!s.asked.empty() && rng_.Chance(0.5))
      return s.asked[ZipfIndex(rng_, s.asked.size())];
    size_t atoms = static_cast<size_t>(rng_.Uniform(1, 2));
    std::string body;
    int next_var = 0;
    std::vector<int> vars;
    for (size_t a = 0; a < atoms; ++a) {
      const cqac::Query& v = s.views[rng_.Uniform(0, s.views.size() - 1)];
      body += StrCat(a ? ", " : "", v.head().predicate, "(");
      for (size_t i = 0; i < v.head().args.size(); ++i) {
        int var = (a > 0 && i == 0) ? vars.back() : next_var++;
        vars.push_back(var);
        body += StrCat(i ? ", " : "", "Z", var);
      }
      body += ")";
    }
    int head0 = rng_.Pick(vars);
    int head1 = rng_.Pick(vars);
    return StrCat("c(Z", head0, ", Z", head1, ") :- ", body, ".");
  }

  Rng rng_;
  std::vector<MediatorSession> sessions_;
};

void BuildRewriteMix(Workload* w) {
  static constexpr cqac::gen::AcMode kViewModes[] = {
      cqac::gen::AcMode::kNone, cqac::gen::AcMode::kLsi,
      cqac::gen::AcMode::kRsi,  cqac::gen::AcMode::kSi,
      cqac::gen::AcMode::kLsi,  cqac::gen::AcMode::kSi};
  auto names = PickSessions("rm", 8);
  size_t tuples = 0, relations = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    ShardStream& out = w->shards[shard];
    out.sessions = names[shard];
    std::vector<MediatorSession> sessions;
    for (const std::string& name : names[shard]) {
      Rng design(Mix(kDesignSeed, Fnv(name)));
      MediatorSession s;
      s.name = name;
      cqac::gen::QuerySpec qspec;
      qspec.num_subgoals = 3;
      qspec.num_predicates = 3;
      qspec.ac_mode = cqac::gen::AcMode::kSi;
      s.seed_query = ChainQuery(design, qspec);
      for (size_t i = 0; i < std::size(kViewModes); ++i) {
        cqac::gen::ViewSpec vspec;
        vspec.num_views = 1;
        vspec.ac_mode = kViewModes[i];
        cqac::ViewSet one =
            cqac::gen::RandomViewsForQuery(design, s.seed_query, vspec);
        cqac::Query v = one[0];
        v.head().predicate = StrCat("v", i);
        (void)s.views.Add(std::move(v));
      }
      std::map<std::string, int> schema = cqac::gen::SchemaOf(s.seed_query);
      for (int p = 0; p < qspec.num_predicates; ++p)
        schema.emplace(StrCat("p", p), 2);
      std::vector<std::pair<std::string, IntTuple>> facts;
      for (const auto& [pred, arity] : schema) {
        s.predicates.push_back(pred);
        std::set<IntTuple> rel;
        while (rel.size() < 100) {
          IntTuple t;
          for (int j = 0; j < arity; ++j) t.push_back(design.Uniform(0, kMediatorDomain));
          rel.insert(t);
        }
        for (const IntTuple& t : rel) facts.emplace_back(pred, t);
        tuples += rel.size();
        ++relations;
      }
      out.setup.push_back(
          MakeRequest(Op::kFact, name, {{"facts", FactsText(facts)}}));
      for (const cqac::Query& v : s.views.views())
        out.setup.push_back(
            MakeRequest(Op::kView, name, {{"rule", v.ToString()}}));
      // The standing query is the comparison-free view v0 asked as a query:
      // it always has a rewriting, so its answers are the view's contents.
      cqac::Query standing = s.views[0];
      standing.head().predicate = "q";
      w->standing.push_back(
          MakeRequest(Op::kAnswers, name, {{"query", standing.ToString()}}).line);
      sessions.push_back(std::move(s));
    }
    out.timed = std::make_unique<RewriteMixGenerator>(
        Mix(w->seed, 1000 + shard), std::move(sessions));
    for (int i = 0; i < 400; ++i) out.warmup.push_back(out.timed->Next());
  }
  w->base_sizes = StrCat(tuples / relations, " tuples x ",
                         relations / (kShards * 8), " relations");
  w->not_found_expected = true;
  // Durable like the other workloads so recover_s and store_amp exist
  // everywhere; the 5% facts keep the log small. Durability is not what
  // this workload measures: fsync latency on a shared disk swung its
  // write_p99 from 1.3 to 9.7 ms between runs, so it does not sync. Each
  // snapshot stalls the write that triggers it by 5-30 ms; at one per 150
  // records they were 0.7% of timed writes and write_p99 sat on their edge,
  // so they come at one per 500 (about 0.2%).
  w->snapshot_every = 500;
  w->recovery_tail = 250;
  w->fsync = "never";
  // A recovery here takes about 30 ms, so a median of five moved by a
  // third between runs; 31 cost about a second.
  w->recoveries = 31;
}

// ---- ivm_stream ------------------------------------------------------------

constexpr int64_t kIvmWide = 100000;  // domain of the selective columns
constexpr int64_t kIvmKeys = 4000;    // domain of the join keys
const char* const kIvmPreds[] = {"r", "s", "t"};

// An ivm_stream base tuple packed as pred << 40 | first << 20 | second.
uint64_t IvmKey(int64_t pred, int64_t first, int64_t second) {
  return static_cast<uint64_t>(pred) << 40 | static_cast<uint64_t>(first) << 20 |
         static_cast<uint64_t>(second);
}

uint64_t IvmTuple(Rng& rng, int64_t pred) {
  if (pred == 0) return IvmKey(0, rng.Uniform(0, kIvmWide - 1), rng.Uniform(0, kIvmKeys - 1));
  if (pred == 1) return IvmKey(1, rng.Uniform(0, kIvmKeys - 1), rng.Uniform(0, kIvmKeys - 1));
  return IvmKey(2, rng.Uniform(0, kIvmKeys - 1), rng.Uniform(0, kIvmWide - 1));
}

std::string IvmFactsText(const std::vector<uint64_t>& keys) {
  std::vector<std::pair<std::string, IntTuple>> facts;
  for (uint64_t k : keys)
    facts.emplace_back(kIvmPreds[k >> 40],
                       IntTuple{static_cast<int64_t>(k >> 20 & 0xFFFFF),
                                static_cast<int64_t>(k & 0xFFFFF)});
  return FactsText(facts);
}

struct IngestSession {
  std::string name;
  std::vector<std::string> standing;  // answers query texts
  // The session's base: the setup load plus every fact sent, minus every
  // retract sent. `present` holds the same keys.
  std::vector<uint64_t> live;
  std::set<uint64_t> present;
};

// Fact batches insert 8-32 new tuples (mean 20) at 45% of ops; retracts
// remove 18-72 live tuples (mean 45), setup base included, at 20%. Both
// move 9 tuples per op on average, so the base keeps its size however many
// requests a run completes, and so do apply, snapshot and read costs.
class IvmStreamGenerator : public ShardGenerator {
 public:
  IvmStreamGenerator(uint64_t seed, std::vector<IngestSession> sessions)
      : rng_(seed), sessions_(std::move(sessions)) {}

  Request Next() override {
    static constexpr std::pair<Op, int> kMix[] = {
        {Op::kFact, 45}, {Op::kRetract, 20}, {Op::kAnswers, 25},
        {Op::kEval, 10}};
    IngestSession& s = sessions_[rng_.Uniform(0, sessions_.size() - 1)];
    Op op = PickOp(rng_, kMix);
    switch (op) {
      case Op::kFact: {
        std::vector<uint64_t> batch;
        for (int64_t n = rng_.Uniform(8, 32); n > 0; --n) {
          uint64_t key;
          do {
            key = IvmTuple(rng_, rng_.Uniform(0, 2));
          } while (!s.present.insert(key).second);
          s.live.push_back(key);
          batch.push_back(key);
        }
        return MakeRequest(op, s.name, {{"facts", IvmFactsText(batch)}});
      }
      case Op::kRetract: {
        std::vector<uint64_t> batch;
        for (int64_t n = rng_.Uniform(18, 72); n > 0; --n) {
          size_t i = rng_.Uniform(0, s.live.size() - 1);
          batch.push_back(s.live[i]);
          s.present.erase(s.live[i]);
          s.live[i] = s.live.back();
          s.live.pop_back();
        }
        return MakeRequest(op, s.name, {{"facts", IvmFactsText(batch)}});
      }
      case Op::kAnswers: {
        const std::string& q = rng_.Pick(s.standing);
        return MakeRequest(op, s.name, {{"query", q}}, true);
      }
      default: {
        int64_t a = rng_.Uniform(0, kIvmWide - 1);
        return MakeRequest(
            Op::kEval, s.name,
            {{"query", StrCat("e(A, C) :- r(A, B), s(B, C), ", a,
                              " <= A, A <= ", a + 40, ".")}});
      }
    }
  }

 private:
  Rng rng_;
  std::vector<IngestSession> sessions_;
};

void BuildIvmStream(Workload* w) {
  constexpr size_t kTuples = 12000;
  auto names = PickSessions("iv", 2);
  for (size_t shard = 0; shard < kShards; ++shard) {
    ShardStream& out = w->shards[shard];
    out.sessions = names[shard];
    std::vector<IngestSession> sessions;
    for (const std::string& name : names[shard]) {
      Rng design(Mix(kDesignSeed, Fnv(name)));
      IngestSession s;
      s.name = name;
      for (int64_t pred = 0; pred < 3; ++pred) {
        std::set<uint64_t> rel;
        while (rel.size() < kTuples) rel.insert(IvmTuple(design, pred));
        std::vector<uint64_t> facts;
        for (uint64_t key : rel) {
          facts.push_back(key);
          s.live.push_back(key);
          if (facts.size() == 3000) {
            out.setup.push_back(
                MakeRequest(Op::kFact, name, {{"facts", IvmFactsText(facts)}}));
            facts.clear();
          }
        }
        s.present.insert(rel.begin(), rel.end());
      }
      // Join views with selective comparisons; the bounds vary per session.
      // The standing queries bound one side only (LSI or RSI), so
      // `answers` takes the RewriteLSIQuery path rather than the Datalog
      // MCR, which is not served over the wire.
      // Fixed view bounds (per session, not per seed), so view sizes and
      // hence maintenance cost are a property of the workload. A t tuple
      // inside v3's D range makes its write about ten times dearer (a
      // three-way delta join); the range holds 2.6-2.8% of D, so about a
      // fifth of writes take that path and write_p50 stays clear of it.
      const int64_t k = static_cast<int64_t>(sessions.size());
      const int64_t a = 1800 + 200 * k, d = 97800 + 200 * k;
      const std::string views[] = {
          StrCat("v1(A, C) :- r(A, B), s(B, C), A < ", a, "."),
          StrCat("v2(B, D) :- s(B, C), t(C, D), ", d, " < D."),
          StrCat("v3(A, D) :- r(A, B), s(B, C), t(C, D), A < ", 4 * a,
                 ", ", d - 600, " < D."),
          StrCat("v4(B, C) :- s(B, C), B < ", 400 + 50 * k, ".")};
      for (const std::string& v : views)
        out.setup.push_back(MakeRequest(Op::kView, name, {{"rule", v}}));
      s.standing = {
          StrCat("q1(A, C) :- r(A, B), s(B, C), A < ", a / 4, "."),
          StrCat("q2(B, D) :- s(B, C), t(C, D), ", d + 1200, " < D."),
          StrCat("q3(A, D) :- r(A, B), s(B, C), t(C, D), A < ", a, "."),
          StrCat("q4(B, C) :- s(B, C), B < 60.")};
      for (const std::string& q : s.standing)
        w->standing.push_back(
            MakeRequest(Op::kAnswers, name, {{"query", q}}).line);
      sessions.push_back(std::move(s));
    }
    out.timed = std::make_unique<IvmStreamGenerator>(
        Mix(w->seed, 2000 + shard), std::move(sessions));
    for (int i = 0; i < 300; ++i) out.warmup.push_back(out.timed->Next());
  }
  w->base_sizes = StrCat(kTuples, " tuples x 3 relations");
  w->snapshot_every = 250;
  w->recovery_tail = 125;
  w->recoveries = 9;
}

// ---- join_scan -------------------------------------------------------------

constexpr int64_t kScanWide = 50000;  // domain of the selective end columns
constexpr int64_t kScanKeys = 20000;  // domain of the join keys

class JoinScanGenerator : public ShardGenerator {
 public:
  JoinScanGenerator(uint64_t seed, std::string session, int64_t view_x,
                    int64_t view_y)
      : rng_(seed), session_(std::move(session)), view_x_(view_x),
        view_y_(view_y) {}

  Request Next() override {
    if (rng_.Chance(0.2)) {
      int64_t x = rng_.Uniform(view_x_ / 4, view_x_);
      int64_t y = rng_.Uniform(view_y_ / 4, view_y_);
      return MakeRequest(
          Op::kAnswers, session_,
          {{"query",
            StrCat("w(X, Y) :- a(X, K), b(K, L), c(L, M), d(M, Y), X < ", x,
                   ", Y < ", y, ".")}});
    }
    // Selective at both ends, so the output is small while the join of
    // the first two atoms is not.
    int64_t x = rng_.Uniform(100, 400);
    int64_t end = rng_.Uniform(200, 600);
    std::string q;
    switch (rng_.Uniform(0, 2)) {
      case 0:  // 3-atom chain
        q = StrCat("j(X, M) :- a(X, K), b(K, L), c(L, M), X < ", x, ", M < ",
                   end, ".");
        break;
      case 1:  // 4-atom chain
        q = StrCat("j(X, Y) :- a(X, K), b(K, L), c(L, M), d(M, Y), X < ", x,
                   ", Y < ", 2 * end, ".");
        break;
      default:  // star on K
        q = StrCat("j(X, L, Z) :- a(X, K), b(K, L), e(K, Z), X < ", x,
                   ", Z < ", 2 * end, ".");
        break;
    }
    return MakeRequest(Op::kEval, session_, {{"query", q}});
  }

 private:
  Rng rng_;
  std::string session_;
  int64_t view_x_, view_y_;
};

void BuildJoinScan(Workload* w) {
  constexpr size_t kTuples = 50000;
  const ZipfKeys zipf(kScanKeys, 0.6);
  auto names = PickSessions("js", 1);
  for (size_t shard = 0; shard < kShards; ++shard) {
    ShardStream& out = w->shards[shard];
    out.sessions = names[shard];
    const std::string& name = names[shard][0];
    Rng design(Mix(kDesignSeed, Fnv(name)));
    // a(X, K) b(K, L) c(L, M) d(M, Y) form the chain, e(K, Z) a star arm.
    // The probed key column of every join is Zipf-skewed; the probing side
    // is uniform, so a join averages 2.5 matches per probe with a heavy
    // tail on the hot keys. Hot keys are scattered over the key domain.
    std::vector<int64_t> perm(kScanKeys);
    for (int64_t i = 0; i < kScanKeys; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), design.engine());
    auto hot = [&] { return perm[zipf.Draw(design)]; };
    auto draw = [&](const std::string& pred) -> IntTuple {
      if (pred == "a")
        return {design.Uniform(0, kScanWide - 1), design.Uniform(0, kScanKeys - 1)};
      int64_t key = hot();
      bool wide = pred == "d" || pred == "e";
      return {key, design.Uniform(0, (wide ? kScanWide : kScanKeys) - 1)};
    };
    for (const char* pred : {"a", "b", "c", "d", "e"}) {
      std::set<IntTuple> rel;
      while (rel.size() < kTuples) rel.insert(draw(pred));
      std::vector<std::pair<std::string, IntTuple>> facts;
      for (const IntTuple& t : rel) {
        facts.emplace_back(pred, t);
        if (facts.size() == 5000) {
          out.setup.push_back(
              MakeRequest(Op::kFact, name, {{"facts", FactsText(facts)}}));
          facts.clear();
        }
      }
    }
    // Both views and the `answers` queries bound their ends from above
    // only (LSI), so answers take the RewriteLSIQuery path.
    int64_t vx = 500, vy = 500;
    out.setup.push_back(MakeRequest(
        Op::kView, name,
        {{"rule", StrCat("vab(X, L) :- a(X, K), b(K, L), X < ", vx, ".")}}));
    out.setup.push_back(MakeRequest(
        Op::kView, name,
        {{"rule", StrCat("vcd(L, Y) :- c(L, M), d(M, Y), Y < ", vy, ".")}}));
    out.timed = std::make_unique<JoinScanGenerator>(Mix(w->seed, 3000 + shard),
                                                    name, vx, vy);
    for (int i = 0; i < 30; ++i) out.warmup.push_back(out.timed->Next());
    w->standing.push_back(
        MakeRequest(Op::kAnswers, name,
                    {{"query", StrCat("w(X, Y) :- a(X, K), b(K, L), c(L, M), "
                                      "d(M, Y), X < ",
                                      vx, ", Y < ", vy, ".")}})
            .line);
  }
  w->base_sizes = StrCat(kTuples, " tuples x 5 relations");
  w->snapshot_every = 40;  // setup ends 13 records past a snapshot
  w->fsync = "never";  // as rewrite_mix: durability is ivm_stream's part
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kView: return "view";
    case Op::kFact: return "fact";
    case Op::kRetract: return "retract";
    case Op::kRewrite: return "rewrite";
    case Op::kAnswers: return "answers";
    case Op::kEval: return "eval";
    case Op::kContain: return "contain";
    case Op::kClassify: return "classify";
  }
  return "?";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->seed = seed;
  w->shards.resize(kShards);
  if (name == "rewrite_mix")
    BuildRewriteMix(w.get());
  else if (name == "ivm_stream")
    BuildIvmStream(w.get());
  else if (name == "join_scan")
    BuildJoinScan(w.get());
  else
    return nullptr;
  return w;
}

}  // namespace perfbench
