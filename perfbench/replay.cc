#include "replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "live.h"
#include "src/analysis/classify.h"
#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/ir/expansion.h"
#include "src/ir/json.h"
#include "src/ir/parser.h"
#include "src/plan/planner.h"
#include "src/rewriting/answer.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/rewrite_lsi.h"
#include "src/serve/json_value.h"
#include "src/serve/protocol.h"

namespace perfbench {

using namespace cqac;         // NOLINT: the replay mirrors service.cc
using namespace cqac::serve;  // NOLINT

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

bool IsErrorLine(const std::string& response) {
  return response.rfind("{\"ok\":false", 0) == 0;
}

// The same rendering as service.cc's RelationToJson.
std::string RelationToJson(const Relation& r) {
  std::string out = "[";
  bool first_tuple = true;
  for (const Tuple& t : r) {
    out += first_tuple ? "[" : ",[";
    first_tuple = false;
    for (size_t i = 0; i < t.size(); ++i)
      out += StrCat(i ? "," : "", JsonQuote(t[i].ToString()));
    out += "]";
  }
  out += "]";
  return out;
}

std::string JsonText(const JsonValue& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.bool_value() ? "true" : "false";
  if (v.is_number()) return StrCat(v.number_value());
  if (v.is_string()) return JsonQuote(v.string_value());
  std::string out = v.is_array() ? "[" : "{";
  if (v.is_array()) {
    for (size_t i = 0; i < v.array_items().size(); ++i)
      out += StrCat(i ? "," : "", JsonText(v.array_items()[i]));
    return out + "]";
  }
  for (size_t i = 0; i < v.object_items().size(); ++i)
    out += StrCat(i ? "," : "", JsonQuote(v.object_items()[i].first), ":",
                  JsonText(v.object_items()[i].second));
  return out + "}";
}

}  // namespace

std::string OpenShardStore(const std::string& data_dir, size_t shard,
                           const Workload& w, EngineContext* ctx,
                           std::unique_ptr<store::ShardStore>* out) {
  if (data_dir.empty()) return "";
  // cqac_serve recovers before it opens the store; on a fresh directory
  // that recovers nothing, but it is the same call sequence.
  Result<store::RecoveredShard> rec = store::RecoverShard(
      *ctx, store::ShardDirPath(data_dir, static_cast<uint32_t>(shard)));
  if (!rec.ok()) return rec.status().ToString();
  store::StoreOptions options;
  options.snapshot_every = w.snapshot_every;
  Result<store::FsyncPolicy> fsync = store::ParseFsyncPolicy(w.fsync);
  if (!fsync.ok()) return fsync.status().ToString();
  options.fsync = fsync.value();
  Result<std::unique_ptr<store::ShardStore>> s = store::ShardStore::Open(
      data_dir, static_cast<uint32_t>(shard), kShards, options, ctx);
  if (!s.ok()) return s.status().ToString();
  *out = std::move(s).value();
  return "";
}

// ---- OracleShard -----------------------------------------------------------

OracleShard::OracleShard(size_t shard, const std::string& data_dir,
                         const Workload& w)
    : shard_(shard),
      data_dir_(data_dir),
      workload_(w),
      service_(ctx_, ServiceOptions{}) {
  service_.set_shard(shard, kShards);
}

std::string OracleShard::Open() {
  std::string err =
      OpenShardStore(data_dir_, shard_, workload_, &ctx_, &store_);
  if (err.empty() && store_) service_.set_store(store_.get());
  return err;
}

void OracleShard::Run(const std::vector<Step>& steps) {
  responses.reserve(steps.size());
  exec_ms.reserve(steps.size());
  Phase last = Phase::kSetup;
  for (const Step& step : steps) {
    if (step.phase != last && step.phase == Phase::kTimed)
      timed_start = ctx_.stats().Snapshot();
    if (step.phase != last && last == Phase::kTimed)
      timed_end = ctx_.stats().Snapshot();
    last = step.phase;
    // The server parses on its reader threads; only ExecuteParsed runs on
    // the shard engine thread, so only it is timed.
    Result<JsonValue> json = ParseJson(step.request->line);
    Result<serve::Request> req = json.ok() ? ParseRequestEnvelope(std::move(json).value())
                                    : Result<serve::Request>(json.status());
    if (!req.ok()) {
      responses.push_back(ErrorResponse(nullptr, ServeErrorCode::kInvalidRequest,
                                        req.status().message()));
      exec_ms.push_back(0);
      continue;
    }
    bool shutdown = false;
    const auto r0 = Clock::now();
    std::string response = service_.ExecuteParsed(req.value(), &shutdown);
    exec_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - r0).count());
    if (!response.empty() && response.back() == '\n') response.pop_back();
    responses.push_back(std::move(response));
  }
  if (last == Phase::kTimed) timed_end = ctx_.stats().Snapshot();
}

// ---- TracedShard -----------------------------------------------------------

const char* SpanNameString(SpanName n) {
  static const char* const kNames[] = {
      "serve.request",   "serve.parse",       "serve.render",
      "ir.parse_query",  "ir.validate",       "analysis.classify",
      "rewriting.plan",  "rewriting.rewrite", "containment.expand",
      "containment.contain", "eval.evaluate", "plan.join_order",
      "eval.union",      "eval.parse_facts",  "ivm.apply",
      "ivm.add_view",    "store.append",      "store.snapshot"};
  static_assert(std::size(kNames) == kSpanNames);
  return kNames[static_cast<size_t>(n)];
}

class TracedShard::Impl {
 public:
  Impl(TracedShard* out, size_t shard, const std::string& data_dir,
       const Workload& w, bool spans)
      : out_(out),
        shard_(shard),
        data_dir_(data_dir),
        workload_(w),
        spans_on_(spans) {}

  std::string Open() {
    return OpenShardStore(data_dir_, shard_, workload_, &ctx_, &store_);
  }

  void Run(const std::vector<Step>& steps) {
    if (spans_on_) {
      out_->request_delta.resize(steps.size());
      out_->rewrite_kept.assign(steps.size(), 0);
      out_->rows_out.assign(steps.size(), 0);
    }
    const auto t0 = Clock::now();
    for (size_t i = 0; i < steps.size(); ++i) {
      request_ = static_cast<uint32_t>(i);
      StatsSnapshot before;
      if (spans_on_) before = ctx_.stats().Snapshot();
      std::string response = Execute(steps[i].request->line);
      if (spans_on_) out_->request_delta[i] = ctx_.stats().Snapshot() - before;
      if (!response.empty() && response.back() == '\n') response.pop_back();
      out_->responses.push_back(std::move(response));
    }
    out_->wall_s = SecondsSince(t0);
  }

  EngineContext& context() { return ctx_; }

 private:
  // A span around one public call; records nothing with spans off.
  class Span {
   public:
    Span(Impl* impl, SpanName name) : impl_(impl) {
      if (!impl_->spans_on_) return;
      index_ = static_cast<int32_t>(impl_->out_->spans.size());
      SpanRecord rec;
      rec.request = impl_->request_;
      rec.parent = impl_->open_.empty() ? -1 : impl_->open_.back();
      rec.name = name;
      impl_->out_->spans.push_back(rec);
      impl_->open_.push_back(index_);
      impl_->open_before_.push_back(impl_->ctx_.stats().Snapshot());
      impl_->out_->spans[index_].start_ns = NowNs();
    }
    ~Span() {
      if (index_ < 0) return;
      SpanRecord& rec = impl_->out_->spans[index_];
      rec.end_ns = NowNs();
      impl_->out_->name_delta[static_cast<size_t>(rec.name)] +=
          impl_->ctx_.stats().Snapshot() - impl_->open_before_.back();
      impl_->open_.pop_back();
      impl_->open_before_.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Impl* impl_;
    int32_t index_ = -1;
  };

  void Count(std::vector<uint64_t>* v, uint64_t n) {
    if (spans_on_) (*v)[request_] += n;
  }

  // Service::Execute + ExecuteParsed.
  std::string Execute(const std::string& line) {
    Span root(this, SpanName::kRequest);
    serve::Request req;
    {
      Span s(this, SpanName::kParse);
      Result<JsonValue> json = ParseJson(line);
      if (!json.ok())
        return ErrorResponse(nullptr, ServeErrorCode::kParseError,
                             json.status().message());
      Result<serve::Request> parsed = ParseRequestEnvelope(std::move(json).value());
      if (!parsed.ok())
        return ErrorResponse(nullptr, ServeErrorCode::kInvalidRequest,
                             parsed.status().message());
      req = std::move(parsed).value();
    }
    ++ctx_.stats().serve_requests;
    std::chrono::milliseconds timeout =
        std::min(req.timeout.value_or(options_.default_timeout),
                 options_.max_timeout);
    Budget saved = ctx_.budget();
    ctx_.ClearCancel();
    ctx_.budget().deadline = std::chrono::steady_clock::now() + timeout;
    StatsSnapshot before = ctx_.stats().Snapshot();
    std::string response = Dispatch(req);
    ctx_.budget() = saved;
    ctx_.ClearCancel();
    MaybeSnapshot();
    bool is_error = IsErrorLine(response);
    if (Session* session = sessions_.Find(req.session)) {
      session->stats.requests.fetch_add(1, std::memory_order_relaxed);
      if (is_error) session->stats.errors.fetch_add(1, std::memory_order_relaxed);
      session->stats.engine += ctx_.stats().Snapshot() - before;
    }
    return response;
  }

  std::string Dispatch(const serve::Request& req) {
    if (req.op == "view") return HandleView(req);
    if (req.op == "fact") return HandleWrite(req, true);
    if (req.op == "retract") return HandleWrite(req, false);
    if (req.op == "classify") return HandleClassify(req);
    if (req.op == "rewrite") return HandleRewrite(req);
    if (req.op == "contain") return HandleContain(req);
    if (req.op == "eval") return HandleEval(req);
    if (req.op == "answers") return HandleAnswers(req);
    return ErrorResponse(&req, ServeErrorCode::kUnknownOp,
                         StrCat("unknown op '", req.op, "'"));
  }

  Status Log(store::RecordType type, const std::string& session,
             const std::string& text) {
    if (store_ == nullptr) return Status::OK();
    Span s(this, SpanName::kAppend);
    return store_->Append(type, session, text);
  }

  Status LogSessionCreate(bool created, const std::string& session) {
    if (!created) return Status::OK();
    return Log(store::RecordType::kSessionCreate, session, "");
  }

  void MaybeSnapshot() {
    if (store_ == nullptr || !store_->ShouldSnapshot()) return;
    std::vector<store::SessionSnapshotRef> refs;
    for (Session* s : sessions_.Sessions()) {
      store::SessionSnapshotRef ref;
      ref.name = &s->name;
      ref.view_texts = &s->view_texts;
      ref.store = &s->store;
      refs.push_back(ref);
    }
    Status st;
    {
      Span s(this, SpanName::kSnapshot);
      st = store_->WriteSnapshot(ctx_.adaptive(), refs);
    }
    if (st.ok() && spans_on_) {
      Result<std::vector<std::pair<uint64_t, std::string>>> snaps =
          store::ListSnapshots(store_->dir());
      std::error_code ec;
      if (snaps.ok() && !snaps.value().empty())
        out_->snapshot_bytes.push_back(std::filesystem::file_size(
            snaps.value().back().second, ec));
    }
  }

  Result<Query> Parse(const std::string& text) {
    Span s(this, SpanName::kParseQuery);
    return ParseQuery(text);
  }

  Status Validate(const Query& q) {
    Span s(this, SpanName::kValidate);
    return q.Validate();
  }

  Result<Session*> OpenSession(const serve::Request& req) {
    bool created = false;
    Result<Session*> session = sessions_.GetOrCreate(req.session, &created);
    if (!session.ok()) return session;
    Status logged = LogSessionCreate(created, req.session);
    if (!logged.ok()) return logged;
    return session;
  }

  std::string HandleView(const serve::Request& req) {
    Result<std::string> rule = req.GetString("rule");
    if (!rule.ok()) return ErrorResponse(req, rule.status());
    Result<Session*> session = OpenSession(req);
    if (!session.ok()) return ErrorResponse(req, session.status());
    Result<ParsedQuery> v = [&] {
      Span s(this, SpanName::kParseQuery);
      return ParseQueryWithInfo(rule.value());
    }();
    if (!v.ok()) return ErrorResponse(req, v.status());
    Status st = session.value()->views.Add(v.value().query);
    if (!st.ok()) return ErrorResponse(req, st);
    {
      Span s(this, SpanName::kAddView);
      st = session.value()->store.AddView(ctx_, v.value().query);
    }
    if (!st.ok()) return ErrorResponse(req, st);
    session.value()->view_sources.push_back(std::move(v).value());
    session.value()->view_texts.push_back(rule.value());
    Status logged = Log(store::RecordType::kView, req.session, rule.value());
    if (!logged.ok()) return ErrorResponse(req, logged);
    Span s(this, SpanName::kRender);
    const ViewSet& views = session.value()->views;
    std::string out = BeginResponse(req);
    JsonField(&out, "view", JsonQuote(views[views.size() - 1].ToString()));
    JsonField(&out, "views", StrCat(views.size()));
    JsonClose(&out);
    return out;
  }

  std::string HandleWrite(const serve::Request& req, bool insert) {
    Result<std::string> facts = req.GetString("facts");
    if (!facts.ok()) return ErrorResponse(req, facts.status());
    Result<Session*> session = OpenSession(req);
    if (!session.ok()) return ErrorResponse(req, session.status());
    Result<Database> parsed = [&] {
      Span s(this, SpanName::kParseFacts);
      return Database::FromFacts(facts.value());
    }();
    if (!parsed.ok()) return ErrorResponse(req, parsed.status());
    ivm::MaterializedViewSet& store = session.value()->store;
    Result<ivm::ApplySummary> summary = [&] {
      Span s(this, SpanName::kApply);
      return insert ? store.ApplyInsert(ctx_, parsed.value(), {}, nullptr)
                    : store.ApplyRetract(ctx_, parsed.value(), {}, nullptr);
    }();
    if (!summary.ok()) return ErrorResponse(req, summary.status());
    Status logged =
        Log(insert ? store::RecordType::kFact : store::RecordType::kRetract,
            req.session, facts.value());
    if (!logged.ok()) return ErrorResponse(req, logged);
    Span s(this, SpanName::kRender);
    std::string out = BeginResponse(req);
    if (insert)
      JsonField(&out, "tuples_added", StrCat(summary.value().inserted));
    else
      JsonField(&out, "tuples_removed", StrCat(summary.value().retracted));
    JsonField(&out, "total_tuples", StrCat(store.base().TotalTuples()));
    JsonClose(&out);
    return out;
  }

  std::string HandleClassify(const serve::Request& req) {
    Result<std::string> text = req.GetString("query");
    if (!text.ok()) return ErrorResponse(req, text.status());
    Result<Query> q = Parse(text.value());
    if (!q.ok()) return ErrorResponse(req, q.status());
    Status valid = Validate(q.value());
    if (!valid.ok()) return ErrorResponse(req, valid);
    ClassInfo info = [&] {
      Span s(this, SpanName::kClassify);
      return ClassifyQuery(q.value());
    }();
    Span s(this, SpanName::kRender);
    std::string out = BeginResponse(req);
    JsonField(&out, "class", JsonQuote(info.Name()));
    JsonField(&out, "cqac_si", info.cqac_si ? "true" : "false");
    JsonField(&out, "closed", info.closed ? "true" : "false");
    JsonField(&out, "open", info.open ? "true" : "false");
    JsonField(&out, "algorithm", JsonQuote(info.RecommendedAlgorithm()));
    JsonClose(&out);
    return out;
  }

  std::string HandleRewrite(const serve::Request& req) {
    Result<std::string> text = req.GetString("query");
    if (!text.ok()) return ErrorResponse(req, text.status());
    Result<Session*> session = OpenSession(req);
    if (!session.ok()) return ErrorResponse(req, session.status());
    Result<Query> q = Parse(text.value());
    if (!q.ok()) return ErrorResponse(req, q.status());
    Status valid = Validate(q.value());
    if (!valid.ok()) return ErrorResponse(req, valid);
    const Query& query = q.value();
    const ViewSet& views = session.value()->views;
    Result<ViewPlan> vp = [&] {
      Span s(this, SpanName::kPlanRewrite);
      return PlanForQuery(ctx_, query, views);
    }();
    if (!vp.ok()) return ErrorResponse(req, vp.status());
    const ViewPlan& plan = vp.value();
    if (plan.kind == PlanKind::kDatalog) {
      Span s(this, SpanName::kRender);
      std::string out = BeginResponse(req);
      JsonField(&out, "kind", "\"datalog\"");
      JsonField(&out, "count", StrCat(plan.datalog->rules.size()));
      JsonField(&out, "text", JsonQuote(plan.datalog->ToString()));
      JsonField(&out, "plan", plan.plan.ToJson());
      JsonClose(&out);
      return out;
    }
    Count(&out_->rewrite_kept, plan.union_plan.disjuncts.size());
    AcClass cls = [&] {
      Span s(this, SpanName::kClassify);
      return query.Classify();
    }();
    bool lsi_path =
        cls == AcClass::kNone || cls == AcClass::kLsi || cls == AcClass::kRsi;
    Span s(this, SpanName::kRender);
    std::string out = BeginResponse(req);
    JsonField(&out, "kind", lsi_path ? "\"mcr\"" : "\"bucket\"");
    JsonField(&out, "count", StrCat(plan.union_plan.disjuncts.size()));
    JsonField(&out, "text", JsonQuote(plan.union_plan.ToString()));
    JsonField(&out, "json", UnionQueryToJson(plan.union_plan));
    JsonField(&out, "plan", plan.plan.ToJson());
    JsonClose(&out);
    return out;
  }

  std::string HandleContain(const serve::Request& req) {
    Result<std::string> qtext = req.GetString("query");
    if (!qtext.ok()) return ErrorResponse(req, qtext.status());
    Result<std::string> ctext = req.GetString("candidate");
    if (!ctext.ok()) return ErrorResponse(req, ctext.status());
    Result<Session*> session = OpenSession(req);
    if (!session.ok()) return ErrorResponse(req, session.status());
    Result<Query> q = Parse(qtext.value());
    if (!q.ok()) return ErrorResponse(req, q.status());
    Result<Query> c = Parse(ctext.value());
    if (!c.ok()) return ErrorResponse(req, c.status());
    const ViewSet& views = session.value()->views;
    Query candidate = std::move(c).value();
    bool uses_views = !candidate.body().empty();
    for (const Atom& a : candidate.body())
      if (views.Find(a.predicate) == nullptr) uses_views = false;
    if (uses_views) {
      Result<Query> expanded = [&] {
        Span s(this, SpanName::kExpand);
        return ExpandRewriting(candidate, views);
      }();
      if (!expanded.ok()) return ErrorResponse(req, expanded.status());
      candidate = std::move(expanded).value();
    }
    Result<bool> contained = [&] {
      Span s(this, SpanName::kContain);
      return IsContained(ctx_, candidate, q.value());
    }();
    if (!contained.ok()) return ErrorResponse(req, contained.status());
    Span s(this, SpanName::kRender);
    std::string out = BeginResponse(req);
    JsonField(&out, "contained", contained.value() ? "true" : "false");
    JsonField(&out, "via_expansion", uses_views ? "true" : "false");
    JsonClose(&out);
    return out;
  }

  std::string HandleEval(const serve::Request& req) {
    Result<std::string> text = req.GetString("query");
    if (!text.ok()) return ErrorResponse(req, text.status());
    Result<Session*> session = OpenSession(req);
    if (!session.ok()) return ErrorResponse(req, session.status());
    Result<Query> q = Parse(text.value());
    if (!q.ok()) return ErrorResponse(req, q.status());
    Status valid = Validate(q.value());
    if (!valid.ok()) return ErrorResponse(req, valid);
    const Database& base = session.value()->store.base();
    Result<Relation> r = [&] {
      Span s(this, SpanName::kEvaluate);
      return EvaluateQuery(ctx_, q.value(), base);
    }();
    if (!r.ok()) return ErrorResponse(req, r.status());
    Count(&out_->rows_out, r.value().size());
    auto rows = [&base](const std::string& p) { return base.Get(p).size(); };
    auto distinct = [&base](const std::string& p, size_t c) {
      return base.stats().DistinctEstimate(p, c);
    };
    plan::Plan eval_plan;
    {
      Span s(this, SpanName::kJoinOrder);
      eval_plan.decisions.push_back(
          plan::PlanJoinOrder(q.value(), plan::Cardinalities{rows, distinct})
              .ToDecision());
    }
    Span s(this, SpanName::kRender);
    std::string out = BeginResponse(req);
    JsonField(&out, "count", StrCat(r.value().size()));
    JsonField(&out, "tuples", RelationToJson(r.value()));
    JsonField(&out, "plan", eval_plan.ToJson());
    JsonField(&out, "maintained",
              session.value()->store.maintained() ? "true" : "false");
    JsonClose(&out);
    return out;
  }

  std::string HandleAnswers(const serve::Request& req) {
    Result<std::string> text = req.GetString("query");
    if (!text.ok()) return ErrorResponse(req, text.status());
    Result<Session*> session = OpenSession(req);
    if (!session.ok()) return ErrorResponse(req, session.status());
    Result<Query> q = Parse(text.value());
    if (!q.ok()) return ErrorResponse(req, q.status());
    Status valid = Validate(q.value());
    if (!valid.ok()) return ErrorResponse(req, valid);
    const Query& query = q.value();
    const ViewSet& views = session.value()->views;
    AcClass cls;
    bool datalog;
    {
      Span s(this, SpanName::kClassify);
      cls = query.Classify();
      datalog = query.IsCqacSi() && !query.IsConjunctiveOnly() &&
                cls != AcClass::kNone && cls != AcClass::kLsi &&
                cls != AcClass::kRsi && views.AllSiOnly();
    }
    if (datalog)
      return ErrorResponse(&req, ServeErrorCode::kUnsupported,
                           "certain answers for a recursive Datalog MCR are "
                           "not served over the wire; use rewrite + a local "
                           "datalog::Engine");
    bool lsi_path =
        cls == AcClass::kNone || cls == AcClass::kLsi || cls == AcClass::kRsi;
    Result<UnionQuery> mcr = [&] {
      Span s(this, SpanName::kRewrite);
      return lsi_path ? RewriteLsiQuery(ctx_, query, views)
                      : BucketRewrite(ctx_, query, views);
    }();
    if (!mcr.ok()) return ErrorResponse(req, mcr.status());
    Count(&out_->rewrite_kept, mcr.value().disjuncts.size());
    if (mcr.value().empty())
      return ErrorResponse(&req, ServeErrorCode::kNotFound,
                           "no contained rewriting exists for this query over "
                           "the session's views");
    Result<Relation> r = [&] {
      Span s(this, SpanName::kEvaluateUnion);
      return EvaluateUnion(ctx_, mcr.value(), session.value()->store.views());
    }();
    if (!r.ok()) return ErrorResponse(req, r.status());
    Count(&out_->rows_out, r.value().size());
    Span s(this, SpanName::kRender);
    std::string out = BeginResponse(req);
    JsonField(&out, "count", StrCat(r.value().size()));
    JsonField(&out, "tuples", RelationToJson(r.value()));
    JsonField(&out, "rewriting_count", StrCat(mcr.value().disjuncts.size()));
    JsonField(&out, "maintained",
              session.value()->store.maintained() ? "true" : "false");
    JsonClose(&out);
    return out;
  }

  TracedShard* out_;
  size_t shard_;
  std::string data_dir_;
  const Workload& workload_;
  bool spans_on_;
  EngineContext ctx_;
  ServiceOptions options_;
  SessionManager sessions_{options_.max_sessions};
  std::unique_ptr<store::ShardStore> store_;
  uint32_t request_ = 0;
  std::vector<int32_t> open_;
  std::vector<StatsSnapshot> open_before_;
};

TracedShard::TracedShard(size_t shard, const std::string& data_dir,
                         const Workload& w, bool spans)
    : impl_(std::make_unique<Impl>(this, shard, data_dir, w, spans)) {}
TracedShard::~TracedShard() = default;
std::string TracedShard::Open() { return impl_->Open(); }
void TracedShard::Run(const std::vector<Step>& steps) { impl_->Run(steps); }
EngineContext& TracedShard::context() { return impl_->context(); }

// ---- counters and result fields ---------------------------------------------

std::vector<std::pair<std::string, uint64_t>> DeterministicCounters(
    const StatsSnapshot& s) {
#define CQAC_COUNTER(f) {#f, s.f}
  return {CQAC_COUNTER(containment_calls),
          CQAC_COUNTER(containment_cache_hits),
          CQAC_COUNTER(containment_cache_misses),
          CQAC_COUNTER(implication_calls),
          CQAC_COUNTER(implication_cache_hits),
          CQAC_COUNTER(implication_cache_misses),
          CQAC_COUNTER(disjunction_implications),
          CQAC_COUNTER(hom_enumerations),
          CQAC_COUNTER(homomorphisms_found),
          CQAC_COUNTER(intern_requests),
          CQAC_COUNTER(queries_interned),
          CQAC_COUNTER(fingerprint_collisions),
          CQAC_COUNTER(cache_evictions),
          CQAC_COUNTER(cache_flushes),
          CQAC_COUNTER(budget_exhaustions),
          CQAC_COUNTER(eval_batches),
          CQAC_COUNTER(eval_smallint_fallbacks),
          CQAC_COUNTER(plan_decisions),
          CQAC_COUNTER(plan_join_reorders),
          CQAC_COUNTER(plan_unions_pruned),
          CQAC_COUNTER(plan_retunes),
          CQAC_COUNTER(rewrite_candidates),
          CQAC_COUNTER(rewrite_verified_rejects),
          CQAC_COUNTER(ivm_applies),
          CQAC_COUNTER(ivm_incremental_applies),
          CQAC_COUNTER(ivm_rebuild_fallbacks),
          CQAC_COUNTER(ivm_base_delta_tuples),
          CQAC_COUNTER(ivm_view_delta_tuples),
          CQAC_COUNTER(ivm_overdeletions),
          CQAC_COUNTER(ivm_rederivations),
          CQAC_COUNTER(store_records_appended),
          CQAC_COUNTER(store_bytes_logged),
          CQAC_COUNTER(store_snapshots_written)};
#undef CQAC_COUNTER
}

std::string CompareDeterministicCounters(const StatsSnapshot& a,
                                         const StatsSnapshot& b) {
  auto x = DeterministicCounters(a), y = DeterministicCounters(b);
  for (size_t i = 0; i < x.size(); ++i)
    if (x[i].second != y[i].second)
      return StrCat(x[i].first, " ", x[i].second, " vs ", y[i].second);
  return "";
}

std::string ResultFields(Op op, const std::string& response) {
  Result<JsonValue> json = ParseJson(response);
  if (!json.ok()) return "unparseable";
  const JsonValue& v = json.value();
  const JsonValue* ok = v.Find("ok");
  if (ok == nullptr || !ok->is_bool()) return "no ok field";
  if (!ok->bool_value()) {
    const JsonValue* err = v.Find("error");
    const JsonValue* code = err ? err->Find("code") : nullptr;
    return StrCat("error:", code ? JsonText(*code) : "?");
  }
  std::vector<const char*> keys;
  switch (op) {
    case Op::kRewrite: keys = {"kind", "count", "text"}; break;
    case Op::kAnswers:
    case Op::kEval: keys = {"count", "tuples"}; break;
    case Op::kContain: keys = {"contained"}; break;
    case Op::kClassify: keys = {"class"}; break;
    case Op::kFact: keys = {"tuples_added", "total_tuples"}; break;
    case Op::kRetract: keys = {"tuples_removed", "total_tuples"}; break;
    case Op::kView: keys = {"view", "views"}; break;
  }
  std::string out = "ok";
  for (const char* key : keys) {
    const JsonValue* f = v.Find(key);
    out += StrCat(" ", key, "=", f ? JsonText(*f) : "<missing>");
  }
  return out;
}

}  // namespace perfbench
