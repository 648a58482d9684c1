#include "src/serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/analysis/audit/audit.h"
#include "src/analysis/classify.h"
#include "src/analysis/lint.h"
#include "src/base/strings.h"
#include "src/eval/evaluate.h"
#include "src/ir/json.h"
#include "src/ir/parser.h"
#include "src/plan/planner.h"
#include "src/rewriting/answer.h"

namespace cqac {
namespace serve {
namespace {

// True when the request opts into the audit pass ("certify": true). The
// flag is ignored unless it is a literal JSON boolean.
bool CertifyRequested(const Request& req) {
  const JsonValue* v = req.body.Find("certify");
  return v != nullptr && v->is_bool() && v->bool_value();
}

// Renders a relation as a JSON array of tuples, each tuple an array of
// value strings (rationals render exactly: "7/2", not a float).
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

std::string DiagnosticsToJson(const std::vector<LintDiagnostic>& diags) {
  std::string out = "[";
  for (size_t i = 0; i < diags.size(); ++i) {
    const LintDiagnostic& d = diags[i];
    out += StrCat(i ? "," : "", "{\"code\":", JsonQuote(d.code),
                  ",\"severity\":\"", LintSeverityName(d.severity),
                  "\",\"line\":", d.span.begin.line,
                  ",\"col\":", d.span.begin.col, ",\"rule\":", d.rule_index,
                  ",\"message\":", JsonQuote(d.message), "}");
  }
  out += "]";
  return out;
}

bool IsErrorResponseLine(const std::string& response) {
  return response.rfind("{\"ok\":false", 0) == 0;
}

}  // namespace

Service::Service(EngineContext& ctx, ServiceOptions options)
    : ctx_(ctx), options_(options), sessions_(options.max_sessions) {}

std::string Service::Execute(const std::string& line,
                             bool* shutdown_requested) {
  Result<JsonValue> json = ParseJson(line);
  if (!json.ok()) {
    CountPreparseError();
    return ErrorResponse(nullptr, ServeErrorCode::kParseError,
                         json.status().message());
  }
  Result<Request> parsed = ParseRequestEnvelope(std::move(json).value());
  if (!parsed.ok()) {
    CountPreparseError();
    return ErrorResponse(nullptr, ServeErrorCode::kInvalidRequest,
                         parsed.status().message());
  }
  return ExecuteParsed(parsed.value(), shutdown_requested);
}

std::string Service::ExecuteParsed(const Request& req,
                                   bool* shutdown_requested) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ++ctx_.stats().serve_requests;

  // Per-request deadline: clamp the client's timeout to the server cap and
  // install it as the budget deadline for the duration of the request.
  // Engine calls are serialized on this shard's engine thread, so
  // save/restore is safe.
  std::chrono::milliseconds timeout =
      std::min(req.timeout.value_or(options_.default_timeout),
               options_.max_timeout);
  Budget saved = ctx_.budget();
  ctx_.ClearCancel();
  // A timeout past the clock's range saturates instead of overflowing.
  const auto now = std::chrono::steady_clock::now();
  ctx_.budget().deadline =
      now + std::min(timeout,
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::time_point::max() - now));

  StatsSnapshot before = ctx_.stats().Snapshot();
  std::string response = Dispatch(req, shutdown_requested);

  ctx_.budget() = saved;
  ctx_.ClearCancel();

  // Snapshot cadence: runs on the engine thread after the request's own
  // work, so it sees a quiescent, fully committed shard state.
  MaybeSnapshot();

  bool is_error = IsErrorResponseLine(response);
  if (is_error) request_errors_.fetch_add(1, std::memory_order_relaxed);
  // Attribute the engine work to the session when one exists (ops that need
  // session state create it; pure-compute ops only attribute to sessions
  // already created).
  if (Session* session = sessions_.Find(req.session)) {
    session->stats.requests.fetch_add(1, std::memory_order_relaxed);
    if (is_error)
      session->stats.errors.fetch_add(1, std::memory_order_relaxed);
    session->stats.engine += ctx_.stats().Snapshot() - before;
  }
  return response;
}

ShardSummary Service::Summary() const {
  ShardSummary s;
  s.shard = shard_index_;
  s.requests = requests();
  s.request_errors = request_errors();
  s.session_index = sessions_.Index();
  s.sessions = s.session_index.size();
  s.cache_bytes = ctx_.cache_bytes();
  s.cache_entries = ctx_.cache_entries();
  s.threads = ctx_.parallelism();
  s.engine = ctx_.stats().Snapshot();
  return s;
}

std::string ShardSummary::ToJson() const {
  return StrCat(
      "{\"shard\":", shard, ",\"requests\":", requests,
      ",\"request_errors\":", request_errors, ",\"sessions\":", sessions,
      ",\"queue_depth\":", queue_depth,
      ",\"queue_depth_peak\":", engine.serve_queue_peak,
      ",\"enqueued\":", enqueued,
      ",\"rejected_overloaded\":", engine.serve_overload_rejections,
      ",\"threads\":", threads, ",\"cache\":{\"bytes\":", cache_bytes,
      ",\"entries\":", cache_entries, "},\"engine\":", engine.ToJson(), "}");
}

std::string Service::Dispatch(const Request& req, bool* shutdown_requested) {
  if (req.op == "ping") return HandlePing(req);
  if (req.op == "view") return HandleApply(req, store::RecordType::kView);
  if (req.op == "fact") return HandleApply(req, store::RecordType::kFact);
  if (req.op == "retract")
    return HandleApply(req, store::RecordType::kRetract);
  if (req.op == "classify") return HandleClassify(req);
  if (req.op == "rewrite") return HandleRewrite(req);
  if (req.op == "contain") return HandleContain(req);
  if (req.op == "eval") return HandleEval(req);
  if (req.op == "answers") return HandleAnswers(req);
  if (req.op == "lint") return HandleLint(req);
  if (req.op == "stats") return HandleStats(req);
  if (req.op == "reset") return HandleReset(req);
  if (req.op == "shutdown") {
    if (shutdown_requested != nullptr) *shutdown_requested = true;
    std::string out = BeginResponse(req);
    JsonField(&out, "draining", "true");
    JsonClose(&out);
    return out;
  }
  return ErrorResponse(&req, ServeErrorCode::kUnknownOp,
                       StrCat("unknown op '", req.op, "'"));
}

std::string Service::HandlePing(const Request& req) {
  std::string out = BeginResponse(req);
  JsonClose(&out);
  return out;
}

Status Service::LogRecordOp(store::RecordType type, const std::string& session,
                            const std::string& text) {
  if (store_ == nullptr) return Status::OK();
  return store_->Append(type, session, text);
}

void Service::MaybeSnapshot() {
  if (store_ == nullptr || !store_->ShouldSnapshot()) return;
  std::vector<store::SessionSnapshotRef> refs;
  std::vector<Session*> sessions = sessions_.Sessions();
  refs.reserve(sessions.size());
  for (Session* s : sessions) {
    store::SessionSnapshotRef ref;
    ref.name = &s->name;
    ref.view_texts = &s->view_texts;
    ref.store = &s->store;
    refs.push_back(ref);
  }
  Status st = store_->WriteSnapshot(ctx_.adaptive(), refs);
  if (!st.ok())
    std::fprintf(stderr, "cqac_serve: shard %zu snapshot failed: %s\n",
                 shard_index_, st.ToString().c_str());
}

Result<Session*> Service::OpenSession(const Request& req) {
  bool created = false;
  Result<Session*> session = sessions_.GetOrCreate(req.session, &created);
  if (!session.ok() || !created) return session;
  // Creation is the one effect that outlives a failed request, so it is
  // logged on its own and replay reproduces it.
  Status logged =
      LogRecordOp(store::RecordType::kSessionCreate, req.session, "");
  if (!logged.ok()) return logged;
  return session;
}

std::string Service::HandleApply(const Request& req, store::RecordType type) {
  const bool is_view = type == store::RecordType::kView;
  Result<std::string> text = req.GetString(is_view ? "rule" : "facts");
  if (!text.ok()) return ErrorResponse(req, text.status());
  Result<Session*> opened = OpenSession(req);
  if (!opened.ok()) return ErrorResponse(req, opened.status());
  Session& session = *opened.value();

  // All-or-nothing: a failed Apply leaves the session as it found it and
  // logs nothing. An applied record is logged before the response is
  // released: acked means logged.
  const bool certify = !is_view && CertifyRequested(req);
  ivm::MaintenanceCertificate cert;
  Result<ivm::ApplySummary> summary =
      session.Apply(ctx_, type, text.value(), certify ? &cert : nullptr);
  if (!summary.ok()) return ErrorResponse(req, summary.status());
  Status logged = LogRecordOp(type, req.session, text.value());
  if (!logged.ok()) return ErrorResponse(req, logged);

  std::string out = BeginResponse(req);
  if (is_view) {
    const ViewSet& views = session.views;
    JsonField(&out, "view", JsonQuote(views[views.size() - 1].ToString()));
    JsonField(&out, "views", StrCat(views.size()));
    JsonClose(&out);
    return out;
  }
  if (type == store::RecordType::kFact)
    JsonField(&out, "tuples_added", StrCat(summary.value().inserted));
  else
    JsonField(&out, "tuples_removed", StrCat(summary.value().retracted));
  const ivm::MaterializedViewSet& mvs = session.store;
  JsonField(&out, "total_tuples", StrCat(mvs.base().TotalTuples()));
  if (certify) {
    audit::AuditReport report;
    audit::RecordObligation(
        ctx_, &report, audit::ObligationKind::kIvmCommit, req.op, [&] {
          return audit::CheckMaintenance(ctx_, mvs.view_queries(), cert,
                                         mvs.base(), mvs.views());
        });
    JsonField(&out, "audit", report.ToJson());
  }
  JsonClose(&out);
  return out;
}

std::string Service::HandleClassify(const Request& req) {
  Result<std::string> text = req.GetString("query");
  if (!text.ok()) return ErrorResponse(req, text.status());
  Result<Query> q = ParseQuery(text.value());
  if (!q.ok()) return ErrorResponse(req, q.status());
  Status valid = q.value().Validate();
  if (!valid.ok()) return ErrorResponse(req, valid);

  ClassInfo info = ClassifyQuery(q.value());
  std::string out = BeginResponse(req);
  JsonField(&out, "class", JsonQuote(info.Name()));
  JsonField(&out, "cqac_si", info.cqac_si ? "true" : "false");
  JsonField(&out, "closed", info.closed ? "true" : "false");
  JsonField(&out, "open", info.open ? "true" : "false");
  JsonField(&out, "algorithm", JsonQuote(info.RecommendedAlgorithm()));
  JsonClose(&out);
  return out;
}

std::string Service::HandleRewrite(const Request& req) {
  Result<std::string> text = req.GetString("query");
  if (!text.ok()) return ErrorResponse(req, text.status());
  Result<Session*> session = OpenSession(req);
  if (!session.ok()) return ErrorResponse(req, session.status());
  Result<Query> q = ParseQuery(text.value());
  if (!q.ok()) return ErrorResponse(req, q.status());
  Status valid = q.value().Validate();
  if (!valid.ok()) return ErrorResponse(req, valid);

  const Query& query = q.value();
  const ViewSet& views = session.value()->views;

  // With "certify": true, the static obligations (classification, the
  // rewriting witness or the SI-MCR rules + bounded unfolding, both
  // minimizations) are re-proved by the independent auditor and attached.
  // The inputs carry no facts, so the IVM and evaluation obligations do not
  // run.
  std::string audit_json;
  if (CertifyRequested(req)) {
    audit::AuditInputs inputs;
    inputs.query = query;
    inputs.views = views;
    audit::AuditReport report;
    Status st = audit::AuditAll(ctx_, inputs, {}, &report);
    if (!st.ok()) return ErrorResponse(req, st);
    audit_json = report.ToJson();
  }

  // The planner's unified dispatch (src/rewriting/answer.cc PlanForQuery):
  // the same class-dictated engine choice the shell's `rewrite` makes, so
  // serve-mode output stays byte-identical to shell output — and it returns
  // the explicit Plan record surfaced as the "plan" field.
  Result<ViewPlan> vp = PlanForQuery(ctx_, query, views);
  if (!vp.ok()) return ErrorResponse(req, vp.status());
  const ViewPlan& plan = vp.value();
  std::string out = BeginResponse(req);
  if (plan.kind == PlanKind::kDatalog) {
    JsonField(&out, "kind", "\"datalog\"");
    JsonField(&out, "count", StrCat(plan.datalog->rules.size()));
    JsonField(&out, "text", JsonQuote(plan.datalog->ToString()));
  } else {
    JsonField(&out, "kind",
              plan.algorithm == RewriteAlgorithm::kLsiMcr ? "\"mcr\""
                                                          : "\"bucket\"");
    JsonField(&out, "count", StrCat(plan.union_plan.disjuncts.size()));
    JsonField(&out, "text", JsonQuote(plan.union_plan.ToString()));
    JsonField(&out, "json", UnionQueryToJson(plan.union_plan));
  }
  JsonField(&out, "plan", plan.plan.ToJson());
  if (!audit_json.empty()) JsonField(&out, "audit", audit_json);
  JsonClose(&out);
  return out;
}

std::string Service::HandleContain(const Request& req) {
  Result<std::string> qtext = req.GetString("query");
  if (!qtext.ok()) return ErrorResponse(req, qtext.status());
  Result<std::string> ctext = req.GetString("candidate");
  if (!ctext.ok()) return ErrorResponse(req, ctext.status());
  Result<Session*> session = OpenSession(req);
  if (!session.ok()) return ErrorResponse(req, session.status());

  Result<Query> q = ParseQuery(qtext.value());
  if (!q.ok()) return ErrorResponse(req, q.status());
  Result<Query> c = ParseQuery(ctext.value());
  if (!c.ok()) return ErrorResponse(req, c.status());

  bool via_expansion = false;
  Result<bool> contained = IsContainedThroughExpansion(
      ctx_, c.value(), q.value(), session.value()->views, &via_expansion);
  if (!contained.ok()) return ErrorResponse(req, contained.status());

  std::string out = BeginResponse(req);
  JsonField(&out, "contained", contained.value() ? "true" : "false");
  JsonField(&out, "via_expansion", via_expansion ? "true" : "false");
  JsonClose(&out);
  return out;
}

std::string Service::HandleEval(const Request& req) {
  Result<std::string> text = req.GetString("query");
  if (!text.ok()) return ErrorResponse(req, text.status());
  Result<Session*> session = OpenSession(req);
  if (!session.ok()) return ErrorResponse(req, session.status());
  Result<Query> q = ParseQuery(text.value());
  if (!q.ok()) return ErrorResponse(req, q.status());
  Status valid = q.value().Validate();
  if (!valid.ok()) return ErrorResponse(req, valid);

  const Database& base = session.value()->store.base();
  Result<Relation> r = EvaluateQuery(ctx_, q.value(), base);
  if (!r.ok()) return ErrorResponse(req, r.status());

  // The same join-order decision EvaluateQuery just made (it plans from
  // the database alone, so recomputing it here is exact), surfaced as an
  // explicit plan record.
  plan::Plan eval_plan;
  eval_plan.decisions.push_back(
      plan::PlanJoinOrder(q.value(), DatabaseCardinalities(base))
          .ToDecision());

  std::string out = BeginResponse(req);
  JsonField(&out, "count", StrCat(r.value().size()));
  JsonField(&out, "tuples", RelationToJson(r.value()));
  JsonField(&out, "plan", eval_plan.ToJson());
  JsonField(&out, "maintained",
            session.value()->store.maintained() ? "true" : "false");
  if (CertifyRequested(req)) {
    // The engine result is certified against the naive reference evaluator.
    audit::AuditReport report;
    audit::RecordObligation(
        ctx_, &report, audit::ObligationKind::kEval, text.value(),
        [&]() -> Status {
          Result<Relation> ref = EvaluateQueryReference(
              q.value(), session.value()->store.base());
          CQAC_RETURN_IF_ERROR(ref.status());
          if (ref.value() != r.value())
            return Status::InvalidArgument(
                StrCat("certificate rejected: engine evaluation returned ",
                       r.value().size(), " tuples, the reference returned ",
                       ref.value().size()));
          return Status::OK();
        });
    JsonField(&out, "audit", report.ToJson());
  }
  JsonClose(&out);
  return out;
}

std::string Service::HandleAnswers(const Request& req) {
  Result<std::string> text = req.GetString("query");
  if (!text.ok()) return ErrorResponse(req, text.status());
  Result<Session*> session = OpenSession(req);
  if (!session.ok()) return ErrorResponse(req, session.status());
  Result<Query> q = ParseQuery(text.value());
  if (!q.ok()) return ErrorResponse(req, q.status());
  Status valid = q.value().Validate();
  if (!valid.ok()) return ErrorResponse(req, valid);

  // The session's store keeps the view database maintained under fact /
  // retract, so answers read warm state instead of rematerializing every
  // view per request.
  size_t rewriting_count = 0;
  Result<Relation> r =
      CertainAnswers(ctx_, q.value(), session.value()->views,
                     session.value()->store.views(), &rewriting_count);
  if (!r.ok()) {
    // CertainAnswers' own refusals (a Datalog MCR, no rewriting) go out
    // as bare messages, without the status-code prefix.
    const Status& st = r.status();
    if (st.code() == StatusCode::kUnsupported ||
        st.code() == StatusCode::kNotFound)
      return ErrorResponse(&req, ServeErrorCodeFromStatus(st.code()),
                           st.message());
    return ErrorResponse(req, st);
  }

  std::string out = BeginResponse(req);
  JsonField(&out, "count", StrCat(r.value().size()));
  JsonField(&out, "tuples", RelationToJson(r.value()));
  JsonField(&out, "rewriting_count", StrCat(rewriting_count));
  JsonField(&out, "maintained",
            session.value()->store.maintained() ? "true" : "false");
  JsonClose(&out);
  return out;
}

std::string Service::HandleLint(const Request& req) {
  Result<std::string> program = req.GetString("program");
  if (!program.ok()) return ErrorResponse(req, program.status());

  std::vector<LintDiagnostic> diags = LintFileText(program.value());
  size_t errors = 0, warnings = 0, notes = 0;
  for (const LintDiagnostic& d : diags) {
    if (d.severity == LintSeverity::kError)
      ++errors;
    else if (d.severity == LintSeverity::kWarning)
      ++warnings;
    else
      ++notes;
  }

  std::string out = BeginResponse(req);
  JsonField(&out, "diagnostics", DiagnosticsToJson(diags));
  JsonField(&out, "errors", StrCat(errors));
  JsonField(&out, "warnings", StrCat(warnings));
  JsonField(&out, "notes", StrCat(notes));
  JsonField(&out, "max_severity",
            diags.empty()
                ? "\"none\""
                : StrCat("\"", LintSeverityName(MaxLintSeverity(diags)),
                         "\""));
  JsonClose(&out);
  return out;
}

std::string Service::HandleStats(const Request& req) {
  Result<std::string> scope = req.GetStringOr("scope", "global");
  if (!scope.ok()) return ErrorResponse(req, scope.status());

  if (scope.value() == "session") {
    Session* session = sessions_.Find(req.session);
    if (session == nullptr)
      return ErrorResponse(&req, ServeErrorCode::kNotFound,
                           StrCat("session '", req.session, "' not found"));
    std::string out = BeginResponse(req);
    JsonField(&out, "scope", "\"session\"");
    JsonField(&out, "session", JsonQuote(session->name));
    JsonField(&out, "shard", StrCat(shard_index_));
    JsonField(&out, "views", StrCat(session->views.size()));
    JsonField(&out, "facts", StrCat(session->store.base().TotalTuples()));
    JsonField(&out, "requests",
              StrCat(session->stats.requests.load(
                  std::memory_order_relaxed)));
    JsonField(
        &out, "errors",
        StrCat(session->stats.errors.load(std::memory_order_relaxed)));
    JsonField(&out, "engine", session->stats.engine.ToJson());
    JsonClose(&out);
    return out;
  }
  if (scope.value() != "global")
    return ErrorResponse(&req, ServeErrorCode::kInvalidArgument,
                         "field \"scope\" must be \"global\" or \"session\"");

  // Global scope aggregates over every shard. The sharded server installs
  // a cluster view; a standalone service reports itself as a one-shard
  // cluster through the same rendering path.
  std::vector<ShardSummary> shards =
      cluster_view_ ? cluster_view_() : std::vector<ShardSummary>{Summary()};

  StatsSnapshot engine_total;
  uint64_t cache_bytes = 0, cache_entries = 0, threads = 0;
  uint64_t requests = 0, request_errors = 0;
  std::vector<const SessionIndexEntry*> sessions;
  for (const ShardSummary& s : shards) {
    engine_total += s.engine;
    cache_bytes += s.cache_bytes;
    cache_entries += s.cache_entries;
    threads += s.threads;
    requests += s.requests;
    request_errors += s.request_errors;
    for (const SessionIndexEntry& e : s.session_index) sessions.push_back(&e);
  }
  // Session names are pinned: a name lives on exactly one shard, so the
  // merged index is duplicate-free; sort for a deterministic rendering.
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionIndexEntry* a, const SessionIndexEntry* b) {
              return a->name < b->name;
            });
  std::string sessions_json = "[";
  for (size_t i = 0; i < sessions.size(); ++i)
    sessions_json += StrCat(i ? "," : "", "{\"name\":",
                            JsonQuote(sessions[i]->name),
                            ",\"requests\":", sessions[i]->requests,
                            ",\"errors\":", sessions[i]->errors, "}");
  sessions_json += "]";

  std::string shard_stats_json = "[";
  for (size_t i = 0; i < shards.size(); ++i)
    shard_stats_json += StrCat(i ? "," : "", shards[i].ToJson());
  shard_stats_json += "]";

  std::string out = BeginResponse(req);
  JsonField(&out, "scope", "\"global\"");
  JsonField(&out, "shards", StrCat(shards.size()));
  JsonField(&out, "engine", engine_total.ToJson());
  JsonField(&out, "cache", StrCat("{\"bytes\":", cache_bytes,
                                  ",\"entries\":", cache_entries, "}"));
  JsonField(&out, "threads", StrCat(threads));
  JsonField(&out, "requests", StrCat(requests));
  JsonField(&out, "request_errors", StrCat(request_errors));
  JsonField(&out, "sessions", sessions_json);
  JsonField(&out, "shard_stats", shard_stats_json);
  JsonClose(&out);
  return out;
}

std::string Service::HandleReset(const Request& req) {
  bool existed = sessions_.Drop(req.session);
  if (existed) {
    Status logged =
        LogRecordOp(store::RecordType::kSessionDrop, req.session, "");
    if (!logged.ok()) return ErrorResponse(req, logged);
  }
  std::string out = BeginResponse(req);
  JsonField(&out, "existed", existed ? "true" : "false");
  JsonClose(&out);
  return out;
}

}  // namespace serve
}  // namespace cqac
