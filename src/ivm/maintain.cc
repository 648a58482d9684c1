#include "src/ivm/maintain.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/parallel.h"
#include "src/eval/evaluate.h"
#include "src/plan/planner.h"

namespace cqac {
namespace ivm {

namespace {

/// Accumulates head-tuple multiplicities in flat sorted runs instead of a
/// per-row std::map insert: pending tuples sort in contiguous memory, equal
/// runs collapse to (tuple, count) pairs, and successive flushes merge two
/// sorted lists. The final map splices together from the sorted pairs with
/// an end hint. Periodic compaction bounds memory at roughly twice the
/// distinct-tuple count.
class CountBuilder {
 public:
  void Add(const Tuple& t) {
    pending_.push_back(t);
    if (pending_.size() >= watermark_) Compact();
  }

  /// Folds sign x multiplicity into *counts and resets the builder.
  void MoveInto(int64_t sign, std::map<Tuple, int64_t>* counts) {
    Compact();
    if (counts->empty()) {
      for (auto& [t, c] : acc_)
        counts->emplace_hint(counts->end(), std::move(t), sign * c);
    } else {
      for (const auto& [t, c] : acc_) (*counts)[t] += sign * c;
    }
    acc_.clear();
  }

 private:
  void Compact() {
    if (pending_.empty()) return;
    std::sort(pending_.begin(), pending_.end());
    std::vector<std::pair<Tuple, int64_t>> runs;
    for (Tuple& t : pending_) {
      if (!runs.empty() && runs.back().first == t)
        ++runs.back().second;
      else
        runs.emplace_back(std::move(t), 1);
    }
    pending_.clear();
    if (acc_.empty()) {
      acc_ = std::move(runs);
    } else {
      std::vector<std::pair<Tuple, int64_t>> merged;
      merged.reserve(acc_.size() + runs.size());
      size_t i = 0, j = 0;
      while (i < acc_.size() && j < runs.size()) {
        if (acc_[i].first < runs[j].first) {
          merged.push_back(std::move(acc_[i++]));
        } else if (runs[j].first < acc_[i].first) {
          merged.push_back(std::move(runs[j++]));
        } else {
          acc_[i].second += runs[j++].second;
          merged.push_back(std::move(acc_[i++]));
        }
      }
      for (; i < acc_.size(); ++i) merged.push_back(std::move(acc_[i]));
      for (; j < runs.size(); ++j) merged.push_back(std::move(runs[j]));
      acc_ = std::move(merged);
    }
    watermark_ = std::max<size_t>(kMinWatermark, 2 * acc_.size());
  }

  static constexpr size_t kMinWatermark = 4096;
  std::vector<Tuple> pending_;
  std::vector<std::pair<Tuple, int64_t>> acc_;
  size_t watermark_ = kMinWatermark;
};

/// Joins `q` over `inputs` batch-at-a-time and folds `sign` into *counts
/// for every satisfying head projection — the one join shape both the
/// rebuild path and the subset-expansion delta phases count with. Returns
/// false iff the context aborted the join.
bool CountJoin(EngineContext& ctx, const Query& q,
               const std::vector<JoinInput>& inputs, int64_t sign,
               std::map<Tuple, int64_t>* counts) {
  BatchHeadProjector proj(q);
  CountBuilder builder;
  const bool ok = JoinBodyBatches(
      q, inputs,
      [&](const Batch& b, const std::vector<int>& var_col) {
        proj.ForEachHead(b, var_col,
                         [&](const Tuple& head) { builder.Add(head); });
        return true;
      },
      [&ctx] { return !ctx.ShouldStop(); }, &ctx.stats());
  if (ok) builder.MoveInto(sign, counts);
  return ok;
}

bool ContainsIn(const std::map<std::string, Relation>& m, const std::string& p,
                const Tuple& t) {
  auto it = m.find(p);
  return it != m.end() && it->second.count(t) > 0;
}

/// Counts tuples appearing on exactly one side, per predicate. Both sides
/// are ordered sets, so one linear merge-walk replaces per-tuple lookups.
void DiffTuples(const Database& before, const Database& after, size_t* added,
                size_t* removed) {
  std::set<std::string> preds;
  for (const auto& [p, r] : before.relations()) preds.insert(p);
  for (const auto& [p, r] : after.relations()) preds.insert(p);
  for (const std::string& p : preds) {
    const Relation& b = before.Get(p);
    const Relation& a = after.Get(p);
    auto ib = b.begin();
    auto ia = a.begin();
    while (ib != b.end() && ia != a.end()) {
      if (*ib < *ia) {
        ++*removed;
        ++ib;
      } else if (*ia < *ib) {
        ++*added;
        ++ia;
      } else {
        ++ib;
        ++ia;
      }
    }
    *removed += static_cast<size_t>(std::distance(ib, b.end()));
    *added += static_cast<size_t>(std::distance(ia, a.end()));
  }
}

Status BudgetExhausted(EngineContext& ctx) {
  ++ctx.stats().budget_exhaustions;
  return Status::ResourceExhausted("ivm maintenance exceeded the budget");
}

/// Merge-walks two ordered count maps into the touched-tuple set (entries
/// whose count changed; absence means 0).
std::vector<TupleCountDelta> DiffCounts(const std::map<Tuple, int64_t>& before,
                                        const std::map<Tuple, int64_t>& after) {
  std::vector<TupleCountDelta> out;
  auto ib = before.begin();
  auto ia = after.begin();
  while (ib != before.end() || ia != after.end()) {
    TupleCountDelta d;
    if (ia == after.end() || (ib != before.end() && ib->first < ia->first)) {
      d.tuple = ib->first;
      d.old_count = ib->second;
      ++ib;
    } else if (ib == before.end() || ia->first < ib->first) {
      d.tuple = ia->first;
      d.new_count = ia->second;
      ++ia;
    } else {
      d.tuple = ib->first;
      d.old_count = ib->second;
      d.new_count = ia->second;
      ++ib;
      ++ia;
    }
    if (d.old_count != d.new_count) out.push_back(std::move(d));
  }
  return out;
}

/// A relation as a 0/1-presence count map (the DRed certificate view).
std::map<Tuple, int64_t> PresenceCounts(const Relation& rel) {
  std::map<Tuple, int64_t> out;
  for (const Tuple& t : rel) out.emplace_hint(out.end(), t, 1);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// MaterializedViewSet
// ---------------------------------------------------------------------------

Status MaterializedViewSet::AddView(EngineContext& ctx, const Query& view) {
  CQAC_RETURN_IF_ERROR(view.Validate());
  for (const Query& q : view_queries_)
    if (q.head().predicate == view.head().predicate)
      return Status::InvalidArgument(StrCat("view '", view.head().predicate,
                                            "' is already materialized"));
  view_queries_.push_back(view);
  counts_.emplace_back();
  Status st = RebuildView(ctx, view_queries_.size() - 1);
  if (!st.ok()) {
    view_queries_.pop_back();
    counts_.pop_back();
  }
  return st;
}

Status MaterializedViewSet::ResetViews(EngineContext& ctx,
                                       const ViewSet& views) {
  view_queries_.clear();
  counts_.clear();
  views_ = Database();
  for (const Query& v : views.views()) CQAC_RETURN_IF_ERROR(AddView(ctx, v));
  return Status::OK();
}

void MaterializedViewSet::Reset() {
  base_ = Database();
  views_ = Database();
  view_queries_.clear();
  counts_.clear();
  maintained_ = false;
}

Status MaterializedViewSet::RestoreSnapshot(Database base,
                                            std::vector<Query> views,
                                            std::vector<CountMap> counts,
                                            Database view_db,
                                            bool maintained) {
  if (views.size() != counts.size())
    return Status::InvalidArgument(
        StrCat("restore: ", views.size(), " views but ", counts.size(),
               " count maps"));
  for (size_t i = 0; i < views.size(); ++i) {
    CQAC_RETURN_IF_ERROR(views[i].Validate());
    // Cheap shape check: the materialized relation must hold exactly the
    // positively counted tuples. Anything else means the snapshot sections
    // disagree — corrupt despite per-frame CRCs, so refuse to adopt.
    const Relation& rel = view_db.Get(views[i].head().predicate);
    if (rel.size() != counts[i].size())
      return Status::Inconsistent(
          StrCat("restore: view '", views[i].head().predicate, "' has ",
                 rel.size(), " tuples but ", counts[i].size(), " counts"));
    for (const auto& [tuple, count] : counts[i])
      if (count <= 0 || rel.count(tuple) == 0)
        return Status::Inconsistent(
            StrCat("restore: count map of view '", views[i].head().predicate,
                   "' disagrees with its materialization"));
  }
  base_ = std::move(base);
  views_ = std::move(view_db);
  view_queries_ = std::move(views);
  counts_ = std::move(counts);
  maintained_ = maintained;
  return Status::OK();
}

Status MaterializedViewSet::RebuildView(EngineContext& ctx, size_t i) {
  const Query& q = view_queries_[i];
  CountMap counts;
  if (!CountJoin(ctx, q, OwnedInputs(q, base_), 1, &counts))
    return BudgetExhausted(ctx);

  counts_[i] = std::move(counts);
  // The count map is keyed in tuple order, so the view relation splices
  // together from the already-sorted key range.
  Relation tuples;
  for (const auto& [t, c] : counts_[i]) tuples.insert(tuples.end(), t);
  CQAC_RETURN_IF_ERROR(
      views_.InsertRelation(q.head().predicate, std::move(tuples)));
  return Status::OK();
}

Result<ApplySummary> MaterializedViewSet::Apply(EngineContext& ctx,
                                                const DeltaDatabase& delta,
                                                const MaintainOptions& options,
                                                MaintenanceCertificate* cert) {
  if (&delta.base() != &base_)
    return Status::InvalidArgument(
        "delta was staged against a different database");
  // Certified applies diff the pre/post count maps; the snapshot is
  // O(state), which is the price of an independently checkable commit.
  std::vector<CountMap> before;
  if (cert != nullptr) before = counts_;
  auto fill_cert = [&](const ApplySummary& s) {
    if (cert == nullptr) return;
    cert->views.clear();
    cert->summary = s;
    cert->counting = true;
    for (size_t i = 0; i < view_queries_.size(); ++i) {
      ViewDelta vd;
      vd.predicate = view_queries_[i].head().predicate;
      vd.deltas =
          DiffCounts(i < before.size() ? before[i] : CountMap{}, counts_[i]);
      cert->views.push_back(std::move(vd));
    }
  };
  ApplySummary summary;
  if (delta.empty()) {
    summary.incremental = true;
    fill_cert(summary);
    return summary;
  }
  ++ctx.stats().ivm_applies;
  ctx.stats().ivm_base_delta_tuples += delta.delta_tuples();
  summary.inserted = delta.plus().TotalTuples();
  summary.retracted = delta.minus().TotalTuples();

  // Route the incremental-vs-rebuild choice through the planner: raw work
  // estimates from the cost model, pins and the subset-expansion cap from
  // the options, calibration factors from ctx.adaptive().
  auto size_of = [this](const std::string& p) { return base_.Get(p).size(); };
  auto plus_size = [&delta](const std::string& p) {
    return delta.plus().Get(p).size();
  };
  auto minus_size = [&delta](const std::string& p) {
    return delta.minus().Get(p).size();
  };
  double incremental = 0;
  double full = 0;
  size_t max_touched = 0;
  for (const Query& q : view_queries_) {
    incremental += plan::CountingDeltaEstimate(q, plus_size) +
                   plan::CountingDeltaEstimate(q, minus_size);
    full += plan::CountingRebuildEstimate(q, size_of);
    for (const Database* side : {&delta.plus(), &delta.minus()}) {
      size_t touched = 0;
      for (const Atom& a : q.body())
        if (!side->Get(a.predicate).empty()) ++touched;
      max_touched = std::max(max_touched, touched);
    }
  }
  const plan::IvmPathChoice choice = plan::ChooseIvmPath(
      ctx, plan::IvmKind::kCounting, incremental, full, options.rebuild_bias,
      max_touched, options.max_subset_positions, options.force_incremental,
      options.force_rebuild);

  if (choice.rebuild) {
    ++ctx.stats().ivm_rebuild_fallbacks;
    // All-or-nothing: a rebuild that runs out of budget puts the base back
    // (tuples, relation entries, sketches) and restores the old views and
    // counts — O(delta) undo plus the small sketch table.
    const plan::RelationStats stats_before = base_.stats();
    std::vector<std::string> created;
    for (const auto& [pred, rel] : delta.plus().relations())
      if (!base_.Has(pred)) created.push_back(pred);
    CQAC_RETURN_IF_ERROR(delta.CommitTo(&base_));
    Database old_views = std::move(views_);
    std::vector<CountMap> old_counts = std::move(counts_);
    views_ = Database();
    counts_.assign(view_queries_.size(), CountMap{});
    for (size_t i = 0; i < view_queries_.size(); ++i) {
      Status st = RebuildView(ctx, i);
      if (st.ok()) continue;
      for (const auto& [pred, rel] : delta.plus().relations())
        for (const Tuple& t : rel) base_.Remove(pred, t);
      for (const auto& [pred, rel] : delta.minus().relations())
        for (const Tuple& t : rel) (void)base_.Insert(pred, t);  // was there
      for (const std::string& pred : created) base_.EraseRelation(pred);
      base_.RestoreStats(stats_before);
      views_ = std::move(old_views);
      counts_ = std::move(old_counts);
      return st;
    }
    DiffTuples(old_views, views_, &summary.view_tuples_added,
               &summary.view_tuples_removed);
    ctx.stats().ivm_view_delta_tuples +=
        summary.view_tuples_added + summary.view_tuples_removed;
    maintained_ = false;
    summary.incremental = false;
    // Calibration feedback: a rebuild's work is linear in the scanned base
    // plus the rewritten view tuples (thread-invariant counts).
    plan::ObserveIvmOutcome(
        ctx, plan::IvmKind::kCounting, choice,
        static_cast<double>(base_.TotalTuples() + summary.view_tuples_added +
                            summary.view_tuples_removed));
    fill_cert(summary);
    return summary;
  }

  ++ctx.stats().ivm_incremental_applies;

  // One phase = one side of the delta counted via subset expansion: tasks
  // fan out over (view, touched-position subset, delta chunk) and
  // accumulate per-slot count maps. Positions in the subset read the staged
  // side as bare relations, every other position reads the plain base_
  // through base_'s own column indexes — the insert phase runs before its
  // commit (old base) and the retract phase after (post base), which is
  // exactly what the expansion (B±D)^n - B^n needs. No overlay relation is
  // copied and base_'s indexes persist across applies (every commit below
  // patches them), so a small batch is O(delta) work end to end. Counts are additive, so the merge commutes
  // and the result is identical at every thread count; slots are still
  // merged in task order for good measure.
  auto run_phase = [&](const Database& delta_side,
                       int64_t sign) -> Result<std::vector<CountMap>> {
    struct Task {
      size_t view;
      const Query* q;  // view query with the delta positions joined first
      std::vector<JoinInput> inputs;
    };
    std::deque<Relation> chunk_store;  // stable addresses for chunked deltas
    std::deque<Query> query_store;     // stable addresses for reordered queries
    std::vector<Task> tasks;
    const size_t max_chunks =
        ctx.parallelism() > 0 && !TaskPool::InPoolTask()
            ? 4 * (ctx.parallelism() + 1)
            : 1;
    for (size_t v = 0; v < view_queries_.size(); ++v) {
      const Query& q = view_queries_[v];
      std::vector<size_t> touched;
      for (size_t i = 0; i < q.body().size(); ++i)
        if (!delta_side.Get(q.body()[i].predicate).empty()) touched.push_back(i);
      if (touched.empty()) continue;
      for (uint64_t mask = 1; mask < (uint64_t{1} << touched.size()); ++mask) {
        std::vector<char> from_delta(q.body().size(), 0);
        for (size_t b = 0; b < touched.size(); ++b)
          if ((mask >> b) & 1) from_delta[touched[b]] = 1;

        // Delta-first join order: the (tiny) delta positions bind their
        // variables immediately, so every base position becomes an indexed
        // probe instead of a leading full scan. The binding is by variable
        // id, so reordering never changes the counted set.
        std::vector<size_t> order;
        order.reserve(q.body().size());
        for (size_t i = 0; i < q.body().size(); ++i)
          if (from_delta[i]) order.push_back(i);
        for (size_t i = 0; i < q.body().size(); ++i)
          if (!from_delta[i]) order.push_back(i);
        query_store.push_back(q);
        Query& rq = query_store.back();
        rq.body().clear();
        for (size_t i : order) rq.body().push_back(q.body()[i]);

        std::vector<JoinInput> inputs;
        inputs.reserve(order.size());
        for (size_t i : order) {
          const std::string& p = q.body()[i].predicate;
          inputs.push_back(from_delta[i] ? JoinInput::Bare(delta_side.Get(p))
                                         : JoinInput::Owned(base_, p));
        }

        // Chunk the leading delta relation for pool fan-out.
        const Relation& d = *inputs[0].rel;
        std::vector<const Relation*> pivots;
        if (max_chunks <= 1 || d.size() < 2 * max_chunks) {
          pivots.push_back(&d);
        } else {
          const size_t num_chunks = std::min(d.size(), max_chunks);
          std::vector<Relation*> chunks;
          for (size_t c = 0; c < num_chunks; ++c) {
            chunk_store.emplace_back();
            chunks.push_back(&chunk_store.back());
          }
          size_t idx = 0;
          for (const Tuple& t : d) chunks[idx++ % num_chunks]->insert(t);
          pivots.assign(chunks.begin(), chunks.end());
        }
        for (const Relation* pivot : pivots) {
          Task task;
          task.view = v;
          task.q = &rq;
          task.inputs = inputs;
          task.inputs[0] = JoinInput::Bare(*pivot);
          tasks.push_back(std::move(task));
        }
      }
    }

    std::vector<CountMap> slots(tasks.size());
    std::vector<char> aborted(tasks.size(), 0);
    CtxParallelFor(ctx, tasks.size(), [&](size_t t) {
      if (!CountJoin(ctx, *tasks[t].q, tasks[t].inputs, sign, &slots[t]))
        aborted[t] = 1;
    });
    for (char a : aborted)
      if (a) return BudgetExhausted(ctx);

    std::vector<CountMap> merged(view_queries_.size());
    for (size_t t = 0; t < tasks.size(); ++t)
      for (const auto& [tuple, d] : slots[t]) merged[tasks[t].view][tuple] += d;
    return merged;
  };

  // Retract phase: commit the removals first (Remove patches base_'s
  // indexes tuple by tuple), then count the lost derivations against the
  // post-delete base.
  if (summary.retracted > 0) {
    for (const auto& [pred, rel] : delta.minus().relations())
      for (const Tuple& t : rel)
        if (!base_.Remove(pred, t))
          return Status::Internal("staged retraction of absent tuple");
    Result<std::vector<CountMap>> merged = run_phase(delta.minus(), -1);
    if (!merged.ok()) {
      // O(delta) rollback: an aborted phase must leave base and views in
      // agreement, so put the removed tuples back (Insert re-indexes them)
      // before reporting the abort.
      for (const auto& [pred, rel] : delta.minus().relations())
        for (const Tuple& t : rel) (void)base_.Insert(pred, t);  // was there
      return merged.status();
    }
    for (size_t i = 0; i < view_queries_.size(); ++i)
      CQAC_RETURN_IF_ERROR(FoldCounts(i, merged.value()[i], &summary));
  }

  // Insert phase: count against the post-retract, pre-insert base (the
  // expansion reads the old base on non-delta positions), then commit the
  // insertions (Insert patches the indexes).
  if (summary.inserted > 0) {
    CQAC_ASSIGN_OR_RETURN(std::vector<CountMap> merged,
                          run_phase(delta.plus(), +1));
    for (const auto& [pred, rel] : delta.plus().relations())
      for (const Tuple& t : rel) CQAC_RETURN_IF_ERROR(base_.Insert(pred, t));
    for (size_t i = 0; i < view_queries_.size(); ++i)
      CQAC_RETURN_IF_ERROR(FoldCounts(i, merged[i], &summary));
  }

  ctx.stats().ivm_view_delta_tuples +=
      summary.view_tuples_added + summary.view_tuples_removed;
  maintained_ = true;
  summary.incremental = true;
  // Calibration feedback: incremental work is linear in the delta plus the
  // view tuples it touched (thread-invariant counts).
  plan::ObserveIvmOutcome(
      ctx, plan::IvmKind::kCounting, choice,
      static_cast<double>(delta.delta_tuples() + summary.view_tuples_added +
                          summary.view_tuples_removed));
  fill_cert(summary);
  return summary;
}

Status MaterializedViewSet::FoldCounts(size_t i, const CountMap& delta,
                                       ApplySummary* summary) {
  const std::string& pred = view_queries_[i].head().predicate;
  for (const auto& [tuple, d] : delta) {
    if (d == 0) continue;
    auto it = counts_[i].find(tuple);
    const int64_t old_count = it == counts_[i].end() ? 0 : it->second;
    const int64_t new_count = old_count + d;
    if (new_count < 0)
      return Status::Internal(
          StrCat("negative derivation count for view '", pred, "'"));
    if (old_count == 0 && new_count > 0) {
      counts_[i].emplace(tuple, new_count);
      CQAC_RETURN_IF_ERROR(views_.Insert(pred, tuple));
      ++summary->view_tuples_added;
    } else if (old_count > 0 && new_count == 0) {
      counts_[i].erase(it);
      views_.Remove(pred, tuple);
      ++summary->view_tuples_removed;
    } else if (old_count > 0) {
      it->second = new_count;
    }
  }
  return Status::OK();
}

Result<ApplySummary> MaterializedViewSet::ApplyInsert(
    EngineContext& ctx, const Database& facts, const MaintainOptions& options,
    MaintenanceCertificate* cert) {
  DeltaDatabase delta(&base_);
  CQAC_RETURN_IF_ERROR(delta.StageInsertAll(facts));
  return Apply(ctx, delta, options, cert);
}

Result<ApplySummary> MaterializedViewSet::ApplyRetract(
    EngineContext& ctx, const Database& facts, const MaintainOptions& options,
    MaintenanceCertificate* cert) {
  DeltaDatabase delta(&base_);
  CQAC_RETURN_IF_ERROR(delta.StageRetractAll(facts));
  return Apply(ctx, delta, options, cert);
}

// ---------------------------------------------------------------------------
// MaintainedProgram
// ---------------------------------------------------------------------------

namespace {

/// One rule firing with a fixed relation assignment; the unit the DRed and
/// resume rounds fan out over the context's pool.
struct FireTask {
  size_t rule;
  std::vector<const Relation*> rels;
};

/// Runs every task (possibly in parallel), keeping emitted head tuples that
/// pass `keep` (which must be safe to call concurrently and read-only), and
/// merges per-slot results into `*out` in task order. Sets are merged, so
/// the content is scheduling-independent.
Status RunFireTasks(EngineContext& ctx, const datalog::Engine& engine,
                    const std::vector<FireTask>& tasks,
                    FunctionRef<bool(const std::string&, const Tuple&)> keep,
                    std::map<std::string, Relation>* out) {
  std::vector<std::map<std::string, Relation>> slots(tasks.size());
  std::vector<Status> statuses(tasks.size(), Status::OK());
  std::vector<char> aborted(tasks.size(), 0);
  CtxParallelFor(ctx, tasks.size(), [&](size_t t) {
    if (ctx.ShouldStop()) {
      aborted[t] = 1;
      return;
    }
    statuses[t] = engine.FireRule(
        tasks[t].rule, tasks[t].rels,
        [&](const std::string& pred, Tuple tuple) {
          if (keep(pred, tuple)) slots[t][pred].insert(std::move(tuple));
        });
  });
  for (char a : aborted)
    if (a) return BudgetExhausted(ctx);
  for (size_t t = 0; t < tasks.size(); ++t) {
    CQAC_RETURN_IF_ERROR(statuses[t]);
    for (auto& [pred, rel] : slots[t])
      (*out)[pred].insert(rel.begin(), rel.end());
  }
  return Status::OK();
}

}  // namespace

MaintainedProgram::MaintainedProgram(datalog::Engine engine,
                                     datalog::EvalOptions options)
    : engine_(std::move(engine)),
      options_(options),
      idb_preds_(engine_.IdbPredicates()) {}

Status MaintainedProgram::Initialize(EngineContext& ctx, const Database& edb) {
  (void)ctx;
  CQAC_ASSIGN_OR_RETURN(idb_, engine_.Evaluate(edb, options_));
  edb_ = edb;
  maintained_ = false;
  return Status::OK();
}

Relation MaintainedProgram::QueryAnswers() const {
  Relation out;
  for (const Tuple& t : idb_.Get(engine_.query_predicate())) {
    bool has_skolem = false;
    for (const Value& v : t)
      if (datalog::IsSkolemValue(v)) has_skolem = true;
    if (!has_skolem) out.insert(t);
  }
  return out;
}

Result<ApplySummary> MaintainedProgram::Apply(EngineContext& ctx,
                                              const DeltaDatabase& delta,
                                              const MaintainOptions& options,
                                              MaintenanceCertificate* cert) {
  if (&delta.base() != &edb_)
    return Status::InvalidArgument(
        "delta was staged against a different database");
  for (const Database* side : {&delta.plus(), &delta.minus()})
    for (const auto& [pred, rel] : side->relations())
      if (!rel.empty() && idb_preds_.count(pred))
        return Status::InvalidArgument(
            StrCat("cannot stage changes to IDB predicate '", pred, "'"));

  // Certified applies diff pre/post IDB presence (tuples are derived or
  // not — DRed keeps no counts).
  std::map<std::string, std::map<Tuple, int64_t>> before;
  if (cert != nullptr)
    for (const std::string& p : idb_preds_)
      before.emplace(p, PresenceCounts(idb_.Get(p)));
  auto fill_cert = [&](const ApplySummary& s) {
    if (cert == nullptr) return;
    cert->views.clear();
    cert->summary = s;
    cert->counting = false;
    for (const std::string& p : idb_preds_) {
      ViewDelta vd;
      vd.predicate = p;
      vd.deltas = DiffCounts(before[p], PresenceCounts(idb_.Get(p)));
      cert->views.push_back(std::move(vd));
    }
  };

  ApplySummary summary;
  if (delta.empty()) {
    summary.incremental = true;
    fill_cert(summary);
    return summary;
  }
  ++ctx.stats().ivm_applies;
  ctx.stats().ivm_base_delta_tuples += delta.delta_tuples();
  summary.inserted = delta.plus().TotalTuples();
  summary.retracted = delta.minus().TotalTuples();

  auto size_of = [this](const std::string& p) {
    return idb_preds_.count(p) ? idb_.Get(p).size() : edb_.Get(p).size();
  };
  auto plus_size = [&delta](const std::string& p) {
    return delta.plus().Get(p).size();
  };
  auto minus_size = [&delta](const std::string& p) {
    return delta.minus().Get(p).size();
  };
  double incremental = 0;
  double full = 0;
  for (const datalog::EngineRule& er : engine_.rules()) {
    incremental += plan::DredDeltaEstimate(er.rule, plus_size, size_of) +
                   plan::DredDeltaEstimate(er.rule, minus_size, size_of);
    full += plan::DredRebuildEstimate(er.rule, size_of);
  }
  const plan::IvmPathChoice choice = plan::ChooseIvmPath(
      ctx, plan::IvmKind::kDred, incremental, full, options.rebuild_bias,
      /*max_touched=*/0, /*max_subset_positions=*/0, options.force_incremental,
      options.force_rebuild);

  if (choice.rebuild) {
    ++ctx.stats().ivm_rebuild_fallbacks;
    CQAC_RETURN_IF_ERROR(delta.CommitTo(&edb_));
    Database old_idb = std::move(idb_);
    idb_ = Database();
    CQAC_ASSIGN_OR_RETURN(idb_, engine_.Evaluate(edb_, options_));
    DiffTuples(old_idb, idb_, &summary.view_tuples_added,
               &summary.view_tuples_removed);
    ctx.stats().ivm_view_delta_tuples +=
        summary.view_tuples_added + summary.view_tuples_removed;
    maintained_ = false;
    summary.incremental = false;
    plan::ObserveIvmOutcome(
        ctx, plan::IvmKind::kDred, choice,
        static_cast<double>(edb_.TotalTuples() + idb_.TotalTuples()));
    fill_cert(summary);
    return summary;
  }

  ++ctx.stats().ivm_incremental_applies;
  CQAC_RETURN_IF_ERROR(ApplyDeletes(ctx, delta.minus(), &summary));
  CQAC_RETURN_IF_ERROR(ApplyInserts(ctx, delta.plus(), &summary));
  ctx.stats().ivm_view_delta_tuples +=
      summary.view_tuples_added + summary.view_tuples_removed;
  maintained_ = true;
  summary.incremental = true;
  plan::ObserveIvmOutcome(
      ctx, plan::IvmKind::kDred, choice,
      static_cast<double>(delta.delta_tuples() + summary.view_tuples_added +
                          summary.view_tuples_removed));
  fill_cert(summary);
  return summary;
}

Status MaintainedProgram::Resume(EngineContext& ctx,
                                 std::map<std::string, Relation> delta) {
  const std::vector<datalog::EngineRule>& rules = engine_.rules();
  auto rel_for = [this](const std::string& p) -> const Relation& {
    return idb_preds_.count(p) ? idb_.Get(p) : edb_.Get(p);
  };
  size_t iterations = 0;
  while (true) {
    size_t delta_size = 0;
    for (const auto& [p, r] : delta) delta_size += r.size();
    if (delta_size == 0) break;
    if (++iterations > options_.max_iterations)
      return Status::ResourceExhausted("ivm resume iteration limit");
    if (ctx.ShouldStop()) return BudgetExhausted(ctx);

    std::vector<FireTask> tasks;
    for (size_t r = 0; r < rules.size(); ++r) {
      const Rule& rule = rules[r].rule;
      for (size_t i = 0; i < rule.body().size(); ++i) {
        const std::string& p = rule.body()[i].predicate;
        if (!idb_preds_.count(p)) continue;
        auto it = delta.find(p);
        if (it == delta.end() || it->second.empty()) continue;
        FireTask task;
        task.rule = r;
        for (size_t j = 0; j < rule.body().size(); ++j)
          task.rels.push_back(j == i ? &it->second
                                     : &rel_for(rule.body()[j].predicate));
        tasks.push_back(std::move(task));
      }
    }
    std::map<std::string, Relation> next;
    CQAC_RETURN_IF_ERROR(RunFireTasks(
        ctx, engine_, tasks,
        [this](const std::string& pred, const Tuple& t) {
          return !idb_.Contains(pred, t);
        },
        &next));
    for (const auto& [pred, rel] : next)
      for (const Tuple& t : rel) CQAC_RETURN_IF_ERROR(idb_.Insert(pred, t));
    delta = std::move(next);
  }
  return Status::OK();
}

Status MaintainedProgram::ApplyInserts(EngineContext& ctx,
                                       const Database& plus,
                                       ApplySummary* summary) {
  if (plus.TotalTuples() == 0) return Status::OK();
  const std::vector<datalog::EngineRule>& rules = engine_.rules();
  auto rel_for = [this](const std::string& p) -> const Relation& {
    return idb_preds_.count(p) ? idb_.Get(p) : edb_.Get(p);
  };

  // Post-insert overlay for the touched EDB relations.
  std::map<std::string, Relation> post;
  for (const auto& [pred, rel] : plus.relations()) {
    if (rel.empty()) continue;
    Relation r = edb_.Get(pred);
    r.insert(rel.begin(), rel.end());
    post[pred] = std::move(r);
  }

  // Seed round: pivot each EDB body position on the inserted tuples,
  // positions before it pre-insert, positions after it post-insert.
  std::vector<FireTask> tasks;
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r].rule;
    for (size_t i = 0; i < rule.body().size(); ++i) {
      const Relation& d = plus.Get(rule.body()[i].predicate);
      if (d.empty()) continue;
      FireTask task;
      task.rule = r;
      for (size_t j = 0; j < rule.body().size(); ++j) {
        const std::string& p = rule.body()[j].predicate;
        if (j == i) {
          task.rels.push_back(&d);
        } else if (j > i && post.count(p)) {
          task.rels.push_back(&post.at(p));
        } else {
          task.rels.push_back(&rel_for(p));
        }
      }
      tasks.push_back(std::move(task));
    }
  }
  std::map<std::string, Relation> seed;
  CQAC_RETURN_IF_ERROR(RunFireTasks(
      ctx, engine_, tasks,
      [this](const std::string& pred, const Tuple& t) {
        return !idb_.Contains(pred, t);
      },
      &seed));

  for (const auto& [pred, rel] : plus.relations())
    for (const Tuple& t : rel) CQAC_RETURN_IF_ERROR(edb_.Insert(pred, t));
  for (const auto& [pred, rel] : seed) {
    for (const Tuple& t : rel) CQAC_RETURN_IF_ERROR(idb_.Insert(pred, t));
    summary->view_tuples_added += rel.size();
  }

  const size_t idb_before = idb_.TotalTuples();
  CQAC_RETURN_IF_ERROR(Resume(ctx, std::move(seed)));
  summary->view_tuples_added += idb_.TotalTuples() - idb_before;
  return Status::OK();
}

Status MaintainedProgram::ApplyDeletes(EngineContext& ctx,
                                       const Database& minus,
                                       ApplySummary* summary) {
  if (minus.TotalTuples() == 0) return Status::OK();
  const std::vector<datalog::EngineRule>& rules = engine_.rules();
  auto rel_for = [this](const std::string& p) -> const Relation& {
    return idb_preds_.count(p) ? idb_.Get(p) : edb_.Get(p);
  };

  // 1. Over-delete: everything transitively derivable through a retracted
  // tuple, computed against the PRE-delete relations (the standard DRed
  // over-approximation).
  std::map<std::string, Relation> deleted;
  std::map<std::string, Relation> frontier;
  bool first_round = true;
  size_t iterations = 0;
  while (true) {
    if (++iterations > options_.max_iterations)
      return Status::ResourceExhausted("ivm over-delete iteration limit");
    if (ctx.ShouldStop()) return BudgetExhausted(ctx);
    std::vector<FireTask> tasks;
    for (size_t r = 0; r < rules.size(); ++r) {
      const Rule& rule = rules[r].rule;
      for (size_t i = 0; i < rule.body().size(); ++i) {
        const std::string& p = rule.body()[i].predicate;
        const Relation* pivot = nullptr;
        if (first_round) {
          if (!idb_preds_.count(p) && !minus.Get(p).empty())
            pivot = &minus.Get(p);
        } else {
          auto it = frontier.find(p);
          if (it != frontier.end() && !it->second.empty())
            pivot = &it->second;
        }
        if (pivot == nullptr) continue;
        FireTask task;
        task.rule = r;
        for (size_t j = 0; j < rule.body().size(); ++j)
          task.rels.push_back(j == i ? pivot
                                     : &rel_for(rule.body()[j].predicate));
        tasks.push_back(std::move(task));
      }
    }
    if (tasks.empty()) break;
    std::map<std::string, Relation> over;
    CQAC_RETURN_IF_ERROR(RunFireTasks(
        ctx, engine_, tasks,
        [this, &deleted](const std::string& pred, const Tuple& t) {
          return idb_.Contains(pred, t) && !ContainsIn(deleted, pred, t);
        },
        &over));
    size_t new_deleted = 0;
    for (const auto& [pred, rel] : over) {
      for (const Tuple& t : rel)
        if (deleted[pred].insert(t).second) ++new_deleted;
    }
    first_round = false;
    if (new_deleted == 0) break;
    frontier = std::move(over);
  }

  // 2. Commit: drop the retracted EDB tuples and the over-deleted IDB set.
  for (const auto& [pred, rel] : minus.relations())
    for (const Tuple& t : rel)
      if (!edb_.Remove(pred, t))
        return Status::Internal("staged retraction of absent tuple");
  size_t overdeleted = 0;
  for (const auto& [pred, rel] : deleted)
    for (const Tuple& t : rel) {
      idb_.Remove(pred, t);
      ++overdeleted;
    }
  ctx.stats().ivm_overdeletions += overdeleted;

  // 3. Re-derive: rescue over-deleted tuples with alternative derivations
  // in the surviving facts. First a full pass over rules whose heads have
  // pending tuples; then semi-naive rounds pivoting on the rescued set.
  std::map<std::string, Relation> pending = deleted;
  size_t rescued_total = 0;
  auto keep_pending = [this, &pending](const std::string& pred,
                                       const Tuple& t) {
    return ContainsIn(pending, pred, t) && !idb_.Contains(pred, t);
  };
  std::vector<FireTask> tasks;
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r].rule;
    auto it = pending.find(rule.head().predicate);
    if (it == pending.end() || it->second.empty()) continue;
    FireTask task;
    task.rule = r;
    for (const Atom& a : rule.body()) task.rels.push_back(&rel_for(a.predicate));
    tasks.push_back(std::move(task));
  }
  std::map<std::string, Relation> rescued;
  CQAC_RETURN_IF_ERROR(
      RunFireTasks(ctx, engine_, tasks, keep_pending, &rescued));
  iterations = 0;
  while (true) {
    size_t n = 0;
    for (const auto& [pred, rel] : rescued) n += rel.size();
    if (n == 0) break;
    if (++iterations > options_.max_iterations)
      return Status::ResourceExhausted("ivm re-derive iteration limit");
    if (ctx.ShouldStop()) return BudgetExhausted(ctx);
    for (const auto& [pred, rel] : rescued) {
      for (const Tuple& t : rel) {
        CQAC_RETURN_IF_ERROR(idb_.Insert(pred, t));
        pending[pred].erase(t);
      }
    }
    rescued_total += n;
    std::vector<FireTask> round_tasks;
    for (size_t r = 0; r < rules.size(); ++r) {
      const Rule& rule = rules[r].rule;
      auto hp = pending.find(rule.head().predicate);
      if (hp == pending.end() || hp->second.empty()) continue;
      for (size_t i = 0; i < rule.body().size(); ++i) {
        const std::string& p = rule.body()[i].predicate;
        auto it = rescued.find(p);
        if (it == rescued.end() || it->second.empty()) continue;
        FireTask task;
        task.rule = r;
        for (size_t j = 0; j < rule.body().size(); ++j)
          task.rels.push_back(j == i ? &it->second
                                     : &rel_for(rule.body()[j].predicate));
        round_tasks.push_back(std::move(task));
      }
    }
    std::map<std::string, Relation> next;
    CQAC_RETURN_IF_ERROR(
        RunFireTasks(ctx, engine_, round_tasks, keep_pending, &next));
    rescued = std::move(next);
  }
  ctx.stats().ivm_rederivations += rescued_total;
  summary->view_tuples_removed += overdeleted - rescued_total;
  return Status::OK();
}

}  // namespace ivm
}  // namespace cqac
