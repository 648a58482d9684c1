#include "src/ivm/maintain.h"

#include <algorithm>
#include <deque>
#include <set>

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
                                                plan::IvmPath path,
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

  // Route the incremental-vs-rebuild choice through the planner: work
  // estimates from the cost model, the touched positions the subset cap
  // reads, and the caller's pin.
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
  const plan::IvmPathChoice choice =
      plan::ChooseIvmPath(ctx, incremental, full, max_touched, path);

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
    EngineContext& ctx, const Database& facts, plan::IvmPath path,
    MaintenanceCertificate* cert) {
  DeltaDatabase delta(&base_);
  CQAC_RETURN_IF_ERROR(delta.StageInsertAll(facts));
  return Apply(ctx, delta, path, cert);
}

Result<ApplySummary> MaterializedViewSet::ApplyRetract(
    EngineContext& ctx, const Database& facts, plan::IvmPath path,
    MaintenanceCertificate* cert) {
  DeltaDatabase delta(&base_);
  CQAC_RETURN_IF_ERROR(delta.StageRetractAll(facts));
  return Apply(ctx, delta, path, cert);
}

}  // namespace ivm
}  // namespace cqac
