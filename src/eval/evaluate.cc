#include "src/eval/evaluate.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "src/base/strings.h"
#include "src/engine/parallel.h"
#include "src/eval/column_index.h"
#include "src/plan/planner.h"

namespace cqac {

bool EvaluateGroundComparison(const Value& lhs, CompOp op, const Value& rhs) {
  if (op == CompOp::kEq) return lhs == rhs;
  if (!lhs.is_number() || !rhs.is_number()) return false;
  return op == CompOp::kLt ? lhs.number() < rhs.number()
                           : lhs.number() <= rhs.number();
}

namespace {

/// Rows per output batch before it flushes into the next atom. Large enough
/// to amortize per-batch planning and keep filter loops vectorizable, small
/// enough that a deep join never holds more than atoms × kBatchRows rows of
/// intermediate state.
constexpr size_t kBatchRows = 1024;

/// The batch-at-a-time join core behind JoinBodyBatches. One AtomPlan per
/// body atom, compiled once per call: which position to probe on, which
/// positions to check against constants / already-bound columns / duplicate
/// in-atom occurrences, which positions bind new columns, and which
/// comparisons become ground after this atom (they filter here, eagerly —
/// same pruning as the row engine's comparisons_hold after every atom).
/// Execution is segmented depth-first: each atom accumulates up to
/// kBatchRows matches, builds the extended output batch, vector-filters it
/// through this atom's comparisons, and recurses.
class BatchJoiner {
 public:
  BatchJoiner(const Query& q, const std::vector<JoinInput>& inputs,
              FunctionRef<bool(const Batch&, const std::vector<int>&)> sink,
              FunctionRef<bool()> checkpoint, EngineStats* stats)
      : q_(q),
        inputs_(inputs),
        sink_(sink),
        checkpoint_(checkpoint),
        stats_(stats),
        indexes_(inputs.size(), nullptr) {}

  /// Returns false iff the checkpoint aborted the join.
  bool Run() {
    if (Plan()) {
      Batch unit;
      unit.rows = 1;
      if (q_.body().empty()) {
        Emit(unit);
      } else {
        Process(0, unit);
      }
    }
    if (stats_ != nullptr) {
      stats_->eval_batches += batches_;
      stats_->eval_smallint_fallbacks += fallbacks_;
    }
    return !aborted_;
  }

 private:
  struct CompPlan {
    CompOp op;
    int lhs_col = -1;  // -1: lhs is the constant *lhs_const
    int rhs_col = -1;
    const Value* lhs_const = nullptr;
    const Value* rhs_const = nullptr;
  };

  /// A comparison checked on a scanned tuple: each side is a constant or a
  /// position of the tuple.
  struct ScanComp {
    CompOp op;
    int lhs_pos = -1;  // -1: lhs is the constant *lhs_const
    int rhs_pos = -1;
    const Value* lhs_const = nullptr;
    const Value* rhs_const = nullptr;
  };

  struct AtomPlan {
    size_t arity = 0;
    int probe_pos = -1;  // -1: full scan of the relation
    int probe_col = -1;  // -1 with probe_pos >= 0: constant probe
    const Value* probe_const = nullptr;
    std::vector<std::pair<size_t, const Value*>> const_checks;
    std::vector<std::pair<size_t, int>> bound_checks;   // (pos, batch col)
    std::vector<std::pair<size_t, size_t>> dup_checks;  // (first pos, pos)
    std::vector<std::pair<size_t, int>> new_positions;  // (pos, var)
    size_t in_cols = 0;  // batch width entering this atom
    std::vector<ScanComp> scan_comps;  // full scans only
    std::vector<CompPlan> comps;       // vectorized, after the gather
  };

  /// Compiles the per-atom plans. Returns false when a constant-constant
  /// comparison is already false (the join has no results).
  bool Plan() {
    var_col_.assign(q_.num_vars(), -1);
    const auto& comps = q_.comparisons();
    std::vector<char> comp_done(comps.size(), 0);
    for (size_t ci = 0; ci < comps.size(); ++ci) {
      if (comps[ci].lhs.is_const() && comps[ci].rhs.is_const()) {
        comp_done[ci] = 1;
        if (!EvaluateGroundComparison(comps[ci].lhs.value(), comps[ci].op,
                                      comps[ci].rhs.value()))
          return false;
      }
    }

    int width = 0;
    plans_.resize(q_.body().size());
    for (size_t a = 0; a < q_.body().size(); ++a) {
      const Atom& atom = q_.body()[a];
      AtomPlan& p = plans_[a];
      p.arity = atom.args.size();
      p.in_cols = static_cast<size_t>(width);
      std::unordered_map<int, size_t> first_pos_of_new;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& t = atom.args[i];
        if (t.is_const()) {
          if (p.probe_pos < 0) {
            p.probe_pos = static_cast<int>(i);
            p.probe_const = &t.value();
          } else {
            p.const_checks.emplace_back(i, &t.value());
          }
        } else if (var_col_[t.var()] >= 0) {
          // Bound by an earlier atom.
          if (p.probe_pos < 0) {
            p.probe_pos = static_cast<int>(i);
            p.probe_col = var_col_[t.var()];
          } else {
            p.bound_checks.emplace_back(i, var_col_[t.var()]);
          }
        } else if (auto it = first_pos_of_new.find(t.var());
                   it != first_pos_of_new.end()) {
          // Repeated new variable within this atom: equality of positions.
          p.dup_checks.emplace_back(it->second, i);
        } else {
          first_pos_of_new.emplace(t.var(), i);
          p.new_positions.emplace_back(i, t.var());
        }
      }
      for (const auto& [pos, var] : p.new_positions) var_col_[var] = width++;

      // Comparisons whose sides are all determined after this atom filter
      // here; ones with a never-bound side are skipped (treated true), same
      // as the row engine.
      for (size_t ci = 0; ci < comps.size(); ++ci) {
        if (comp_done[ci]) continue;
        const Comparison& c = comps[ci];
        const bool lhs_ready = c.lhs.is_const() || var_col_[c.lhs.var()] >= 0;
        const bool rhs_ready = c.rhs.is_const() || var_col_[c.rhs.var()] >= 0;
        if (!lhs_ready || !rhs_ready) continue;
        comp_done[ci] = 1;
        CompPlan cp;
        cp.op = c.op;
        if (c.lhs.is_const())
          cp.lhs_const = &c.lhs.value();
        else
          cp.lhs_col = var_col_[c.lhs.var()];
        if (c.rhs.is_const())
          cp.rhs_const = &c.rhs.value();
        else
          cp.rhs_col = var_col_[c.rhs.var()];
        p.comps.push_back(cp);
      }
      if (p.probe_pos < 0) PlanScanComps(&p);
    }
    return true;
  }

  /// Moves the comparisons a fully scanned atom binds on its own (every
  /// side a constant or a column this atom introduces) into scan_comps,
  /// checked on the stored tuple before it is gathered.
  static void PlanScanComps(AtomPlan* p) {
    auto tuple_pos = [p](int col) {
      return col < static_cast<int>(p->in_cols)
                 ? -1
                 : static_cast<int>(p->new_positions[col - p->in_cols].first);
    };
    std::vector<CompPlan> rest;
    for (const CompPlan& cp : p->comps) {
      const int lhs = cp.lhs_col < 0 ? -1 : tuple_pos(cp.lhs_col);
      const int rhs = cp.rhs_col < 0 ? -1 : tuple_pos(cp.rhs_col);
      if ((cp.lhs_col >= 0 && lhs < 0) || (cp.rhs_col >= 0 && rhs < 0)) {
        rest.push_back(cp);
        continue;
      }
      p->scan_comps.push_back(
          ScanComp{cp.op, lhs, rhs, cp.lhs_const, cp.rhs_const});
    }
    p->comps = std::move(rest);
  }

  /// The index atom `atom` probes on its probe position, resolved once per
  /// call: the owning Database's, or one built for this call over a bare
  /// relation.
  const ColumnIndex& IndexFor(size_t atom) {
    if (indexes_[atom] == nullptr) {
      const size_t col = static_cast<size_t>(plans_[atom].probe_pos);
      const JoinInput& in = inputs_[atom];
      if (in.owner != nullptr) {
        bool built = false;
        indexes_[atom] = &in.owner->Index(q_.body()[atom].predicate, col, &built);
        if (built && stats_ != nullptr) ++stats_->eval_index_builds;
      } else {
        call_indexes_.push_back(std::make_unique<ColumnIndex>(*in.rel, col));
        indexes_[atom] = call_indexes_.back().get();
      }
    }
    return *indexes_[atom];
  }

  void Process(size_t atom_idx, const Batch& in) {
    const AtomPlan& p = plans_[atom_idx];
    SelVector src_rows;
    std::vector<const Tuple*> matches;
    src_rows.reserve(kBatchRows);
    matches.reserve(kBatchRows);

    auto consider = [&](uint32_t row, const Tuple& t) {
      if ((++steps_ & 0xFFF) == 0 && !checkpoint_()) {
        aborted_ = true;
        return;
      }
      if (t.size() != p.arity) return;
      for (const auto& [pos, cv] : p.const_checks)
        if (!(t[pos] == *cv)) return;
      for (const auto& [pos, col] : p.bound_checks)
        if (!in.cols[col].EqualsAt(row, t[pos])) return;
      for (const auto& [p1, p2] : p.dup_checks)
        if (!(t[p1] == t[p2])) return;
      for (const ScanComp& sc : p.scan_comps)
        if (!EvaluateGroundComparison(
                sc.lhs_pos < 0 ? *sc.lhs_const : t[sc.lhs_pos], sc.op,
                sc.rhs_pos < 0 ? *sc.rhs_const : t[sc.rhs_pos]))
          return;
      src_rows.push_back(row);
      matches.push_back(&t);
      if (src_rows.size() == kBatchRows) {
        Flush(atom_idx, in, src_rows, matches);
        src_rows.clear();
        matches.clear();
      }
    };

    if (p.probe_pos < 0) {
      for (uint32_t row = 0; row < in.rows; ++row) {
        for (const Tuple& t : *inputs_[atom_idx].rel) {
          if (stop_ || aborted_) return;
          consider(row, t);
        }
      }
    } else {
      const ColumnIndex& index = IndexFor(atom_idx);
      // A constant probe hits the same tuples for every input row.
      ColumnIndex::Hits const_hits;
      if (p.probe_col < 0) const_hits = index.Probe(*p.probe_const);
      const Column* pcol = p.probe_col < 0 ? nullptr : &in.cols[p.probe_col];
      for (uint32_t row = 0; row < in.rows; ++row) {
        if (stop_ || aborted_) return;
        // The index returns exact matches on the probe position, so no
        // equality recheck is planned for it.
        const ColumnIndex::Hits hits =
            pcol == nullptr     ? const_hits
            : pcol->small_int() ? index.ProbeInt(pcol->SmallIntAt(row))
                                : index.Probe(pcol->At(row));
        for (const Tuple* t : hits) {
          if (stop_ || aborted_) return;
          consider(row, *t);
        }
      }
    }
    if (!src_rows.empty()) Flush(atom_idx, in, src_rows, matches);
  }

  /// Builds the extended batch for the accumulated matches, filters it
  /// through this atom's comparisons, and feeds it to the next atom (or the
  /// sink after the last one).
  void Flush(size_t atom_idx, const Batch& in, const SelVector& src_rows,
             const std::vector<const Tuple*>& matches) {
    const AtomPlan& p = plans_[atom_idx];
    Batch out;
    out.cols.reserve(p.in_cols + p.new_positions.size());
    for (size_t c = 0; c < p.in_cols; ++c) {
      Column col;
      col.AppendGather(in.cols[c], src_rows);
      out.cols.push_back(std::move(col));
    }
    for (const auto& [pos, var] : p.new_positions) {
      Column col;
      col.Reserve(matches.size());
      for (const Tuple* t : matches) col.Append((*t)[pos]);
      out.cols.push_back(std::move(col));
    }
    out.rows = src_rows.size();
    fallbacks_ += out.TotalPromotions();

    if (!p.comps.empty()) {
      SelVector sel(out.rows);
      std::iota(sel.begin(), sel.end(), 0);
      for (const CompPlan& cp : p.comps) {
        if (sel.empty()) break;
        if (cp.lhs_col >= 0 && cp.rhs_col >= 0) {
          FilterColumnColumn(out.cols[cp.lhs_col], cp.op, out.cols[cp.rhs_col],
                             &sel);
        } else if (cp.lhs_col >= 0) {
          FilterColumnConst(out.cols[cp.lhs_col], cp.op, *cp.rhs_const, &sel);
        } else {
          FilterConstColumn(*cp.lhs_const, cp.op, out.cols[cp.rhs_col], &sel);
        }
      }
      out.Filter(sel);
    }
    if (out.rows == 0) return;
    if (atom_idx + 1 == q_.body().size()) {
      Emit(out);
    } else {
      Process(atom_idx + 1, out);
    }
  }

  void Emit(const Batch& b) {
    if (b.rows == 0) return;
    ++batches_;
    if (!sink_(b, var_col_)) stop_ = true;
  }

  const Query& q_;
  const std::vector<JoinInput>& inputs_;
  FunctionRef<bool(const Batch&, const std::vector<int>&)> sink_;
  FunctionRef<bool()> checkpoint_;
  EngineStats* stats_;
  std::vector<const ColumnIndex*> indexes_;  // per atom, resolved lazily
  std::vector<std::unique_ptr<ColumnIndex>> call_indexes_;  // bare inputs

  std::vector<AtomPlan> plans_;
  std::vector<int> var_col_;
  bool stop_ = false;
  bool aborted_ = false;
  uint64_t steps_ = 0;
  uint64_t batches_ = 0;
  uint64_t fallbacks_ = 0;
};

}  // namespace

std::vector<JoinInput> OwnedInputs(const Query& q, const Database& db) {
  std::vector<JoinInput> inputs;
  inputs.reserve(q.body().size());
  for (const Atom& a : q.body())
    inputs.push_back(JoinInput::Owned(db, a.predicate));
  return inputs;
}

bool JoinBodyBatches(const Query& q, const std::vector<JoinInput>& inputs,
                     FunctionRef<bool(const Batch&, const std::vector<int>&)> sink,
                     FunctionRef<bool()> checkpoint, EngineStats* stats) {
  return BatchJoiner(q, inputs, sink, checkpoint, stats).Run();
}

void BatchHeadProjector::ForEachHead(const Batch& b,
                                     const std::vector<int>& var_col,
                                     FunctionRef<void(const Tuple&)> fn) {
  const auto& args = q_.head().args;
  // Resolve each head argument to a batch column (or a constant) once per
  // batch. A head variable no atom binds makes every row unprojectable.
  std::vector<int> arg_col(args.size(), -1);
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].is_const()) continue;
    arg_col[i] = var_col[args[i].var()];
    if (arg_col[i] < 0) return;
  }
  for (size_t row = 0; row < b.rows; ++row) {
    buf_.clear();
    buf_.reserve(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      if (arg_col[i] < 0)
        buf_.push_back(args[i].value());
      else
        buf_.push_back(b.cols[arg_col[i]].At(row));
    }
    fn(buf_);
  }
}

namespace {

/// Accumulates result tuples in a flat vector and builds the Relation once
/// at the end: contiguous sort + unique beats per-tuple red-black inserts,
/// and the final set is spliced together from an already-sorted range.
/// Periodic compaction (at a doubling watermark) bounds memory at roughly
/// twice the distinct-tuple count even under highly duplicating projections.
class RelationBuilder {
 public:
  void Add(const Tuple& t) {
    rows_.push_back(t);
    if (rows_.size() >= watermark_) Compact();
  }

  /// Moves the accumulated tuples into *out (merging with any existing
  /// content).
  void MoveInto(Relation* out) {
    Compact();
    Relation built(std::make_move_iterator(rows_.begin()),
                   std::make_move_iterator(rows_.end()));
    rows_.clear();
    if (out->empty())
      *out = std::move(built);
    else
      out->merge(std::move(built));
  }

 private:
  void Compact() {
    std::sort(rows_.begin(), rows_.end());
    rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
    watermark_ = std::max<size_t>(kMinWatermark, rows_.size() * 2);
  }

  static constexpr size_t kMinWatermark = 4096;
  std::vector<Tuple> rows_;
  size_t watermark_ = kMinWatermark;
};

/// Joins q over `inputs` into *results batch-at-a-time; returns false
/// when the checkpoint aborted the search.
bool JoinInto(const Query& q, const std::vector<JoinInput>& inputs,
              FunctionRef<bool()> checkpoint, Relation* results,
              EngineStats* stats = nullptr) {
  BatchHeadProjector proj(q);
  RelationBuilder builder;
  const bool ok = JoinBodyBatches(
      q, inputs,
      [&](const Batch& b, const std::vector<int>& var_col) {
        proj.ForEachHead(b, var_col,
                         [&](const Tuple& head) { builder.Add(head); });
        return true;
      },
      checkpoint, stats);
  if (ok) builder.MoveInto(results);
  return ok;
}

}  // namespace

Result<Relation> EvaluateQuery(EngineContext& ctx, const Query& q,
                               const Database& db) {
  return EvaluateQuery(ctx, q, db, EvalOptions{});
}

Result<Relation> EvaluateQuery(EngineContext& ctx, const Query& qin,
                               const Database& db,
                               const EvalOptions& options) {
  CQAC_RETURN_IF_ERROR(qin.Validate());

  // Plan the atom order up front, from the database alone: the permuted
  // body binds the same variables and filters the same comparisons, so the
  // result set is unchanged, and the choice precedes any fan-out, so it is
  // identical at every thread count.
  Query planned;
  const Query* pq = &qin;
  if (options.join_order == EvalOptions::JoinOrder::kPlanned &&
      qin.body().size() > 1) {
    plan::JoinOrderPlan jp =
        plan::PlanJoinOrder(qin, DatabaseCardinalities(db));
    ++ctx.stats().plan_decisions;
    if (jp.reordered) {
      ++ctx.stats().plan_join_reorders;
      planned = qin;
      planned.body().clear();
      for (size_t i : jp.order) planned.body().push_back(qin.body()[i]);
      pq = &planned;
    }
  }
  const Query& q = *pq;
  std::vector<JoinInput> inputs = OwnedInputs(q, db);
  auto checkpoint = [&ctx] { return !ctx.ShouldStop(); };
  auto serial = [&]() -> Result<Relation> {
    Relation results;
    if (!JoinInto(q, inputs, checkpoint, &results, &ctx.stats())) {
      ++ctx.stats().budget_exhaustions;
      return Status::ResourceExhausted("join evaluation exceeded the budget");
    }
    return results;
  };
  if (ctx.parallelism() == 0 || TaskPool::InPoolTask() || q.body().empty())
    return serial();

  // Atom 0's candidate tuples: the whole relation, or, when the atom has a
  // constant, the hits of db's index for it — the probe the serial join
  // makes, so the index is built (and counted) alike at every thread count.
  std::vector<const Tuple*> first;
  const Atom& lead = q.body()[0];
  auto lead_const = std::find_if(lead.args.begin(), lead.args.end(),
                                 [](const Term& t) { return t.is_const(); });
  if (lead_const == lead.args.end()) {
    first.reserve(inputs[0].rel->size());
    for (const Tuple& t : *inputs[0].rel) first.push_back(&t);
  } else {
    bool built = false;
    const ColumnIndex& index = db.Index(
        lead.predicate,
        static_cast<size_t>(lead_const - lead.args.begin()), &built);
    if (built) ++ctx.stats().eval_index_builds;
    for (const Tuple* t : index.Probe(lead_const->value())) first.push_back(t);
  }
  // Fan out only when there are enough candidates to split; results are a
  // set, so the chunk merge is order-independent and output is identical
  // at every thread count.
  if (first.size() < 2 * (ctx.parallelism() + 1)) return serial();

  // Deal the candidates round-robin into one bare sub-relation per chunk;
  // the other atoms keep probing db's indexes.
  const size_t max_chunks = 4 * (ctx.parallelism() + 1);
  const size_t num_chunks = first.size() < max_chunks ? first.size()
                                                      : max_chunks;
  std::vector<Relation> chunk_results(num_chunks);
  std::vector<char> chunk_aborted(num_chunks, 0);
  CtxParallelFor(ctx, num_chunks, [&](size_t c) {
    Relation sub;
    for (size_t i = c; i < first.size(); i += num_chunks)
      sub.insert(*first[i]);
    std::vector<JoinInput> chunk_inputs = inputs;
    chunk_inputs[0] = JoinInput::Bare(sub);
    if (!JoinInto(q, chunk_inputs, checkpoint, &chunk_results[c],
                  &ctx.stats()))
      chunk_aborted[c] = 1;
  });

  for (char aborted : chunk_aborted)
    if (aborted) {
      ++ctx.stats().budget_exhaustions;
      return Status::ResourceExhausted("join evaluation exceeded the budget");
    }
  Relation results;
  for (Relation& r : chunk_results) {
    if (results.empty())
      results = std::move(r);
    else
      results.merge(std::move(r));
  }
  return results;
}

namespace {

/// Projects one satisfying binding onto q's head; false when some head
/// variable is unbound (unsafe head: the binding yields no tuple).
bool ProjectHead(const Query& q,
                 const std::vector<std::optional<Value>>& binding,
                 Tuple* head) {
  head->clear();
  head->reserve(q.head().args.size());
  for (const Term& t : q.head().args) {
    if (t.is_const()) {
      head->push_back(t.value());
    } else if (binding[t.var()].has_value()) {
      head->push_back(*binding[t.var()]);
    } else {
      return false;
    }
  }
  return true;
}

/// The pre-columnar tuple-at-a-time backtracking core, kept as the
/// differential-testing oracle behind EvaluateQueryReference.
void RowJoinReference(
    const Query& q, const std::vector<const Relation*>& relations,
    FunctionRef<void(const std::vector<std::optional<Value>>&)> cb) {
  std::vector<std::optional<Value>> binding(q.num_vars(), std::nullopt);

  // Per-call Value-keyed indexes, private to the oracle so that it shares
  // no index code with the engine it checks.
  using ValueIndex = std::unordered_map<Value, std::vector<const Tuple*>>;
  static const std::vector<const Tuple*> kNoHits;
  std::vector<std::map<size_t, ValueIndex>> indexes(relations.size());
  auto probe = [&](size_t atom, size_t col,
                   const Value& v) -> const std::vector<const Tuple*>& {
    auto it = indexes[atom].find(col);
    if (it == indexes[atom].end()) {
      ValueIndex index;
      for (const Tuple& t : *relations[atom])
        if (col < t.size()) index[t[col]].push_back(&t);
      it = indexes[atom].emplace(col, std::move(index)).first;
    }
    auto hit = it->second.find(v);
    return hit == it->second.end() ? kNoHits : hit->second;
  };

  auto term_value = [&binding](const Term& t, Value* out) {
    if (t.is_const()) {
      *out = t.value();
      return true;
    }
    if (binding[t.var()].has_value()) {
      *out = *binding[t.var()];
      return true;
    }
    return false;
  };
  auto comparisons_hold = [&]() {
    for (const Comparison& c : q.comparisons()) {
      Value a{0}, b{0};
      if (!term_value(c.lhs, &a) || !term_value(c.rhs, &b)) continue;
      if (!EvaluateGroundComparison(a, c.op, b)) return false;
    }
    return true;
  };

  // Attempts to unify atom `atom_idx` with `tuple`; on success recurses and
  // always restores the binding. Self-passing lambda: recursion without a
  // std::function allocation.
  auto extend = [&](auto&& self, size_t atom_idx) -> void {
    if (atom_idx == q.body().size()) {
      if (comparisons_hold()) cb(binding);
      return;
    }
    const Atom& atom = q.body()[atom_idx];

    auto try_tuple = [&](const Tuple& tuple) {
      if (tuple.size() != atom.args.size()) return;
      std::vector<int> bound_here;
      bool ok = true;
      for (size_t i = 0; i < tuple.size() && ok; ++i) {
        const Term& t = atom.args[i];
        if (t.is_const()) {
          ok = (t.value() == tuple[i]);
        } else if (binding[t.var()].has_value()) {
          ok = (*binding[t.var()] == tuple[i]);
        } else {
          binding[t.var()] = tuple[i];
          bound_here.push_back(t.var());
        }
      }
      if (ok && comparisons_hold()) self(self, atom_idx + 1);
      for (int v : bound_here) binding[v] = std::nullopt;
    };

    // Prefer an index probe on the first argument whose value is already
    // determined; fall back to a full scan.
    Value value{0};
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (term_value(atom.args[i], &value)) {
        for (const Tuple* t : probe(atom_idx, i, value)) try_tuple(*t);
        return;
      }
    }
    for (const Tuple& tuple : *relations[atom_idx]) try_tuple(tuple);
  };
  extend(extend, 0);
}

}  // namespace

Result<Relation> EvaluateQueryReference(const Query& q, const Database& db) {
  CQAC_RETURN_IF_ERROR(q.Validate());
  std::vector<const Relation*> relations;
  relations.reserve(q.body().size());
  for (const Atom& a : q.body()) relations.push_back(&db.Get(a.predicate));

  Relation results;
  Tuple head;
  RowJoinReference(q, relations,
                   [&](const std::vector<std::optional<Value>>& binding) {
                     if (ProjectHead(q, binding, &head)) results.insert(head);
                   });
  return results;
}

Result<bool> QueryYieldsTuple(const Query& q, const Database& db,
                              const Tuple& head, EngineStats* stats) {
  CQAC_RETURN_IF_ERROR(q.Validate());
  if (q.head().args.size() != head.size()) return false;
  bool found = false;
  BatchHeadProjector proj(q);
  JoinBodyBatches(
      q, OwnedInputs(q, db),
      [&](const Batch& b, const std::vector<int>& var_col) {
        proj.ForEachHead(b, var_col, [&](const Tuple& t) {
          if (t == head) found = true;
        });
        return !found;
      },
      [] { return true; }, stats);
  return found;
}

Result<Relation> EvaluateUnion(EngineContext& ctx, const UnionQuery& u,
                               const Database& db) {
  // Disjuncts evaluate independently; the union of result sets is
  // order-independent, so only error reporting needs the in-order merge.
  ParallelOutcomes<Result<Relation>> outcomes(
      ctx, u.disjuncts.size(),
      [&](size_t i) { return EvaluateQuery(ctx, u.disjuncts[i], db); },
      [](const Result<Relation>& r) { return !r.ok(); });
  Relation out;
  for (size_t i = 0; i < u.disjuncts.size(); ++i) {
    Result<Relation>& r = outcomes.Get(i);
    if (!r.ok()) return r.status();
    if (out.empty())
      out = std::move(r.value());
    else
      out.merge(std::move(r.value()));
  }
  return out;
}

Result<Database> MaterializeViews(EngineContext& ctx, const ViewSet& views,
                                  const Database& db) {
  ParallelOutcomes<Result<Relation>> outcomes(
      ctx, views.size(),
      [&](size_t i) { return EvaluateQuery(ctx, views[i], db); },
      [](const Result<Relation>& r) { return !r.ok(); });
  Database out;
  for (size_t i = 0; i < views.size(); ++i) {
    Result<Relation>& r = outcomes.Get(i);
    if (!r.ok()) return r.status();
    CQAC_RETURN_IF_ERROR(
        out.InsertRelation(views[i].head().predicate, std::move(r.value())));
  }
  return out;
}

}  // namespace cqac
