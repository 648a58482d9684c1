#include "src/engine/stats.h"

#include "src/base/strings.h"

namespace cqac {

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& o) const {
  StatsSnapshot d;
#define CQAC_STATS_SUB(f) d.f = f - o.f;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_SUB)
#undef CQAC_STATS_SUB
  return d;
}

StatsSnapshot& StatsSnapshot::operator+=(const StatsSnapshot& o) {
#define CQAC_STATS_ADD(f) f += o.f;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_ADD)
#undef CQAC_STATS_ADD
  return *this;
}

double StatsSnapshot::ContainmentHitRate() const {
  uint64_t looked = containment_cache_hits + containment_cache_misses;
  if (looked == 0) return 0.0;
  return static_cast<double>(containment_cache_hits) /
         static_cast<double>(looked);
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
#define CQAC_STATS_JSON(f)                            \
  out += StrCat(first ? "" : ",", "\"", #f, "\":", f); \
  first = false;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_JSON)
#undef CQAC_STATS_JSON
  out += "}";
  return out;
}

void EngineStats::Reset() {
#define CQAC_STATS_RESET(f) f.Reset();
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_RESET)
#undef CQAC_STATS_RESET
}

StatsSnapshot EngineStats::Snapshot() const {
  StatsSnapshot s;
#define CQAC_STATS_SNAP(f) s.f = f;
  CQAC_ENGINE_STATS_FIELDS(CQAC_STATS_SNAP)
#undef CQAC_STATS_SNAP
  return s;
}

double EngineStats::ContainmentHitRate() const {
  uint64_t looked = containment_cache_hits + containment_cache_misses;
  if (looked == 0) return 0.0;
  return static_cast<double>(containment_cache_hits) /
         static_cast<double>(looked);
}

std::string EngineStats::ToString() const {
  return StrCat(
      "containment: ", uint64_t{containment_calls}, " calls, ",
      uint64_t{containment_cache_hits}, " cache hits, ",
      uint64_t{containment_cache_misses}, " misses (hit rate ",
      static_cast<int>(ContainmentHitRate() * 100), "%)\n",
      "implication: ", uint64_t{implication_calls}, " conjunction calls (",
      uint64_t{implication_cache_hits}, " hits, ",
      uint64_t{implication_cache_misses}, " misses), ",
      uint64_t{disjunction_implications}, " disjunction calls\n",
      "homomorphism: ", uint64_t{hom_enumerations}, " enumerations, ",
      uint64_t{homomorphisms_found}, " mappings found\n",
      "interner: ", uint64_t{intern_requests}, " requests, ",
      uint64_t{queries_interned}, " distinct queries, ",
      uint64_t{fingerprint_collisions}, " fp collisions\n",
      "cache: ", uint64_t{cache_evictions}, " evictions, ",
      uint64_t{cache_flushes}, " flushes\n",
      "budget: ", uint64_t{budget_exhaustions}, " exhaustions\n",
      "eval: ", uint64_t{eval_batches}, " batches, ",
      uint64_t{eval_smallint_fallbacks}, " small-int fallbacks, ",
      uint64_t{eval_index_builds}, " index builds\n",
      "plan: ", uint64_t{plan_decisions}, " decisions, ",
      uint64_t{plan_join_reorders}, " join reorders, ",
      uint64_t{plan_unions_pruned}, " union disjuncts pruned, ",
      uint64_t{plan_retunes}, " retunes\n",
      "rewriting: ", uint64_t{rewrite_mcds}, " MCDs, ",
      uint64_t{rewrite_candidates}, " candidates, ",
      uint64_t{rewrite_verified_rejects}, " verified rejects\n",
      "parallel: ", uint64_t{parallel_sections}, " sections, ",
      uint64_t{parallel_tasks}, " tasks, ",
      uint64_t{parallel_wall_ns} / 1000000, " ms fan-out wall time\n",
      "ivm: ", uint64_t{ivm_applies}, " applies (",
      uint64_t{ivm_incremental_applies}, " incremental, ",
      uint64_t{ivm_rebuild_fallbacks}, " rebuilds), ",
      uint64_t{ivm_base_delta_tuples}, " base delta tuples, ",
      uint64_t{ivm_view_delta_tuples}, " view delta tuples, ",
      uint64_t{ivm_overdeletions}, " overdeletions, ",
      uint64_t{ivm_rederivations}, " rederivations\n",
      "audit: ", uint64_t{audit_obligations}, " obligations, ",
      uint64_t{audit_failures}, " failures, ",
      uint64_t{audit_unfold_disjuncts}, " unfold disjuncts, ",
      uint64_t{audit_replayed_tuples}, " replayed tuples, ",
      uint64_t{audit_wall_ns} / 1000000, " ms audit wall time\n",
      "serve: ", uint64_t{serve_requests}, " requests, ",
      uint64_t{serve_overload_rejections}, " overload rejections, ",
      uint64_t{serve_queue_peak}, " queue-depth peak\n",
      "store: ", uint64_t{store_records_appended}, " records appended, ",
      uint64_t{store_bytes_logged}, " bytes logged, ",
      uint64_t{store_fsyncs}, " fsyncs, ",
      uint64_t{store_snapshots_written}, " snapshots, ",
      uint64_t{store_recovery_replayed_records}, " records replayed, ",
      uint64_t{store_recovery_sessions}, " sessions recovered");
}

}  // namespace cqac
