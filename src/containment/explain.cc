#include "src/containment/explain.h"

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/containment/homomorphism.h"

namespace cqac {

std::string ContainmentExplanation::ToString() const {
  std::vector<std::string> lines;
  lines.push_back(contained ? "CONTAINED" : "NOT CONTAINED");
  for (size_t i = 0; i < mappings.size(); ++i) {
    const MappingEvidence& m = mappings[i];
    lines.push_back(StrCat("  mapping ", i + 1, ": ", m.mapping,
                           m.directly_implied ? "  [single mapping suffices]"
                                              : ""));
    if (!m.image_acs.empty())
      lines.push_back(StrCat("    requires: ", Join(m.image_acs, " AND ")));
  }
  if (!narrative.empty()) lines.push_back("  " + narrative);
  return Join(lines, "\n");
}

Result<ContainmentExplanation> ExplainContainment(EngineContext& ctx,
                                                  const Query& q2,
                                                  const Query& q1) {
  ContainmentExplanation out;
  if (q2.head().args.size() != q1.head().args.size())
    return Status::InvalidArgument(
        "containment between queries of different head arity");

  // The verdict always comes from the production procedure.
  CQAC_ASSIGN_OR_RETURN(bool verdict, IsContained(ctx, q2, q1));
  out.contained = verdict;

  Result<Query> q2p = Preprocess(q2);
  if (!q2p.ok()) {
    if (q2p.status().code() == StatusCode::kInconsistent) {
      out.narrative =
          "the contained query's comparisons are unsatisfiable; the empty "
          "query is contained in everything";
      return out;
    }
    return q2p.status();
  }
  Result<Query> q1p = Preprocess(q1);
  if (!q1p.ok()) {
    if (q1p.status().code() == StatusCode::kInconsistent) {
      out.narrative =
          "the containing query is unsatisfiable (empty); only the empty "
          "query fits inside it";
      return out;
    }
    return q1p.status();
  }

  CQAC_ASSIGN_OR_RETURN(std::vector<VarMap> maps,
                        FindHomomorphisms(ctx, q1p.value(), q2p.value()));
  if (maps.empty()) {
    out.narrative =
        "no containment mapping exists between the ordinary subgoals "
        "(Chandra-Merlin fails before comparisons even matter)";
    return out;
  }

  std::vector<std::vector<Comparison>> disjuncts;
  bool some_direct = false;
  for (const VarMap& mu : maps) {
    MappingEvidence ev;
    ev.mapping = VarMapToString(mu, q1p.value(), q2p.value());
    std::vector<Comparison> image =
        mu.ApplyToComparisons(q1p.value().comparisons());
    for (const Comparison& c : image)
      ev.image_acs.push_back(StrCat(q2p.value().TermToString(c.lhs), " ",
                                    CompOpName(c.op), " ",
                                    q2p.value().TermToString(c.rhs)));
    Result<bool> direct =
        ImpliesConjunction(q2p.value().comparisons(), image);
    ev.directly_implied = direct.ok() && direct.value();
    some_direct |= ev.directly_implied;
    disjuncts.push_back(std::move(image));
    out.mappings.push_back(std::move(ev));
  }

  if (!verdict) {
    out.narrative = StrCat(
        maps.size(),
        " containment mapping(s) exist, but the contained query's "
        "comparisons do not imply the disjunction of their image "
        "comparisons (Theorem 2.1 fails)");
    return out;
  }
  if (some_direct) {
    out.narrative =
        "a single mapping's image comparisons are implied outright "
        "(the Theorem 2.3 situation)";
    return out;
  }
  out.narrative = StrCat(
      "no single mapping suffices; the disjunction of the ", maps.size(),
      " image conjunctions is implied only jointly — the case analysis of "
      "Theorem 2.1 (e.g. coupling, as in Example 5.1)");
  return out;
}

}  // namespace cqac
