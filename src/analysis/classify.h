// Syntactic class inference for CQAC queries.
//
// The paper's complexity results and algorithm preconditions hinge on which
// fragment a query's comparison set falls into (Table 2, Sections 3-5).
// ClassifyQuery computes the full picture in one pass; the rewriting
// algorithm each class gets is ChooseRewriteAlgorithm's rule
// (src/rewriting/answer.h), which RecommendedAlgorithm states:
//
//       CQ  ⊂  LSI, RSI  ⊂  CQAC-SI  ⊂  SI  ⊂  CQAC
//
//  * CQ       — no comparisons; classical containment (NP). RewriteLSIQuery
//               (Figure 2) with no comparison to place.
//  * LSI/RSI  — all comparisons upper bounds (resp. lower bounds) on single
//               variables; Theorem 2.3 single-mapping containment applies and
//               RewriteLSIQuery (Figure 2) is complete.
//  * CQAC-SI  — semi-interval with at most one LSI or at most one RSI
//               comparison; the Section 3 equivalent-rewriting machinery
//               (Theorem 3.2) applies, and over SI views the Figure 4
//               Datalog MCR. Over other views: verified bucket candidates.
//  * SI       — all comparisons semi-interval; Lemma 5.1 implication
//               applies. Figure 4 needs a CQAC-SI query, so rewriting
//               falls back to verified bucket candidates.
//  * CQAC     — anything else (variable-variable or symbol comparisons);
//               only the general Theorem 2.1 test is sound, and rewriting
//               uses verified bucket candidates.
//
// Orthogonally, the comparison set is *closed* when every ordered comparison
// is non-strict (<=) and *open* when every one is strict (<) — Afrati &
// Damigos show several complexity bounds differ between the closed and open
// cases.
#ifndef CQAC_ANALYSIS_CLASSIFY_H_
#define CQAC_ANALYSIS_CLASSIFY_H_

#include <string>
#include <vector>

#include "src/ir/query.h"

namespace cqac {

/// The inferred class of one query's comparison set.
struct ClassInfo {
  AcClass ac_class = AcClass::kNone;
  bool cqac_si = false;  // Section 5's CQAC-SI fragment (implies SI)
  bool closed = false;   // every ordered comparison non-strict (<=)
  bool open = false;     // every ordered comparison strict (<)

  /// Canonical class name: "CQ", "LSI", "RSI", "CQAC-SI", "SI" or "CQAC".
  const char* Name() const;

  /// One-line statement of the rewriting algorithm ChooseRewriteAlgorithm
  /// runs for this class (for CQAC-SI, depending on whether the views are
  /// SI).
  const char* RecommendedAlgorithm() const;

  /// Renders e.g. "LSI (closed)" or "CQAC".
  std::string ToString() const;
};

/// Classifies `q`. Pure syntax; never fails.
ClassInfo ClassifyQuery(const Query& q);

/// The syntactic role of one comparison in the class decision.
enum class CompKind {
  kEquality,  // X = t — not semi-interval, so it forces the general class
              // (Preprocess collapses equalities before classification)
  kLsi,       // X < c / X <= c — upper bound on a single variable
  kRsi,       // c < X / c <= X — lower bound on a single variable
  kVarVar,    // X < Y — forces the general CQAC class
  kOther,     // anything else (e.g. symbol or constant-vs-constant residue)
};

const char* CompKindName(CompKind k);

/// A classification with the per-comparison evidence that produced it. The
/// evidence is what makes the dispatch decision itself checkable: the
/// auditor recomputes each comparison's kind from the comparison structure
/// alone and re-derives the class from the kinds via the lattice rules,
/// independently of Query::Classify().
struct ClassificationEvidence {
  ClassInfo info;
  /// One entry per comparison of the query, in order.
  std::vector<CompKind> kinds;
  /// Indices (into the query's comparison list) of the comparisons that
  /// decided the class: for LSI/RSI every bound, for SI/CQAC the first
  /// comparison that forced the promotion. Empty for CQ.
  std::vector<size_t> deciding;
};

/// Classifies `q` and records the per-comparison evidence.
ClassificationEvidence ClassifyQueryWithEvidence(const Query& q);

}  // namespace cqac

#endif  // CQAC_ANALYSIS_CLASSIFY_H_
