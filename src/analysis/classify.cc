#include "src/analysis/classify.h"

#include "src/base/strings.h"

namespace cqac {

const char* ClassInfo::Name() const {
  switch (ac_class) {
    case AcClass::kNone:
      return "CQ";
    case AcClass::kLsi:
      return "LSI";
    case AcClass::kRsi:
      return "RSI";
    case AcClass::kSi:
      return cqac_si ? "CQAC-SI" : "SI";
    case AcClass::kGeneral:
      return "CQAC";
  }
  return "?";
}

const char* ClassInfo::RecommendedAlgorithm() const {
  switch (ac_class) {
    case AcClass::kNone:
      return "RewriteLSIQuery (Figure 2 MCD algorithm with no comparison to "
             "place; single-mapping containment, Theorem 2.3)";
    case AcClass::kLsi:
    case AcClass::kRsi:
      return "RewriteLSIQuery (Figure 2 MCD algorithm; single-mapping "
             "containment, Theorem 2.3)";
    case AcClass::kSi:
      if (cqac_si)
        return "RewriteSiQueryDatalog (Figure 4 SI-MCR) when every view is "
               "SI; otherwise BucketRewrite with verified candidates";
      return "BucketRewrite with verified candidates (Lemma 5.1 "
             "implication; Figure 4 needs a CQAC-SI query)";
    case AcClass::kGeneral:
      return "BucketRewrite with general Theorem 2.1 verification "
             "(all containment mappings + disjunction implication)";
  }
  return "?";
}

std::string ClassInfo::ToString() const {
  if (ac_class == AcClass::kNone) return Name();
  if (closed) return StrCat(Name(), " (closed)");
  if (open) return StrCat(Name(), " (open)");
  return Name();
}

ClassInfo ClassifyQuery(const Query& q) {
  ClassInfo info;
  info.ac_class = q.Classify();
  info.cqac_si = q.IsCqacSi();
  bool any_ordered = false;
  bool all_strict = true;
  bool all_nonstrict = true;
  for (const Comparison& c : q.comparisons()) {
    if (c.op == CompOp::kEq) continue;
    any_ordered = true;
    if (c.op == CompOp::kLt)
      all_nonstrict = false;
    else
      all_strict = false;
  }
  info.closed = any_ordered && all_nonstrict;
  info.open = any_ordered && all_strict;
  return info;
}

const char* CompKindName(CompKind k) {
  switch (k) {
    case CompKind::kEquality:
      return "equality";
    case CompKind::kLsi:
      return "lsi";
    case CompKind::kRsi:
      return "rsi";
    case CompKind::kVarVar:
      return "var-var";
    case CompKind::kOther:
      return "other";
  }
  return "?";
}

ClassificationEvidence ClassifyQueryWithEvidence(const Query& q) {
  ClassificationEvidence ev;
  ev.info = ClassifyQuery(q);
  ev.kinds.reserve(q.comparisons().size());
  for (const Comparison& c : q.comparisons()) {
    if (c.op == CompOp::kEq)
      ev.kinds.push_back(CompKind::kEquality);
    else if (c.IsLsi())
      ev.kinds.push_back(CompKind::kLsi);
    else if (c.IsRsi())
      ev.kinds.push_back(CompKind::kRsi);
    else if (c.IsVarVar())
      ev.kinds.push_back(CompKind::kVarVar);
    else
      ev.kinds.push_back(CompKind::kOther);
  }
  switch (ev.info.ac_class) {
    case AcClass::kNone:
      break;
    case AcClass::kLsi:
    case AcClass::kRsi:
      // Every bound participates in the class decision.
      for (size_t i = 0; i < ev.kinds.size(); ++i) ev.deciding.push_back(i);
      break;
    case AcClass::kSi: {
      // The first bound of each direction together force SI (neither pure
      // LSI nor pure RSI).
      for (CompKind want : {CompKind::kLsi, CompKind::kRsi})
        for (size_t i = 0; i < ev.kinds.size(); ++i)
          if (ev.kinds[i] == want) {
            ev.deciding.push_back(i);
            break;
          }
      break;
    }
    case AcClass::kGeneral:
      // The first non-semi-interval comparison forces the general class.
      for (size_t i = 0; i < ev.kinds.size(); ++i)
        if (ev.kinds[i] != CompKind::kLsi && ev.kinds[i] != CompKind::kRsi) {
          ev.deciding.push_back(i);
          break;
        }
      break;
  }
  return ev;
}

}  // namespace cqac
