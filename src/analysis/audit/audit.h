// Whole-program certification: an independent audit pass that re-proves
// every engine result with slow-but-obvious reference procedures.
//
// The engine layers already verify their own outputs (src/analysis/
// certificate.h re-checks rewriting witnesses). The auditor goes further
// and certifies the results the certificate checker could not reach:
//
//  * SI-MCR soundness — the Datalog MCR is unfolded for k bounded rounds
//    (src/analysis/audit/unfold_mcr.h) and every unfolded disjunct's
//    expansion is certified contained in the query by the from-scratch
//    canonical-database test, independently of the production containment
//    stack;
//  * minimization — MinimizeQuery/MinimizeUnion emit witnesses
//    (MinimizationWitness / UnionMinimizationWitness) whose homomorphisms
//    are re-checked by substitution and whose equivalences are re-decided
//    by canonical databases;
//  * IVM maintenance — every certified Apply (ivm::MaintenanceCertificate)
//    is replayed: each touched tuple's post-count is re-derived by a naive
//    backtracking counter over the post-commit base, and the whole
//    maintained state is compared against a from-scratch re-evaluation;
//  * classification — ClassificationEvidence is re-derived from the
//    comparison structure alone and checked against the lattice rules.
//
// Conventions follow src/analysis/certificate.h: OK means certified,
// InvalidArgument("certificate rejected: ...") means the certificate is
// wrong, Unsupported means the reference procedure cannot decide (counted
// as skipped, not failed). Every check bumps the audit_* counters of the
// context's EngineStats.
#ifndef CQAC_ANALYSIS_AUDIT_AUDIT_H_
#define CQAC_ANALYSIS_AUDIT_AUDIT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/audit/unfold_mcr.h"
#include "src/base/function_ref.h"
#include "src/base/status.h"
#include "src/containment/containment.h"
#include "src/containment/minimize.h"
#include "src/datalog/engine.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/query.h"
#include "src/ir/view.h"
#include "src/ivm/maintain.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace audit {

/// What one proof obligation certifies. The numeric value is stable — it is
/// the cqac_audit exit code for the first failed obligation.
enum class ObligationKind {
  kClassification = 1,       // evidence matches the comparison structure
  kRewrite = 2,              // UCQAC rewriting witness re-checked
  kEquivalentRewriting = 3,  // equivalent-rewriting result re-checked
  kSiMcrRules = 4,           // MCR rules re-validated one by one
  kSiMcrUnfold = 5,          // bounded unfolding certified contained in q
  kMinimizeQuery = 6,        // minimization witness re-checked
  kMinimizeUnion = 7,        // union minimization coverage re-checked
  kIvmCommit = 8,            // maintenance certificate replayed
  kEval = 9,                 // engine evaluation vs reference evaluation
};

const char* ObligationKindName(ObligationKind k);

/// One checked proof obligation: what was certified and the verdict.
struct Obligation {
  ObligationKind kind = ObligationKind::kClassification;
  std::string label;  // e.g. the query name or "insert batch #1"
  Status status;      // OK = certified, InvalidArgument = rejected,
                      // Unsupported = skipped
  bool failed() const {
    return !status.ok() && status.code() != StatusCode::kUnsupported;
  }
  bool skipped() const { return status.code() == StatusCode::kUnsupported; }
};

/// The result of one audit run, in check order.
struct AuditReport {
  std::vector<Obligation> obligations;

  bool ok() const;
  size_t failures() const;
  size_t skipped() const;
  /// The first failed obligation, or nullptr when everything certified.
  const Obligation* FirstFailure() const;
  /// The process exit code: 0 when ok(), else the kind of FirstFailure().
  int ExitCode() const;

  /// One line per obligation plus a summary line.
  std::string ToString() const;
  /// A self-contained JSON object (no external JSON dependency).
  std::string ToJson() const;
};

// ---- Individual reference checks ------------------------------------------

/// Re-derives every comparison's kind from its structure and the class from
/// the kinds via the lattice rules, then compares with `ev`.
Status CheckClassification(const Query& q, const ClassificationEvidence& ev);

/// Re-checks a minimization witness: both containment witnesses are genuine
/// (CheckContainmentWitness), they really connect `original` and
/// `minimized`, the minimized query is no larger, and both directions are
/// cross-checked by the from-scratch canonical-database procedure.
Status CheckMinimization(EngineContext& ctx, const MinimizationWitness& w);

/// Re-checks a union minimization: kept/dropped is a partition of the
/// original disjuncts, `minimized` is exactly the kept disjuncts, and every
/// dropped disjunct is contained in the union of the kept ones (decided
/// fresh, transitive-coverage property).
Status CheckUnionMinimization(EngineContext& ctx,
                              const UnionMinimizationWitness& w);

/// Unfolds `mcr` for bounded rounds and certifies every surviving disjunct:
/// its expansion over `views` is contained in `q` by canonical databases.
/// Adds each certified disjunct to audit_unfold_disjuncts. Unsupported when
/// the unfolding exhausts its budget before producing a checkable set.
Status CheckSiMcrUnfolding(EngineContext& ctx, const Query& q,
                           const ViewSet& views, const SiMcr& mcr,
                           const UnfoldOptions& options = {});

/// Replays a counting maintenance certificate from MaterializedViewSet:
/// summary consistency, per-touched-tuple derivation counts re-derived by
/// an independent backtracking counter over `post_base`, presence agreement
/// with `post_views`, and whole-state equality of every view against
/// EvaluateQueryReference.
Status CheckMaintenance(EngineContext& ctx,
                        const std::vector<Query>& view_queries,
                        const ivm::MaintenanceCertificate& cert,
                        const Database& post_base, const Database& post_views);

/// Replays a presence maintenance certificate from MaintainedProgram: the
/// fresh fixpoint of `engine` over `post_edb` must equal `post_idb`, and
/// every touched tuple's 0/1 transition must agree with it.
Status CheckProgramMaintenance(EngineContext& ctx,
                               const datalog::Engine& engine,
                               const ivm::MaintenanceCertificate& cert,
                               const Database& post_edb,
                               const Database& post_idb);

// ---- The whole-program pass -----------------------------------------------

/// Runs the check `fn` as one obligation of `kind` and appends its verdict
/// to `report`: the wall time goes to audit_wall_ns, and audit_obligations
/// (plus audit_failures on a failed verdict) is bumped. AuditAll records
/// every obligation through this; so does the serve layer's `certify`.
void RecordObligation(EngineContext& ctx, AuditReport* report,
                      ObligationKind kind, std::string label,
                      FunctionRef<Status()> fn);

struct AuditOptions {
  UnfoldOptions unfold;
  /// Run the IVM commit obligations (needs facts). On by default.
  bool audit_ivm = true;
  /// Run the evaluation obligation (needs facts). On by default.
  bool audit_eval = true;
};

/// One audit subject: a query, the views it is rewritten with, and base
/// facts for the dynamic obligations (IVM replay, evaluation).
struct AuditInputs {
  Query query;
  ViewSet views;
  Database facts;
};

/// Runs every applicable obligation for `inputs` and appends to `report`:
/// classification, the same rewriting dispatch the serve layer uses (LSI/
/// bucket with witness re-check, or SI-MCR with rule re-validation plus
/// bounded-unfolding certification), query minimization, union minimization
/// of the produced rewriting, certified IVM inserts/retracts of the facts,
/// and engine-vs-reference evaluation. Errors inside a check land in that
/// obligation's status; the pass itself only fails on setup errors.
Status AuditAll(EngineContext& ctx, const AuditInputs& inputs,
                const AuditOptions& options, AuditReport* report);

}  // namespace audit
}  // namespace cqac

#endif  // CQAC_ANALYSIS_AUDIT_AUDIT_H_
