// The LSI <-> RSI mirror transform.
//
// Negating every numeric constant and swapping comparison directions maps a
// dense order onto itself in reverse, turning left semi-interval queries
// into right semi-interval ones and vice versa. The paper states its
// Section 4 results for LSI queries "and symmetrically for RSI"; this
// transform is the symmetry made executable, and the test suite uses it to
// check that every algorithm commutes with mirroring. It is test support:
// linked into mirror_test and seeded_sweeps_test, not into the library.
#ifndef CQAC_TESTS_SUPPORT_MIRROR_H_
#define CQAC_TESTS_SUPPORT_MIRROR_H_

#include "src/eval/database.h"
#include "src/ir/query.h"
#include "src/ir/view.h"

namespace cqac {

/// Mirrors one query: every numeric constant c (in comparisons AND in
/// ordinary subgoals, so join semantics are preserved) becomes -c, and
/// every comparison flips sides (`X < c` becomes `-c < X`). Symbolic
/// constants are untouched. Involutive: Mirror(Mirror(q)) == q.
Query MirrorQuery(const Query& q);

/// Mirrors every view definition.
ViewSet MirrorViews(const ViewSet& views);

/// Mirrors a database instance (numeric values negated).
Database MirrorDatabase(const Database& db);

}  // namespace cqac

#endif  // CQAC_TESTS_SUPPORT_MIRROR_H_
