// Budget: the single resource-limit object threaded through the rewriting
// stack via EngineContext (src/engine/context.h). Semantics:
//
//  * max_homomorphisms — cap on containment mappings enumerated per
//    homomorphism search (ForEachHomomorphism and everything above it);
//  * max_mappings      — cap on rewriting artifacts produced per algorithm
//    stage: MCDs constructed, bucket candidates, MCD combinations;
//  * deadline          — optional wall-clock deadline (steady clock) checked
//    at enumeration boundaries;
//  * max_cache_bytes   — byte cap on the EngineContext decision cache and
//    query interner combined (0 disables caching).
//
// Exceeding an enumeration cap or the deadline is reported as a clean
// StatusCode::kResourceExhausted, never as silent truncation.
#ifndef CQAC_ENGINE_BUDGET_H_
#define CQAC_ENGINE_BUDGET_H_

#include <chrono>
#include <cstddef>
#include <limits>
#include <optional>

#include "src/base/status.h"

namespace cqac {

struct Budget {
  size_t max_homomorphisms = 1 << 20;
  size_t max_mappings = 1 << 20;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  size_t max_cache_bytes = 16u << 20;

  /// A budget with every cap removed (no deadline, no enumeration caps).
  static Budget Unlimited() {
    Budget b;
    b.max_homomorphisms = std::numeric_limits<size_t>::max();
    b.max_mappings = std::numeric_limits<size_t>::max();
    b.deadline.reset();
    return b;
  }

  /// A default budget whose deadline is `timeout` from now.
  static Budget WithTimeout(std::chrono::milliseconds timeout) {
    Budget b;
    b.deadline = std::chrono::steady_clock::now() + timeout;
    return b;
  }

  bool DeadlineExceeded() const {
    return deadline.has_value() &&
           std::chrono::steady_clock::now() > *deadline;
  }

  /// OK, or ResourceExhausted("<what>: wall-clock deadline exceeded").
  Status CheckDeadline(const char* what) const;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_BUDGET_H_
