// Self-tuning cost-model constants for the planner (src/plan).
//
// The planner's work models are deliberately crude (linear probe counts,
// independence assumptions), so each cost comparison multiplies its raw
// estimates by a calibration factor learned from the workload itself: after
// every executed plan the coordinator feeds the observed work back as an
// observed/estimated ratio, and every kRetunePeriod observations the factor
// is re-estimated from a streaming histogram of those ratios. The scheme
// follows destor's CBR utility buckets (cbr_rewrite.c), which re-estimate a
// rewrite threshold every 100 chunks by scanning a fixed bucket array —
// cheap, O(1) per observation, no stored samples.
//
// Determinism. Adaptation state lives in the EngineContext and is mutated
// only by the coordinating thread at a deterministic point (after an Apply
// commits), never from inside a parallel section. The observed metrics
// themselves are thread-count-invariant (tuple counts, never batch or task
// counts), so a fixed command sequence produces byte-identical factors —
// and therefore byte-identical plans — at every thread count.
#ifndef CQAC_ENGINE_ADAPTIVE_H_
#define CQAC_ENGINE_ADAPTIVE_H_

#include <cstdint>
#include <string>

#include "src/base/wire.h"

namespace cqac {

/// A fixed-size streaming histogram over (0, +inf), destor-style: 256
/// buckets spanning log2 values [-16, 16), O(1) insert, quantiles by a
/// bucket scan. Values outside the range clamp to the edge buckets.
class StreamingHistogram {
 public:
  static constexpr size_t kBuckets = 256;

  void Observe(double value);

  /// The representative value (bucket midpoint) at quantile `q` in [0, 1].
  /// Returns `fallback` while the histogram is empty.
  double Quantile(double q, double fallback) const;

  uint64_t count() const { return count_; }
  void Reset();

  /// Durability snapshot surface (src/store): raw bucket counts, so a
  /// recovered process retunes from exactly the observation history the
  /// crashed one had.
  void SerializeTo(std::string* out) const;
  bool RestoreFrom(wire::Cursor* c);

 private:
  uint32_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
};

/// One self-tuning constant: a factor plus the histogram of observations
/// it is periodically re-estimated from.
struct ArmCalibration {
  /// Re-estimate the factor every this many observations (destor's
  /// "every 100 chunks").
  static constexpr uint64_t kRetunePeriod = 100;
  /// Factors are clamped into [1/kFactorClamp, kFactorClamp] so one absurd
  /// estimate cannot wedge a decision permanently.
  static constexpr double kFactorClamp = 64.0;

  explicit ArmCalibration(double initial) : factor(initial), initial_(initial) {}

  /// Records one observation; returns true when it triggered a retune.
  bool Observe(double value);

  std::string ToString() const;  // "1.000 (n obs, k retunes)"

  /// Durability snapshot surface (src/store). The factor is serialized as
  /// its raw IEEE-754 bits: a restored factor must compare bit-equal, or
  /// recovered plans could diverge from the pre-crash process.
  void SerializeTo(std::string* out) const;
  bool RestoreFrom(wire::Cursor* c);

  double factor;
  StreamingHistogram histogram;
  uint64_t observations = 0;
  uint64_t retunes = 0;

 private:
  double initial_;
};

/// Every self-tuning constant the planner consults: one ArmCalibration per
/// arm of the IVM incremental-vs-rebuild decision, each calibrating the
/// observed/estimated work ratio of its path.
struct AdaptiveState {
  ArmCalibration ivm_incremental{1.0};
  ArmCalibration ivm_rebuild{1.0};

  /// Deterministic one-line rendering (the shell's `plan` command).
  std::string ToString() const;

  /// Durability snapshot surface (src/store): both arms in declaration
  /// order. RestoreFrom returns false on malformed input and leaves the
  /// state partially overwritten (callers restore into a fresh instance).
  void SerializeTo(std::string* out) const;
  bool RestoreFrom(wire::Cursor* c);
};

}  // namespace cqac

#endif  // CQAC_ENGINE_ADAPTIVE_H_
