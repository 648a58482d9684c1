#include "src/engine/adaptive.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/strings.h"

namespace cqac {
namespace {

constexpr double kLogMin = -16.0;
constexpr double kLogMax = 16.0;
constexpr double kLogStep = (kLogMax - kLogMin) / StreamingHistogram::kBuckets;

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

void StreamingHistogram::Observe(double value) {
  double lg = value > 0 ? std::log2(value) : kLogMin;
  auto idx = static_cast<int64_t>(std::floor((lg - kLogMin) / kLogStep));
  idx = std::clamp<int64_t>(idx, 0, kBuckets - 1);
  ++buckets_[idx];
  ++count_;
}

double StreamingHistogram::Quantile(double q, double fallback) const {
  if (count_ == 0) return fallback;
  const double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target)
      return std::exp2(kLogMin + (static_cast<double>(i) + 0.5) * kLogStep);
  }
  return std::exp2(kLogMax - 0.5 * kLogStep);
}

void StreamingHistogram::Reset() {
  std::fill(std::begin(buckets_), std::end(buckets_), 0u);
  count_ = 0;
}

bool ArmCalibration::Observe(double value) {
  histogram.Observe(value);
  ++observations;
  if (observations % kRetunePeriod != 0) return false;
  factor = std::clamp(histogram.Quantile(0.5, initial_), 1.0 / kFactorClamp,
                      kFactorClamp);
  ++retunes;
  return true;
}

std::string ArmCalibration::ToString() const {
  return StrCat(FormatDouble(factor), " (", observations, " obs, ", retunes,
                " retunes)");
}

std::string AdaptiveState::ToString() const {
  return StrCat("ivm-counting incremental ", ivm_incremental.ToString(),
                ", rebuild ", ivm_rebuild.ToString());
}

void StreamingHistogram::SerializeTo(std::string* out) const {
  wire::AppendU64(out, count_);
  for (uint32_t b : buckets_) wire::AppendU32(out, b);
}

bool StreamingHistogram::RestoreFrom(wire::Cursor* c) {
  count_ = c->ReadU64();
  for (uint32_t& b : buckets_) b = c->ReadU32();
  return c->ok();
}

void ArmCalibration::SerializeTo(std::string* out) const {
  wire::AppendDouble(out, factor);
  wire::AppendU64(out, observations);
  wire::AppendU64(out, retunes);
  histogram.SerializeTo(out);
}

bool ArmCalibration::RestoreFrom(wire::Cursor* c) {
  factor = c->ReadDouble();
  observations = c->ReadU64();
  retunes = c->ReadU64();
  return histogram.RestoreFrom(c) && c->ok();
}

void AdaptiveState::SerializeTo(std::string* out) const {
  ivm_incremental.SerializeTo(out);
  ivm_rebuild.SerializeTo(out);
}

bool AdaptiveState::RestoreFrom(wire::Cursor* c) {
  return ivm_incremental.RestoreFrom(c) && ivm_rebuild.RestoreFrom(c);
}

}  // namespace cqac
