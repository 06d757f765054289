#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

#include "util/thread_slot.h"

namespace iq {

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kMaxPow) * kSubBuckets, 0),
      min_(std::numeric_limits<Nanos>::max()) {}

int LatencyHistogram::BucketFor(Nanos value) {
  if (value < 0) value = 0;
  auto v = static_cast<std::uint64_t>(value);
  if (v < kSubBuckets) return static_cast<int>(v);
  int pow = 63 - std::countl_zero(v);
  // Within each power-of-two range, kSubBuckets linear sub-buckets.
  int shift = pow - 5;  // log2(kSubBuckets)
  auto sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
  int bucket = pow * kSubBuckets + sub;
  int max_bucket = kMaxPow * kSubBuckets - 1;
  return std::min(bucket, max_bucket);
}

Nanos LatencyHistogram::BucketUpperBound(int bucket) {
  int pow = bucket / kSubBuckets;
  int sub = bucket % kSubBuckets;
  if (pow < 5) return bucket;  // identity region: value < 32
  int shift = pow - 5;
  std::uint64_t base = (1ULL << pow) | (static_cast<std::uint64_t>(sub) << shift);
  return static_cast<Nanos>(base + ((1ULL << shift) - 1));
}

void LatencyHistogram::Record(Nanos value) {
  if (value < 0) value = 0;
  ++buckets_[static_cast<std::size_t>(BucketFor(value))];
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

Nanos LatencyHistogram::Min() const {
  return count_ == 0 ? 0 : min_;
}

double LatencyHistogram::MeanNanos() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

Nanos LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return BucketUpperBound(static_cast<int>(i));
  }
  return max_;
}

double LatencyHistogram::FractionBelow(Nanos threshold) const {
  if (count_ == 0) return 1.0;
  std::uint64_t below = 0;
  int limit = BucketFor(threshold);
  for (int i = 0; i <= limit; ++i) below += buckets_[static_cast<std::size_t>(i)];
  return static_cast<double>(below) / static_cast<double>(count_);
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = std::numeric_limits<Nanos>::max();
  max_ = 0;
  sum_ = 0;
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms",
                static_cast<unsigned long long>(count_),
                MeanNanos() / kNanosPerMilli,
                static_cast<double>(Percentile(0.50)) / kNanosPerMilli,
                static_cast<double>(Percentile(0.95)) / kNanosPerMilli,
                static_cast<double>(Percentile(0.99)) / kNanosPerMilli,
                static_cast<double>(Max()) / kNanosPerMilli);
  return buf;
}

StripedLatencyRecorder::StripedLatencyRecorder(std::size_t num_classes,
                                               std::size_t num_stripes)
    : num_classes_(num_classes), stripes_(num_stripes > 0 ? num_stripes : 1) {
  for (auto& s : stripes_) s.per_class.resize(num_classes_);
}

StripedLatencyRecorder::Stripe& StripedLatencyRecorder::StripeForThisThread() {
  return stripes_[ThreadSlot() % stripes_.size()];
}

void StripedLatencyRecorder::Record(std::size_t cls, Nanos value) {
  if (cls >= num_classes_) return;
  Stripe& s = StripeForThisThread();
  std::lock_guard lock(s.mu);
  auto& slot = s.per_class[cls];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  slot->Record(value);
}

LatencyHistogram StripedLatencyRecorder::Merged(std::size_t cls) const {
  LatencyHistogram out;
  if (cls >= num_classes_) return out;
  for (const auto& s : stripes_) {
    std::lock_guard lock(s.mu);
    if (s.per_class[cls]) out.Merge(*s.per_class[cls]);
  }
  return out;
}

}  // namespace iq
