// Fixed-bucket histogram plus percentile extraction; used by benches to
// report latency distributions (the paper's figures report averages, we add
// percentiles for the ablation studies) and by the telemetry registry
// (src/obs) as the plain-value snapshot type that travels over the control
// plane and merges across nodes in tart-obs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tart::serde {
class Writer;
class Reader;
}  // namespace tart::serde

namespace tart::stats {

class Histogram {
 public:
  /// Buckets of `width` covering [0, width*num_buckets); one overflow bucket.
  Histogram(double width, std::size_t num_buckets);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double max_seen() const { return max_seen_; }
  /// Linear-interpolated percentile in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double bucket_width() const { return width_; }
  /// All buckets including the trailing overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

  /// Adds another histogram's observations into this one. Only histograms
  /// with identical bucket bounds (same width, same bucket count) can be
  /// merged; a mismatch returns false and leaves this histogram untouched —
  /// aggregators (tart-obs) must not silently blend incompatible scales.
  [[nodiscard]] bool merge(const Histogram& other);

  /// Deterministic serde round-trip, for the GET /obs body.
  void encode(serde::Writer& w) const;
  [[nodiscard]] static Histogram decode(serde::Reader& r);

  /// Rebuilds a histogram from raw parts (the telemetry registry snapshots
  /// its atomic cells through this). `buckets` must include the overflow
  /// bucket; `count` must equal the bucket total.
  [[nodiscard]] static Histogram from_parts(double width,
                                            std::vector<std::uint64_t> buckets,
                                            std::uint64_t count, double sum,
                                            double max_seen);

  /// Compact ASCII rendering for bench output.
  [[nodiscard]] std::string render(std::size_t max_rows = 16) const;

 private:
  double width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace tart::stats
