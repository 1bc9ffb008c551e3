// Shared pieces of the repository benchmark: seeded input generation, the
// single-threaded reference model of the word-count job, statistics, the
// benchmark's own span recorder, host fingerprint/calibration, and the
// result printer. Everything here is deliberately independent of the
// system under test except for the public headers it calls through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "obs/prof.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Seeded inputs ------------------------------------------------------------

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

inline constexpr std::size_t kVocabulary = 10000;
inline constexpr std::size_t kWordsPerSentence = 8;
inline constexpr double kZipfExponent = 1.0;

/// Sentences of kWordsPerSentence words drawn with Zipf skew from a fixed
/// kVocabulary-word vocabulary. The vocabulary itself does not depend on
/// the seed; which words appear, and how often, does.
class SentenceGenerator {
 public:
  explicit SentenceGenerator(std::uint64_t seed);
  std::vector<std::string> next();

  [[nodiscard]] static const std::vector<std::string>& vocabulary();

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// One open-loop arrival: when it is due (ns after the window opens) and
/// which of `streams` independent producers sends it.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t stream = 0;
};

/// Poisson arrivals at `rate_per_s` in total over [0, seconds), each
/// assigned uniformly to one of `streams` producers.
[[nodiscard]] std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                                    double rate_per_s,
                                                    double seconds,
                                                    std::uint32_t streams);

// --- Reference model ----------------------------------------------------------

/// Single-threaded WordCountSender + TotalingMerger: per sender, each
/// sentence's count is the sum of its words' prior occurrences at that
/// sender; the merger's running total adds the counts in delivery order.
class ReferenceModel {
 public:
  explicit ReferenceModel(std::size_t senders) : seen_(senders) {}
  /// Count the sender emits for its next sentence (inputs in per-sender
  /// sequence order).
  std::int64_t count(std::size_t sender, const std::vector<std::string>& words);

 private:
  std::vector<std::unordered_map<std::string, std::int64_t>> seen_;
};

/// One output as observed by the client.
struct ObservedOutput {
  std::int64_t vt = 0;
  bool stutter = false;
  std::uint32_t origin_wire = 0;
  bool has_origin = false;
  std::uint64_t origin_seq = 0;
  std::int64_t total = 0;
};

/// Checks an output stream against the inputs the client got accepted:
/// every accepted input exactly once (by origin tag), no stutter, strictly
/// increasing output VTs, non-decreasing running totals, each total equal
/// to the previous plus the reference count of its origin, and the final
/// total equal to the reference total. `ref_counts[i][seq]` is the
/// reference count of input `seq` on wire `wire_of[i]`. Returns the number
/// of violations and appends a description of the first few to `problems`.
std::uint64_t check_outputs(
    const std::vector<std::uint32_t>& wire_of,
    const std::vector<std::vector<std::int64_t>>& ref_counts,
    const std::vector<ObservedOutput>& outputs,
    std::vector<std::string>* problems);

// --- Statistics ---------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
/// num / den, or 0 when nothing was measured (den == 0).
[[nodiscard]] inline double per(double num, double den) {
  return den > 0 ? num / den : 0.0;
}
/// Splits time-ordered samples into consecutive chunks of about `chunk`
/// samples, takes percentile `p` of each and returns the median of those.
/// A rare stall then moves one chunk's figure instead of the whole run's,
/// which keeps tail percentiles repeatable from run to run.
[[nodiscard]] double chunked_percentile(const std::vector<double>& values,
                                        std::size_t chunk, double p);

// --- Benchmark spans ----------------------------------------------------------

/// One span around a call the benchmark makes into a layer of the system.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t wire = 0;  ///< request id (wire, seq); wire 0 = none
  std::uint64_t seq = 0;
};

/// In-memory span log. When disabled every call is a branch and nothing is
/// recorded, so the untraced runs pay (almost) nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Reserves an id so children can name their parent before it closes.
  std::uint64_t open() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  void close(std::uint64_t id, std::uint64_t parent, const char* name,
             const char* layer, std::int64_t start_ns, std::int64_t end_ns,
             std::uint32_t wire = 0, std::uint64_t seq = 0);
  /// Opens and closes in one call (spans whose children are not recorded).
  void record(std::uint64_t parent, const char* name, const char* layer,
              std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t wire = 0, std::uint64_t seq = 0) {
    if (enabled_) close(open(), parent, name, layer, start_ns, end_ns, wire, seq);
  }
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes one tab-separated line per span.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per layer, in ns: each span's duration minus the part of its
/// interval covered by its children (overlapping children counted once).
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

// --- Host fingerprint and calibration -----------------------------------------

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string kernel;
  double memcpy_gbps = 0;
  double tcp_rtt_us = 0;
  double fsync_ms = 0;
};

/// Fingerprint plus three in-run calibration loops (memcpy bandwidth,
/// loopback TCP round trip, fsync latency in `dir`).
[[nodiscard]] HostInfo probe_host(const std::string& dir);

[[nodiscard]] double peak_rss_mb();

// --- Counter deltas -----------------------------------------------------------

/// Profiler site totals (obs::prof::snapshot) by name.
struct ProfTotals {
  struct Site {
    std::uint64_t count = 0;
    std::uint64_t total = 0;
  };
  std::map<std::string, Site> sites;

  static ProfTotals now();
  /// this - before, per site.
  [[nodiscard]] ProfTotals minus(const ProfTotals& before) const;
  /// Adds another window's deltas.
  void add(const ProfTotals& other);
  [[nodiscard]] Site site(const std::string& name) const;
  /// Mean span length in ns (0 when the span never ran).
  [[nodiscard]] double mean_ns(const std::string& name) const;
  /// Event-loop saturation: work spans over work + poll wait, in percent.
  [[nodiscard]] double loop_busy_pct() const;
};

/// after - before for every counter field (SUM fields; MAX fields keep
/// `after`).
[[nodiscard]] tart::core::MetricsSnapshot delta(
    const tart::core::MetricsSnapshot& after,
    const tart::core::MetricsSnapshot& before);

// --- Result -------------------------------------------------------------------

/// Metric names the benchmark prints, with units: the end-to-end list
/// (untraced runs) and the per-layer list (traced runs).
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// Everything one run reports. Metrics not set print as 0 (the layer is
/// not on this workload's path).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool invalid = false;  ///< the load generator could not honour its schedule
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;  ///< sample counts etc.

  void fail(std::uint64_t n, const std::string& why);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Prints the human-readable report and, as the last stdout line, the JSON
/// object; also writes the full record (fingerprint included) to
/// `record_path`. Returns the process exit code.
int emit(const Result& result, const HostInfo& host, bool traced,
         const std::string& workload, std::uint64_t seed,
         const std::string& record_path);

/// Prints "layer self_ms" lines for a span log and stores them as
/// `<layer>.self_ms` metrics.
void report_self_times(const SpanLog& spans, Result& result);

}  // namespace perfbench
