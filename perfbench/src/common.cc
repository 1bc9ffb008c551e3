#include "common.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

namespace perfbench {

// --- Seeded inputs ------------------------------------------------------------

const std::vector<std::string>& SentenceGenerator::vocabulary() {
  static const std::vector<std::string> words = [] {
    // Pronounceable, distinct, seed-independent: word i spelled in base 20
    // over consonant-vowel syllables, so lengths vary like real text.
    static const char* const kSyllables[] = {
        "ka", "lo", "mi", "nu", "pe", "ra", "so", "ti", "vu", "we",
        "ba", "do", "fi", "gu", "he", "ja", "ko", "li", "mu", "ne"};
    std::vector<std::string> v;
    v.reserve(kVocabulary);
    for (std::size_t i = 0; i < kVocabulary; ++i) {
      std::string w;
      std::size_t n = i;
      do {
        w += kSyllables[n % 20];
        n /= 20;
      } while (n > 0);
      v.push_back(std::move(w));
    }
    return v;
  }();
  return words;
}

SentenceGenerator::SentenceGenerator(std::uint64_t seed) : rng_(seed) {
  cdf_.resize(kVocabulary);
  double sum = 0;
  for (std::size_t r = 0; r < kVocabulary; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::vector<std::string> SentenceGenerator::next() {
  const auto& vocab = vocabulary();
  std::vector<std::string> words;
  words.reserve(kWordsPerSentence);
  for (std::size_t i = 0; i < kWordsPerSentence; ++i) {
    const double u = rng_.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), kVocabulary - 1);
    words.push_back(vocab[rank]);
  }
  return words;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double seconds, std::uint32_t streams) {
  Rng rng(seed);
  std::vector<Arrival> out;
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s * 1e9;
    if (t >= horizon_ns) break;
    out.push_back(Arrival{static_cast<std::int64_t>(t),
                          static_cast<std::uint32_t>(rng.below(streams))});
  }
  return out;
}

// --- Reference model ----------------------------------------------------------

std::int64_t ReferenceModel::count(std::size_t sender,
                                   const std::vector<std::string>& words) {
  auto& seen = seen_.at(sender);
  std::int64_t count = 0;
  for (const auto& w : words) count += seen[w]++;
  return count;
}

std::uint64_t check_outputs(
    const std::vector<std::uint32_t>& wire_of,
    const std::vector<std::vector<std::int64_t>>& ref_counts,
    const std::vector<ObservedOutput>& outputs,
    std::vector<std::string>* problems) {
  std::uint64_t bad = 0;
  const auto complain = [&](const std::string& what) {
    ++bad;
    if (problems->size() < 8) problems->push_back(what);
  };
  std::map<std::uint32_t, std::size_t> index_of;
  std::int64_t expected_final = 0;
  std::vector<std::vector<std::uint8_t>> seen(wire_of.size());
  for (std::size_t i = 0; i < wire_of.size(); ++i) {
    index_of[wire_of[i]] = i;
    seen[i].assign(ref_counts[i].size(), 0);
    for (const std::int64_t c : ref_counts[i]) expected_final += c;
  }
  std::int64_t prev_vt = -1;
  std::int64_t total = 0;
  for (const ObservedOutput& o : outputs) {
    if (o.stutter) complain("stutter output at vt " + std::to_string(o.vt));
    if (o.vt <= prev_vt)
      complain("output vt " + std::to_string(o.vt) + " not after " +
               std::to_string(prev_vt));
    prev_vt = std::max(prev_vt, o.vt);
    const auto it = o.has_origin ? index_of.find(o.origin_wire) : index_of.end();
    if (it == index_of.end() || o.origin_seq >= seen[it->second].size()) {
      complain("output at vt " + std::to_string(o.vt) +
               " has no accepted origin");
      continue;
    }
    if (seen[it->second][o.origin_seq]++ != 0) {
      complain("duplicate output for origin " + std::to_string(o.origin_wire) +
               ":" + std::to_string(o.origin_seq));
      continue;
    }
    const std::int64_t expected = total + ref_counts[it->second][o.origin_seq];
    if (o.total < total)
      complain("running total decreased to " + std::to_string(o.total));
    if (o.total != expected)
      complain("total " + std::to_string(o.total) + " != reference " +
               std::to_string(expected));
    total = o.total;
  }
  std::uint64_t missing = 0;
  for (const auto& s : seen)
    missing += static_cast<std::uint64_t>(std::count(s.begin(), s.end(), 0));
  if (missing > 0) {
    bad += missing;
    if (problems->size() < 8)
      problems->push_back(std::to_string(missing) +
                          " accepted inputs have no output");
  }
  if (missing == 0 && total != expected_final)
    complain("final total " + std::to_string(total) + " != reference " +
             std::to_string(expected_final));
  return bad;
}

// --- Statistics ---------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double chunked_percentile(const std::vector<double>& values, std::size_t chunk,
                          double p) {
  const std::size_t chunks = std::max<std::size_t>(1, values.size() / chunk);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto lo = values.begin() + static_cast<std::ptrdiff_t>(
                                         c * values.size() / chunks);
    const auto hi = values.begin() + static_cast<std::ptrdiff_t>(
                                         (c + 1) * values.size() / chunks);
    per_chunk.push_back(percentile(std::vector<double>(lo, hi), p));
  }
  return median(per_chunk);
}

// --- Benchmark spans ----------------------------------------------------------

void SpanLog::close(std::uint64_t id, std::uint64_t parent, const char* name,
                    const char* layer, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t wire,
                    std::uint64_t seq) {
  if (!enabled_) return;
  Span s{id, parent, name, layer, start_ns, end_ns, wire, seq};
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\tname\tlayer\tstart_ns\tend_ns\twire\tseq\n";
  for (const Span& s : spans())
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.layer
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.wire << '\t'
        << s.seq << '\n';
  return static_cast<bool>(out);
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

// --- Host fingerprint and calibration -----------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

double memcpy_gbps() {
  constexpr std::size_t kBytes = 32u << 20;
  std::vector<char> a(kBytes, 1);
  std::vector<char> b(kBytes, 0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::memcpy(b.data(), a.data(), kBytes);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    a[rep] = b[kBytes - 1 - rep];  // keep the copies observable
    rates.push_back(static_cast<double>(kBytes) / s / 1e9);
  }
  return median(rates);
}

double tcp_rtt_us() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listener);
    return 0;
  }
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  if (::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(client);
    ::close(listener);
    return 0;
  }
  const int server = ::accept(listener, nullptr, nullptr);
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  constexpr int kRounds = 2000;
  std::thread echo([server] {
    char c = 0;
    for (int i = 0; i < kRounds; ++i) {
      if (::read(server, &c, 1) != 1 || ::write(server, &c, 1) != 1) return;
    }
  });
  std::vector<double> rtts;
  rtts.reserve(kRounds);
  char c = 'x';
  for (int i = 0; i < kRounds; ++i) {
    const auto t0 = Clock::now();
    if (::write(client, &c, 1) != 1 || ::read(client, &c, 1) != 1) break;
    rtts.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  ::shutdown(client, SHUT_RDWR);
  echo.join();
  ::close(client);
  ::close(server);
  ::close(listener);
  return median(rtts);
}

double fsync_ms(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return 0;
  std::vector<char> block(4096, 'f');
  std::vector<double> lat;
  for (int i = 0; i < 30; ++i) {
    const auto t0 = Clock::now();
    if (::write(fd, block.data(), block.size()) !=
            static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0)
      break;
    lat.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  ::close(fd);
  ::unlink(path.c_str());
  return median(lat);
}

}  // namespace

HostInfo probe_host(const std::string& dir) {
  HostInfo h;
  h.cpu_model = cpu_model();
  h.nproc = std::thread::hardware_concurrency();
  utsname u{};
  if (::uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release;
  h.memcpy_gbps = memcpy_gbps();
  h.tcp_rtt_us = tcp_rtt_us();
  h.fsync_ms = fsync_ms(dir);
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Counter deltas -----------------------------------------------------------

ProfTotals ProfTotals::now() {
  ProfTotals t;
  for (const auto& s : tart::obs::prof::snapshot().sites)
    t.sites[s.name] = Site{s.count, s.total};
  return t;
}

ProfTotals ProfTotals::minus(const ProfTotals& before) const {
  ProfTotals d;
  for (const auto& [name, s] : sites) {
    const Site b = before.site(name);
    d.sites[name] = Site{s.count - b.count, s.total - b.total};
  }
  return d;
}

void ProfTotals::add(const ProfTotals& other) {
  for (const auto& [name, s] : other.sites) {
    sites[name].count += s.count;
    sites[name].total += s.total;
  }
}

ProfTotals::Site ProfTotals::site(const std::string& name) const {
  const auto it = sites.find(name);
  return it == sites.end() ? Site{} : it->second;
}

double ProfTotals::mean_ns(const std::string& name) const {
  const Site s = site(name);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.total) /
                            static_cast<double>(s.count);
}

double ProfTotals::loop_busy_pct() const {
  double work = 0;
  for (const char* span : tart::obs::prof::detail::kLoopWorkSpans)
    work += static_cast<double>(site(span).total);
  const double wait =
      static_cast<double>(site(tart::obs::prof::detail::kPollWaitSpan).total);
  return work + wait > 0 ? 100.0 * work / (work + wait) : 0.0;
}

tart::core::MetricsSnapshot delta(const tart::core::MetricsSnapshot& after,
                                  const tart::core::MetricsSnapshot& before) {
  tart::core::MetricsSnapshot d;
#define PERFBENCH_DELTA_SUM(field) d.field = after.field - before.field;
#define PERFBENCH_DELTA_MAX(field) d.field = after.field;
#define PERFBENCH_DELTA(field, prom, help, agg, scale) PERFBENCH_DELTA_##agg(field)
  TART_METRICS_SCALAR_FIELDS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
#undef PERFBENCH_DELTA_MAX
#undef PERFBENCH_DELTA_SUM
  return d;
}

// --- Result -------------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"throughput_rps", "1/s"}, {"e2e_p50_ms", "ms"},
      {"rto_ms", "ms"}, {"rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // End-to-end, from the untraced pass, but too noisy run to run on a
      // shared 4-core VM to bound (see README.md).
      {"ack_p50_ms", "ms"},
      {"ack_p99_ms", "ms"},
      {"e2e_p99_ms", "ms"},
      {"gateway.commit_batch_avg", "count"},
      {"gateway.group_commit_us_mean", "us"},
      {"gateway.parse_us_mean", "us"},
      {"gateway.http_in_bytes_per_req", "B"},
      {"gateway.poll_rtt_ms_p50", "ms"},
      {"gateway.polls_per_output", "count"},
      {"gateway.rejected_frac", "frac"},
      {"gateway.output_lag_ms_p50", "ms"},
      {"gateway.self_ms", "ms"},
      {"log.fsyncs_per_ack", "count"},
      {"log.bytes_per_record", "B"},
      {"log.scan_rps", "1/s"},
      {"log.durability_wait_ms_p50", "ms"},
      {"log.self_ms", "ms"},
      {"checkpoint.write_ms_mean", "ms"},
      {"durability.construct_ms", "ms"},
      {"durability.catch_up_ms", "ms"},
      {"durability.replay_mps", "1/s"},
      {"durability.suffix_records", "count"},
      {"durability.self_ms", "ms"},
      {"core.inject_us_p50", "us"},
      {"core.inject_us_p99", "us"},
      {"core.dispatch_ns_mean", "ns"},
      {"core.pessimism_wait_us_per_msg", "us"},
      {"core.stalls_per_msg", "count"},
      {"core.probes_per_msg", "count"},
      {"core.drain_ms", "ms"},
      {"core.msgs_per_input", "count"},
      {"core.stall_wait_ms_p50", "ms"},
      {"core.processing_ms_p50", "ms"},
      {"core.self_ms", "ms"},
      {"estimator.underestimate_frac", "frac"},
      {"estimator.out_of_order_frac", "frac"},
      {"wire.retention_bytes_per_msg", "B"},
      {"wire.retained_msgs_end", "count"},
      {"serde.archive_bytes_per_msg", "B"},
      {"net.frames_per_input", "count"},
      {"net.bytes_per_input", "B"},
      {"net.envelope_copy_bytes_per_input", "B"},
      {"net.decode_us_mean", "us"},
      {"net.send_flush_us_mean", "us"},
      {"net.loop_busy_pct", "%"},
      {"net.frames_refused", "count"},
      {"net.network_ms_p50", "ms"},
      {"apps.reference_rps", "1/s"},
      {"bench.gen_late_p99_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.ack_samples", "count"},
      {"bench.e2e_samples", "count"},
      {"bench.self_ms", "ms"},
      {"failed_frac", "frac"},
      {"host.memcpy_gbps", "GB/s"},
      {"host.tcp_rtt_us", "us"},
      {"host.fsync_ms", "ms"},
  };
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void Result::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  if (problems.size() < 16) problems.push_back(why);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += json_string(m.name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int emit(const Result& result, const HostInfo& host, bool traced,
         const std::string& workload, std::uint64_t seed,
         const std::string& record_path) {
  const bool correct =
      result.failed == 0 && !result.invalid && result.problems.empty();
  const auto& specs = traced ? per_layer_metrics() : end_to_end_metrics();

  std::printf("host: %s | nproc %u | %s | memcpy %.2f GB/s | tcp rtt %.1f us"
              " | fsync %.3f ms\n",
              host.cpu_model.c_str(), host.nproc, host.kernel.c_str(),
              host.memcpy_gbps, host.tcp_rtt_us, host.fsync_ms);
  for (const auto& [k, v] : result.notes)
    std::printf("note: %s = %s\n", k.c_str(), v.c_str());
  for (const MetricSpec& m : specs) {
    const auto it = result.metrics.find(m.name);
    std::printf("%-36s %14.4f %s\n", m.name,
                it == result.metrics.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& p : result.problems) std::printf("FAIL: %s\n", p.c_str());
  if (result.invalid) std::printf("INVALID: load generator fell behind\n");

  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, result.attempted)) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + metrics_json(specs, result.metrics) + "}";

  std::ofstream rec(record_path);
  rec << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
      << ", \"traced\": " << (traced ? "true" : "false")
      << ", \"host\": {\"cpu_model\": " << json_string(host.cpu_model)
      << ", \"nproc\": " << host.nproc
      << ", \"kernel\": " << json_string(host.kernel)
      << ", \"memcpy_gbps\": " << json_number(host.memcpy_gbps)
      << ", \"tcp_rtt_us\": " << json_number(host.tcp_rtt_us)
      << ", \"fsync_ms\": " << json_number(host.fsync_ms) << "}"
      << ", \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : result.notes) {
    rec << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  rec << "}, \"all_metrics\": {";
  first = true;
  for (const auto& [k, v] : result.metrics) {
    rec << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  rec << "}, \"result\": " << line << "}\n";

  std::fflush(stdout);
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

void report_self_times(const SpanLog& spans, Result& result) {
  for (const auto& [layer, ns] : self_time_by_layer(spans.spans())) {
    std::printf("self time %-12s %12.3f ms\n", layer.c_str(), ns / 1e6);
    result.set(layer + ".self_ms", ns / 1e6);
  }
}

}  // namespace perfbench
