// replay: recovery by deterministic replay of the external log (§II.E-F).
// Set-up writes a fixed log of kRecords inputs into the paper's Figure-1
// word count (2 senders -> merger) in durable mode with no checkpoint,
// through try_inject_batch with scripted VTs, then closes the inputs,
// drains and keeps the outputs. The timed operation is a cold restart over
// that directory: construct the Runtime, start(), ReplayDriver::catch_up.
// The log is read and core runs in replay; gateway, net and fsync are not
// on the timed path.
//
// The workload has no per-request path: its end-to-end latency is the
// restart. ack_* is the time until the restarted runtime accepts new input
// again (construction plus start()), e2e_* the time until it has caught
// up, one sample per restart (so e2e_p50_ms equals rto_ms).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/runtime.h"
#include "durability/replay.h"
#include "log/segmented_store.h"
#include "net/topologies.h"
#include "serde/archive.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tart::ComponentId;
using tart::EngineId;
using tart::WireId;

constexpr std::size_t kRecords = 100000;  // log length N
constexpr std::size_t kBatch = 500;       // records per durable batch
constexpr std::size_t kPool = 1 << 14;    // distinct sentences
constexpr int kSetups = 5;                // set-up repetitions
constexpr int kMinRestarts = 3;           // even when --seconds is short
constexpr std::uint64_t kMsgsPerInput = 2;  // sender, merger

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

struct App {
  tart::net::BuiltTopology built =
      tart::net::build_topology("wordcount", {{"senders", "2"}});
  std::map<ComponentId, EngineId> placement{
      {built.components.at("sender1"), EngineId(0)},
      {built.components.at("sender2"), EngineId(0)},
      {built.components.at("merger"), EngineId(1)}};
  WireId in[2] = {built.inputs.at("sender1"), built.inputs.at("sender2")};
  WireId out = built.outputs.at("total");

  tart::core::RuntimeConfig config(const std::string& dir) const {
    tart::core::RuntimeConfig c;
    c.log_dir = dir;
    c.durability.enabled = true;  // segmented log, no checkpoint timer
    return c;
  }
};

/// The output stream exactly as delivered: vt, stutter flag, origin tag
/// and the serialized payload of every record, concatenated.
std::vector<std::byte> encode(const std::vector<tart::core::OutputRecord>& rs) {
  tart::serde::Writer w;
  for (const auto& r : rs) {
    w.write_vt(r.vt);
    w.write_bool(r.stutter);
    w.write_u32(r.origin_wire.value());
    w.write_u64(r.origin_seq);
    r.payload.encode(w);
  }
  return w.take();
}

/// FNV-1a over every regular file in `dir` (names and contents).
std::uint64_t hash_dir(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 1099511628211ull;
    }
  };
  std::vector<char> buf(1 << 16);
  for (const auto& f : files) {
    const std::string name = f.filename().string();
    mix(name.data(), name.size());
    std::ifstream in(f, std::ios::binary);
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      mix(buf.data(), static_cast<std::size_t>(in.gcount()));
    }
  }
  return h;
}

std::uint64_t segment_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".seg")
      n += e.file_size();
  return n;
}

/// What set-up leaves behind for the restarts to be checked against.
struct Fixture {
  std::string dir;
  std::vector<std::byte> outputs;
  std::uint64_t log_hash = 0;
  std::uint64_t log_bytes = 0;
};

/// The ingest's own outputs against the reference model: every record
/// exactly once, increasing VTs, and totals that add up.
void check_against_reference(
    const App& app, const std::vector<tart::core::InjectRequest>& requests,
    const std::vector<tart::core::OutputRecord>& records, Result& result) {
  ReferenceModel model(2);
  std::vector<std::vector<std::int64_t>> ref(2);
  for (const auto& r : requests) {
    const std::size_t s = r.wire == app.in[0] ? 0 : 1;
    ref[s].push_back(model.count(s, r.payload.as_strings()));
  }
  std::vector<ObservedOutput> observed;
  observed.reserve(records.size());
  for (const auto& r : records)
    observed.push_back(ObservedOutput{r.vt.ticks(), r.stutter,
                                      r.origin_wire.value(),
                                      r.origin_wire.is_valid(), r.origin_seq,
                                      r.payload.as_int()});
  std::vector<std::string> problems;
  const std::uint64_t bad = check_outputs(
      {app.in[0].value(), app.in[1].value()}, ref, observed, &problems);
  if (bad > 0) {
    result.failed += bad;
    for (const auto& p : problems) result.problems.push_back("replay: " + p);
  }
}

/// Writes the log into a fresh `dir` and returns what it left there.
Fixture write_log(const App& app, std::uint64_t seed, const std::string& dir,
                  SpanLog& spans, Result& result) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t root = spans.open();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Fixture fx;
  fx.dir = dir;

  SentenceGenerator gen(seed);
  std::vector<tart::Payload> pool;
  pool.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) pool.emplace_back(gen.next());
  Rng rng(seed ^ 0x10C10C10Cull);
  std::vector<tart::core::InjectRequest> requests(kRecords);
  std::int64_t vt = 0;
  for (auto& r : requests) {
    vt += 1000 + static_cast<std::int64_t>(rng.below(1000));
    r.wire = app.in[rng.below(2)];
    r.vt = vt;
    r.payload = pool[rng.below(kPool)];
  }
  {
    const std::int64_t c0 = now_ns();
    tart::core::Runtime rt(app.built.topology, app.placement,
                           app.config(dir));
    spans.record(root, "Runtime", "core", c0, now_ns());
    rt.start();
    for (std::size_t b = 0; b < kRecords; b += kBatch) {
      const auto first = requests.begin() + static_cast<std::ptrdiff_t>(b);
      const auto last = requests.begin() +
                        static_cast<std::ptrdiff_t>(std::min(kRecords, b + kBatch));
      const std::vector<tart::core::InjectRequest> batch(first, last);
      const std::int64_t b0 = now_ns();
      for (const auto& r : rt.try_inject_batch(batch)) {
        if (r.status != tart::core::InjectStatus::kOk)
          result.fail(1, "replay: try_inject_batch refused a record");
      }
      spans.record(root, "try_inject_batch", "log", b0, now_ns());
    }
    rt.close_all_inputs();
    const std::int64_t d0 = now_ns();
    if (!rt.drain(std::chrono::seconds(60)))
      result.fail(1, "replay: set-up drain timed out");
    spans.record(root, "drain", "core", d0, now_ns());
    const auto records = rt.output_records(app.out);
    check_against_reference(app, requests, records, result);
    rt.stop();
    fx.outputs = encode(records);
  }
  fx.log_hash = hash_dir(dir);
  fx.log_bytes = segment_bytes(dir);
  spans.close(root, 0, "replay.setup", "bench", t0, now_ns());
  return fx;
}

struct Restarts {
  std::vector<double> rto_ms, accepting_ms, construct_ms, catch_up_ms,
      drain_ms;
  std::uint64_t replayed_msgs = 0;  // messages processed during catch-up
  double catch_up_s = 0;
  tart::core::MetricsSnapshot counters;  // catch-up + drain, summed
  ProfTotals prof;                       // likewise
  std::uint64_t suffix_records = 0;
};

/// The measured window: cold restarts over the fixture until `seconds`
/// have passed (at least kMinRestarts), each checked against set-up.
Restarts restart_loop(const App& app, const Fixture& fx, double seconds,
                      SpanLog& spans, Result& result) {
  Restarts out;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; i < kMinRestarts || now_ns() < end; ++i) {
    const std::uint64_t root = spans.open();
    const ProfTotals prof_before = ProfTotals::now();
    const std::int64_t t0 = now_ns();
    tart::core::Runtime rt(app.built.topology, app.placement,
                           app.config(fx.dir));
    const std::int64_t t1 = now_ns();
    rt.start();
    const std::int64_t t2 = now_ns();
    const auto stats = tart::durability::ReplayDriver::catch_up(
        rt, std::chrono::seconds(120));
    const std::int64_t t3 = now_ns();
    spans.record(root, "Runtime", "core", t0, t1);
    spans.record(root, "start", "core", t1, t2);
    spans.record(root, "catch_up", "durability", t2, t3);
    const auto at_catch_up = rt.total_metrics();
    result.attempted += 1;
    if (!stats.caught_up) result.fail(1, "replay: catch_up timed out");
    if (rt.recovery_info().suffix_records != kRecords)
      result.fail(1, "replay: restart saw " +
                         std::to_string(rt.recovery_info().suffix_records) +
                         " suffix records, expected " +
                         std::to_string(kRecords));
    out.suffix_records = rt.recovery_info().suffix_records;
    out.rto_ms.push_back(ms_between(t0, t3));
    out.accepting_ms.push_back(ms_between(t0, t2));
    out.construct_ms.push_back(ms_between(t0, t1));
    out.catch_up_ms.push_back(ms_between(t2, t3));
    out.replayed_msgs += at_catch_up.messages_processed;
    out.catch_up_s += static_cast<double>(t3 - t2) / 1e9;

    // Closing the inputs is volatile (never logged), so the log stays as
    // set-up left it; the drained stream must equal set-up's byte for byte.
    rt.close_all_inputs();
    const std::int64_t d0 = now_ns();
    if (!rt.drain(std::chrono::seconds(60)))
      result.fail(1, "replay: drain after restart timed out");
    const std::int64_t d1 = now_ns();
    spans.record(root, "drain", "core", d0, d1);
    spans.close(root, 0, "replay.restart", "bench", t0, d1);
    out.drain_ms.push_back(ms_between(d0, d1));
    out.prof.add(ProfTotals::now().minus(prof_before));
    out.counters += rt.total_metrics();
    if (rt.total_metrics().messages_processed != kMsgsPerInput * kRecords)
      result.fail(1, "replay: restart processed " +
                         std::to_string(rt.total_metrics().messages_processed) +
                         " messages, expected " +
                         std::to_string(kMsgsPerInput * kRecords));
    const auto records = rt.output_records(app.out);
    rt.stop();
    if (encode(records) != fx.outputs)
      result.fail(1, "replay: restart " + std::to_string(i) +
                         " output stream differs from the set-up run");
    if (hash_dir(fx.dir) != fx.log_hash)
      result.fail(1, "replay: log bytes changed across restart " +
                         std::to_string(i));
  }
  return out;
}

}  // namespace

Result run_replay(const RunArgs& args) {
  Result result;
  const App app;
  SpanLog off(false);
  SpanLog spans(args.traced);
  std::vector<double> setup_s;
  Fixture fx;
  for (int i = 0; i < (args.traced ? 1 : kSetups); ++i) {
    const std::int64_t t0 = now_ns();
    fx = write_log(app, args.seed, args.work_dir + "/log", spans, result);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const Restarts base = restart_loop(app, fx, args.seconds, off, result);
  const double base_rto = median(base.rto_ms);
  result.set("setup_s", median(setup_s));
  result.set("throughput_rps",
             per(static_cast<double>(kRecords), median(base.catch_up_ms) / 1e3));
  result.set("ack_p50_ms", median(base.accepting_ms));
  result.set("ack_p99_ms", percentile(base.accepting_ms, 99));
  result.set("e2e_p50_ms", base_rto);
  result.set("e2e_p99_ms", percentile(base.rto_ms, 99));
  result.set("rto_ms", base_rto);
  result.set("rss_mb", peak_rss_mb());
  result.notes["ack_samples"] = std::to_string(base.accepting_ms.size());
  result.notes["e2e_samples"] = std::to_string(base.rto_ms.size());
  if (!args.traced) return result;

  // Traced run: the untraced window above is the overhead baseline.
  const Restarts r = restart_loop(app, fx, args.seconds, spans, result);
  const ProfTotals& prof = r.prof;

  // The log layer on its own: open the segment set and scan every record.
  const std::int64_t s0 = now_ns();
  std::size_t scanned = 0;
  {
    const tart::log::SegmentedStore store(fx.dir, "messages");
    scanned = store.scan_all().size();
  }
  const std::int64_t s1 = now_ns();
  spans.record(0, "scan_all", "log", s0, s1);
  if (scanned != kRecords)
    result.fail(1, "replay: scan_all returned " + std::to_string(scanned) +
                       " records");
  if (hash_dir(fx.dir) != fx.log_hash)
    result.fail(1, "replay: log bytes changed by scan_all");

  const auto& m = r.counters;
  const double msgs = static_cast<double>(m.messages_processed);
  result.set("log.bytes_per_record",
             per(static_cast<double>(fx.log_bytes), kRecords));
  result.set("log.scan_rps", per(static_cast<double>(scanned),
                                 static_cast<double>(s1 - s0) / 1e9));
  result.set("durability.construct_ms", median(r.construct_ms));
  result.set("durability.catch_up_ms", median(r.catch_up_ms));
  result.set("durability.replay_mps",
             per(static_cast<double>(r.replayed_msgs), r.catch_up_s));
  result.set("durability.suffix_records", static_cast<double>(r.suffix_records));
  result.set("core.dispatch_ns_mean", prof.mean_ns("runner.dispatch"));
  result.set("core.pessimism_wait_us_per_msg",
             per(static_cast<double>(m.pessimism_wait_ns) / 1e3, msgs));
  result.set("core.stalls_per_msg",
             per(static_cast<double>(m.pessimism_events), msgs));
  result.set("core.probes_per_msg", per(static_cast<double>(m.probes_sent), msgs));
  result.set("core.drain_ms", median(r.drain_ms));
  result.set("core.msgs_per_input",
             per(msgs, static_cast<double>(kRecords * r.rto_ms.size())));
  result.set("estimator.underestimate_frac",
             per(static_cast<double>(m.estimator_underestimates), msgs));
  result.set("estimator.out_of_order_frac",
             per(static_cast<double>(m.out_of_order_arrivals), msgs));
  result.set("wire.retention_bytes_per_msg",
             per(static_cast<double>(prof.site("runner.retention").total), msgs));
  result.set("serde.archive_bytes_per_msg",
             per(static_cast<double>(prof.site("serde.archive").total), msgs));
  result.set("bench.trace_overhead_pct",
             per(median(r.rto_ms) - base_rto, base_rto) * 100.0);
  result.set("bench.ack_samples", static_cast<double>(r.accepting_ms.size()));
  result.set("bench.e2e_samples", static_cast<double>(r.rto_ms.size()));
  result.set("failed_frac", per(static_cast<double>(result.failed),
                                static_cast<double>(result.attempted)));
  report_self_times(spans, result);
  if (!spans.write(args.out_dir + "/spans-replay.tsv"))
    result.fail(1, "replay: could not write spans");
  return result;
}

}  // namespace perfbench
