// fanin: the deterministic core at saturation, in-process. Eight
// WordCountSenders feed one TotalingMerger followed by two Passthrough
// stages; no HTTP, no log_dir, no sockets. One generator thread injects
// (real-time VT) on a seeded random sender and keeps kWindow inputs in
// flight: each output callback releases the next inject (a closed loop,
// like kWindow callers each waiting for its reply). The VT merge across 8
// wires, one runner thread woken per hop, wire retention and serde do the
// work here; gateway, net and fsync are not on the path.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <semaphore>
#include <thread>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tart::ComponentId;
using tart::EngineId;
using tart::PortId;
using tart::WireId;

constexpr std::size_t kSenders = 8;
constexpr std::ptrdiff_t kWindow = 64;          // inputs in flight
constexpr std::size_t kPool = 1 << 15;           // distinct sentences
constexpr std::size_t kSegmentInputs = 50000;    // see run_pass
constexpr std::uint64_t kMsgsPerInput = 4;       // sender, merger, 2 stages

struct FaninApp {
  tart::core::Topology topo;
  std::vector<ComponentId> components;
  std::vector<WireId> inputs;
  WireId out;
  std::map<ComponentId, EngineId> placement;

  FaninApp() {
    const ComponentId merger = topo.add(
        "merger", [] { return std::make_unique<tart::apps::TotalingMerger>(); });
    for (std::size_t i = 1; i <= kSenders; ++i) {
      const ComponentId s = topo.add("sender" + std::to_string(i), [] {
        return std::make_unique<tart::apps::WordCountSender>();
      });
      inputs.push_back(topo.external_input(s, PortId(0)));
      topo.connect(s, PortId(0), merger, PortId(0));
      components.push_back(s);
      placement[s] = EngineId(0);
    }
    ComponentId prev = merger;
    for (const char* name : {"stage1", "stage2"}) {
      const ComponentId p = topo.add(
          name, [] { return std::make_unique<tart::apps::Passthrough>(); });
      topo.connect(prev, PortId(0), p, PortId(0));
      components.push_back(p);
      placement[p] = EngineId(1);
      prev = p;
    }
    components.push_back(merger);
    placement[merger] = EngineId(1);
    out = topo.external_output(prev, PortId(0));
  }
};

struct Injected {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t sender = 0;
  std::uint32_t sentence = 0;
};

/// One live system plus the client-side bookkeeping around it.
struct Session {
  FaninApp app;
  std::counting_semaphore<> permits{kWindow};
  // When output n released its slot, at [n % size]. The generator reads
  // slot k - kWindow before inject k; that slot is rewritten only by output
  // k + kWindow, which cannot exist before inject k does.
  std::array<std::atomic<std::int64_t>, 2 * kWindow> release_ns{};
  std::vector<std::int64_t> out_ns;  // written by the output thread only
  std::atomic<std::size_t> outputs{0};
  std::vector<Injected> injected;    // generator thread only
  std::vector<std::vector<std::uint32_t>> by_seq{kSenders};  // sender -> inject idx
  SpanLog* spans = nullptr;
  // Last member: destroyed (threads joined) before the state its output
  // callback writes.
  std::unique_ptr<tart::core::Runtime> rt;

  void on_output() {
    const std::int64_t t = now_ns();
    release_ns[out_ns.size() % release_ns.size()].store(
        t, std::memory_order_relaxed);
    out_ns.push_back(t);
    outputs.store(out_ns.size(), std::memory_order_release);
    permits.release();
    if (spans != nullptr)
      spans->record(0, "output_callback", "core", t, now_ns());
  }

  bool wait_outputs(std::size_t n, std::chrono::seconds timeout) const {
    const auto deadline = Clock::now() + timeout;
    while (outputs.load(std::memory_order_acquire) < n) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  bool inject(std::uint32_t sender, std::uint32_t sentence,
              const std::vector<tart::Payload>& pool, std::int64_t due,
              std::uint64_t parent) {
    Injected in;
    in.due_ns = due;
    in.sender = sender;
    in.sentence = sentence;
    in.start_ns = now_ns();
    const auto r = rt->try_inject(app.inputs[sender], pool[sentence]);
    in.end_ns = now_ns();
    if (spans != nullptr)
      spans->record(parent, "inject", "core", in.start_ns, in.end_ns,
                    app.inputs[sender].value(), r.seq);
    if (r.status != tart::core::InjectStatus::kOk) return false;
    if (r.seq != by_seq[sender].size()) return false;
    by_seq[sender].push_back(static_cast<std::uint32_t>(injected.size()));
    injected.push_back(in);
    return true;
  }
};

/// Everything one pass (a sequence of measured segments) accumulates.
struct Pass {
  std::vector<double> setup_s, first_output_ms, drain_ms;
  double window_s = 0;
  std::size_t in_window_outputs = 0;
  std::size_t ack_samples = 0;
  std::size_t e2e_samples = 0;
  // Per-segment figures; the run reports their medians, so one segment
  // that the host's scheduler treated badly does not set the result.
  std::vector<double> seg_tp, seg_ack_p50, seg_ack_p99, seg_e2e_p50,
      seg_e2e_p99, seg_inject_p50, seg_inject_p99;
  std::uint64_t injected = 0;
  std::uint64_t processed = 0;
  tart::core::MetricsSnapshot counters;  // summed per-segment deltas
  ProfTotals prof;                       // whole pass
  std::size_t retained_end = 0;          // at the end of the last segment
  double reference_s = 0;                // reference model over all inputs
};

/// Builds, starts and warms one session (one input per sender). Returns
/// false when the warm-up outputs never came out.
bool set_up(Session& s, const std::vector<tart::Payload>& pool,
            double gen_s, SpanLog& spans, Pass& pass) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t root = spans.open();
  s.spans = spans.enabled() ? &spans : nullptr;
  const std::int64_t c0 = now_ns();
  s.rt = std::make_unique<tart::core::Runtime>(s.app.topo, s.app.placement,
                                               tart::core::RuntimeConfig{});
  const std::int64_t c1 = now_ns();
  spans.record(root, "Runtime", "core", c0, c1);
  s.rt->subscribe(s.app.out, [&s](tart::VirtualTime, const tart::Payload&,
                                  bool) { s.on_output(); });
  s.rt->start();
  const std::int64_t c2 = now_ns();
  spans.record(root, "start", "core", c1, c2);
  // One input per sender: a real-time source promises silence only once
  // it has been used, so until every sender has spoken the merger waits.
  bool ok = true;
  for (std::uint32_t i = 0; i < kSenders; ++i) {
    s.permits.acquire();
    ok = ok && s.inject(i, i, pool, now_ns(), root);
  }
  ok = ok && s.wait_outputs(kSenders, std::chrono::seconds(10));
  if (ok) {
    pass.setup_s.push_back(gen_s + static_cast<double>(c2 - t0) / 1e9);
    pass.first_output_ms.push_back(
        static_cast<double>(s.out_ns.front() - t0) / 1e6);
  }
  spans.close(root, 0, "fanin.setup", "bench", t0, now_ns());
  return ok;
}

std::vector<tart::Payload> make_pool(std::uint64_t seed,
                                     std::vector<std::vector<std::string>>* words) {
  SentenceGenerator gen(seed);
  std::vector<tart::Payload> pool;
  pool.reserve(kPool);
  words->reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    words->push_back(gen.next());
    pool.emplace_back(words->back());
  }
  return pool;
}

/// One measured segment on a fresh session: kSegmentInputs inputs, or
/// fewer when `max_seconds` run out first. Verifies the outputs.
void run_segment(Session& s, const std::vector<tart::Payload>& pool,
                 const std::vector<std::vector<std::string>>& words,
                 std::uint64_t seed, double max_seconds, SpanLog& spans,
                 Pass& pass, Result& result) {
  Rng pick(seed ^ 0x5EED5EEDull);
  const auto before = s.rt->total_metrics();
  const std::uint64_t root = spans.open();
  const std::int64_t w0 = now_ns();
  const std::int64_t limit = w0 + static_cast<std::int64_t>(max_seconds * 1e9);
  std::uint64_t failed_injects = 0;
  std::size_t k = s.injected.size();
  const std::size_t last = k + kSegmentInputs;
  auto next_sentence = static_cast<std::uint32_t>(kSenders);
  while (k < last && now_ns() < limit) {
    s.permits.acquire();
    // Inject k may start once k + 1 - kWindow outputs have arrived: it was
    // due when output k - kWindow released its slot.
    const std::int64_t due =
        k >= static_cast<std::size_t>(kWindow)
            ? std::max(w0, s.release_ns[(k - kWindow) % s.release_ns.size()]
                               .load(std::memory_order_relaxed))
            : w0;
    const auto sender = static_cast<std::uint32_t>(pick.below(kSenders));
    if (s.inject(sender, next_sentence, pool, due, root)) {
      ++k;
    } else {
      ++failed_injects;
      s.permits.release();
    }
    next_sentence = (next_sentence + 1) % kPool;
  }
  const std::int64_t w1 = now_ns();
  spans.close(root, 0, "fanin.window", "bench", w0, w1);
  const std::size_t total = s.injected.size();
  if (!s.wait_outputs(total, std::chrono::seconds(30)))
    result.fail(total - s.outputs.load(), "fanin: outputs missing after 30 s");
  if (failed_injects > 0)
    result.fail(failed_injects, "fanin: try_inject refused an input");
  result.attempted += total + failed_injects;
  pass.window_s += static_cast<double>(w1 - w0) / 1e9;
  pass.counters += delta(s.rt->total_metrics(), before);
  pass.retained_end = 0;
  for (const ComponentId c : s.app.components)
    pass.retained_end += s.rt->retained_messages(c);

  const std::int64_t d0 = now_ns();
  if (!s.rt->drain(std::chrono::seconds(30)))
    result.fail(1, "fanin: drain timed out");
  const std::int64_t d1 = now_ns();
  pass.drain_ms.push_back(static_cast<double>(d1 - d0) / 1e6);
  spans.record(0, "drain", "core", d0, d1);

  // Latencies, by origin tag.
  const auto records = s.rt->output_records(s.app.out);
  std::map<std::uint32_t, std::size_t> sender_of;
  for (std::size_t i = 0; i < kSenders; ++i)
    sender_of[s.app.inputs[i].value()] = i;
  std::vector<ObservedOutput> observed;
  observed.reserve(records.size());
  std::size_t outputs_in_window = 0;
  std::vector<double> ack, e2e, inject_us;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    ObservedOutput o;
    o.vt = r.vt.ticks();
    o.stutter = r.stutter;
    o.has_origin = r.origin_wire.is_valid();
    o.origin_wire = r.origin_wire.value();
    o.origin_seq = r.origin_seq;
    o.total = r.payload.as_int();
    observed.push_back(o);
    if (i >= s.out_ns.size() || !o.has_origin) continue;
    const auto it = sender_of.find(o.origin_wire);
    if (it == sender_of.end() || o.origin_seq >= s.by_seq[it->second].size())
      continue;
    const Injected& in = s.injected[s.by_seq[it->second][o.origin_seq]];
    if (s.out_ns[i] >= w0 && s.out_ns[i] < w1) ++outputs_in_window;
    if (in.due_ns < w0 || in.due_ns >= w1) continue;
    e2e.push_back(static_cast<double>(s.out_ns[i] - in.due_ns) / 1e6);
  }
  for (const Injected& in : s.injected) {
    if (in.due_ns < w0 || in.due_ns >= w1) continue;
    ack.push_back(static_cast<double>(in.end_ns - in.due_ns) / 1e6);
    inject_us.push_back(static_cast<double>(in.end_ns - in.start_ns) / 1e3);
  }
  pass.seg_tp.push_back(static_cast<double>(outputs_in_window) /
                        (static_cast<double>(w1 - w0) / 1e9));
  pass.seg_ack_p50.push_back(percentile(ack, 50));
  pass.seg_ack_p99.push_back(percentile(ack, 99));
  pass.seg_e2e_p50.push_back(percentile(e2e, 50));
  pass.seg_e2e_p99.push_back(percentile(e2e, 99));
  pass.in_window_outputs += outputs_in_window;
  pass.seg_inject_p50.push_back(percentile(inject_us, 50));
  pass.seg_inject_p99.push_back(percentile(inject_us, 99));
  pass.ack_samples += ack.size();
  pass.e2e_samples += e2e.size();

  // Reference model: per-sender counts in sequence order, timed as the
  // no-middleware baseline for the same job.
  std::vector<std::uint32_t> wire_of;
  std::vector<std::vector<std::int64_t>> ref(kSenders);
  const std::int64_t r0 = now_ns();
  ReferenceModel model(kSenders);
  std::int64_t grand = 0;
  for (const Injected& in : s.injected) {
    const std::int64_t c = model.count(in.sender, words[in.sentence]);
    grand += c;
    ref[in.sender].push_back(c);
  }
  pass.reference_s += static_cast<double>(now_ns() - r0) / 1e9;
  if (grand < 0) result.fail(1, "fanin: reference total overflowed");
  for (std::size_t i = 0; i < kSenders; ++i)
    wire_of.push_back(s.app.inputs[i].value());
  std::vector<std::string> problems;
  const std::uint64_t bad = check_outputs(wire_of, ref, observed, &problems);
  if (bad > 0) {
    result.failed += bad;
    for (const auto& p : problems) result.problems.push_back("fanin: " + p);
  }
  const std::uint64_t processed = s.rt->total_metrics().messages_processed;
  pass.processed += processed;
  pass.injected += total;
  if (processed != kMsgsPerInput * total)
    result.fail(1, "fanin: " + std::to_string(processed) +
                       " messages processed, expected " +
                       std::to_string(kMsgsPerInput * total));
  s.rt->stop();
}

/// Measures `seconds` of load as back-to-back segments of kSegmentInputs
/// inputs, each on a freshly set-up session. Every input stays in memory
/// (external log, retention, output records), so fixed-size segments keep
/// the footprint bounded and the same from run to run, and each segment
/// adds one set-up sample.
Pass run_pass(const RunArgs& args, SpanLog& spans, Result& result) {
  Pass pass;
  const ProfTotals prof_before = ProfTotals::now();
  for (std::uint64_t i = 0; pass.window_s < args.seconds; ++i) {
    std::vector<std::vector<std::string>> words;
    const std::int64_t g0 = now_ns();
    const auto pool = make_pool(args.seed, &words);
    const double gen_s = static_cast<double>(now_ns() - g0) / 1e9;
    auto s = std::make_unique<Session>();
    if (!set_up(*s, pool, gen_s, spans, pass)) {
      result.fail(1, "fanin: warm-up inputs produced no output");
      s->rt->stop();
      break;
    }
    run_segment(*s, pool, words, args.seed + i, args.seconds - pass.window_s,
                spans, pass, result);
  }
  pass.prof = ProfTotals::now().minus(prof_before);
  return pass;
}

}  // namespace

Result run_fanin(const RunArgs& args) {
  Result result;
  SpanLog off(false);
  const Pass base = run_pass(args, off, result);
  const double base_tp =
      per(static_cast<double>(base.in_window_outputs), base.window_s);
  result.set("setup_s", median(base.setup_s));
  result.set("throughput_rps", median(base.seg_tp));
  result.set("ack_p50_ms", median(base.seg_ack_p50));
  result.set("ack_p99_ms", median(base.seg_ack_p99));
  result.set("e2e_p50_ms", median(base.seg_e2e_p50));
  result.set("e2e_p99_ms", median(base.seg_e2e_p99));
  result.set("rto_ms", median(base.first_output_ms));
  result.set("rss_mb", peak_rss_mb());
  result.notes["ack_samples"] = std::to_string(base.ack_samples);
  result.notes["e2e_samples"] = std::to_string(base.e2e_samples);
  result.notes["segments"] = std::to_string(base.setup_s.size());
  if (!args.traced) return result;

  // Traced run: the untraced pass above is the overhead baseline; the
  // traced pass below supplies the per-layer numbers.
  SpanLog spans(true);
  const Pass p = run_pass(args, spans, result);
  const double tp = per(static_cast<double>(p.in_window_outputs), p.window_s);
  const auto& m = p.counters;
  const double msgs = static_cast<double>(m.messages_processed);
  result.set("core.inject_us_p50", median(p.seg_inject_p50));
  result.set("core.inject_us_p99", median(p.seg_inject_p99));
  result.set("core.dispatch_ns_mean", p.prof.mean_ns("runner.dispatch"));
  result.set("core.pessimism_wait_us_per_msg",
             per(static_cast<double>(m.pessimism_wait_ns) / 1e3, msgs));
  result.set("core.stalls_per_msg",
             per(static_cast<double>(m.pessimism_events), msgs));
  result.set("core.probes_per_msg",
             per(static_cast<double>(m.probes_sent), msgs));
  result.set("core.drain_ms", median(p.drain_ms));
  result.set("core.msgs_per_input", per(static_cast<double>(p.processed),
                                        static_cast<double>(p.injected)));
  result.set("estimator.underestimate_frac",
             per(static_cast<double>(m.estimator_underestimates), msgs));
  result.set("estimator.out_of_order_frac",
             per(static_cast<double>(m.out_of_order_arrivals), msgs));
  result.set("wire.retention_bytes_per_msg",
             per(static_cast<double>(p.prof.site("runner.retention").total), msgs));
  result.set("wire.retained_msgs_end", static_cast<double>(p.retained_end));
  result.set("serde.archive_bytes_per_msg",
             per(static_cast<double>(p.prof.site("serde.archive").total), msgs));
  result.set("apps.reference_rps",
             per(static_cast<double>(p.injected), p.reference_s));
  result.set("bench.trace_overhead_pct", per(base_tp - tp, base_tp) * 100.0);
  result.set("bench.ack_samples", static_cast<double>(p.ack_samples));
  result.set("bench.e2e_samples", static_cast<double>(p.e2e_samples));
  result.set("failed_frac", per(static_cast<double>(result.failed),
                                static_cast<double>(result.attempted)));
  report_self_times(spans, result);
  if (!spans.write(args.out_dir + "/spans-fanin.tsv"))
    result.fail(1, "fanin: could not write spans");
  return result;
}

}  // namespace perfbench
