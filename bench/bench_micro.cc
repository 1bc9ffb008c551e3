// Microbenchmarks (google-benchmark) for the hot data structures: the
// pessimistic-merge inbox, message serialization, incremental checkpoint
// capture, estimator evaluation, and retention maintenance. These bound
// the per-message bookkeeping cost of determinism, which the paper argues
// must stay far below transaction-commit costs.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "checkpoint/checkpointed_map.h"
#include "checkpoint/snapshot.h"
#include "common/rng.h"
#include "estimator/estimator.h"
#include "obs/registry.h"
#include "trace/recorder.h"
#include "wire/inbox.h"
#include "wire/retention_buffer.h"

namespace {

using namespace tart;

Message make_msg(WireId wire, std::int64_t vt, std::uint64_t seq) {
  Message m;
  m.wire = wire;
  m.vt = VirtualTime(vt);
  m.seq = seq;
  m.payload = Payload(std::int64_t{42});
  return m;
}

void BM_InboxOfferPop2Wires(benchmark::State& state) {
  Inbox inbox;
  inbox.add_wire(WireId(0));
  inbox.add_wire(WireId(1));
  std::int64_t vt = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ++vt;
    (void)inbox.offer(make_msg(WireId(0), vt, seq));
    (void)inbox.offer(make_msg(WireId(1), vt + 1, seq));
    ++seq;
    benchmark::DoNotOptimize(inbox.pop());
    benchmark::DoNotOptimize(inbox.pop());
    vt += 2;
  }
}
BENCHMARK(BM_InboxOfferPop2Wires);

void BM_InboxOfferPopWide(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Inbox inbox;
  for (std::uint32_t i = 0; i < n; ++i) inbox.add_wire(WireId(i));
  std::int64_t vt = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < n; ++i)
      (void)inbox.offer(make_msg(WireId(i), vt + i + 1, seq));
    ++seq;
    for (std::uint32_t i = 0; i < n; ++i)
      benchmark::DoNotOptimize(inbox.pop());
    vt += n + 1;
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InboxOfferPopWide)->Arg(4)->Arg(16)->Arg(64);

void BM_MessageEncodeDecode(benchmark::State& state) {
  Message m = make_msg(WireId(3), 233000, 17);
  m.payload = Payload(std::vector<std::string>{"the", "cat", "sat"});
  for (auto _ : state) {
    serde::Writer w;
    m.encode(w);
    serde::Reader r(w.bytes());
    benchmark::DoNotOptimize(Message::decode(r));
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_CheckpointedMapPut(benchmark::State& state) {
  checkpoint::CheckpointedMap<std::string, std::int64_t> map;
  Rng rng(1);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("word" + std::to_string(i));
  for (auto _ : state) {
    map.update(keys[rng.bounded(keys.size())],
               [](std::int64_t& v) { ++v; });
  }
}
BENCHMARK(BM_CheckpointedMapPut);

// WordCountSender's handler state: one update per word of an 8-word
// sentence, words drawn Zipf(1) from a 10k-word vocabulary.
void BM_CheckpointedMapWordCount(benchmark::State& state) {
  constexpr int kVocabulary = 10000;
  constexpr int kWords = 8;
  std::vector<std::string> vocabulary;
  std::vector<double> cdf;
  double total = 0;
  for (int i = 0; i < kVocabulary; ++i) {
    vocabulary.push_back("word" + std::to_string(i));
    total += 1.0 / (i + 1);
    cdf.push_back(total);
  }
  Rng rng(3);
  std::vector<std::vector<const std::string*>> sentences(4096);
  for (auto& sentence : sentences)
    for (int w = 0; w < kWords; ++w) {
      const auto it =
          std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total);
      sentence.push_back(&vocabulary[std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), kVocabulary - 1)]);
    }
  checkpoint::CheckpointedMap<std::string, std::int64_t> map;
  std::size_t next = 0;
  for (auto _ : state) {
    std::int64_t count = 0;
    for (const std::string* word : sentences[next])
      map.update(*word, [&](std::int64_t& seen) { count += seen++; });
    benchmark::DoNotOptimize(count);
    next = (next + 1) % sentences.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointedMapWordCount);

void BM_DeltaCapture(benchmark::State& state) {
  const auto dirty = static_cast<int>(state.range(0));
  checkpoint::CheckpointedMap<std::string, std::int64_t> map;
  for (int i = 0; i < 10000; ++i) map.put("word" + std::to_string(i), i);
  {
    serde::Writer discard;
    map.capture_delta(discard);
  }
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < dirty; ++i)
      map.update("word" + std::to_string(rng.bounded(10000)),
                 [](std::int64_t& v) { ++v; });
    state.ResumeTiming();
    serde::Writer w;
    map.capture_delta(w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_DeltaCapture)->Arg(10)->Arg(100)->Arg(1000);

void BM_FullCapture10k(benchmark::State& state) {
  checkpoint::CheckpointedMap<std::string, std::int64_t> map;
  for (int i = 0; i < 10000; ++i) map.put("word" + std::to_string(i), i);
  for (auto _ : state) {
    serde::Writer w;
    map.capture_full(w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_FullCapture10k);

void BM_LinearEstimate(benchmark::State& state) {
  const estimator::LinearEstimator est({0.0, 61827.0, 120.0, 45.0});
  estimator::BlockCounters counters;
  counters.count(0, 10);
  counters.count(1, 3);
  counters.count(2, 7);
  for (auto _ : state) benchmark::DoNotOptimize(est.estimate(counters));
}
BENCHMARK(BM_LinearEstimate);

void BM_RetentionRecordTrim(benchmark::State& state) {
  RetentionBuffer buf;
  std::uint64_t seq = 0;
  std::int64_t vt = 0;
  for (auto _ : state) {
    buf.record(make_msg(WireId(0), ++vt, seq++));
    if (seq % 64 == 0) buf.acknowledge_through(VirtualTime(vt - 8));
  }
}
BENCHMARK(BM_RetentionRecordTrim);

// The flight recorder's hot-path contract: disabled tracing is one
// null-pointer branch per hook (the <2% throughput budget rests on this);
// enabled tracing is a mask test + relaxed fetch_add + lock-free ring push.
void BM_TraceHookDisabled(benchmark::State& state) {
  trace::TraceRecorder* tracer = nullptr;
  std::int64_t vt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer);
    if (tracer != nullptr)
      tracer->record(ComponentId(0), trace::TraceEventKind::kDispatch,
                     VirtualTime(vt), WireId(0), 0, 0);
    ++vt;
  }
}
BENCHMARK(BM_TraceHookDisabled);

void BM_TraceRecordEnabled(benchmark::State& state) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 1 << 16;
  cfg.drain_interval = std::chrono::microseconds(50);
  trace::TraceRecorder tracer(cfg, {ComponentId(0)});
  std::int64_t vt = 0;
  for (auto _ : state) {
    tracer.record(ComponentId(0), trace::TraceEventKind::kDispatch,
                  VirtualTime(vt), WireId(0), 0, 0xAB);
    ++vt;
  }
  state.counters["dropped"] =
      static_cast<double>(tracer.total_dropped());
}
BENCHMARK(BM_TraceRecordEnabled);

void BM_TraceRecordMasked(benchmark::State& state) {
  trace::TraceConfig cfg;
  cfg.enabled = true;  // scheduling-only mask: diagnostic records are a
                       // single mask test
  trace::TraceRecorder tracer(cfg, {ComponentId(0)});
  std::int64_t vt = 0;
  for (auto _ : state) {
    tracer.record(ComponentId(0), trace::TraceEventKind::kCuriosityProbe,
                  VirtualTime(vt), WireId(0));
    ++vt;
  }
}
BENCHMARK(BM_TraceRecordMasked);

// Telemetry-registry hot path: every scheduler counter bump is one relaxed
// fetch_add on a pre-resolved cell (the registry mutex is registration-time
// only), so full instrumentation must cost nanoseconds per op — the
// acceptance bar is ~20ns/counter inc.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("tart_bench_total", "bench counter",
                                {{"component", "bench"}});
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("tart_bench_seconds", "bench histogram",
                                    {{"component", "bench"},
                                     {"wire", "w0"}},
                                    100e-6, 256);
  double x = 0.0;
  for (auto _ : state) {
    h.record(x);
    x += 13e-6;
    if (x > 25e-3) x = 0.0;  // spread across buckets incl. overflow misses
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramRecord);

// Compiled-out baseline: the shape instrumented code takes when a cell is
// absent (null-handle branch). This is the floor the enabled paths are
// compared against.
void BM_ObsCounterCompiledOut(benchmark::State& state) {
  obs::Counter* c = nullptr;
  std::uint64_t fallback = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c);
    if (c != nullptr)
      c->inc();
    else
      ++fallback;
  }
  benchmark::DoNotOptimize(fallback);
}
BENCHMARK(BM_ObsCounterCompiledOut);

void BM_PayloadRoundTrip(benchmark::State& state) {
  const Payload p(std::vector<std::string>{"a", "sentence", "of", "words"});
  for (auto _ : state) {
    serde::Writer w;
    p.encode(w);
    serde::Reader r(w.bytes());
    benchmark::DoNotOptimize(Payload::decode(r));
  }
}
BENCHMARK(BM_PayloadRoundTrip);

}  // namespace
