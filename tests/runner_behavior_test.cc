// Behavioral tests of the scheduler/runner machinery through the public
// runtime API: nested two-way calls, mixed call/data virtual-time
// scheduling, pessimism-delay accounting and curiosity probes, prescience
// neutrality, multicast fan-out, close-cascade draining under pure lazy
// propagation, burst staging (what a probe may see while a burst is in
// hand, batched hand-off), the waits on the active-runner count (drain,
// replay catch-up) and the forced-checkpoint barrier.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "apps/wordcount.h"
#include "checkpoint/replica.h"
#include "core/runner.h"
#include "core/runtime.h"
#include "durability/replay.h"
#include "estimator/estimator.h"
#include "log/fault_log.h"

namespace tart::core {
namespace {

using namespace std::chrono_literals;

// --- Nested two-way calls ----------------------------------------------------

/// Forwards through TWO chained service calls: A -> B -> C.
class DoubleCaller : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    const Payload once = ctx.call(PortId(1), payload);
    ctx.send(PortId(0), once);
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

/// A service that itself calls a deeper service before replying.
class RelayService : public Component {
 public:
  void on_message(Context&, PortId, const Payload&) override {
    throw std::logic_error("calls only");
  }
  Payload on_call(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    const Payload deeper = ctx.call(PortId(1), payload);
    return Payload(deeper.as_int() + 1000);
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

TEST(NestedCallTest, CallChainsAcrossThreeComponents) {
  Topology topo;
  const auto a = topo.add("a", [] { return std::make_unique<DoubleCaller>(); });
  const auto b = topo.add("b", [] { return std::make_unique<RelayService>(); });
  const auto c = topo.add("c", [] {
    return std::make_unique<apps::ScalingService>();
  });
  const auto in = topo.external_input(a, PortId(0));
  topo.connect_call(a, PortId(1), b, PortId(0));
  topo.connect_call(b, PortId(1), c, PortId(0));
  const auto out = topo.external_output(a, PortId(0));

  // Spread across three engines so the nested replies cross boundaries.
  Runtime rt(topo,
             {{a, EngineId(0)}, {b, EngineId(1)}, {c, EngineId(2)}},
             RuntimeConfig{});
  rt.start();
  for (int i = 1; i <= 4; ++i)
    rt.inject_at(in, VirtualTime(i * 100'000), Payload(std::int64_t{5}));
  ASSERT_TRUE(rt.drain());
  const auto records = rt.output_records(out);
  ASSERT_EQ(records.size(), 4u);
  // ScalingService multiplies by call count (5, 10, 15, 20); relay +1000.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(records[static_cast<std::size_t>(i)].payload.as_int(),
              5 * (i + 1) + 1000);
  // Virtual times strictly increase through the nested round trips.
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_GT(records[i].vt, records[i - 1].vt);
  rt.stop();
}

// --- Mixed calls and data at one component -------------------------------------

/// A service that also accepts one-way updates: both arrive through the
/// same inbox and must interleave in virtual-time order.
class Accumulator : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    total_.mutate([&](std::int64_t& t) { t += payload.as_int(); });
  }
  Payload on_call(Context& ctx, PortId, const Payload&) override {
    ctx.count_block(0);
    return Payload(total_.get());
  }
  void capture_full(serde::Writer& w) const override {
    total_.capture_full(w);
  }
  void restore_full(serde::Reader& r) override { total_.restore_full(r); }

 private:
  checkpoint::CheckpointedValue<std::int64_t> total_{0};
};

class Prober : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    (void)payload;
    ctx.send(PortId(0), ctx.call(PortId(1), Payload()));
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

TEST(MixedCallDataTest, CallsObserveVirtualTimeOrderedState) {
  Topology topo;
  const auto acc = topo.add("acc", [] {
    return std::make_unique<Accumulator>();
  });
  const auto prober = topo.add("prober", [] {
    return std::make_unique<Prober>();
  });
  for (const auto id : {acc, prober}) {
    topo.set_estimator(id, [] {
      return std::make_unique<estimator::ConstantEstimator>(
          TickDuration::micros(10));
    });
  }
  const auto in_data = topo.external_input(acc, PortId(0));
  const auto in_probe = topo.external_input(prober, PortId(0));
  topo.connect_call(prober, PortId(1), acc, PortId(0));
  const auto out = topo.external_output(prober, PortId(0));

  Runtime rt(topo, {{acc, EngineId(0)}, {prober, EngineId(0)}},
             RuntimeConfig{});
  rt.start();
  // Updates at vts 1ms, 2ms, 3ms; probe at 2.5ms must see exactly 1+2.
  rt.inject_at(in_data, VirtualTime(1'000'000), Payload(std::int64_t{1}));
  rt.inject_at(in_data, VirtualTime(2'000'000), Payload(std::int64_t{2}));
  rt.inject_at(in_data, VirtualTime(3'000'000), Payload(std::int64_t{4}));
  rt.inject_at(in_probe, VirtualTime(2'500'000), Payload());
  ASSERT_TRUE(rt.drain());
  const auto records = rt.output_records(out);
  ASSERT_EQ(records.size(), 1u);
  // The call wire's vt ~ 2.5ms + 10us + 1, scheduled between the 2ms and
  // 3ms updates: the reply must expose total == 3, never 7 or 1.
  EXPECT_EQ(records[0].payload.as_int(), 3);
  rt.stop();
}

// --- Pessimism accounting ------------------------------------------------------

TEST(PessimismMetricsTest, BlockedMergeProbesAndWaits) {
  Topology topo;
  const auto merger = topo.add("merger", [] {
    return std::make_unique<apps::TotalingMerger>();
  });
  const auto in1 = topo.external_input(merger, PortId(0));
  const auto in2 = topo.external_input(merger, PortId(0));
  (void)topo.external_output(merger, PortId(0));

  RuntimeConfig config;
  config.silence.probe_interval = 100us;
  Runtime rt(topo, {{merger, EngineId(0)}}, config);
  rt.start();
  // One message on wire 1; wire 2 is a scripted source that has promised
  // nothing: the head must sit in a pessimism delay, probing.
  rt.inject_at(in1, VirtualTime(1000), Payload(std::int64_t{1}));
  rt.inject_at(in2, VirtualTime(10), Payload(std::int64_t{0}));
  // Consume the in2 message; now in2 is silent only through vt 10 while
  // in1's head at 1000 waits.
  std::this_thread::sleep_for(10ms);
  const auto blocked = rt.metrics(merger);
  EXPECT_EQ(blocked.messages_processed, 1u);  // only the vt-10 message
  EXPECT_GT(blocked.pessimism_events, 0u);
  EXPECT_GT(blocked.probes_sent, 0u);
  EXPECT_GT(blocked.pessimism_wait_ns, 1'000'000u);  // >= 1ms of waiting

  ASSERT_TRUE(rt.drain());  // closing in2 releases the head
  EXPECT_EQ(rt.metrics(merger).messages_processed, 2u);
  rt.stop();
}

// --- Prescience neutrality ------------------------------------------------------

/// WordCountSender with prescience switched off: behaviour (vts, payloads,
/// state) must be identical — prescience only sharpens silence horizons.
class BlindWordCount : public apps::WordCountSender {
 public:
  [[nodiscard]] std::optional<estimator::BlockCounters> prescient_counters(
      PortId, const Payload&) const override {
    return std::nullopt;
  }
};

TEST(PrescienceTest, PrescienceDoesNotChangeBehaviour) {
  auto run = [](bool prescient) {
    Topology topo;
    const auto sender =
        prescient
            ? topo.add("s", [] {
                return std::make_unique<apps::WordCountSender>();
              })
            : topo.add("s", [] {
                return std::make_unique<BlindWordCount>();
              });
    const auto merger = topo.add("m", [] {
      return std::make_unique<apps::TotalingMerger>();
    });
    topo.set_estimator(sender, [] {
      return estimator::per_iteration_estimator(61000.0);
    });
    const auto in = topo.external_input(sender, PortId(0));
    topo.connect(sender, PortId(0), merger, PortId(0));
    const auto out = topo.external_output(merger, PortId(0));
    Runtime rt(topo, {{sender, EngineId(0)}, {merger, EngineId(1)}},
               RuntimeConfig{});
    rt.start();
    for (int i = 0; i < 10; ++i)
      rt.inject_at(in, VirtualTime(1000 + i * 250'000),
                   apps::sentence({"a", "b", "a"}));
    EXPECT_TRUE(rt.drain());
    std::vector<std::pair<std::int64_t, std::int64_t>> result;
    for (const auto& r : rt.output_records(out))
      result.emplace_back(r.vt.ticks(), r.payload.as_int());
    rt.stop();
    return result;
  };
  EXPECT_EQ(run(true), run(false));
}

// --- Multicast fan-out ------------------------------------------------------------

TEST(MulticastTest, OnePortFeedsTwoReceiversIdentically) {
  Topology topo;
  const auto src = topo.add("src", [] {
    return std::make_unique<apps::Passthrough>();
  });
  const auto left = topo.add("left", [] {
    return std::make_unique<apps::TotalingMerger>();
  });
  const auto right = topo.add("right", [] {
    return std::make_unique<apps::TotalingMerger>();
  });
  const auto in = topo.external_input(src, PortId(0));
  topo.connect(src, PortId(0), left, PortId(0));
  topo.connect(src, PortId(0), right, PortId(0));
  const auto out_l = topo.external_output(left, PortId(0));
  const auto out_r = topo.external_output(right, PortId(0));

  Runtime rt(topo,
             {{src, EngineId(0)}, {left, EngineId(0)}, {right, EngineId(1)}},
             RuntimeConfig{});
  rt.start();
  for (int i = 1; i <= 5; ++i)
    rt.inject_at(in, VirtualTime(i * 10'000), Payload(std::int64_t{i}));
  ASSERT_TRUE(rt.drain());
  const auto l = rt.output_records(out_l);
  const auto r = rt.output_records(out_r);
  ASSERT_EQ(l.size(), 5u);
  ASSERT_EQ(r.size(), 5u);
  // Both replicas accumulate the identical stream: 1, 3, 6, 10, 15.
  EXPECT_EQ(l.back().payload.as_int(), 15);
  EXPECT_EQ(r.back().payload.as_int(), 15);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(l[i].payload.as_int(), r[i].payload.as_int());
  rt.stop();
}

// --- Lazy-only close cascade --------------------------------------------------------

TEST(LazyDrainTest, DeepPipelineDrainsWithoutProbes) {
  Topology topo;
  std::vector<ComponentId> stages;
  for (int i = 0; i < 5; ++i) {
    stages.push_back(topo.add("stage" + std::to_string(i), [] {
      return std::make_unique<apps::Passthrough>();
    }));
  }
  const auto in = topo.external_input(stages.front(), PortId(0));
  for (std::size_t i = 0; i + 1 < stages.size(); ++i)
    topo.connect(stages[i], PortId(0), stages[i + 1], PortId(0));
  const auto out = topo.external_output(stages.back(), PortId(0));

  RuntimeConfig lazy;
  lazy.silence.curiosity = false;
  std::map<ComponentId, EngineId> placement;
  for (std::size_t i = 0; i < stages.size(); ++i)
    placement[stages[i]] = EngineId(static_cast<std::uint32_t>(i % 2));
  Runtime rt(topo, placement, lazy);
  rt.start();
  for (int i = 0; i < 20; ++i)
    rt.inject_at(in, VirtualTime(1000 + i * 5000), Payload(std::int64_t{i}));
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.output_records(out).size(), 20u);
  EXPECT_EQ(rt.total_metrics().probes_sent, 0u);
  rt.stop();
}

// --- Component failure isolation ----------------------------------------------------

/// Throws on a poisoned payload: the component fail-stops without taking
/// the process (or its engine-mates) down.
class FragileComponent : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    if (payload.as_int() == 666) throw std::runtime_error("poison");
    ctx.count_block(0);
    ctx.send(PortId(0), payload);
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

TEST(ComponentFailureTest, HandlerExceptionFailStopsOnlyThatComponent) {
  Topology topo;
  const auto fragile = topo.add("fragile", [] {
    return std::make_unique<FragileComponent>();
  });
  const auto sturdy = topo.add("sturdy", [] {
    return std::make_unique<apps::Passthrough>();
  });
  const auto in_f = topo.external_input(fragile, PortId(0));
  const auto in_s = topo.external_input(sturdy, PortId(0));
  (void)topo.external_output(fragile, PortId(0));
  const auto out_s = topo.external_output(sturdy, PortId(0));

  Runtime rt(topo, {{fragile, EngineId(0)}, {sturdy, EngineId(0)}},
             RuntimeConfig{});
  rt.start();
  rt.inject_at(in_f, VirtualTime(1000), Payload(std::int64_t{666}));
  rt.inject_at(in_s, VirtualTime(1000), Payload(std::int64_t{1}));
  std::this_thread::sleep_for(10ms);
  // The sturdy neighbour keeps working.
  rt.close_input(in_s);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rt.output_records(out_s).empty() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(rt.output_records(out_s).size(), 1u);
  rt.stop();
}

// --- Burst staging ---------------------------------------------------------------

/// A gate a handler parks on until the test opens it.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;

  void park() {
    std::unique_lock<std::mutex> lk(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lk, [this] { return open; });
  }
  bool wait_entered(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout, [this] { return entered; });
  }
  void release() {
    const std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
};

Gate* g_gate = nullptr;

/// Sends its input on, then parks on g_gate before returning.
class EmitThenPark : public Component {
 public:
  void on_message(Context& ctx, PortId, const Payload& payload) override {
    ctx.count_block(0);
    ctx.send(PortId(0), payload);
    g_gate->park();
  }
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

/// Records what a runner routes toward receivers (any thread).
class RecordingRouter final : public FrameRouter {
 public:
  void to_receiver(WireId, transport::Frame frame) override {
    const std::lock_guard<std::mutex> lk(mu_);
    if (auto* data = std::get_if<transport::DataFrame>(&frame))
      data_.push_back(std::move(data->msg));
    else if (const auto* s = std::get_if<transport::SilenceFrame>(&frame))
      silences_.push_back(*s);
  }
  void to_receiver_batch(WireId, std::vector<Message>& batch) override {
    const std::lock_guard<std::mutex> lk(mu_);
    for (Message& m : batch) data_.push_back(std::move(m));
  }
  void to_sender(WireId, transport::Frame) override {}

  std::vector<Message> data() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return data_;
  }
  std::optional<transport::SilenceFrame> last_silence() const {
    const std::lock_guard<std::mutex> lk(mu_);
    if (silences_.empty()) return std::nullopt;
    return silences_.back();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Message> data_;
  std::vector<transport::SilenceFrame> silences_;
};

// While a handler's output is staged, a probe answered in the meantime may
// claim neither its seq nor its tick: the receiver has not been handed the
// frame. Once the burst is routed, both advance past it.
TEST(BurstStagingTest, ProbeNeverCoversAStagedFrame) {
  Gate gate;
  g_gate = &gate;
  Topology topo;
  const auto c = topo.add("parker", [] {
    return std::make_unique<EmitThenPark>();
  });
  const auto in = topo.external_input(c, PortId(0));
  const auto out = topo.external_output(c, PortId(0));
  const RuntimeConfig config;
  RecordingRouter router;
  log::DeterminismFaultLog fault_log;
  checkpoint::ReplicaStore replica;
  obs::Registry registry;
  Quiescence quiescence(registry);
  ComponentRunner runner(topo, c, config, router, fault_log, replica,
                         registry, quiescence, nullptr);
  runner.start();

  Message m;
  m.wire = in;
  m.vt = VirtualTime(1000);
  m.seq = 0;
  m.payload = Payload(std::int64_t{42});
  runner.deliver_data(m);
  ASSERT_TRUE(gate.wait_entered(5s));

  // Parked inside the handler, after its send.
  runner.handle_probe(out);
  const auto during = router.last_silence();
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(during->expected_seq, 0u) << "a staged frame was counted";
  EXPECT_TRUE(router.data().empty()) << "staged output left early";
  EXPECT_EQ(quiescence.active(), 1) << "a runner with output in hand parked";

  gate.release();
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (router.data().empty() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(1ms);
  const auto sent = router.data();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].payload.as_int(), 42);
  EXPECT_LT(during->through, sent[0].vt)
      << "the probe promised silence through a staged data tick";

  runner.handle_probe(out);
  const auto after = router.last_silence();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->expected_seq, 1u);
  EXPECT_GE(after->through, sent[0].vt);
  runner.stop();
  g_gate = nullptr;
}

struct ChainApp3 {
  Topology topo;
  ComponentId a, b, c;
  WireId in, out;
  ChainApp3() {
    a = topo.add("a", [] { return std::make_unique<apps::Passthrough>(); });
    b = topo.add("b", [] { return std::make_unique<apps::Passthrough>(); });
    c = topo.add("c", [] { return std::make_unique<apps::Passthrough>(); });
    in = topo.external_input(a, PortId(0));
    topo.connect(a, PortId(0), b, PortId(0));
    topo.connect(b, PortId(0), c, PortId(0));
    out = topo.external_output(c, PortId(0));
  }
};

std::vector<InjectRequest> scripted_batch(WireId in, int n) {
  std::vector<InjectRequest> batch;
  for (int i = 0; i < n; ++i)
    batch.push_back({in, 1000 * (i + 1), Payload(std::int64_t{i})});
  return batch;
}

// drain() must not return while a runner still holds a routed-but-unsent
// burst. A slow output consumer stretches the last stage's final flush, so
// a runner that reported itself idle before routing its burst would let
// drain() return with outputs missing.
TEST(BurstStagingTest, DrainSeesEveryStagedBurst) {
  constexpr int kInputs = 300;
  constexpr int kRepeats = 50;
  for (int rep = 0; rep < kRepeats; ++rep) {
    ChainApp3 app;
    Runtime rt(app.topo,
               {{app.a, EngineId(0)}, {app.b, EngineId(1)},
                {app.c, EngineId(2)}},
               RuntimeConfig{});
    rt.subscribe(app.out, [](VirtualTime, const Payload&, bool) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
    rt.start();
    for (const auto& r : rt.try_inject_batch(scripted_batch(app.in, kInputs)))
      ASSERT_EQ(r.status, InjectStatus::kOk);
    ASSERT_TRUE(rt.drain());
    const auto records = rt.output_records(app.out);
    ASSERT_EQ(records.size(), static_cast<std::size_t>(kInputs))
        << "repeat " << rep << ": drain returned before a burst was routed";
    EXPECT_EQ(records.back().payload.as_int(), kInputs - 1);
    rt.stop();
  }
}

// Inputs logged before start() reach the first stage as one replayed
// batch, so its handlers run in bursts: fewer hand-offs than frames.
TEST(BurstStagingTest, HandoffCountersReadBursts) {
  constexpr int kInputs = 200;
  ChainApp3 app;
  Runtime rt(app.topo,
             {{app.a, EngineId(0)}, {app.b, EngineId(0)},
              {app.c, EngineId(1)}},
             RuntimeConfig{});
  for (const auto& r : rt.try_inject_batch(scripted_batch(app.in, kInputs)))
    ASSERT_EQ(r.status, InjectStatus::kOk);
  rt.start();
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.output_records(app.out).size(),
            static_cast<std::size_t>(kInputs));
  const MetricsSnapshot a = rt.metrics(app.a);
  EXPECT_EQ(a.handoff_frames, static_cast<std::uint64_t>(kInputs));
  EXPECT_GT(a.handoff_batches, 0u);
  EXPECT_GT(a.handoff_frames, a.handoff_batches);
  const MetricsSnapshot total = rt.total_metrics();
  EXPECT_EQ(total.handoff_frames, 3u * kInputs);  // a->b, b->c, c->out
  rt.stop();
}

// --- Quiescence -------------------------------------------------------------------

std::int64_t active_runners(const Runtime& rt) {
  for (const obs::Sample& s : rt.registry().samples())
    if (s.name == "tart_runtime_active_runners") return s.gauge_value;
  ADD_FAILURE() << "tart_runtime_active_runners is not registered";
  return -1;
}

// A handler parked mid-burst is work in hand: neither replay catch-up nor
// drain may call the runtime settled, and the gauge shows the runner.
// Once the gate opens both return, and the count falls back to zero.
TEST(QuiescenceTest, ParkedHandlerHoldsCatchUpAndDrain) {
  Gate gate;
  g_gate = &gate;
  Topology topo;
  const auto c = topo.add("parker", [] {
    return std::make_unique<EmitThenPark>();
  });
  const auto in = topo.external_input(c, PortId(0));
  const auto out = topo.external_output(c, PortId(0));
  Runtime rt(topo, {{c, EngineId(0)}}, RuntimeConfig{});
  rt.start();
  ASSERT_EQ(rt.try_inject_at(in, VirtualTime(1000), Payload(std::int64_t{7}))
                .status,
            InjectStatus::kOk);
  ASSERT_TRUE(gate.wait_entered(5s));

  EXPECT_FALSE(durability::ReplayDriver::catch_up(rt, 20ms).caught_up);
  EXPECT_GE(active_runners(rt), 1);
  EXPECT_FALSE(rt.drain(20ms));
  EXPECT_GE(active_runners(rt), 1);
  EXPECT_TRUE(rt.output_records(out).empty()) << "staged output left early";

  gate.release();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  EXPECT_TRUE(rt.drain());
  ASSERT_EQ(rt.output_records(out).size(), 1u);
  EXPECT_EQ(rt.output_records(out)[0].payload.as_int(), 7);
  // Idle runners wake on their timers and count themselves in for a
  // moment, so "reads 0" is asserted as a wait on the count itself.
  EXPECT_TRUE(rt.quiescence().wait_until(
      std::chrono::steady_clock::now() + 5s,
      [&] { return active_runners(rt) == 0; }));
  rt.stop();
  EXPECT_EQ(active_runners(rt), 0);
  g_gate = nullptr;
}

// The checkpoint barrier waits for the replica, not for quiescence, so it
// must still give up at its deadline when a runner it asked can never
// answer: here the caller's engine crashes while the caller is blocked in
// a call to a component on another node.
TEST(CheckpointBarrierTest, FailsAtDeadlineWhenEngineCrashed) {
  Topology topo;
  const auto caller = topo.add("caller", [] {
    return std::make_unique<DoubleCaller>();
  });
  const auto service = topo.add("service", [] {
    return std::make_unique<apps::ScalingService>();
  });
  // Added after the caller: the barrier asks components in id order, so
  // the bystander's checkpoint proves the caller has been asked too.
  const auto bystander = topo.add("bystander", [] {
    return std::make_unique<apps::Passthrough>();
  });
  const auto in = topo.external_input(caller, PortId(0));
  topo.connect_call(caller, PortId(1), service, PortId(0));
  topo.external_output(caller, PortId(0));
  topo.external_input(bystander, PortId(0));
  topo.external_output(bystander, PortId(0));
  RuntimeConfig config;
  config.local_engines = {EngineId(0), EngineId(1)};
  Runtime rt(topo,
             {{bystander, EngineId(0)}, {caller, EngineId(1)},
              {service, EngineId(9)}},
             config);
  // The service's node never answers: the call stays blocked.
  std::mutex mu;
  std::condition_variable cv;
  bool call_sent = false;
  rt.set_remote_router([&](EngineId, const transport::Frame& frame) {
    if (!std::holds_alternative<transport::DataFrame>(frame)) return;
    const std::lock_guard<std::mutex> lk(mu);
    call_sent = true;
    cv.notify_all();
  });
  rt.start();
  rt.inject_at(in, VirtualTime(1000), Payload(std::int64_t{5}));
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 5s, [&] { return call_sent; }));
  }

  const std::uint64_t bystander_before =
      rt.replica().latest_version(bystander);
  constexpr auto kTimeout = 300ms;
  bool ok = true;
  std::chrono::steady_clock::duration waited{};
  std::thread barrier([&] {
    const auto t0 = std::chrono::steady_clock::now();
    ok = rt.force_component_checkpoints(kTimeout);
    waited = std::chrono::steady_clock::now() - t0;
  });
  ASSERT_TRUE(rt.replica().wait_past({{bystander, bystander_before}},
                                     std::chrono::steady_clock::now() + 5s));
  rt.crash_engine(EngineId(1));
  barrier.join();
  EXPECT_FALSE(ok);
  EXPECT_GE(waited, kTimeout);
  rt.stop();
}

// A full checkpoint restarts delta tracking: the soft-checkpoint delta
// right after a forced one holds only the keys changed after it.
TEST(ForcedCheckpointTest, NextDeltaHoldsOnlyLaterKeys) {
  Topology topo;
  const auto c = topo.add("counter", [] {
    return std::make_unique<apps::WordCountSender>();
  });
  const auto in = topo.external_input(c, PortId(0));
  topo.external_output(c, PortId(0));
  RuntimeConfig config;
  config.checkpoint.every_n_messages = 2;
  config.checkpoint.full_every_k = 100;
  RecordingRouter router;
  log::DeterminismFaultLog fault_log;
  checkpoint::ReplicaStore replica;
  obs::Registry registry;
  Quiescence quiescence(registry);
  ComponentRunner runner(topo, c, config, router, fault_log, replica,
                         registry, quiescence, nullptr);
  runner.start();
  std::uint64_t seq = 0;
  const auto deliver = [&](std::vector<std::string> words) {
    Message m;
    m.wire = in;
    m.seq = seq++;
    m.vt = VirtualTime(1000 * static_cast<std::int64_t>(m.seq + 1));
    m.payload = Payload(std::move(words));
    runner.deliver_data(m);
  };
  const auto version_past = [&](std::uint64_t v) {
    return replica.wait_past({{c, v}}, std::chrono::steady_clock::now() + 5s);
  };

  deliver({"a", "b"});
  deliver({"c"});
  ASSERT_TRUE(version_past(0));  // v1: the first soft checkpoint is full
  runner.enqueue_control(CheckpointNowCtl{});
  ASSERT_TRUE(version_past(1));  // v2: forced, full
  deliver({"e"});
  deliver({"f", "e"});
  ASSERT_TRUE(version_past(2));  // v3: soft, a delta
  runner.stop();

  const auto plan = replica.restore(c);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->base.version, 2u);
  ASSERT_EQ(plan->deltas.size(), 1u);
  ASSERT_TRUE(plan->deltas[0].is_delta);
  serde::Reader r(plan->deltas[0].state);
  std::vector<std::string> keys(r.read_varint());
  for (std::string& key : keys) {
    serde::decode_value(r, key);
    if (r.read_bool()) {
      std::int64_t count = 0;
      serde::decode_value(r, count);
    }
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"e", "f"}));
}

}  // namespace
}  // namespace tart::core
