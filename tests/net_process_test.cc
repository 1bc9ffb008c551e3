// Two-process deployment soak: real tart-node processes over loopback TCP.
//
// The wordcount topology is split across two nodes — "left" hosts the
// senders (and the external inputs), "right" hosts the merger (and the
// external output). The test drives the deployment through the nodes' HTTP
// gateways and checks the paper's end-to-end claim for real processes:
//
//   1. a clean two-process run produces exactly the single-process
//      baseline's output stream (placement-transparency);
//   2. SIGKILL-ing the left node mid-run and restarting it over the same
//      log_dir recovers transparently: logged inputs replay, the surviving
//      merger discards the duplicates by timestamp, and the final output
//      stream is STILL byte-for-byte the baseline (§II.F);
//   3. the surviving node's flight-recorder traces from the clean and the
//      killed run are recovery-equivalent (tart-trace diff --recovery);
//   4. the socket-transport counters surface in MetricsSnapshot: frames
//      and bytes flow in the clean run, reconnects after the kill.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "net/topologies.h"
#include "node_http.h"

using namespace tart;
using namespace tart::nodetest;
using namespace std::chrono_literals;

namespace {

// --- deterministic injection script -----------------------------------------

struct Step {
  std::string input;  ///< "sender1" / "sender2"
  std::int64_t vt;
  std::vector<std::string> words;
};

std::vector<Step> make_script(int n) {
  const std::vector<std::string> vocab = {"stream", "replay", "virtual",
                                          "time",   "socket", "engine"};
  std::vector<Step> steps;
  for (int i = 0; i < n; ++i) {
    Step s;
    s.input = (i % 2 == 0) ? "sender1" : "sender2";
    s.vt = 1000 * (i + 1);
    const int len = (i % 4) + 1;
    for (int w = 0; w < len; ++w)
      s.words.push_back(vocab[static_cast<std::size_t>((i + w) % 6)]);
    steps.push_back(std::move(s));
  }
  return steps;
}

using OutputStream = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Single-process ground truth over the identical topology + script.
OutputStream baseline(const std::vector<Step>& steps) {
  auto built = net::build_topology("wordcount", {{"senders", "2"}});
  std::map<ComponentId, EngineId> placement;
  for (const auto& [name, id] : built.components) placement[id] = EngineId(0);
  core::Runtime rt(built.topology, placement, core::RuntimeConfig{});
  rt.start();
  for (const auto& s : steps)
    rt.inject_at(built.inputs.at(s.input), VirtualTime(s.vt),
                 apps::sentence(s.words));
  EXPECT_TRUE(rt.drain());
  OutputStream out;
  for (const auto& rec : rt.output_records(built.outputs.at("total")))
    if (!rec.stutter) out.emplace_back(rec.vt.ticks(), rec.payload.as_int());
  rt.stop();
  return out;
}

// --- process plumbing -------------------------------------------------------

Deployment write_deployment(const std::string& dir) {
  return nodetest::write_deployment(
      dir,
      "# two-node wordcount split\n"
      "topology = wordcount\n"
      "param senders = 2\n",
      {"left", "right"},
      {{"sender1", "left"}, {"sender2", "left"}, {"merger", "right"}});
}

OutputStream fetch_outputs(NodeClient& client) {
  OutputStream out;
  for (const auto& rec : client.outputs("total"))
    if (!rec.stutter) out.emplace_back(rec.vt, std::stoll(rec.payload));
  return out;
}

}  // namespace

TEST(NetProcessTest, TwoProcessRunMatchesBaselineAndSurvivesSigkill) {
  const auto steps = make_script(60);
  const OutputStream expected = baseline(steps);
  ASSERT_FALSE(expected.empty());

  const std::string dir = make_temp_dir("tart_net");
  const std::string right_clean_trace = dir + "/right_clean.trace";
  const std::string right_kill_trace = dir + "/right_kill.trace";

  // --- Run 1: clean two-process run --------------------------------------
  OutputStream clean_out;
  {
    const Deployment d = write_deployment(dir);
    ASSERT_EQ(mkdir((dir + "/clean_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/clean_left"});
    NodeProc right(d, "right", {"--trace=" + right_clean_trace});

    auto left_ctl = connect_node(d.http.at("left"));
    auto right_ctl = connect_node(d.http.at("right"));
    ASSERT_TRUE(left_ctl && right_ctl);
    EXPECT_TRUE(left_ctl->healthy());
    EXPECT_TRUE(right_ctl->healthy());

    for (const auto& s : steps)
      EXPECT_EQ(left_ctl->inject(s.input, s.vt, s.words), s.vt);
    ASSERT_TRUE(left_ctl->drain(30s)) << "left never quiesced";
    ASSERT_TRUE(right_ctl->drain(30s)) << "right never quiesced";
    clean_out = fetch_outputs(*right_ctl);

    // Socket transport demonstrably carried the stream.
    const auto lm = left_ctl->metrics();
    const auto rm = right_ctl->metrics();
    EXPECT_GT(lm.net_frames_out, 0u);
    EXPECT_GT(lm.net_bytes_out, 0u);
    EXPECT_GT(rm.net_frames_in, 0u);
    EXPECT_GT(rm.net_bytes_in, 0u);
    EXPECT_EQ(rm.messages_processed, steps.size());

    // Telemetry over GET /obs: the merger node reports its registry samples
    // (per-component labelled counters) and its silence wavefront.
    const auto samples = right_ctl->obs_samples();
    bool merger_counter_seen = false;
    for (const auto& s : samples) {
      if (s.name != "tart_messages_processed_total") continue;
      for (const auto& l : s.labels)
        if (l.key == "component" && l.value == "merger") {
          EXPECT_EQ(s.counter_value, steps.size());
          merger_counter_seen = true;
        }
    }
    EXPECT_TRUE(merger_counter_seen)
        << "no labelled merger counter in the obs dump";

    const auto status = right_ctl->status();
    ASSERT_EQ(status.components.size(), 1u);  // only the merger is local
    EXPECT_EQ(status.components[0].name, "merger");
    EXPECT_FALSE(status.components[0].crashed);
    EXPECT_FALSE(status.components[0].held);  // drained: nothing pending
    EXPECT_EQ(status.components[0].pending, 0u);
    ASSERT_EQ(status.components[0].inputs.size(), 2u);
    for (const auto& w : status.components[0].inputs)
      EXPECT_FALSE(w.blocking);

    left_ctl->shutdown_node();
    right_ctl->shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(clean_out, expected)
      << "two-process deployment diverged from the single-process baseline";

  // --- Run 2: SIGKILL left mid-run, restart from its log ------------------
  OutputStream kill_out;
  {
    const Deployment d = write_deployment(dir);
    const std::string log_dir = dir + "/kill_left";
    ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
    NodeProc right(d, "right", {"--trace=" + right_kill_trace});
    auto right_ctl = connect_node(d.http.at("right"));
    ASSERT_TRUE(right_ctl);
    const std::size_t half = steps.size() / 2;

    {
      NodeProc left(d, "left", {"--log-dir=" + log_dir});
      auto left_ctl = connect_node(d.http.at("left"));
      ASSERT_TRUE(left_ctl);
      for (std::size_t i = 0; i < half; ++i)
        EXPECT_EQ(
            left_ctl->inject(steps[i].input, steps[i].vt, steps[i].words),
            steps[i].vt);
      // Let the first half mostly reach the merger — otherwise the kill
      // can land before a single frame flushes and the replay produces no
      // duplicates to discard. "Mostly": the merger's dispatch frontier
      // trails the newest arrival (it cannot process a tick until silence
      // covers it on BOTH sender wires), so the tail stays pending until
      // the post-restart drain. No drain here: the senders' own state (seq
      // counters, retention) is still volatile when the power goes out.
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      std::uint64_t seen = 0;
      while ((seen = right_ctl->metrics().messages_processed) < half / 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "merger only processed " << seen << "/" << half
            << " before the kill window";
        std::this_thread::sleep_for(5ms);
      }
      // Freeze the process before killing it. A SIGKILLed process's kernel
      // sends FIN (the peer sees EOF), but a frozen one keeps its socket
      // open and just goes silent — which is what heartbeat detection is
      // for. The right node must declare the link down by misses alone.
      ASSERT_EQ(::kill(left.pid(), SIGSTOP), 0);
      const auto hb_deadline = std::chrono::steady_clock::now() + 20s;
      while (right_ctl->metrics().net_heartbeat_misses == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), hb_deadline)
            << "right never noticed the frozen peer";
        std::this_thread::sleep_for(20ms);
      }
      left.kill9();
      left.reap();
    }

    // Cold restart over the same stable storage: the node replays its
    // logged inputs; the surviving merger discards the duplicates.
    NodeProc left(d, "left", {"--log-dir=" + log_dir});
    auto left_ctl = connect_node(d.http.at("left"));
    ASSERT_TRUE(left_ctl);
    for (std::size_t i = half; i < steps.size(); ++i)
      EXPECT_EQ(
          left_ctl->inject(steps[i].input, steps[i].vt, steps[i].words),
          steps[i].vt);
    ASSERT_TRUE(left_ctl->drain(30s)) << "restarted left never quiesced";
    ASSERT_TRUE(right_ctl->drain(30s)) << "right never quiesced after kill";
    kill_out = fetch_outputs(*right_ctl);

    const auto lm = left_ctl->metrics();
    const auto rm = right_ctl->metrics();
    EXPECT_GE(rm.net_reconnects, 1u)
        << "right must have re-accepted the restarted left";
    EXPECT_GT(rm.net_heartbeat_misses, 0u);
    EXPECT_GT(rm.net_frames_in, 0u);
    // The restarted node re-emits every logged tick. Each re-emission races
    // the link coming back up: frames sent once the link is up reach the
    // merger and are discarded as duplicates; frames emitted while the
    // link is still down are refused at the sender (and healed later by
    // seq/silence accounting). Either way the kill must leave a mark.
    EXPECT_GT(rm.duplicates_discarded + lm.net_frames_refused, 0u)
        << "a mid-run kill with replay must surface as duplicate discards "
           "or refused frames";
    EXPECT_EQ(rm.messages_processed, steps.size());

    left_ctl->shutdown_node();
    right_ctl->shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(kill_out, expected)
      << "output stream after SIGKILL + restart diverged from baseline";

  // --- Run 3: the surviving node's traces are recovery-equivalent ---------
  EXPECT_EQ(run_trace_diff(right_clean_trace, right_kill_trace), 0)
      << "tart-trace diff --recovery flagged divergence on the surviving "
         "node";
}

// Durable-checkpoint variant of the kill/restart story: the left node
// checkpoints mid-run (covering + compacting its external log), is
// SIGKILLed, and comes back through the tiered fast path — checkpoint
// restore plus suffix-only replay — instead of a full-log replay. The
// output stream must still be byte-for-byte the single-process baseline,
// and the surviving merger's traces recovery-equivalent (docs/RECOVERY.md).
TEST(NetProcessTest, DurableCheckpointRestartMatchesBaseline) {
  const auto steps = make_script(40);
  const OutputStream expected = baseline(steps);
  ASSERT_FALSE(expected.empty());

  const std::string dir = make_temp_dir("tart_net");
  const std::string right_clean_trace = dir + "/right_clean.trace";
  const std::string right_ckpt_trace = dir + "/right_ckpt.trace";

  // --- Reference: clean two-process run ------------------------------------
  OutputStream clean_out;
  {
    const Deployment d = write_deployment(dir);
    ASSERT_EQ(mkdir((dir + "/clean_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/clean_left"});
    NodeProc right(d, "right", {"--trace=" + right_clean_trace});
    auto left_ctl = connect_node(d.http.at("left"));
    auto right_ctl = connect_node(d.http.at("right"));
    ASSERT_TRUE(left_ctl && right_ctl);
    for (const auto& s : steps)
      EXPECT_EQ(left_ctl->inject(s.input, s.vt, s.words), s.vt);
    ASSERT_TRUE(left_ctl->drain(30s));
    ASSERT_TRUE(right_ctl->drain(30s));
    clean_out = fetch_outputs(*right_ctl);
    left_ctl->shutdown_node();
    right_ctl->shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  ASSERT_EQ(clean_out, expected);

  // --- Durable run: checkpoint, SIGKILL, tiered restart --------------------
  OutputStream ckpt_out;
  {
    const Deployment d = write_deployment(dir);
    const std::string log_dir = dir + "/ckpt_left";
    ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
    // Tiny segments so the mid-run checkpoint demonstrably reclaims
    // wholly-covered ones (log stays bounded, not just covered).
    const std::vector<std::string> durable_flags = {
        "--log-dir=" + log_dir, "--durable", "--segment-bytes=512"};
    NodeProc right(d, "right", {"--trace=" + right_ckpt_trace});
    auto right_ctl = connect_node(d.http.at("right"));
    ASSERT_TRUE(right_ctl);
    const std::size_t half = steps.size() / 2;
    const std::size_t kill_at = steps.size() * 3 / 4;

    {
      NodeProc left(d, "left", durable_flags);
      auto left_ctl = connect_node(d.http.at("left"));
      ASSERT_TRUE(left_ctl);
      for (std::size_t i = 0; i < half; ++i)
        EXPECT_EQ(
            left_ctl->inject(steps[i].input, steps[i].vt, steps[i].words),
            steps[i].vt);
      // The senders consume their logged inputs almost immediately; wait
      // until they have, so the forced checkpoint covers the whole prefix.
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (left_ctl->metrics().messages_processed < half) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "left never consumed the pre-checkpoint prefix";
        std::this_thread::sleep_for(5ms);
      }
      const auto ck = left_ctl->checkpoint();
      ASSERT_TRUE(ck.ok) << ck.error;
      EXPECT_EQ(ck.covered_records, half);
      EXPECT_GT(ck.bytes, 0u);
      EXPECT_GT(ck.reclaimed_records, 0u)
          << "gated compaction reclaimed nothing despite tiny segments";

      // A post-checkpoint suffix the restart will have to replay.
      for (std::size_t i = half; i < kill_at; ++i)
        EXPECT_EQ(
            left_ctl->inject(steps[i].input, steps[i].vt, steps[i].words),
            steps[i].vt);
      // log-before-ack: every acked injection above is already durable, so
      // the kill can land immediately.
      left.kill9();
      left.reap();
    }

    // Tiered restart over the same stable storage.
    NodeProc left(d, "left", durable_flags);
    auto left_ctl = connect_node(d.http.at("left"));
    ASSERT_TRUE(left_ctl);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (left_ctl->metrics().restart_covered_records == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restarted left never reported a checkpoint-covered restart";
      std::this_thread::sleep_for(5ms);
    }
    const auto lm = left_ctl->metrics();
    EXPECT_EQ(lm.restart_covered_records, half)
        << "restart should skip exactly the checkpoint-covered prefix";
    EXPECT_EQ(lm.restart_suffix_records, kill_at - half)
        << "restart should replay exactly the post-checkpoint suffix";

    for (std::size_t i = kill_at; i < steps.size(); ++i)
      EXPECT_EQ(
          left_ctl->inject(steps[i].input, steps[i].vt, steps[i].words),
          steps[i].vt);
    ASSERT_TRUE(left_ctl->drain(30s)) << "restarted left never quiesced";
    ASSERT_TRUE(right_ctl->drain(30s)) << "right never quiesced";
    ckpt_out = fetch_outputs(*right_ctl);

    // The restarted node checkpoints again: durability survives recovery.
    const auto ck2 = left_ctl->checkpoint();
    EXPECT_TRUE(ck2.ok) << ck2.error;
    EXPECT_EQ(ck2.covered_records, steps.size());

    left_ctl->shutdown_node();
    right_ctl->shutdown_node();
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(ckpt_out, expected)
      << "output stream after checkpointed restart diverged from baseline";

  // The surviving merger cannot tell a tiered restart from a full replay.
  EXPECT_EQ(run_trace_diff(right_clean_trace, right_ckpt_trace), 0)
      << "tart-trace diff --recovery flagged divergence after tiered restart";
}
