// HTTP-only end-to-end over real processes: the ingress gateway's two big
// promises, checked against forked tart-node binaries.
//
//   1. Placement transparency through the HTTP face: a two-node wordcount
//      deployment driven ONLY over HTTP (inject, drain, fetch outputs)
//      produces byte-for-byte the single-process in-process baseline —
//      including after SIGKILL-ing the ingress node mid-run and cold
//      restarting it over the same log directory (§II.F).
//   2. Log-before-ack under a crash DURING ingest: concurrent clients blast
//      unique tokens at a one-partition tart-node while it is SIGKILLed
//      mid-load.
//      After restart + replay, every acked token is present exactly once
//      and every un-acked token is absent or present once — never
//      duplicated, because the ack is issued only after the fsync.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "gateway/http_client.h"
#include "net/topologies.h"
#include "node_http.h"

using namespace tart;
using namespace tart::nodetest;
using namespace std::chrono_literals;
using gateway::BlockingHttpClient;

namespace {

/// Sums every sample of a Prometheus family in a /metrics body — labelled
/// ("tart_<name>{component=\"x\"} 3") and unlabelled ("tart_<name> 3")
/// lines alike; HELP/TYPE comment lines are skipped.
std::uint64_t metric(const std::string& body, const std::string& name) {
  const std::string family = "tart_" + name;
  std::uint64_t total = 0;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    total += static_cast<std::uint64_t>(
        std::strtoull(line.c_str() + sp + 1, nullptr, 10));
  }
  return total;
}

std::vector<OutputLine> fresh_only(std::vector<OutputLine> lines) {
  std::erase_if(lines, [](const OutputLine& l) { return l.stutter; });
  return lines;
}

// --- 1: HTTP-only wordcount vs in-process baseline ---------------------------

struct Step {
  std::string input;
  std::int64_t vt;
  std::vector<std::string> words;
};

std::vector<Step> make_script(int n) {
  const std::vector<std::string> vocab = {"gateway", "ingest", "durable",
                                          "ack",     "commit", "replay"};
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

std::string body_of(const Step& s) {
  std::string body;
  for (const auto& w : s.words) {
    if (!body.empty()) body += ' ';
    body += w;
  }
  return body;
}

/// Single-process ground truth, rendered the way the gateway renders it.
std::vector<OutputLine> baseline(const std::vector<Step>& steps) {
  auto built = net::build_topology("wordcount", {{"senders", "2"}});
  std::map<ComponentId, EngineId> placement;
  for (const auto& [name, id] : built.components) placement[id] = EngineId(0);
  core::Runtime rt(built.topology, placement, core::RuntimeConfig{});
  rt.start();
  for (const auto& s : steps)
    rt.inject_at(built.inputs.at(s.input), VirtualTime(s.vt),
                 apps::sentence(s.words));
  EXPECT_TRUE(rt.drain());
  std::vector<OutputLine> out;
  for (const auto& rec : rt.output_records(built.outputs.at("total")))
    if (!rec.stutter)
      out.push_back(
          {rec.vt.ticks(), false, std::to_string(rec.payload.as_int())});
  rt.stop();
  return out;
}

Deployment write_deployment(const std::string& dir) {
  return nodetest::write_deployment(
      dir, "topology = wordcount\nparam senders = 2\n", {"left", "right"},
      {{"sender1", "left"}, {"sender2", "left"}, {"merger", "right"}});
}

void inject_over_http(BlockingHttpClient& http, const Step& s) {
  const auto resp =
      http.post("/inject/" + s.input + "?vt=" + std::to_string(s.vt),
                body_of(s), "text/plain");
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.body, "vt=" + std::to_string(s.vt) + "\n");
}

}  // namespace

TEST(GatewayProcessTest, HttpOnlyWordcountMatchesBaselineAndSurvivesSigkill) {
  const auto steps = make_script(60);
  const std::vector<OutputLine> expected = baseline(steps);
  ASSERT_FALSE(expected.empty());
  const std::string dir = make_temp_dir("tart_gw");

  // --- Run 1: clean two-node run, driven entirely over HTTP ----------------
  std::vector<OutputLine> clean_out;
  {
    const Deployment d = write_deployment(dir);
    ASSERT_EQ(mkdir((dir + "/clean_left").c_str(), 0755), 0);
    NodeProc left(d, "left", {"--log-dir=" + dir + "/clean_left"});
    NodeProc right(d, "right", {});

    auto left_node = connect_node(d.http.at("left"));
    auto right_node = connect_node(d.http.at("right"));
    ASSERT_TRUE(left_node && right_node);
    BlockingHttpClient& left_http = left_node->http();
    BlockingHttpClient& right_http = right_node->http();
    EXPECT_EQ(left_http.get("/healthz").status, 200);
    EXPECT_EQ(right_http.get("/healthz").status, 200);
    // The gateway serves only its partition's adaptable wires.
    EXPECT_EQ(left_http.get("/outputs/total").status, 404);
    EXPECT_EQ(right_http.post("/inject/sender1", "x", "text/plain").status,
              404);

    for (const auto& s : steps) inject_over_http(left_http, s);
    ASSERT_EQ(left_http.post("/drain", "").status, 200);
    ASSERT_EQ(right_http.post("/drain", "").status, 200);
    clean_out = fresh_only(
        parse_outputs(right_http.get("/outputs/total?max=1000000").body));

    // Durability and transport demonstrably happened.
    const auto lm = left_http.get("/metrics").body;
    EXPECT_EQ(metric(lm, "store_records_written_total"), steps.size());
    EXPECT_GT(metric(lm, "store_flushes_total"), 0u);
    EXPECT_EQ(metric(lm, "gw_acked_total"), steps.size());
    EXPECT_GT(metric(lm, "net_frames_out_total"), 0u);

    EXPECT_EQ(left_http.post("/shutdown", "").status, 200);
    EXPECT_EQ(right_http.post("/shutdown", "").status, 200);
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(clean_out, expected)
      << "HTTP-driven two-node run diverged from the in-process baseline";

  // --- Run 2: SIGKILL the ingress node mid-run, restart from its log ------
  std::vector<OutputLine> kill_out;
  {
    const Deployment d = write_deployment(dir);
    const std::string log_dir = dir + "/kill_left";
    ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
    NodeProc right(d, "right", {});
    auto right_node = connect_node(d.http.at("right"));
    ASSERT_TRUE(right_node);
    BlockingHttpClient& right_http = right_node->http();
    const std::size_t half = steps.size() / 2;

    {
      NodeProc left(d, "left", {"--log-dir=" + log_dir});
      auto left_node = connect_node(d.http.at("left"));
      ASSERT_TRUE(left_node);
      BlockingHttpClient& left_http = left_node->http();
      for (std::size_t i = 0; i < half; ++i)
        inject_over_http(left_http, steps[i]);
      // Every first-half request was ACKED over HTTP, so each one is
      // durable: the restart below MUST reproduce all of them. Let the
      // merger see some of the stream first so replay produces duplicates
      // for it to discard, then pull the plug with no warning.
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (metric(right_http.get("/metrics").body,
                    "messages_processed_total") < half / 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "merger saw too little before the kill window";
        std::this_thread::sleep_for(5ms);
      }
      left.kill9();
      left.reap();
    }

    NodeProc left(d, "left", {"--log-dir=" + log_dir});
    auto left_node = connect_node(d.http.at("left"));
    ASSERT_TRUE(left_node);
    BlockingHttpClient& left_http = left_node->http();
    for (std::size_t i = half; i < steps.size(); ++i)
      inject_over_http(left_http, steps[i]);
    ASSERT_EQ(left_http.post("/drain", "").status, 200);
    ASSERT_EQ(right_http.post("/drain", "").status, 200);
    kill_out = fresh_only(
        parse_outputs(right_http.get("/outputs/total?max=1000000").body));

    EXPECT_EQ(left_http.post("/shutdown", "").status, 200);
    EXPECT_EQ(right_http.post("/shutdown", "").status, 200);
    EXPECT_EQ(left.reap(), 0);
    EXPECT_EQ(right.reap(), 0);
  }
  EXPECT_EQ(kill_out, expected)
      << "HTTP-driven output after SIGKILL + restart diverged from baseline";
}

// --- 2: crash DURING ingest — acked exactly once, un-acked absent-or-once ---

TEST(GatewayProcessTest, CrashDuringIngestKeepsAckedExactlyOnce) {
  const std::string dir = make_temp_dir("tart_gw");
  const std::string log_dir = dir + "/log";
  ASSERT_EQ(mkdir(log_dir.c_str(), 0755), 0);
  // One partition hosting the whole chain: a single-process HTTP node.
  const Deployment d = nodetest::write_deployment(
      dir, "topology = chain\nparam stages = 2\n", {"solo"},
      {{"stage1", "solo"}, {"stage2", "solo"}});
  const std::string addr = d.http.at("solo");
  const std::vector<std::string> args = {"--log-dir=" + log_dir};

  std::mutex mu;
  std::vector<std::string> acked;  // tokens whose 200 arrived
  std::vector<std::string> sent;   // every token that left a client
  std::atomic<std::uint64_t> ack_count{0};
  std::atomic<bool> stop{false};

  {
    NodeProc gw(d, "solo", args);
    {
      auto probe = connect_node(addr);
      ASSERT_TRUE(probe);
      ASSERT_EQ(probe->http().get("/healthz").status, 200);
    }

    // Concurrent clients blast unique tokens until the server dies under
    // them. A request is "acked" only if its 200 was read off the socket.
    constexpr int kClients = 6;
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        auto http = BlockingHttpClient::connect(addr, 5s);
        if (!http) return;
        for (int i = 0; !stop.load(); ++i) {
          const std::string token =
              "tok-" + std::to_string(t) + "-" + std::to_string(i);
          {
            std::lock_guard<std::mutex> lk(mu);
            sent.push_back(token);
          }
          try {
            const auto resp =
                http->post("/inject/in", token, "application/x-tart-string");
            if (resp.status != 200) break;
            std::lock_guard<std::mutex> lk(mu);
            acked.push_back(token);
            ack_count.fetch_add(1);
          } catch (const std::exception&) {
            break;  // connection died mid-request: token is un-acked
          }
        }
      });
    }

    // Let a healthy chunk of load through, then SIGKILL with requests in
    // flight — this is the crash-during-ingest window the log-before-ack
    // discipline exists for.
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    while (ack_count.load() < 200) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "only " << ack_count.load() << " acks before the kill window";
      std::this_thread::sleep_for(1ms);
    }
    gw.kill9();
    gw.reap();
    stop.store(true);
    for (auto& c : clients) c.join();
  }
  ASSERT_GE(acked.size(), 200u);
  EXPECT_GT(sent.size(), acked.size())
      << "the kill should have caught at least one request un-acked";

  // Cold restart over the same log: replay everything, then read outputs.
  NodeProc gw(d, "solo", args);
  auto node = connect_node(addr);
  ASSERT_TRUE(node);
  BlockingHttpClient& http = node->http();
  ASSERT_EQ(http.post("/drain", "").status, 200);
  const auto lines = fresh_only(
      parse_outputs(http.get("/outputs/out?max=1000000").body));

  std::map<std::string, int> times_seen;
  for (const auto& l : lines) ++times_seen[l.payload];

  // Every acked token survived the crash, exactly once.
  for (const auto& token : acked)
    EXPECT_EQ(times_seen[token], 1) << "acked token lost or duplicated: "
                                    << token;
  // Every token — acked or not — appears at most once (absent-or-once).
  for (const auto& [token, n] : times_seen)
    EXPECT_EQ(n, 1) << "token duplicated after replay: " << token;
  for (const auto& token : sent)
    EXPECT_LE(times_seen[token], 1) << token;
  // Output vts are strictly monotone: one wire, one record per tick.
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_GT(lines[i].vt, lines[i - 1].vt);

  // The restarted process REPLAYS the log rather than re-writing it, so
  // store_records_written stays 0 — the proof of durability is the output
  // stream itself covering every ack.
  EXPECT_GE(lines.size(), acked.size());
  EXPECT_EQ(http.post("/shutdown", "").status, 200);
  EXPECT_EQ(gw.reap(), 0);
}
