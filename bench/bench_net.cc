// Socket-transport microbenchmark: what does crossing a real TCP loopback
// cost relative to the in-process NetworkLink the single-process benches
// use? Reports frames/sec (streaming) and p50/p99 round-trip latency
// (ping-pong) for both transports at several payload sizes, so the
// distributed figures can be read against the transport's own floor.
// A condvar ping-pong between two bare threads is recorded first as the
// host's calibration row (calib_*): the in-process link rows are thread
// wake-ups, and scripts/bench_gate.py gates them as ratios to it.
//
//   bench_net [--smoke] [--json[=FILE]]
//   (--smoke: 10x fewer frames, CI sanity; --json: machine-readable results)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common/virtual_time.h"
#include "exp_util.h"
#include "net/connection_manager.h"
#include "transport/frame.h"
#include "transport/network_link.h"
#include "wire/message.h"

namespace {

using namespace std::chrono_literals;
using tart::Message;
using tart::Payload;
using tart::VirtualTime;
using tart::WireId;
using Clock = std::chrono::steady_clock;

// Load knobs; --smoke divides both by 10 for CI.
int g_stream_frames = 20000;
int g_ping_pongs = 2000;

tart::transport::Frame data_frame(std::size_t payload_bytes,
                                  std::uint64_t seq) {
  Message m;
  m.wire = WireId(1);
  m.vt = VirtualTime(static_cast<std::int64_t>(seq));
  m.seq = seq;
  m.payload = Payload(std::string(payload_bytes, 'x'));
  return tart::transport::DataFrame{m};
}

double percentile(std::vector<double>& v, double p) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct Result {
  double frames_per_sec = 0;
  double mib_per_sec = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
};

// --- TCP over loopback ------------------------------------------------------

/// A connected pair of ConnectionManagers on 127.0.0.1.
struct TcpPair {
  std::unique_ptr<tart::net::ConnectionManager> a;  // dials ("a" < "b")
  std::unique_ptr<tart::net::ConnectionManager> b;

  TcpPair(tart::net::ConnectionManager::FrameHandler on_a,
          tart::net::ConnectionManager::FrameHandler on_b) {
    tart::net::ConnectionManager::Options bo;
    bo.node = "b";
    bo.listen = "127.0.0.1:0";
    bo.peers["a"] = "127.0.0.1:1";  // known for HELLO validation; never dialed
    b = std::make_unique<tart::net::ConnectionManager>(
        std::move(bo), std::move(on_b), [](const std::string&, bool) {});

    tart::net::ConnectionManager::Options ao;
    ao.node = "a";
    ao.peers["b"] = "127.0.0.1:" + std::to_string(b->listen_port());
    a = std::make_unique<tart::net::ConnectionManager>(
        std::move(ao), std::move(on_a), [](const std::string&, bool) {});

    while (!a->peer_up("b") || !b->peer_up("a"))
      std::this_thread::sleep_for(1ms);
  }

  ~TcpPair() {
    a->shutdown();
    b->shutdown();
  }
};

Result bench_tcp(std::size_t payload_bytes) {
  Result r;
  {
    // Streaming: a -> b, count arrivals.
    std::atomic<int> received{0};
    TcpPair pair([](const std::string&, tart::transport::Frame) {},
                 [&](const std::string&, tart::transport::Frame) {
                   received.fetch_add(1);
                 });
    const auto t0 = Clock::now();
    for (int i = 0; i < g_stream_frames; ++i) {
      const auto f = data_frame(payload_bytes, static_cast<std::uint64_t>(i));
      while (!pair.a->send("b", f))  // bounded queue: wait out backpressure
        std::this_thread::sleep_for(100us);
    }
    while (received.load() < g_stream_frames) std::this_thread::sleep_for(1ms);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    r.frames_per_sec = g_stream_frames / secs;
    r.mib_per_sec = static_cast<double>(pair.a->counters().bytes_out) /
                    (1024.0 * 1024.0) / secs;
  }
  {
    // Ping-pong: b echoes every frame straight back from its net thread.
    std::mutex mu;
    std::condition_variable cv;
    int pongs = 0;
    tart::net::ConnectionManager* b_raw = nullptr;
    TcpPair pair(
        [&](const std::string&, tart::transport::Frame) {
          const std::lock_guard<std::mutex> lk(mu);
          ++pongs;
          cv.notify_one();
        },
        [&](const std::string& peer, tart::transport::Frame f) {
          b_raw->send(peer, f);
        });
    b_raw = pair.b.get();
    std::vector<double> rtts_us;
    rtts_us.reserve(g_ping_pongs);
    for (int i = 0; i < g_ping_pongs; ++i) {
      const auto t0 = Clock::now();
      pair.a->send("b", data_frame(payload_bytes,
                                   static_cast<std::uint64_t>(i)));
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return pongs > i; });
      rtts_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    r.rtt_p50_us = percentile(rtts_us, 0.50);
    r.rtt_p99_us = percentile(rtts_us, 0.99);
  }
  return r;
}

// --- Host calibration --------------------------------------------------------

/// Round trip of one condvar hand-off to another thread and back: the
/// wake-up cost every in-process link frame pays, with no link code. A
/// fixed count (--smoke too), so the row the gate divides by is steady.
constexpr int kCalibrationRoundTrips = 5000;

Result bench_condvar_pingpong() {
  std::mutex mu;
  std::condition_variable cv;
  int pings = 0;
  int pongs = 0;
  std::thread echo([&] {
    std::unique_lock<std::mutex> lk(mu);
    for (int i = 0; i < kCalibrationRoundTrips; ++i) {
      cv.wait(lk, [&] { return pings > i; });
      ++pongs;
      cv.notify_all();
    }
  });
  std::vector<double> rtts_us;
  rtts_us.reserve(kCalibrationRoundTrips);
  for (int i = 0; i < kCalibrationRoundTrips; ++i) {
    const auto t0 = Clock::now();
    std::unique_lock<std::mutex> lk(mu);
    ++pings;
    cv.notify_all();
    cv.wait(lk, [&] { return pongs > i; });
    rtts_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  echo.join();
  Result r;
  r.rtt_p50_us = percentile(rtts_us, 0.50);
  r.rtt_p99_us = percentile(rtts_us, 0.99);
  return r;
}

// --- In-process NetworkLink baseline ---------------------------------------

Result bench_link(std::size_t payload_bytes) {
  Result r;
  tart::transport::LinkConfig cfg;
  cfg.base_delay = 0us;  // measure the mechanism, not a simulated wire
  {
    std::atomic<int> received{0};
    std::uint64_t bytes = 0;
    tart::transport::NetworkLink link(cfg, [&](std::vector<std::byte>) {
      received.fetch_add(1);
    });
    const auto t0 = Clock::now();
    for (int i = 0; i < g_stream_frames; ++i) {
      auto bytes_out = tart::transport::frame_to_bytes(
          data_frame(payload_bytes, static_cast<std::uint64_t>(i)));
      bytes += bytes_out.size();
      link.send(std::move(bytes_out));
    }
    while (received.load() < g_stream_frames) std::this_thread::sleep_for(1ms);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    r.frames_per_sec = g_stream_frames / secs;
    r.mib_per_sec = static_cast<double>(bytes) / (1024.0 * 1024.0) / secs;
    link.shutdown();
  }
  {
    // Ping-pong across two links (one per direction), echo in the
    // receiver callback — the same topology as the TCP pair.
    std::mutex mu;
    std::condition_variable cv;
    int pongs = 0;
    std::unique_ptr<tart::transport::NetworkLink> back;
    tart::transport::NetworkLink forth(cfg, [&](std::vector<std::byte> p) {
      back->send(std::move(p));
    });
    back = std::make_unique<tart::transport::NetworkLink>(
        cfg, [&](std::vector<std::byte>) {
          const std::lock_guard<std::mutex> lk(mu);
          ++pongs;
          cv.notify_one();
        });
    std::vector<double> rtts_us;
    rtts_us.reserve(g_ping_pongs);
    for (int i = 0; i < g_ping_pongs; ++i) {
      const auto t0 = Clock::now();
      forth.send(tart::transport::frame_to_bytes(
          data_frame(payload_bytes, static_cast<std::uint64_t>(i))));
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return pongs > i; });
      rtts_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    r.rtt_p50_us = percentile(rtts_us, 0.50);
    r.rtt_p99_us = percentile(rtts_us, 0.99);
    forth.shutdown();
    back->shutdown();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!tart::bench::parse_json_flag(arg, &json, &json_path)) {
      std::fprintf(stderr, "usage: bench_net [--smoke] [--json[=FILE]]\n");
      return 2;
    }
  }
  if (smoke) {
    g_stream_frames /= 10;
    g_ping_pongs /= 10;
  }

  tart::bench::banner(
      "Socket transport vs in-process link (loopback floor)",
      "supports §III.A distributed runs: transport cost isolated from "
      "protocol cost");

  tart::bench::Table table({"transport", "payload B", "frames/s", "MiB/s",
                            "rtt p50 us", "rtt p99 us"});
  tart::bench::JsonResult results("net");
  const Result calib = bench_condvar_pingpong();
  std::printf("calibration: condvar ping-pong rtt p50 %.1f us, p99 %.1f us\n",
              calib.rtt_p50_us, calib.rtt_p99_us);
  results.metric("calib_condvar_rtt_p50_us", calib.rtt_p50_us);
  results.metric("calib_condvar_rtt_p99_us", calib.rtt_p99_us);
  const std::vector<std::size_t> payloads =
      smoke ? std::vector<std::size_t>{16, 4096}
            : std::vector<std::size_t>{16, 256, 4096};
  for (const std::size_t payload : payloads) {
    const Result tcp = bench_tcp(payload);
    table.row({"tcp-loopback", tart::bench::fmt("%zu", payload),
               tart::bench::fmt("%.0f", tcp.frames_per_sec),
               tart::bench::fmt("%.1f", tcp.mib_per_sec),
               tart::bench::fmt("%.1f", tcp.rtt_p50_us),
               tart::bench::fmt("%.1f", tcp.rtt_p99_us)});
    const Result link = bench_link(payload);
    table.row({"in-process", tart::bench::fmt("%zu", payload),
               tart::bench::fmt("%.0f", link.frames_per_sec),
               tart::bench::fmt("%.1f", link.mib_per_sec),
               tart::bench::fmt("%.1f", link.rtt_p50_us),
               tart::bench::fmt("%.1f", link.rtt_p99_us)});
    for (const auto& [name, r] :
         {std::pair<const char*, const Result&>{"tcp", tcp},
          std::pair<const char*, const Result&>{"link", link}}) {
      const std::string key = tart::bench::fmt("%s_%zuB", name, payload);
      results.metric(key + "_frames_s", r.frames_per_sec);
      results.metric(key + "_mib_s", r.mib_per_sec);
      results.metric(key + "_rtt_p50_us", r.rtt_p50_us);
      results.metric(key + "_rtt_p99_us", r.rtt_p99_us);
    }
  }
  table.print();
  if (json && !results.write(json_path)) return 1;
  if (smoke) std::printf("smoke ok\n");
  return 0;
}
