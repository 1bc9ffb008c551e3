// Shared harness for the multi-process tests: forked tart-node children
// under RAII guards, and a typed client for a node's HTTP gateway — the
// only way to operate a node.
//
// Failure discipline: nothing here aborts. A connect that times out is a
// test failure plus nullopt, so the caller returns; a transport error
// throws, which gtest reports as a failure of the test body. Either way the
// stack unwinds through every NodeProc, which SIGKILLs and reaps its child,
// so a failed test never leaves tart-node processes behind.
//
// Needs TART_NODE_BIN and TART_TRACE_BIN (tests/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gateway/http_client.h"
#include "net/socket.h"
#include "obs/codec.h"

namespace tart::nodetest {

inline std::uint16_t free_port() {
  std::string err;
  net::Fd fd = net::listen_tcp(*net::SockAddr::parse("127.0.0.1:0"), &err);
  EXPECT_TRUE(fd.valid()) << err;
  return net::local_port(fd.get());
}

/// Fresh directory "/tmp/<prefix>_XXXXXX".
inline std::string make_temp_dir(const std::string& prefix) {
  std::string tmpl = "/tmp/" + prefix + "_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A deployment file plus the HTTP address each partition's node serves.
struct Deployment {
  std::string config_path;
  std::map<std::string, std::string> http;  ///< partition -> host:port
};

/// Writes `<dir>/deploy.conf`: the `preamble` (topology and params), one
/// loopback `partition` line per name, and `placement` (component ->
/// partition). Data and HTTP ports are fresh.
inline Deployment write_deployment(
    const std::string& dir, const std::string& preamble,
    const std::vector<std::string>& partitions,
    const std::vector<std::pair<std::string, std::string>>& placement) {
  Deployment d;
  d.config_path = dir + "/deploy.conf";
  std::string text = preamble;
  for (const std::string& p : partitions) {
    text += "partition " + p + " = 127.0.0.1:" + std::to_string(free_port()) +
            "\n";
    d.http[p] = "127.0.0.1:" + std::to_string(free_port());
  }
  for (const auto& [component, partition] : placement)
    text += "place " + component + " = " + partition + "\n";
  write_file(d.config_path, text);
  return d;
}

/// One `tart-node <config> <partition> --http=<addr> <extra...>` child.
/// SIGKILLs and reaps on destruction unless reaped first.
class NodeProc {
 public:
  NodeProc(const Deployment& d, const std::string& partition,
           const std::vector<std::string>& extra)
      : partition_(partition) {
    std::vector<std::string> args = {TART_NODE_BIN, d.config_path, partition,
                                     "--http=" + d.http.at(partition)};
    args.insert(args.end(), extra.begin(), extra.end());
    pid_ = fork();
    if (pid_ == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(TART_NODE_BIN, argv.data());
      _exit(127);
    }
  }

  ~NodeProc() {
    if (pid_ <= 0) return;
    // A node that died on its own before the guard fired is worth a line:
    // it explains a failed connect or a missing answer above.
    int code = 0;
    if (try_reap(&code)) {
      std::fprintf(stderr, "[tart-node %s had already exited: %s %d]\n",
                   partition_.c_str(), died_of_ < 0 ? "code" : "signal",
                   died_of_ < 0 ? code : died_of_);
      return;
    }
    ::kill(pid_, SIGKILL);
    (void)reap();
  }

  NodeProc(const NodeProc&) = delete;
  NodeProc& operator=(const NodeProc&) = delete;

  void kill9() const { ASSERT_EQ(::kill(pid_, SIGKILL), 0); }

  /// Waits and returns the exit code (-1: signaled or not exited).
  int reap() {
    if (pid_ <= 0) return -1;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Non-blocking reap. A dead child stays a zombie until waitpid, so
  /// `kill(pid, 0)` keeps succeeding — this is the only reliable death
  /// probe. Returns true once the child exited; *code gets the exit code
  /// (-1: signaled).
  bool try_reap(int* code) {
    if (pid_ <= 0) return false;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    *code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    died_of_ = WIFSIGNALED(status) ? WTERMSIG(status) : -1;
    return true;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  std::string partition_;
  pid_t pid_ = -1;
  int died_of_ = -1;  ///< terminating signal seen by try_reap, -1 if none
};

/// One GET /outputs line: "vt\tstutter\torigin\tpayload". The origin column
/// (the originating ingest's WIRE:SEQ lineage tag, "-" when unstamped) must
/// be well-formed but is dropped from the value: origins name log
/// positions, which differ between a live run and its recovery replay while
/// vt/payload must not.
struct OutputLine {
  std::int64_t vt;
  bool stutter;
  std::string payload;
  bool operator==(const OutputLine&) const = default;
};

inline std::vector<OutputLine> parse_outputs(const std::string& body) {
  std::vector<OutputLine> lines;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    const auto t1 = line.find('\t');
    const auto t2 = line.find('\t', t1 + 1);
    const auto t3 = line.find('\t', t2 + 1);
    EXPECT_NE(t1, std::string::npos) << line;
    EXPECT_NE(t2, std::string::npos) << line;
    EXPECT_NE(t3, std::string::npos) << line;
    const std::string origin = line.substr(t2 + 1, t3 - t2 - 1);
    EXPECT_TRUE(origin == "-" || origin.find(':') != std::string::npos)
        << line;
    lines.push_back({std::stoll(line.substr(0, t1)),
                     line.substr(t1 + 1, t2 - t1 - 1) == "1",
                     line.substr(t3 + 1)});
  }
  return lines;
}

/// Value text of `"key":` in the flat JSON objects /checkpoint and
/// /migrate answer with ("" when absent; strings unquoted).
inline std::string json_field(const std::string& body, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = body.find(tag);
  if (at == std::string::npos) return "";
  const auto start = at + tag.size();
  if (start < body.size() && body[start] == '"') {
    const auto end = body.find('"', start + 1);
    return body.substr(start + 1, end - start - 1);
  }
  return body.substr(start, body.find_first_of(",}", start) - start);
}

/// POST /checkpoint answer (the fields the tests check).
struct CheckpointResult {
  bool ok = false;
  std::uint64_t bytes = 0;
  std::uint64_t covered_records = 0;
  std::uint64_t reclaimed_records = 0;
  std::string error;
};

/// POST /migrate answer (the fields the tests check).
struct MigrateResult {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::uint64_t slice_bytes = 0;
  double transfer_ms = 0;
  double blackout_ms = 0;
  std::string error;
};

/// Typed calls over one kept-alive connection to a node's gateway. Every
/// call throws std::runtime_error on a transport failure.
class NodeClient {
 public:
  explicit NodeClient(gateway::BlockingHttpClient http)
      : http_(std::move(http)) {}

  /// The raw connection, for tests that check HTTP itself.
  [[nodiscard]] gateway::BlockingHttpClient& http() { return http_; }

  [[nodiscard]] bool healthy() { return http_.get("/healthz").status == 200; }

  /// Injects one sentence at a scripted virtual time; returns the vt the
  /// node assigned, or -1 (a reported failure) when it refused.
  std::int64_t inject(const std::string& input, std::int64_t vt,
                      const std::vector<std::string>& words) {
    std::string body;
    for (const auto& w : words) body += (body.empty() ? "" : " ") + w;
    const auto resp = http_.post(
        "/inject/" + input + "?vt=" + std::to_string(vt), body, "text/plain");
    if (resp.status != 200) {
      ADD_FAILURE() << "inject " << input << "@" << vt << " -> "
                    << resp.status << ": " << resp.body;
      return -1;
    }
    return std::stoll(*resp.header("X-Tart-Vt"));
  }

  /// True when the node quiesced within `timeout`.
  [[nodiscard]] bool drain(std::chrono::milliseconds timeout) {
    return http_
               .post("/drain?timeout_ms=" + std::to_string(timeout.count()),
                     "")
               .status == 200;
  }

  [[nodiscard]] std::vector<OutputLine> outputs(const std::string& output) {
    const auto resp = http_.get("/outputs/" + output + "?max=1000000");
    EXPECT_EQ(resp.status, 200) << resp.body;
    return parse_outputs(resp.body);
  }

  /// GET /obs: merged metrics, registry samples and status with placement.
  [[nodiscard]] obs::NodeObs obs() {
    const auto resp = http_.get("/obs");
    if (resp.status != 200)
      throw std::runtime_error("GET /obs -> " + std::to_string(resp.status));
    return obs::decode_node_obs(resp.body);
  }
  [[nodiscard]] core::MetricsSnapshot metrics() { return obs().metrics; }
  [[nodiscard]] std::vector<obs::Sample> obs_samples() {
    return obs().samples;
  }
  [[nodiscard]] core::StatusReport status() { return obs().status; }

  [[nodiscard]] CheckpointResult checkpoint() {
    const auto resp = http_.post("/checkpoint", "");
    const auto u64 = [&](const char* key) {
      return std::strtoull(json_field(resp.body, key).c_str(), nullptr, 10);
    };
    CheckpointResult r;
    r.ok = resp.status == 200 && json_field(resp.body, "ok") == "true";
    r.bytes = u64("bytes");
    r.covered_records = u64("covered_records");
    r.reclaimed_records = u64("reclaimed_records");
    r.error = r.ok ? "" : resp.body;
    return r;
  }

  /// Live-migrates `component` to `to_node`; sent to the current owner,
  /// blocks until cutover or failure.
  [[nodiscard]] MigrateResult migrate(const std::string& component,
                                      const std::string& to_node) {
    const auto resp = http_.post(
        "/migrate?component=" + component + "&to=" + to_node, "");
    const auto u64 = [&](const char* key) {
      return std::strtoull(json_field(resp.body, key).c_str(), nullptr, 10);
    };
    const auto f64 = [&](const char* key) {
      return std::strtod(json_field(resp.body, key).c_str(), nullptr);
    };
    MigrateResult r;
    r.ok = resp.status == 200 && json_field(resp.body, "ok") == "true";
    r.epoch = u64("epoch");
    r.slice_bytes = u64("slice_bytes");
    r.transfer_ms = f64("transfer_ms");
    r.blackout_ms = f64("blackout_ms");
    r.error = r.ok ? "" : resp.body;
    return r;
  }

  void shutdown_node() {
    const auto resp = http_.post("/shutdown", "");
    EXPECT_EQ(resp.status, 200) << resp.body;
  }

 private:
  gateway::BlockingHttpClient http_;
};

/// Connects to a node's gateway, retrying while it boots (start() replays
/// the log before the gateway opens). A timeout is a test failure plus
/// nullopt — callers ASSERT on the result and return.
[[nodiscard]] inline std::optional<NodeClient> connect_node(
    const std::string& addr,
    std::chrono::milliseconds timeout = std::chrono::seconds(20)) {
  auto http = gateway::BlockingHttpClient::connect(addr, timeout);
  if (!http) {
    ADD_FAILURE() << "http connect to " << addr << " timed out";
    return std::nullopt;
  }
  return NodeClient(std::move(*http));
}

/// `tart-trace diff a b --recovery`; returns its exit code.
inline int run_trace_diff(const std::string& a, const std::string& b) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl(TART_TRACE_BIN, TART_TRACE_BIN, "diff", a.c_str(), b.c_str(),
          "--recovery", static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace tart::nodetest
