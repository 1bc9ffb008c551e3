// perfbench: the repository benchmark's binary.
//
//   perfbench --workload two_node|fanin|replay --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// Prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. Exits 0
// only when every correctness check passed. perfbench/run.py builds this
// binary from the checkout and forwards its arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

/// Load-generating machinery per workload: client threads that generate or
/// await load, and client sockets into the system under test.
struct LoadShape {
  unsigned threads = 0;
  unsigned connections = 0;
};

LoadShape load_shape(const std::string& workload) {
  if (workload == "two_node") return {3, 4};  // sender, ack reader, poller
  if (workload == "fanin") return {1, 0};
  if (workload == "replay") return {1, 0};
  return {};
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload two_node|fanin|replay --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  perfbench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.traced = value == "1";
      } else if (key == "--out-dir") {
        out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || out_dir.empty() ||
      !(args.seconds > 0 && args.seconds <= 60))
    return usage();

  // Generator honesty: load comes from one process with at most `nproc`
  // generator threads and at most min(4, nproc) connections.
  const LoadShape shape = load_shape(workload);
  if (shape.threads == 0) return usage();
  const unsigned nproc = std::thread::hardware_concurrency();
  if (shape.threads > nproc ||
      shape.connections > std::min(4u, nproc)) {
    std::fprintf(stderr,
                 "perfbench: workload '%s' needs %u generator threads and %u "
                 "connections; this host allows %u and %u\n",
                 workload.c_str(), shape.threads, shape.connections, nproc,
                 std::min(4u, nproc));
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  args.out_dir = out_dir;
  args.work_dir = out_dir + "/work-" + workload + "-" +
                  std::to_string(::getpid());
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }

  const perfbench::HostInfo host = perfbench::probe_host(args.work_dir);
  perfbench::Result result;
  try {
    if (workload == "two_node") {
      result = perfbench::run_two_node(args);
    } else if (workload == "fanin") {
      result = perfbench::run_fanin(args);
    } else {
      result = perfbench::run_replay(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    std::filesystem::remove_all(args.work_dir, ec);
    return 1;
  }
  if (args.traced) {
    result.set("host.memcpy_gbps", host.memcpy_gbps);
    result.set("host.tcp_rtt_us", host.tcp_rtt_us);
    result.set("host.fsync_ms", host.fsync_ms);
  }
  std::filesystem::remove_all(args.work_dir, ec);
  const std::string record = out_dir + "/" + workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.traced ? "1" : "0") + ".json";
  return perfbench::emit(result, host, args.traced, workload, args.seed,
                         record);
}
