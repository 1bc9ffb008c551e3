// Tests for file-backed stable storage: durability across "restarts",
// torn-write tolerance, and write-through persistence of the external
// message log and the determinism-fault log.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "log/fault_log.h"
#include "log/message_log.h"
#include "log/stable_store.h"

namespace tart::log {
namespace {

class StableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tart_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST_F(StableStoreTest, AppendScanRoundTrip) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    EXPECT_TRUE(store.append(bytes({1, 2, 3})));
    EXPECT_TRUE(store.append(bytes({})));
    EXPECT_TRUE(store.append(bytes({42})));
    EXPECT_EQ(store.records_written(), 3u);
  }
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], bytes({1, 2, 3}));
  EXPECT_EQ(records[1], bytes({}));
  EXPECT_EQ(records[2], bytes({42}));
}

TEST_F(StableStoreTest, AppendBatchRoundTripWithOneFlush) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    const std::vector<std::vector<std::byte>> batch = {
        bytes({1, 2}), bytes({}), bytes({3, 4, 5})};
    EXPECT_TRUE(store.append_batch(batch));
    EXPECT_EQ(store.records_written(), 3u);
    // The whole batch became durable at ONE flush — the group commit.
    EXPECT_EQ(store.flushes(), 1u);
    EXPECT_TRUE(store.append(bytes({9})));
    EXPECT_EQ(store.flushes(), 2u);
  }
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], bytes({1, 2}));
  EXPECT_EQ(records[1], bytes({}));
  EXPECT_EQ(records[2], bytes({3, 4, 5}));
  EXPECT_EQ(records[3], bytes({9}));
}

TEST_F(StableStoreTest, EmptyBatchDoesNotFlush) {
  FileStableStore store(path("log"));
  EXPECT_TRUE(store.append_batch({}));
  EXPECT_EQ(store.records_written(), 0u);
  EXPECT_EQ(store.flushes(), 0u);
}

TEST_F(StableStoreTest, TornBatchedWriteRecoversIntactPrefix) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    const std::vector<std::vector<std::byte>> batch = {
        bytes({1, 1}), bytes({2, 2}), bytes({3, 3})};
    ASSERT_TRUE(store.append_batch(batch));
  }
  // Crash mid-batch: the tail of the single batched write never hit disk.
  // The intact per-record frames before the tear must still scan.
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 3);
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], bytes({1, 1}));
  EXPECT_EQ(records[1], bytes({2, 2}));
}

// A short write followed by EFBIG leaves a torn frame at the tail. scan()
// stops at it, so a store that kept appending after the failure would ack
// records no restart can read: it must fail-stop instead.
TEST_F(StableStoreTest, FailedAppendFailsStop) {
  const std::string p = path("log");
  FileStableStore store(p);
  ASSERT_TRUE(store.append_batch(
      std::vector<std::vector<std::byte>>{bytes({1, 1}), bytes({2, 2})}));

  // Cap the file a few bytes past its current size: the next batch's write
  // lands partially, then fails with EFBIG (SIGXFSZ ignored, or it kills).
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = std::filesystem::file_size(p) + 5;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const bool failed_write_ok = store.append_batch(
      std::vector<std::vector<std::byte>>{bytes({3, 3, 3, 3, 3, 3, 3, 3})});
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_FALSE(failed_write_ok);

  // The limit is gone, yet the store stays stopped.
  EXPECT_FALSE(store.append_batch(
      std::vector<std::vector<std::byte>>{bytes({4, 4})}));
  EXPECT_FALSE(store.append(bytes({5})));
  EXPECT_EQ(store.records_written(), 2u);

  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], bytes({1, 1}));
  EXPECT_EQ(records[1], bytes({2, 2}));
}

TEST_F(StableStoreTest, TornBatchHeaderDropsOnlyTornRecord) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    ASSERT_TRUE(store.append_batch(
        std::vector<std::vector<std::byte>>{bytes({5, 5, 5}), bytes({6})}));
  }
  // Tear inside the second record's frame HEADER (frame = 16-byte header
  // + payload: file is 16+3 + 16+1; chop 9 bytes to land mid-header).
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 9);
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], bytes({5, 5, 5}));
}

TEST_F(StableStoreTest, ReopenAppends) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1}));
  }
  {
    FileStableStore store(p);  // process restart
    store.append(bytes({2}));
  }
  EXPECT_EQ(FileStableStore::scan(p).size(), 2u);
}

TEST_F(StableStoreTest, MissingFileScansEmpty) {
  EXPECT_TRUE(FileStableStore::scan(path("nonexistent")).empty());
}

TEST_F(StableStoreTest, TornFinalRecordDropped) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1, 1, 1}));
    store.append(bytes({2, 2, 2}));
  }
  // Simulate a crash mid-write: chop the last few bytes.
  const auto size = std::filesystem::file_size(p);
  std::filesystem::resize_file(p, size - 2);
  const auto records = FileStableStore::scan(p);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], bytes({1, 1, 1}));
}

TEST_F(StableStoreTest, CorruptedChecksumStopsScan) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1, 1, 1}));
    store.append(bytes({2, 2, 2}));
  }
  // Flip a payload byte of the second record (last byte of the file).
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  f.put('\xFF');
  f.close();
  EXPECT_EQ(FileStableStore::scan(p).size(), 1u);
}

// A torn header whose magic survived but whose size field is garbage:
// the scan must not trust (or allocate) that size, and stops there.
TEST_F(StableStoreTest, OversizedFrameSizeEndsScanWithoutAllocating) {
  const std::string p = path("log");
  {
    FileStableStore store(p);
    store.append(bytes({1, 1, 1}));
    store.append(bytes({2, 2}));
  }
  const auto good = std::filesystem::file_size(p);
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    const unsigned char frame[] = {0x06, 0x71, 0xA2, 0x54,   // magic
                                   0xF0, 0xFF, 0xFF, 0xFF,   // 0xFFFFFFF0
                                   1, 2, 3, 4, 5, 6, 7, 8,  // checksum
                                   9, 9, 9};
    f.write(reinterpret_cast<const char*>(frame), sizeof(frame));
  }
  std::uint64_t intact = 0;
  const auto records = FileStableStore::scan(p, &intact);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], bytes({2, 2}));
  EXPECT_EQ(intact, good);

  const auto visited =
      FileStableStore::visit(p, [](std::span<const std::byte>) {});
  EXPECT_EQ(visited.records, 2u);
  EXPECT_EQ(visited.intact_bytes, good);
  EXPECT_EQ(visited.bytes_read, good + 19);
}

TEST_F(StableStoreTest, MessageLogWriteThroughAndRecover) {
  const std::string p = path("messages");
  Message m;
  m.wire = WireId(3);
  m.vt = VirtualTime(50000);
  m.seq = 0;
  m.payload = Payload("sentence");
  {
    ExternalMessageLog log;
    FileStableStore store(p);
    log.attach_store(&store);
    log.append(m);
    Message m2 = m;
    m2.vt = VirtualTime(80000);
    m2.seq = 1;
    log.append(m2);
  }
  // "Restart": a fresh log rebuilt from stable storage serves replay.
  ExternalMessageLog recovered;
  recovered.load_from(p);
  EXPECT_EQ(recovered.size(WireId(3)), 2u);
  const auto replay = recovered.replay_after(WireId(3), VirtualTime(-1));
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].payload.as_string(), "sentence");
  EXPECT_EQ(recovered.last_vt(WireId(3)), VirtualTime(80000));
}

TEST_F(StableStoreTest, MessageLogAppendBatchOneFlushAndRecover) {
  const std::string p = path("messages");
  {
    ExternalMessageLog log;
    FileStableStore store(p);
    log.attach_store(&store);
    std::vector<Message> batch;
    for (int i = 0; i < 5; ++i) {
      Message m;
      m.wire = WireId(i % 2);  // interleave two wires in one batch
      m.seq = static_cast<std::uint64_t>(i / 2);
      m.vt = VirtualTime(1000 * (i + 1));
      m.payload = Payload(static_cast<std::int64_t>(i));
      batch.push_back(std::move(m));
    }
    EXPECT_TRUE(log.append_batch(batch));
    EXPECT_EQ(store.records_written(), 5u);
    EXPECT_EQ(store.flushes(), 1u);
  }
  ExternalMessageLog recovered;
  recovered.load_from(p);
  EXPECT_EQ(recovered.size(WireId(0)), 3u);
  EXPECT_EQ(recovered.size(WireId(1)), 2u);
  const auto replay = recovered.replay_after(WireId(0), VirtualTime(-1));
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].payload.as_int(), 0);
  EXPECT_EQ(replay[2].payload.as_int(), 4);
}

TEST_F(StableStoreTest, FaultLogWriteThroughAndRecover) {
  const std::string p = path("faults");
  {
    DeterminismFaultLog log;
    FileStableStore store(p);
    log.attach_store(&store);
    log.append(FaultRecord{ComponentId(1), 1, VirtualTime(100'000'000),
                           {0.0, 62000.0}});
    log.append(FaultRecord{ComponentId(1), 2, VirtualTime(200'000'000),
                           {0.0, 61500.0}});
  }
  DeterminismFaultLog recovered;
  recovered.load_from(p);
  EXPECT_EQ(recovered.latest_version(ComponentId(1)), 2u);
  const auto records = recovered.records_after(ComponentId(1), 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].coefficients[1], 62000.0);
  EXPECT_EQ(records[1].effective_vt, VirtualTime(200'000'000));
}

TEST_F(StableStoreTest, FaultRecordCodecRoundTrip) {
  FaultRecord rec{ComponentId(7), 3, VirtualTime::infinity(), {1.5, -2.25}};
  serde::Writer w;
  rec.encode(w);
  serde::Reader r(w.bytes());
  const FaultRecord d = FaultRecord::decode(r);
  EXPECT_EQ(d.component, rec.component);
  EXPECT_EQ(d.version, 3u);
  EXPECT_TRUE(d.effective_vt.is_infinite());
  EXPECT_EQ(d.coefficients, rec.coefficients);
}

}  // namespace
}  // namespace tart::log

// --- Cold restart of a whole deployment from stable storage ------------------

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "estimator/estimator.h"

namespace tart::log {
namespace {

struct ColdApp {
  core::Topology topo;
  ComponentId s1, s2, merger;
  WireId in1, in2, out;

  ColdApp() {
    s1 = topo.add("s1", [] {
      return std::make_unique<apps::WordCountSender>();
    });
    s2 = topo.add("s2", [] {
      return std::make_unique<apps::WordCountSender>();
    });
    merger = topo.add("m", [] {
      return std::make_unique<apps::TotalingMerger>();
    });
    for (const auto c : {s1, s2}) {
      topo.set_estimator(c, [] {
        return estimator::per_iteration_estimator(61000.0);
      });
    }
    in1 = topo.external_input(s1, PortId(0));
    in2 = topo.external_input(s2, PortId(0));
    topo.connect(s1, PortId(0), merger, PortId(0));
    topo.connect(s2, PortId(0), merger, PortId(0));
    out = topo.external_output(merger, PortId(0));
  }

  [[nodiscard]] std::map<ComponentId, EngineId> placement() const {
    return {{s1, EngineId(0)}, {s2, EngineId(0)}, {merger, EngineId(0)}};
  }
};

using Observed = std::vector<std::pair<std::int64_t, std::int64_t>>;

Observed observed(core::Runtime& rt, WireId out) {
  Observed result;
  for (const auto& r : rt.output_records(out))
    result.emplace_back(r.vt.ticks(), r.payload.as_int());
  return result;
}

class ColdRestartTest : public StableStoreTest {};

TEST_F(ColdRestartTest, WholeDeploymentRecoversFromLogDirectory) {
  const std::string log_dir = (dir_).string();
  Observed first_run;
  std::uint64_t first_fingerprint = 0;
  {
    ColdApp app;
    core::RuntimeConfig config;
    config.log_dir = log_dir;
    core::Runtime rt(app.topo, app.placement(), config);
    rt.start();
    for (int i = 0; i < 10; ++i) {
      rt.inject_at(app.in1, VirtualTime(1000 + i * 500'000),
                   apps::sentence({"a", "b", "c"}));
      rt.inject_at(app.in2, VirtualTime(700 + i * 400'000),
                   apps::sentence({"d", "e"}));
    }
    ASSERT_TRUE(rt.drain());
    first_run = observed(rt, app.out);
    first_fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
    // The process "dies" here: all in-memory state (including the passive
    // replica) is gone; only the log directory survives.
  }

  ColdApp app;
  core::RuntimeConfig config;
  config.log_dir = log_dir;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();  // replays the recovered log automatically
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(observed(rt, app.out), first_run);
  EXPECT_EQ(rt.state_fingerprint(app.merger), first_fingerprint);
  rt.stop();
}

TEST_F(ColdRestartTest, RestartContinuesAcceptingNewInput) {
  const std::string log_dir = (dir_).string();
  {
    ColdApp app;
    core::RuntimeConfig config;
    config.log_dir = log_dir;
    core::Runtime rt(app.topo, app.placement(), config);
    rt.start();
    rt.inject_at(app.in1, VirtualTime(1000), apps::sentence({"x", "y"}));
    rt.inject_at(app.in2, VirtualTime(900), apps::sentence({"z"}));
    ASSERT_TRUE(rt.drain());
    rt.stop();
  }
  ColdApp app;
  core::RuntimeConfig config;
  config.log_dir = log_dir;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  // New injections continue the per-wire sequence past the recovered log.
  rt.inject_at(app.in1, VirtualTime(10'000'000), apps::sentence({"x"}));
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.output_records(app.out).size(), 3u);
  EXPECT_EQ(rt.external_log().size(app.in1), 2u);
  rt.stop();
}


TEST_F(ColdRestartTest, ResumesFromPersistedCheckpoints) {
  const std::string log_dir = (dir_).string();
  core::RuntimeConfig config;
  config.log_dir = log_dir;
  config.checkpoint.every_n_messages = 3;

  std::uint64_t fingerprint = 0;
  std::int64_t final_total = 0;
  {
    ColdApp app;
    core::Runtime rt(app.topo, app.placement(), config);
    rt.start();
    for (int i = 0; i < 12; ++i) {
      rt.inject_at(app.in1, VirtualTime(1000 + i * 500'000),
                   apps::sentence({"a", "b", "c"}));
      rt.inject_at(app.in2, VirtualTime(700 + i * 400'000),
                   apps::sentence({"d", "e"}));
    }
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    const auto records = observed(rt, app.out);
    final_total = records.back().second;
    rt.stop();
  }

  // Cold restart 1: checkpoints come back from replica.log, the log tail
  // replays, and the deployment ends bit-identical.
  {
    ColdApp app;
    core::Runtime rt(app.topo, app.placement(), config);
    EXPECT_GT(rt.replica().latest_version(app.merger), 0u);
    rt.start();
    ASSERT_TRUE(rt.drain());
    EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
    rt.stop();
  }

  // Cold restart 2: the restarted deployment keeps running — repeated
  // words hit the restored vocabulary, so the total strictly grows.
  ColdApp app;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  rt.inject_at(app.in1, VirtualTime(100'000'000),
               apps::sentence({"a", "b", "c"}));
  ASSERT_TRUE(rt.drain());
  const auto records = observed(rt, app.out);
  ASSERT_FALSE(records.empty());
  EXPECT_GT(records.back().second, final_total);
  rt.stop();
}

}  // namespace
}  // namespace tart::log
