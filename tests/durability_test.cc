// Tests for the durability subsystem (docs/RECOVERY.md): rotated-segment
// stable storage, CRC-protected durable checkpoint files, checkpoint-gated
// compaction accounting in the external message log, and tiered fast
// restart of a whole in-process deployment — including crash-during-
// checkpoint (torn newest file) fallback.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "apps/wordcount.h"
#include "core/runtime.h"
#include "durability/checkpoint_file.h"
#include "durability/manager.h"
#include "durability/replay.h"
#include "estimator/estimator.h"
#include "log/message_log.h"
#include "log/segmented_store.h"

namespace tart {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tart_durability_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// --- SegmentedStore ----------------------------------------------------------

class SegmentedStoreTest : public DurabilityTest {};

TEST_F(SegmentedStoreTest, RotatesAndScansAcrossSegments) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 64;  // frame = 16-byte header + payload -> ~3/segment
  log::SegmentedStore store(dir_.string(), "messages", opts);
  std::vector<std::vector<std::byte>> written;
  for (int i = 0; i < 10; ++i) {
    written.push_back(bytes({i, i + 1}));
    ASSERT_TRUE(store.append(written.back()));
  }
  EXPECT_GT(store.segment_count(), 1u);
  EXPECT_EQ(store.next_index(), 10u);
  EXPECT_EQ(store.first_retained_index(), 0u);
  EXPECT_EQ(store.scan_all(), written);
  EXPECT_GT(store.bytes_on_disk(), 0u);
}

TEST_F(SegmentedStoreTest, TruncateBelowDeletesOnlyWhollySealedSegments) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 64;
  log::SegmentedStore store(dir_.string(), "messages", opts);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.append(bytes({i})));
  const std::uint64_t reclaimed = store.truncate_below(5);
  EXPECT_GT(reclaimed, 0u);
  // The gating invariant: nothing at or above index 5 may be deleted.
  EXPECT_LE(store.first_retained_index(), 5u);
  EXPECT_EQ(store.first_retained_index(), reclaimed);
  EXPECT_EQ(store.scan_all().size(), 10u - reclaimed);
  EXPECT_EQ(store.records_reclaimed(), reclaimed);
  EXPECT_GT(store.segments_deleted(), 0u);

  // Reopen: surviving segments keep their global indices.
  log::SegmentedStore reopened(dir_.string(), "messages", opts);
  EXPECT_EQ(reopened.first_retained_index(), reclaimed);
  EXPECT_EQ(reopened.next_index(), 10u);
  EXPECT_EQ(reopened.scan_all().size(), 10u - reclaimed);
}

TEST_F(SegmentedStoreTest, TruncateNeverDeletesActiveSegment) {
  log::SegmentedStore store(dir_.string(), "messages");  // huge default
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.append(bytes({i})));
  EXPECT_EQ(store.truncate_below(store.next_index()), 0u);
  EXPECT_EQ(store.scan_all().size(), 5u);
  EXPECT_EQ(store.segment_count(), 1u);
}

TEST_F(SegmentedStoreTest, TornActiveTailCutOnReopen) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 1 << 20;
  {
    log::SegmentedStore store(dir_.string(), "messages", opts);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.append(bytes({7, i})));
  }
  // Crash mid-write: chop into the last frame of the active segment.
  std::filesystem::path active;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.path().extension() == ".seg") active = entry.path();
  ASSERT_FALSE(active.empty());
  std::filesystem::resize_file(active,
                               std::filesystem::file_size(active) - 2);

  log::SegmentedStore store(dir_.string(), "messages", opts);
  EXPECT_EQ(store.scan_all().size(), 2u);
  EXPECT_EQ(store.next_index(), 2u);
  // Appends after the cut stay scannable (the torn tail was truncated).
  ASSERT_TRUE(store.append(bytes({9})));
  EXPECT_EQ(store.scan_all().size(), 3u);
}

TEST_F(SegmentedStoreTest, OversizedTailFrameCutOnReopen) {
  std::filesystem::path active;
  {
    log::SegmentedStore store(dir_.string(), "messages");
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.append(bytes({7, i})));
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.path().extension() == ".seg") active = entry.path();
  ASSERT_FALSE(active.empty());
  const auto good = std::filesystem::file_size(active);
  {
    // A torn header with an intact magic and a garbage size.
    std::ofstream f(active, std::ios::binary | std::ios::app);
    const unsigned char frame[] = {0x06, 0x71, 0xA2, 0x54, 0xF0, 0xFF,
                                   0xFF, 0xFF, 0,    0,    0,    0,
                                   0,    0,    0,    0,    1};
    f.write(reinterpret_cast<const char*>(frame), sizeof(frame));
  }
  log::SegmentedStore store(dir_.string(), "messages");
  EXPECT_EQ(store.next_index(), 3u);
  EXPECT_EQ(std::filesystem::file_size(active), good);
  ASSERT_TRUE(store.append(bytes({9})));
  EXPECT_EQ(store.scan_all().size(), 4u);
}

// Opening reads each segment once and hands its records over in global
// order; scan_all() is a real rescan of the files.
TEST_F(SegmentedStoreTest, OpenHandsOverEachRecordFromOneRead) {
  log::SegmentedStore::Options opts;
  opts.segment_bytes = 64;
  std::vector<std::vector<std::byte>> written;
  {
    log::SegmentedStore store(dir_.string(), "messages", opts);
    for (int i = 0; i < 10; ++i) {
      written.push_back(bytes({i, i + 1, i + 2}));
      ASSERT_TRUE(store.append(written.back()));
    }
    ASSERT_GT(store.truncate_below(5), 0u);
  }
  std::uint64_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    if (entry.path().extension() == ".seg") on_disk += entry.file_size();

  std::vector<std::vector<std::byte>> handed;
  log::SegmentedStore store(dir_.string(), "messages", opts,
                            [&handed](std::span<const std::byte> r) {
                              handed.emplace_back(r.begin(), r.end());
                            });
  const auto first = static_cast<std::ptrdiff_t>(store.first_retained_index());
  ASSERT_GT(first, 0);
  EXPECT_EQ(handed, std::vector<std::vector<std::byte>>(written.begin() + first,
                                                        written.end()));
  EXPECT_EQ(store.bytes_read(), on_disk);
  EXPECT_EQ(store.scan_all(), handed);
  EXPECT_EQ(store.bytes_read(), 2 * on_disk);
}

TEST_F(SegmentedStoreTest, AdoptsLegacySingleFileLog) {
  const std::string legacy = (dir_ / "messages.log").string();
  {
    log::FileStableStore old_store(legacy);
    ASSERT_TRUE(old_store.append(bytes({1, 2})));
    ASSERT_TRUE(old_store.append(bytes({3})));
  }
  log::SegmentedStore store(dir_.string(), "messages");
  EXPECT_EQ(store.scan_all().size(), 2u);
  EXPECT_EQ(store.next_index(), 2u);
  EXPECT_FALSE(std::filesystem::exists(legacy));  // renamed to segment 0
}

// --- Checkpoint files --------------------------------------------------------

class CheckpointFileTest : public DurabilityTest {};

durability::DurableCheckpoint sample_checkpoint(std::uint64_t covered) {
  durability::DurableCheckpoint c;
  c.deployment_fp = 0xFEED;
  c.covered_record_index = covered;
  c.wires.push_back(
      durability::WireCover{WireId(4), covered, VirtualTime(900 + covered)});
  checkpoint::RestorePlan plan;
  plan.base.component = ComponentId(2);
  plan.base.version = 3;
  plan.base.vt = VirtualTime(1234);
  plan.base.messages_processed = covered;
  plan.base.state = bytes({42, 43});
  plan.base.inputs.push_back(
      checkpoint::InputPosition{WireId(4), VirtualTime(900), covered});
  checkpoint::ComponentSnapshot delta;
  delta.component = ComponentId(2);
  delta.version = 4;
  delta.is_delta = true;
  delta.vt = VirtualTime(2000);
  plan.deltas.push_back(delta);
  c.plans.emplace(ComponentId(2), std::move(plan));
  return c;
}

TEST_F(CheckpointFileTest, WriteLoadRoundTrip) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint c = sample_checkpoint(17);
  ASSERT_GT(writer.write(c), 0u);
  EXPECT_EQ(c.id, 1u);

  const auto newest = durability::CheckpointReader::load_newest(dir_.string());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->skipped_invalid, 0u);
  const durability::DurableCheckpoint& r = newest->checkpoint;
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.deployment_fp, 0xFEEDu);
  EXPECT_EQ(r.covered_record_index, 17u);
  ASSERT_EQ(r.wires.size(), 1u);
  EXPECT_EQ(r.wires[0].wire, WireId(4));
  EXPECT_EQ(r.wires[0].covered_seq, 17u);
  EXPECT_EQ(r.wires[0].last_vt, VirtualTime(917));
  ASSERT_EQ(r.plans.size(), 1u);
  const auto& plan = r.plans.at(ComponentId(2));
  EXPECT_EQ(plan.base.version, 3u);
  EXPECT_EQ(plan.base.state, bytes({42, 43}));
  ASSERT_EQ(plan.base.inputs.size(), 1u);
  EXPECT_EQ(plan.base.inputs[0].next_seq, 17u);
  ASSERT_EQ(plan.deltas.size(), 1u);
  EXPECT_TRUE(plan.deltas[0].is_delta);
  EXPECT_EQ(plan.deltas[0].version, 4u);
}

TEST_F(CheckpointFileTest, TornNewestFallsBackToPrevious) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint a = sample_checkpoint(5);
  durability::DurableCheckpoint b = sample_checkpoint(9);
  ASSERT_GT(writer.write(a), 0u);
  ASSERT_GT(writer.write(b), 0u);

  // Crash mid-checkpoint: the newest file has a torn tail.
  const std::string newest_path =
      durability::checkpoint_path(dir_.string(), b.id);
  std::filesystem::resize_file(newest_path,
                               std::filesystem::file_size(newest_path) - 3);

  const auto newest = durability::CheckpointReader::load_newest(dir_.string());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->checkpoint.id, a.id);
  EXPECT_EQ(newest->checkpoint.covered_record_index, 5u);
  EXPECT_EQ(newest->skipped_invalid, 1u);
}

TEST_F(CheckpointFileTest, CorruptBodyRejected) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint c = sample_checkpoint(5);
  ASSERT_GT(writer.write(c), 0u);
  const std::string path = durability::checkpoint_path(dir_.string(), c.id);
  // Flip a body byte: size is intact but the fingerprint must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('\xFF');
  f.close();
  EXPECT_FALSE(durability::CheckpointReader::load(path).has_value());
}

TEST_F(CheckpointFileTest, KeepLastPrunesOldCheckpoints) {
  durability::CheckpointWriter writer(dir_.string(), 2);
  for (int i = 0; i < 4; ++i) {
    durability::DurableCheckpoint c = sample_checkpoint(i);
    ASSERT_GT(writer.write(c), 0u);
  }
  const auto files = durability::CheckpointReader::list(dir_.string());
  ASSERT_EQ(files.size(), 2u);
  const auto newest = durability::CheckpointReader::load_newest(dir_.string());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->checkpoint.id, 4u);
}

TEST_F(CheckpointFileTest, WriterResumesAboveExistingAndTornIds) {
  {
    std::ofstream torn(durability::checkpoint_path(dir_.string(), 41));
    torn << "garbage";  // unreadable, but its id must never be reused
  }
  durability::CheckpointWriter writer(dir_.string(), 3);
  EXPECT_EQ(writer.next_id(), 42u);
}

TEST_F(CheckpointFileTest, DeploymentFingerprintMismatchSkipped) {
  durability::CheckpointWriter writer(dir_.string(), 3);
  durability::DurableCheckpoint c = sample_checkpoint(5);
  ASSERT_GT(writer.write(c), 0u);
  EXPECT_FALSE(durability::CheckpointReader::load_newest(dir_.string(), 0x1)
                   .has_value());
  const auto match =
      durability::CheckpointReader::load_newest(dir_.string(), 0xFEED);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->checkpoint.covered_record_index, 5u);
}

// --- Message-log compaction accounting ---------------------------------------

Message external(WireId wire, std::int64_t vt, std::uint64_t seq) {
  Message m;
  m.wire = wire;
  m.vt = VirtualTime(vt);
  m.seq = seq;
  m.payload = Payload(static_cast<std::int64_t>(seq));
  return m;
}

TEST(MessageLogCompactionTest, CoveredRecordIndexStopsAtFirstUncovered) {
  log::ExternalMessageLog log;
  const WireId w0(0), w1(1);
  log.append(external(w0, 100, 0));  // record 0
  log.append(external(w1, 110, 0));  // record 1
  log.append(external(w0, 120, 1));  // record 2
  log.append(external(w1, 130, 1));  // record 3 (w1 seq 1: NOT covered)
  log.append(external(w0, 140, 2));  // record 4

  const std::map<WireId, std::uint64_t> covered{{w0, 2}, {w1, 1}};
  EXPECT_EQ(log.covered_record_index(covered), 3u);
}

TEST(MessageLogCompactionTest, TruncateCoveredPreservesPositionAccounting) {
  log::ExternalMessageLog log;
  const WireId w0(0), w1(1);
  log.append(external(w0, 100, 0));
  log.append(external(w1, 110, 0));
  log.append(external(w0, 120, 1));
  log.append(external(w1, 130, 1));
  log.append(external(w0, 140, 2));

  const std::map<WireId, std::uint64_t> covered{{w0, 2}, {w1, 1}};
  EXPECT_EQ(log.truncate_covered(covered), 3u);
  EXPECT_EQ(log.truncated_messages(), 3u);

  // Retention shrank; sequence/vt accounting did not.
  EXPECT_EQ(log.size(w0), 1u);
  EXPECT_EQ(log.size(w1), 1u);
  EXPECT_EQ(log.next_seq(w0), 3u);
  EXPECT_EQ(log.next_seq(w1), 2u);
  EXPECT_EQ(log.last_vt(w0), VirtualTime(140));
  EXPECT_EQ(log.vt_below(w0, 2), VirtualTime(120));  // answered by the base
  const auto replay = log.replay_from_seq(w0, 0);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].seq, 2u);
}

TEST(MessageLogCompactionTest, SetBaseSeedsPositionsWithoutEntries) {
  log::ExternalMessageLog log;
  const WireId w(3);
  log.set_base(w, 7, VirtualTime(5000));
  EXPECT_EQ(log.size(w), 0u);
  EXPECT_EQ(log.next_seq(w), 7u);
  EXPECT_EQ(log.last_vt(w), VirtualTime(5000));
  EXPECT_EQ(log.vt_below(w, 7), VirtualTime(5000));
}

}  // namespace
}  // namespace tart

// --- Tiered fast restart of a whole in-process deployment --------------------

namespace tart {
namespace {

struct DurableApp {
  core::Topology topo;
  ComponentId s1, s2, merger;
  WireId in1, in2, out;

  DurableApp() {
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

core::RuntimeConfig durable_config(const std::string& log_dir) {
  core::RuntimeConfig config;
  config.log_dir = log_dir;
  config.checkpoint.every_n_messages = 3;
  config.durability.enabled = true;
  config.durability.segment_bytes = 256;  // force rotation in small tests
  return config;
}

void inject_pair(core::Runtime& rt, const DurableApp& app, int i) {
  rt.inject_at(app.in1, VirtualTime(1000 + i * 500'000),
               apps::sentence({"a", "b", "c"}));
  rt.inject_at(app.in2, VirtualTime(700 + i * 400'000),
               apps::sentence({"d", "e"}));
}

/// Waits until everything injected so far has been consumed as far as the
/// silence frontier permits — WITHOUT closing the inputs (drain() closes
/// them forever, and these tests keep injecting). catch_up doubles as
/// exactly this live settle barrier.
void settle(core::Runtime& rt) {
  ASSERT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up)
      << "runtime never settled";
}

class TieredRestartTest : public DurabilityTest {};

TEST_F(TieredRestartTest, RestartFromCheckpointMatchesFullReplayState) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 8; ++i) inject_pair(rt, app, i);
    settle(rt);
    ASSERT_NE(rt.checkpoint_manager(), nullptr);
    const auto stats = rt.checkpoint_manager()->checkpoint_now();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.covered_records, 16u);  // settled: everything covered
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.reclaimed_records, 0u);  // gated compaction ran
    // Post-checkpoint suffix the restart will have to replay.
    for (int i = 8; i < 12; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_TRUE(rt.recovery_info().from_checkpoint);
  EXPECT_GT(rt.recovery_info().covered_records, 0u);
  EXPECT_LT(rt.recovery_info().suffix_records, 24u);
  rt.start();
  const auto replay = durability::ReplayDriver::catch_up(rt);
  EXPECT_TRUE(replay.caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
  // The compacted log plus the restored checkpoint reproduced the exact
  // pre-crash state without replaying the covered prefix.
  rt.stop();
}

TEST_F(TieredRestartTest, TornNewestCheckpointFallsBackAndStillMatches) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  std::uint64_t good_id = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 6; ++i) inject_pair(rt, app, i);
    settle(rt);
    const auto stats = rt.checkpoint_manager()->checkpoint_now();
    ASSERT_TRUE(stats.ok);
    good_id = stats.id;
    for (int i = 6; i < 12; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }

  // Crash DURING a later checkpoint: a torn file with a newer id exists,
  // but — because compaction runs only AFTER a durable write succeeds —
  // it never licensed any truncation. The restart must skip it, boot from
  // the previous checkpoint, and replay the suffix to the identical state.
  {
    std::ofstream torn(durability::checkpoint_path(log_dir, good_id + 1),
                       std::ios::binary);
    torn << "torn mid-write";
  }

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_TRUE(rt.recovery_info().from_checkpoint);
  EXPECT_EQ(rt.recovery_info().skipped_invalid, 1u);
  EXPECT_EQ(rt.recovery_info().checkpoint_id, good_id);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);

  // A later successful checkpoint must never reuse the torn file's id.
  const auto stats = rt.checkpoint_manager()->checkpoint_now();
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_GT(stats.id, good_id + 1);
  rt.stop();
}

TEST_F(TieredRestartTest, NoCheckpointMeansColdReplayStillWorks) {
  const std::string log_dir = dir_.string();
  std::uint64_t fingerprint = 0;
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 5; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    fingerprint = rt.state_fingerprint(app.merger);
    rt.stop();
  }
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_FALSE(rt.recovery_info().from_checkpoint);
  EXPECT_EQ(rt.recovery_info().suffix_records, 10u);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.state_fingerprint(app.merger), fingerprint);
  rt.stop();
}

// A cold restart reads the log once: the bytes it read from segments are
// the bytes the segments hold.
TEST_F(TieredRestartTest, ColdRestartReadsEachSegmentOnce) {
  const std::string log_dir = dir_.string();
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 8; ++i) inject_pair(rt, app, i);
    ASSERT_TRUE(rt.drain());
    rt.stop();
  }
  std::uint64_t on_disk = 0;
  int segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(log_dir))
    if (entry.path().extension() == ".seg") {
      on_disk += entry.file_size();
      ++segments;
    }
  ASSERT_GT(segments, 1);

  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  EXPECT_EQ(rt.recovery_info().suffix_records, 16u);
  EXPECT_EQ(rt.recovery_info().log_bytes_read, on_disk);
  EXPECT_EQ(rt.total_metrics().restart_log_bytes_read, on_disk);
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  rt.stop();
}

TEST_F(TieredRestartTest, RestartKeepsAcceptingAndCheckpointing) {
  const std::string log_dir = dir_.string();
  {
    DurableApp app;
    core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
    rt.start();
    for (int i = 0; i < 4; ++i) inject_pair(rt, app, i);
    settle(rt);
    ASSERT_TRUE(rt.checkpoint_manager()->checkpoint_now().ok);
    rt.stop();
  }
  DurableApp app;
  core::Runtime rt(app.topo, app.placement(), durable_config(log_dir));
  rt.start();
  EXPECT_TRUE(durability::ReplayDriver::catch_up(rt).caught_up);
  // New injections continue the per-wire sequence past the covered prefix.
  inject_pair(rt, app, 50);
  ASSERT_TRUE(rt.drain());
  EXPECT_EQ(rt.external_log().next_seq(app.in1), 5u);
  const auto stats = rt.checkpoint_manager()->checkpoint_now();
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.covered_records, 10u);
  rt.stop();
}

TEST_F(TieredRestartTest, IntervalTriggerWritesCheckpointsAutomatically) {
  const std::string log_dir = dir_.string();
  DurableApp app;
  core::RuntimeConfig config = durable_config(log_dir);
  config.durability.interval_ms = 20;
  core::Runtime rt(app.topo, app.placement(), config);
  rt.start();
  for (int i = 0; i < 4; ++i) inject_pair(rt, app, i);
  ASSERT_TRUE(rt.drain());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.checkpoint_manager()->checkpoints_written() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(rt.checkpoint_manager()->checkpoints_written(), 0u);
  rt.stop();
  EXPECT_FALSE(
      durability::CheckpointReader::list(log_dir).empty());
}

}  // namespace
}  // namespace tart
