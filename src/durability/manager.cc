#include "durability/manager.h"

#include <chrono>
#include <utility>

#include "core/runtime.h"
#include "log/segmented_store.h"
#include "obs/prof.h"

namespace tart::durability {

namespace {

/// Every input wire's checkpointed next-seq, from the newest snapshot in
/// each plan. This — not just the external-wire cover list — is what
/// remote senders need to bound their retention buffers: the consumer can
/// never replay-request below its durably checkpointed position.
std::map<WireId, std::uint64_t> cover_from_plans(
    const std::map<ComponentId, checkpoint::RestorePlan>& plans) {
  std::map<WireId, std::uint64_t> cover;
  for (const auto& [component, plan] : plans) {
    (void)component;
    const checkpoint::ComponentSnapshot& last =
        plan.deltas.empty() ? plan.base : plan.deltas.back();
    for (const auto& in : last.inputs) {
      auto [it, inserted] = cover.emplace(in.wire, in.next_seq);
      if (!inserted && in.next_seq > it->second) it->second = in.next_seq;
    }
  }
  return cover;
}

}  // namespace

CheckpointManager::CheckpointManager(core::Runtime& runtime,
                                     DurabilityConfig config)
    : runtime_(runtime),
      config_(std::move(config)),
      writer_(config_.dir, config_.keep_last) {
  // Seed the cover from the newest on-disk checkpoint so a restarted node
  // advertises accurate bounds in its very first HELLO.
  if (const auto newest =
          CheckpointReader::load_newest(config_.dir, config_.deployment_fp))
    latest_cover_ = cover_from_plans(newest->checkpoint.plans);
}

CheckpointManager::~CheckpointManager() { stop(); }

void CheckpointManager::start() {
  if (config_.interval_ms <= 0 && config_.bytes_trigger == 0) return;
  if (trigger_thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lk(trigger_mu_);
    trigger_stop_ = false;
  }
  trigger_thread_ = std::thread([this] { trigger_loop(); });
}

void CheckpointManager::stop() {
  {
    const std::lock_guard<std::mutex> lk(trigger_mu_);
    trigger_stop_ = true;
  }
  trigger_cv_.notify_all();
  if (trigger_thread_.joinable()) trigger_thread_.join();
}

void CheckpointManager::trigger_loop() {
  using namespace std::chrono;
  // Poll cadence: the configured interval, or a coarse tick for the
  // bytes-only trigger.
  const auto tick = config_.interval_ms > 0
                        ? milliseconds(config_.interval_ms)
                        : milliseconds(50);
  std::uint64_t bytes_at_last = runtime_.log_bytes_on_disk();
  std::unique_lock<std::mutex> lk(trigger_mu_);
  while (!trigger_stop_) {
    trigger_cv_.wait_for(lk, tick);
    if (trigger_stop_) break;
    bool fire = config_.interval_ms > 0;
    if (!fire && config_.bytes_trigger > 0) {
      const std::uint64_t now_bytes = runtime_.log_bytes_on_disk();
      fire = now_bytes >= bytes_at_last + config_.bytes_trigger;
    }
    if (!fire) continue;
    lk.unlock();
    (void)checkpoint_now();
    bytes_at_last = runtime_.log_bytes_on_disk();
    lk.lock();
  }
}

CheckpointStats CheckpointManager::checkpoint_now() {
  const std::lock_guard<std::mutex> lk(ckpt_mu_);
  CheckpointStats stats;

  // 1. Barrier: force a full soft checkpoint of every live component so
  // the exported plans reflect "now", not the last periodic snapshot.
  if (!runtime_.force_component_checkpoints(
          std::chrono::milliseconds(config_.barrier_timeout_ms))) {
    failures_.fetch_add(1);
    stats.error = "checkpoint barrier timed out";
    return stats;
  }

  // 2. Export the plans and derive per-wire coverage from each consumer's
  // checkpointed input position (an external wire has one consumer).
  DurableCheckpoint c;
  c.deployment_fp = config_.deployment_fp;
  c.plans = runtime_.replica().export_plans();
  std::map<WireId, std::uint64_t> cover = cover_from_plans(c.plans);
  std::map<WireId, std::uint64_t> covered;
  for (const WireId wire : runtime_.external_input_wires()) {
    const auto it = cover.find(wire);
    const std::uint64_t covered_seq = it == cover.end() ? 0 : it->second;
    covered.emplace(wire, covered_seq);
    c.wires.push_back(WireCover{
        wire, covered_seq,
        runtime_.external_log().vt_below(wire, covered_seq)});
  }
  c.covered_record_index = runtime_.external_log().covered_record_index(covered);

  // 3. Persist. A failed write gates nothing: the log keeps everything.
  std::uint64_t file_bytes = 0;
  {
    TART_PROF_SPAN("ckpt.write");
    file_bytes = writer_.write(c);
  }
  if (file_bytes == 0) {
    failures_.fetch_add(1);
    stats.error = "checkpoint write failed";
    return stats;
  }
  written_.fetch_add(1);
  bytes_.fetch_add(file_bytes);

  // 4. Compact: the file is durable, so everything it covers may go.
  stats.reclaimed_records = runtime_.compact_below(covered);
  stats.ok = true;
  stats.id = c.id;
  stats.bytes = file_bytes;
  stats.covered_records = c.covered_record_index;

  // Publish the fresh cover; peers bound their retention with it.
  std::function<void(const std::map<WireId, std::uint64_t>&)> hook;
  {
    const std::lock_guard<std::mutex> cover_lk(cover_mu_);
    latest_cover_ = cover;
    hook = on_checkpoint_;
  }
  if (hook) hook(cover);
  return stats;
}

std::map<WireId, std::uint64_t> CheckpointManager::latest_cover() const {
  const std::lock_guard<std::mutex> lk(cover_mu_);
  return latest_cover_;
}

void CheckpointManager::set_on_checkpoint(
    std::function<void(const std::map<WireId, std::uint64_t>&)> fn) {
  const std::lock_guard<std::mutex> lk(cover_mu_);
  on_checkpoint_ = std::move(fn);
}

}  // namespace tart::durability
