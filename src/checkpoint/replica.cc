#include "checkpoint/replica.h"

#include "trace/recorder.h"

namespace tart::checkpoint {

bool ReplicaStore::store(ComponentSnapshot snapshot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bytes_ += snapshot.encoded_size();
  ++count_;
  if (store_ != nullptr) {
    serde::Writer w;
    snapshot.encode(w);
    store_->append(w.bytes());
  }
  const ComponentId component = snapshot.component;
  const VirtualTime vt = snapshot.vt;
  const std::uint64_t version = snapshot.version;
  const bool accepted = store_locked(std::move(snapshot));
  // Acceptance is what makes the checkpoint durable — a rejected delta
  // never becomes part of a restore plan, so only acceptance is a
  // scheduling event.
  if (accepted && trace_ != nullptr)
    trace_->record(component, trace::TraceEventKind::kCheckpoint, vt,
                   WireId::invalid(), version);
  if (accepted) accepted_.notify_all();  // the checkpoint barrier waits
  return accepted;
}

void ReplicaStore::set_trace(trace::TraceRecorder* recorder) {
  const std::lock_guard<std::mutex> lock(mutex_);
  trace_ = recorder;
}

bool ReplicaStore::store_locked(ComponentSnapshot snapshot) {
  auto it = plans_.find(snapshot.component);
  if (!snapshot.is_delta) {
    RestorePlan plan;
    plan.base = std::move(snapshot);
    plans_.insert_or_assign(plan.base.component, std::move(plan));
    return true;
  }
  if (it == plans_.end()) return false;  // delta with no base
  RestorePlan& plan = it->second;
  const std::uint64_t expected =
      plan.deltas.empty() ? plan.base.version + 1
                          : plan.deltas.back().version + 1;
  if (snapshot.version != expected) return false;  // chain broken
  plan.deltas.push_back(std::move(snapshot));
  return true;
}

void ReplicaStore::attach_store(log::FileStableStore* store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
}

void ReplicaStore::load_from(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& record : log::FileStableStore::scan(path)) {
    serde::Reader r(record);
    (void)store_locked(ComponentSnapshot::decode(r));
  }
}

std::optional<RestorePlan> ReplicaStore::restore(ComponentId component) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = plans_.find(component);
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t ReplicaStore::latest_version(ComponentId component) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return latest_version_locked(component);
}

bool ReplicaStore::wait_past(
    const std::map<ComponentId, std::uint64_t>& past,
    std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return accepted_.wait_until(lock, deadline, [&] {
    for (const auto& [component, version] : past)
      if (latest_version_locked(component) <= version) return false;
    return true;
  });
}

std::uint64_t ReplicaStore::latest_version_locked(
    ComponentId component) const {
  const auto it = plans_.find(component);
  if (it == plans_.end()) return 0;
  const RestorePlan& plan = it->second;
  return plan.deltas.empty() ? plan.base.version
                             : plan.deltas.back().version;
}

std::map<ComponentId, RestorePlan> ReplicaStore::export_plans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return plans_;
}

void ReplicaStore::import_plan(ComponentId component, RestorePlan plan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  plans_.insert_or_assign(component, std::move(plan));
}

std::uint64_t ReplicaStore::bytes_received() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t ReplicaStore::snapshots_received() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

void ReplicaStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
  bytes_ = 0;
  count_ = 0;
}

}  // namespace tart::checkpoint
