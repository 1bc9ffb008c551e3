#include "core/engine.h"

#include <algorithm>
#include <cassert>

namespace tart::core {

Engine::Engine(EngineId id, const Topology& topology,
               const RuntimeConfig& config, FrameRouter& router,
               log::DeterminismFaultLog& fault_log,
               checkpoint::ReplicaStore& replica, obs::Registry& registry,
               Quiescence& quiescence, trace::TraceRecorder* tracer)
    : id_(id),
      topology_(topology),
      config_(config),
      router_(router),
      fault_log_(fault_log),
      replica_(replica),
      registry_(registry),
      quiescence_(quiescence),
      tracer_(tracer) {}

Engine::~Engine() { stop(); }

void Engine::add_component(ComponentId component) {
  assert(!started_.load());
  placed_.push_back(component);
}

Engine::RunnerMap Engine::make_runners() const {
  std::vector<ComponentId> placed;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    placed = placed_;
  }
  RunnerMap runners;
  for (const ComponentId c : placed) {
    runners.emplace(c, std::make_shared<ComponentRunner>(
                           topology_, c, config_, router_, fault_log_,
                           replica_, registry_, quiescence_, tracer_));
  }
  return runners;
}

std::shared_ptr<ComponentRunner> Engine::runner(ComponentId component) const {
  const std::lock_guard<std::mutex> lk(map_mu_);
  if (crashed_.load()) return nullptr;
  const auto it = runners_.find(component);
  return it == runners_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<ComponentRunner>> Engine::pin_all() const {
  std::vector<std::shared_ptr<ComponentRunner>> out;
  const std::lock_guard<std::mutex> lk(map_mu_);
  if (crashed_.load()) return out;
  out.reserve(runners_.size());
  for (const auto& [c, r] : runners_) out.push_back(r);
  return out;
}

void Engine::start() {
  launch(false);
  started_ = true;
  if (config_.silence.aggressive_interval.count() > 0 &&
      !aggressive_thread_.joinable()) {
    aggressive_thread_ = std::thread([this] { aggressive_loop(); });
  }
}

void Engine::stop() {
  {
    const std::lock_guard<std::mutex> lk(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (aggressive_thread_.joinable()) aggressive_thread_.join();
  for (const auto& r : pin_all()) r->stop();
}

void Engine::crash() {
  // Swap the map out under the brief lock; in-flight dispatches still pin
  // the old runners and complete harmlessly against dying objects.
  RunnerMap dead;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    crashed_ = true;
    dead = std::move(runners_);
    runners_.clear();
  }
  // Join the scheduler threads with no lock held (they may be routing
  // frames into this very engine).
  for (auto& [c, r] : dead) r->stop();
  if (tracer_ != nullptr) {
    for (const ComponentId c : components())
      tracer_->record(c, trace::TraceEventKind::kCrash, VirtualTime(-1),
                      WireId::invalid(), id_.value());
  }
  // Fail-stop: state dies when the last in-flight pin expires.
}

void Engine::recover() {
  assert(crashed_.load());
  launch(true);
}

void Engine::launch(bool recovering) {
  // Starting is the same protocol as recovering: restore whatever the
  // replica holds (nullopt -> fresh component) and request replay past the
  // restored positions. On a fresh deployment the requests are no-ops; on
  // a cold restart over persisted state they resume the execution.
  RunnerMap runners = make_runners();
  for (auto& [c, r] : runners) restore(*r, replica_.restore(c), recovering);
  // Request replays before the scheduler threads start: request_replays
  // reads the restored input positions, which the running threads mutate.
  // Replayed frames arriving before start() simply queue in the inboxes —
  // but only once the map is published and crashed_ cleared.
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    runners_ = std::move(runners);
    crashed_ = false;
  }
  for (const auto& r : pin_all()) r->request_replays();
  for (const auto& r : pin_all()) r->start();
}

void Engine::restore(ComponentRunner& r,
                     const std::optional<checkpoint::RestorePlan>& plan,
                     bool mark_fresh) {
  // The marker tells the trace differ (diff --recovery) which dispatch
  // prefix the restored plan covers. A recovered or adopted component that
  // never checkpointed gets one too (the differ licenses its replayed
  // stutter); a first start without persisted state gets none, since its
  // trace must match a never-failed run exactly.
  if (tracer_ != nullptr && (plan || mark_fresh)) {
    const checkpoint::ComponentSnapshot* last =
        plan ? (plan->deltas.empty() ? &plan->base : &plan->deltas.back())
             : nullptr;
    tracer_->record(r.id(), trace::TraceEventKind::kRecoveryStart,
                    last != nullptr ? last->vt : VirtualTime(-1),
                    WireId::invalid(), last != nullptr ? last->version : 0);
  }
  r.restore_from(plan);
}

void Engine::deliver_to_receiver(WireId wire, const transport::Frame& frame) {
  const auto& spec = topology_.wire(wire);
  const auto r = runner(spec.to);
  if (r == nullptr) return;  // crashed: the machine is gone, frames lost

  if (const auto* data = std::get_if<transport::DataFrame>(&frame)) {
    if (spec.kind == WireKind::kReply) {
      r->deliver_reply(data->msg);
    } else {
      r->deliver_data(data->msg);
    }
  } else if (const auto* silence =
                 std::get_if<transport::SilenceFrame>(&frame)) {
    r->deliver_silence(silence->wire, silence->through,
                       silence->expected_seq);
  }
}

void Engine::deliver_batch(WireId wire, std::vector<Message>& batch) {
  const auto& spec = topology_.wire(wire);
  const auto r = runner(spec.to);
  if (r == nullptr) return;  // crashed: the machine is gone, frames lost
  if (spec.kind == WireKind::kReply) {
    for (const Message& m : batch) r->deliver_reply(m);
  } else {
    r->deliver_batch(batch);
  }
}

void Engine::deliver_to_sender(WireId wire, const transport::Frame& frame) {
  const auto& spec = topology_.wire(wire);
  const auto r = runner(spec.from);
  if (r == nullptr) return;

  if (std::holds_alternative<transport::ProbeFrame>(frame)) {
    r->handle_probe(wire);
  } else if (const auto* replay =
                 std::get_if<transport::ReplayRequestFrame>(&frame)) {
    r->enqueue_control(
        ReplayRequestCtl{replay->wire, replay->after, replay->from_seq});
  } else if (const auto* stability =
                 std::get_if<transport::StabilityFrame>(&frame)) {
    r->enqueue_control(StabilityCtl{stability->wire, stability->through});
  }
}

bool Engine::all_exhausted() const {
  if (crashed_.load()) return false;
  std::vector<std::shared_ptr<ComponentRunner>> runners;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    if (runners_.size() != placed_.size()) return false;
    runners.reserve(runners_.size());
    for (const auto& [c, r] : runners_) runners.push_back(r);
  }
  for (const auto& r : runners)
    if (!r->exhausted()) return false;
  return true;
}

std::vector<ComponentId> Engine::components() const {
  const std::lock_guard<std::mutex> lk(map_mu_);
  return placed_;
}

bool Engine::adopt_component(
    ComponentId component, const std::optional<checkpoint::RestorePlan>& plan) {
  if (crashed_.load()) return false;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    if (runners_.count(component) != 0) return false;
  }
  auto r = std::make_shared<ComponentRunner>(
      topology_, component, config_, router_, fault_log_, replica_, registry_,
      quiescence_, tracer_);
  restore(*r, plan, true);  // adoption IS recovery on a new node
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    if (!runners_.emplace(component, r).second) return false;  // raced adopt
    placed_.push_back(component);
  }
  r->request_replays();
  r->start();
  return true;
}

std::optional<std::vector<ComponentRunner::SilenceUpdate>>
Engine::evict_component(ComponentId component) {
  std::shared_ptr<ComponentRunner> r;
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    const auto it = runners_.find(component);
    if (it == runners_.end()) return std::nullopt;
    r = it->second;
    runners_.erase(it);
    placed_.erase(std::remove(placed_.begin(), placed_.end(), component),
                  placed_.end());
  }
  // Join the scheduler thread with no lock held (it may be routing frames).
  r->stop();
  return r->seal_outputs();
}

void Engine::aggressive_loop() {
  std::unique_lock<std::mutex> lk(timer_mu_);
  while (!timer_stop_) {
    timer_cv_.wait_for(lk, config_.silence.aggressive_interval);
    if (timer_stop_) return;
    lk.unlock();
    for (const auto& r : pin_all()) {
      for (const auto& u : r->collect_silence_updates())
        router_.to_receiver(
            u.wire,
            transport::SilenceFrame{u.wire, u.through, u.expected_seq});
    }
    lk.lock();
  }
}

}  // namespace tart::core
