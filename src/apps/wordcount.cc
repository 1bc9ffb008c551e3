#include "apps/wordcount.h"

#include <chrono>
#include <thread>
#include <stdexcept>

namespace tart::apps {

void WordCountSender::on_message(core::Context& ctx, PortId /*port*/,
                                 const Payload& payload) {
  const auto& sent = payload.as_strings();
  std::int64_t count = 0;
  for (const auto& word : sent) {
    ctx.count_block(0);
    map_.update(word, [&](std::int64_t& seen) { count += seen++; });
  }
  ctx.send(PortId(0), Payload(count));
}

std::optional<estimator::BlockCounters> WordCountSender::prescient_counters(
    PortId, const Payload& payload) const {
  estimator::BlockCounters c;
  c.count(0, payload.as_strings().size());
  return c;
}

void TotalingMerger::on_message(core::Context& ctx, PortId /*port*/,
                                const Payload& payload) {
  ctx.count_block(0);
  total_.mutate([&](std::int64_t& t) { t += payload.as_int(); });
  ctx.send(PortId(0), Payload(total_.get()));
}

void ScalingService::on_message(core::Context&, PortId, const Payload&) {
  throw std::logic_error("ScalingService accepts calls only");
}

Payload ScalingService::on_call(core::Context& ctx, PortId /*port*/,
                                const Payload& payload) {
  ctx.count_block(0);
  calls_.mutate([](std::int64_t& c) { ++c; });
  return Payload(payload.as_int() * calls_.get());
}

void CallingComponent::on_message(core::Context& ctx, PortId /*port*/,
                                  const Payload& payload) {
  ctx.count_block(0);
  ctx.send(PortId(0), ctx.call(PortId(1), payload));
}

void Passthrough::on_message(core::Context& ctx, PortId /*port*/,
                             const Payload& payload) {
  ctx.count_block(0);
  ctx.send(PortId(0), payload);
}

void SpinService::on_message(core::Context& ctx, PortId /*port*/,
                             const Payload& payload) {
  ctx.count_block(0);
  if (spin_) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(service_ns_);
    while (std::chrono::steady_clock::now() < until) {
      // burn
    }
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(service_ns_));
  }
  ctx.send(PortId(0), payload);
}

Payload sentence(std::initializer_list<const char*> words) {
  std::vector<std::string> v;
  v.reserve(words.size());
  for (const char* w : words) v.emplace_back(w);
  return Payload(std::move(v));
}

Payload sentence(const std::vector<std::string>& words) {
  return Payload(words);
}

}  // namespace tart::apps
