// Frame routing between engines, external adapters, and runners.
//
// Data and silence frames flow *with* a wire (to its receiver); probes,
// replay requests and stability acknowledgements flow *against* it (to its
// sender). The Runtime implements this interface, optionally passing
// cross-engine hops through simulated network links.
#pragma once

#include <vector>

#include "common/ids.h"
#include "transport/frame.h"

namespace tart::core {

class FrameRouter {
 public:
  virtual ~FrameRouter() = default;

  /// Delivers a frame to the receiving end of `wire` (component inbox,
  /// reply slot, or external consumer).
  virtual void to_receiver(WireId wire, transport::Frame frame) = 0;

  /// Delivers a burst of data messages on `wire`, in order, as if each
  /// were a DataFrame passed to to_receiver. The messages are moved out;
  /// the emptied vector stays with the caller, which keeps its capacity
  /// for the next burst (nothing is freed on the receiving thread).
  virtual void to_receiver_batch(WireId wire,
                                 std::vector<Message>& batch) = 0;

  /// Delivers a frame to the sending end of `wire` (component runner or
  /// external input adapter).
  virtual void to_sender(WireId wire, transport::Frame frame) = 0;
};

}  // namespace tart::core
