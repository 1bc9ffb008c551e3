// ConnectionManager: one TCP connection per peer, kept alive forever.
//
// Each unordered pair of nodes shares a single full-duplex connection; the
// lexicographically smaller node name dials, the larger accepts — so a
// partition never races two sockets for the same pair. The dialer redials
// forever with exponential backoff plus deterministic jitter; the acceptor
// adopts a replacement connection whenever the peer comes back (kicking
// the stale fd). Both sides exchange a HELLO carrying the node name and
// the deployment-config fingerprint; a mismatch is refused — two nodes
// built from different configs would disagree about wire ids, which is a
// determinism violation, not a retryable fault.
//
// Liveness: every heartbeat_interval each side sends a heartbeat (any
// inbound byte counts as life); a peer silent for miss_limit intervals is
// declared down — surfaced as a link event so the host can re-probe the
// wires behind it once the link returns. Frame loss across a down window
// is *expected* here: the TART protocol layers above (retention buffers,
// sequence-gap replay, curiosity probes) already recover lost frames, so
// the net layer only promises FIFO delivery per connection incarnation,
// exactly the contract real links give.
//
// Backpressure: per-peer outbound queues are bounded (frames); send()
// refuses — never blocks — when the peer is down or the queue is full.
// Refused sends are counted and healed by the protocol's replay machinery.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire_format.h"
#include "transport/frame.h"

namespace tart::net {

struct NetTuning {
  std::chrono::milliseconds heartbeat_interval{200};
  /// Intervals of silence before a peer is declared dead.
  int heartbeat_miss_limit = 5;
  std::chrono::milliseconds reconnect_min{50};
  std::chrono::milliseconds reconnect_max{2000};
  /// Per-peer outbound queue bound, in frames.
  std::size_t max_queued_frames = 4096;
  /// Seed for backoff jitter (deterministic per process).
  std::uint64_t jitter_seed = 0x7EA7;
};

/// Aggregate counters over every peer connection (monotone).
struct NetCounters {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;   ///< transport frames (not heartbeats/hellos)
  std::uint64_t frames_out = 0;
  std::uint64_t msgs_in = 0;   ///< non-frame peer messages (placement/stream)
  std::uint64_t msgs_out = 0;
  std::uint64_t connects = 0;    ///< link-up transitions, first included
  std::uint64_t reconnects = 0;  ///< link-up transitions after a down
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t frames_refused = 0;  ///< send() rejections (down/full)
  std::uint64_t decode_errors = 0;   ///< malformed inbound data -> conn drop
  std::uint64_t queue_high_water = 0;  ///< max frames queued to any peer
};

class ConnectionManager {
 public:
  /// Inbound transport frames; runs on the net thread — handlers must not
  /// block on net-thread work (runtime dispatch is fine: engines never
  /// call back into the net thread synchronously).
  using FrameHandler =
      std::function<void(const std::string& peer, transport::Frame)>;
  /// Link up/down transitions; net thread.
  using LinkHandler = std::function<void(const std::string& peer, bool up)>;
  /// Non-frame peer messages (placement updates, migration streams, cover
  /// bounds); net thread, same blocking rules as FrameHandler.
  using MessageHandler =
      std::function<void(const std::string& peer, NetMessage msg)>;
  /// A peer's HELLO arrived (fires on every connection incarnation, right
  /// after the link-up event): carries its placement epoch, overrides and
  /// durable cover bounds. Net thread.
  using HelloInfoHandler =
      std::function<void(const std::string& peer, const HelloBody& hello)>;
  /// Fills the placement/cover advertisement into our outgoing HELLO
  /// (node + deployment_fp are already set). Net thread.
  using HelloFn = std::function<void(HelloBody& hello)>;

  struct Options {
    std::string node;    ///< our name
    std::string listen;  ///< "host:port"; empty = dial-only node
    /// Every other node: name -> "host:port" (dialed only when our name
    /// orders before; still listed so inbound HELLOs validate).
    std::map<std::string, std::string> peers;
    std::uint64_t deployment_fp = 0;
    NetTuning tuning;
  };

  ConnectionManager(Options options, FrameHandler on_frame,
                    LinkHandler on_link, MessageHandler on_message = nullptr,
                    HelloInfoHandler on_hello = nullptr,
                    HelloFn hello_fn = nullptr);
  ~ConnectionManager();

  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  /// Queues a frame toward a peer. Thread-safe. False when the peer is
  /// down, its queue is full, or the manager is shut down; the frame is
  /// then dropped (counted) and the protocol's replay path recovers it.
  bool send(const std::string& peer, const transport::Frame& frame);

  /// Queues a non-frame peer message (placement/stream/cover). Same
  /// contract and queue bound as send(): refused — never blocked — when the
  /// peer is down or the queue is full. Stream senders treat a refusal as
  /// link loss and resume after reconnect.
  bool send_message(const std::string& peer, const NetMessage& msg);

  /// Link state as the net thread last published it. Observers wait: the
  /// flag flips BEFORE the LinkHandler for that transition runs (on the
  /// net thread), so a caller that sees it change must not assume the
  /// handler's effects are visible yet.
  [[nodiscard]] bool peer_up(const std::string& peer) const;
  /// Actual bound listen port (for configs with port 0). 0 if not listening.
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// The manager's event loop, for co-hosting light periodic work (the
  /// host's telemetry gauge sampling) on the net thread. Remember the
  /// threading contract: add_timer/cancel_timer only from the loop thread
  /// (post() to get there); callbacks must never block.
  [[nodiscard]] EventLoop& loop() { return loop_; }

  [[nodiscard]] NetCounters counters() const;

  /// Stops the loop thread and closes every socket. Idempotent.
  void shutdown();

 private:
  struct Peer {
    std::string name;
    SockAddr addr;
    bool we_dial = false;

    Fd fd;                  // loop thread only
    bool connecting = false;  ///< non-blocking connect pending writability
    bool hello_sent = false;
    bool hello_received = false;
    StreamDecoder decoder;
    EventLoop::Clock::time_point last_recv{};

    /// Control = hello/heartbeat (not queue-bounded); frames and messages
    /// both count against the per-peer queue bound.
    enum class OutKind : std::uint8_t { kControl, kFrame, kMessage };
    struct OutBuf {
      std::vector<std::byte> bytes;
      std::size_t offset = 0;
      OutKind kind = OutKind::kControl;
    };
    std::deque<OutBuf> outq;  // loop thread only

    int backoff_exp = 0;
    EventLoop::TimerId reconnect_timer = 0;
    bool ever_up = false;

    /// Shared with send() callers.
    std::atomic<bool> up{false};
    std::atomic<std::size_t> queued_frames{0};
  };

  // All private methods below run on the loop thread.
  void start_listening();
  void on_listener_ready();
  void start_dial(Peer& peer);
  void schedule_redial(Peer& peer);
  void on_peer_ready(Peer& peer, unsigned events);
  void on_pending_ready(int fd, unsigned events);
  void finish_connect(Peer& peer);
  void adopt_connection(Peer& peer, Fd fd, StreamDecoder decoder,
                        EventLoop::Clock::time_point last_recv,
                        HelloBody peer_hello);
  void mark_up(Peer& peer);
  void drop_connection(Peer& peer, const char* reason);
  void handle_readable(Peer& peer);
  void handle_message(Peer& peer, NetMessage msg);
  void flush_writes(Peer& peer);
  void enqueue_bytes(Peer& peer, std::vector<std::byte> bytes,
                     Peer::OutKind kind);
  void update_interest(Peer& peer);
  void send_hello(Peer& peer);
  void heartbeat_tick();
  bool queue_toward(const std::string& peer_name, std::vector<std::byte> bytes,
                    Peer::OutKind kind);

  const Options options_;
  const FrameHandler on_frame_;
  const LinkHandler on_link_;
  const MessageHandler on_message_;
  const HelloInfoHandler on_hello_;
  const HelloFn hello_fn_;

  EventLoop loop_;
  std::map<std::string, std::unique_ptr<Peer>> peers_;

  Fd listener_;
  std::uint16_t listen_port_ = 0;
  /// Accepted connections whose HELLO has not arrived yet: fd -> decoder.
  struct PendingConn {
    Fd fd;
    StreamDecoder decoder;
    EventLoop::Clock::time_point since;
  };
  std::map<int, PendingConn> pending_;

  Rng jitter_;  // loop thread only

  struct Counters {
    std::atomic<std::uint64_t> bytes_in{0}, bytes_out{0};
    std::atomic<std::uint64_t> frames_in{0}, frames_out{0};
    std::atomic<std::uint64_t> msgs_in{0}, msgs_out{0};
    std::atomic<std::uint64_t> connects{0}, reconnects{0};
    std::atomic<std::uint64_t> heartbeat_misses{0}, frames_refused{0};
    std::atomic<std::uint64_t> decode_errors{0}, queue_high_water{0};
  };
  Counters counters_;

  std::atomic<bool> shut_down_{false};
  std::thread thread_;
};

}  // namespace tart::net
