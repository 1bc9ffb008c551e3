// Runtime: deploys a Topology onto engines and runs it.
//
// Responsibilities (§II.C deployment steps):
//   - placement: components -> engines;
//   - transformation: estimator/bias/checkpoint machinery is attached to
//     each component via its runner (the C++ analogue of the automatic
//     code transformation);
//   - backups: one shared ReplicaStore stands in for each engine's passive
//     replica (it is keyed by component, so it behaves like one replica per
//     engine);
//   - external world: input adapters that timestamp + log arriving
//     messages (§II.E) and output sinks that deliver to external
//     consumers, recording output stutter;
//   - routing: frames between engines flow directly or through simulated
//     network links (ReliableChannel) when configured;
//   - failure injection: engine crash/recover and link up/down.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "checkpoint/replica.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/router.h"
#include "core/status.h"
#include "core/topology.h"
#include "log/fault_log.h"
#include "log/message_log.h"
#include "log/segmented_store.h"
#include "trace/recorder.h"
#include "transport/reliable_link.h"

namespace tart::durability {
class CheckpointManager;
}

namespace tart::core {

/// Pseudo-component the net layer records link-lifecycle trace events
/// against (kLinkUp/kLinkDown). Registered with the flight recorder only
/// in partitioned deployments; real component ids never reach this range.
inline constexpr ComponentId kNetTraceComponent{0xFFFFFF00};

/// Pseudo-component the edge records request-lineage trace events against
/// (kIngestArrive/kIngestDurable/kIngestAck/kOutputDeliver). Registered
/// with the flight recorder only when the lineage category is enabled —
/// conditional registration keeps component sets (and hence trace diffs)
/// identical for lineage-off runs.
inline constexpr ComponentId kEdgeTraceComponent{0xFFFFFF01};

/// One record delivered to an external consumer.
struct OutputRecord {
  VirtualTime vt;
  Payload payload;
  bool stutter = false;  ///< re-delivery of an already-delivered tick
  /// Lineage tag: the external input this output causally descends from
  /// (invalid wire = unknown, e.g. pre-lineage logs).
  WireId origin_wire = WireId::invalid();
  std::uint64_t origin_seq = 0;
};

/// Typed outcome of a non-throwing injection (try_inject*): production
/// ingress gateways map these to protocol-level failures (404/409/503)
/// instead of catching logic_error.
enum class InjectStatus : std::uint8_t {
  kOk = 0,
  kUnknownWire,  ///< no local external-input adapter for the wire
  kClosed,       ///< the input was closed (silence-forever promised)
  kVtRegressed,  ///< scripted vt not strictly after last logged/promised vt
  kStoreFailed,  ///< stable-store append failed: the message was neither
                 ///< logged nor delivered — callers must refuse the ack
};

/// One injection of a batch (vt < 0 = real-time stamping, like inject()).
struct InjectRequest {
  WireId wire;
  std::int64_t vt = -1;
  Payload payload;
  /// Steady-clock ns when the request reached the edge (0 = stamp at
  /// injection time). The gateway passes its HTTP-arrival stamp so the
  /// lineage ingress events measure queueing in front of the commit.
  std::int64_t arrival_wall_ns = 0;
};

struct InjectResult {
  InjectStatus status = InjectStatus::kOk;
  VirtualTime vt{-1};  ///< assigned virtual time when status != error
  std::uint64_t seq = 0;  ///< assigned per-wire sequence when status == kOk:
                          ///< with the wire it forms the request's globally
                          ///< unique lineage id (wire, seq)
};

/// What this incarnation booted from (durable mode; see docs/RECOVERY.md).
struct RecoveryInfo {
  bool from_checkpoint = false;
  std::uint64_t checkpoint_id = 0;
  std::uint64_t skipped_invalid = 0;  ///< torn/corrupt checkpoint files
  std::uint64_t covered_records = 0;  ///< log records the checkpoint covers
  std::uint64_t suffix_records = 0;   ///< log records left to replay
  std::uint64_t log_bytes_read = 0;   ///< bytes read from log segments
};

class Runtime final : public FrameRouter {
 public:
  using OutputCallback =
      std::function<void(VirtualTime, const Payload&, bool stutter)>;

  Runtime(Topology topology, std::map<ComponentId, EngineId> placement,
          RuntimeConfig config);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  void start();

  /// Closes every external input and waits (up to `timeout`) until every
  /// component has processed everything. Returns true on quiescence.
  bool drain(std::chrono::milliseconds timeout = std::chrono::seconds(30));

  void stop();

  // --- External world -----------------------------------------------------

  /// Injects an external message; its virtual time is the real arrival
  /// time (nanoseconds since runtime construction), logged before delivery.
  /// Throws std::runtime_error, delivering nothing, when the stable-store
  /// append fails.
  VirtualTime inject(WireId input_wire, Payload payload);

  /// Injects with a scripted virtual time (clamped to stay monotone per
  /// wire). Deterministic tests use this so the log is run-independent.
  /// Store failure is handled as in inject().
  VirtualTime inject_at(WireId input_wire, VirtualTime vt, Payload payload);

  /// Non-throwing inject: returns a typed status instead of throwing on a
  /// closed input or asserting on an unknown wire. Unlike inject_at, a
  /// scripted vt that cannot be honored exactly (it does not land strictly
  /// after the wire's last logged vt and silence promise) is REFUSED with
  /// kVtRegressed rather than clamped — an external client asked for a
  /// specific timestamp and must learn it did not get it.
  [[nodiscard]] InjectResult try_inject(WireId input_wire, Payload payload);
  [[nodiscard]] InjectResult try_inject_at(WireId input_wire, VirtualTime vt,
                                           Payload payload);

  /// Group commit: stamps and logs a whole batch with ONE stable-store
  /// flush (§II.E's "(a) given a timestamp, and then (b) logged" for every
  /// message, amortizing the durability cost), then delivers. Results are
  /// positional; failed entries are neither logged nor delivered. When the
  /// flush fails, every entry of the batch is kStoreFailed. Per-wire
  /// arrival order follows batch order.
  [[nodiscard]] std::vector<InjectResult> try_inject_batch(
      const std::vector<InjectRequest>& requests);

  /// Marks an external input finished: the source promises silence forever.
  void close_input(WireId input_wire);
  void close_all_inputs();

  /// Registers a consumer callback for an external output wire (call
  /// before start()). Records are kept regardless of subscription.
  void subscribe(WireId output_wire, OutputCallback callback);

  /// Records delivered on an external output, in delivery order (stutter
  /// re-deliveries flagged): positions [after, min(size, after + max)).
  /// Only that slice is copied.
  [[nodiscard]] std::vector<OutputRecord> output_records(
      WireId output_wire, std::size_t after = 0,
      std::size_t max = SIZE_MAX) const;

  using OutputListener = std::function<void(WireId output_wire)>;
  /// Names one registered listener; never 0.
  using OutputListenerId = std::uint64_t;
  /// Registers a listener that runs after a record is appended to ANY
  /// local output sink, on the delivering thread and outside the sink's
  /// lock (sinks created by adoption are covered). Listeners are
  /// independent: each gateway on a runtime registers its own.
  OutputListenerId add_output_listener(OutputListener listener);
  /// Unregisters `id` (unknown ids are ignored). Waits out a call in
  /// progress, so once it returns that listener never runs again.
  void remove_output_listener(OutputListenerId id);

  // --- Partition-aware wiring (multi-process deployments) ------------------

  /// Sink for frames whose destination engine is not hosted by this
  /// process (see RuntimeConfig::local_engines). Set before start(); the
  /// net layer forwards them to the peer process hosting `dst`. Without a
  /// router, cross-partition frames are dropped and counted — the replay
  /// protocol recovers them once a router exists.
  using RemoteRouter =
      std::function<void(EngineId dst, const transport::Frame&)>;
  void set_remote_router(RemoteRouter router);

  /// Entry point for frames arriving from a peer process: dispatched
  /// exactly as a local frame would be. Frames naming non-local components
  /// are dropped (counted), never fatal — a confused peer must not crash
  /// this node.
  void deliver_from_peer(const transport::Frame& frame);

  [[nodiscard]] bool engine_is_local(EngineId id) const;
  /// Cross-partition frames dropped for lack of a route or local owner.
  [[nodiscard]] std::uint64_t remote_frames_dropped() const {
    return remote_frames_dropped_.load();
  }

  // --- Failure injection ---------------------------------------------------

  void crash_engine(EngineId engine);
  void recover_engine(EngineId engine);
  /// Takes the simulated physical links between two engines down or up
  /// (no-op for engine pairs without a configured link).
  void set_link_down(EngineId a, EngineId b, bool down);

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] MetricsSnapshot metrics(ComponentId component) const;
  [[nodiscard]] MetricsSnapshot total_metrics() const;
  /// Silence wavefront across every locally-placed component: VT
  /// frontiers, per-input-wire horizons and the wires blocking any held
  /// message. Crashed components appear with crashed=true and no detail.
  [[nodiscard]] StatusReport status() const;
  /// The telemetry registry every runner (and the gateway) records into.
  /// Lives as long as the runtime; snapshot with registry().samples().
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  /// State hash of a quiescent component (see ComponentRunner). Returns 0
  /// for components on a crashed engine.
  [[nodiscard]] std::uint64_t state_fingerprint(ComponentId component);
  /// Messages currently held in a component's output retention buffers.
  [[nodiscard]] std::size_t retained_messages(ComponentId component);
  [[nodiscard]] const log::ExternalMessageLog& external_log() const {
    return message_log_;
  }
  [[nodiscard]] log::DeterminismFaultLog& fault_log() { return fault_log_; }
  [[nodiscard]] checkpoint::ReplicaStore& replica() { return replica_; }

  // --- Elastic placement (live migration; src/placement) -------------------

  /// Everything a migration slice carries to re-create one external input
  /// at the adopting node: the log base below the shipped suffix, plus the
  /// suffix records themselves (appended to the local log, skipping seqs
  /// already held — re-adoptions and resumed rounds overlap harmlessly).
  struct AdoptedInput {
    WireId wire;
    std::uint64_t base_seq = 0;
    VirtualTime base_vt{-1};
    bool closed = false;
    std::vector<Message> records;
  };

  /// An output wire's position at eviction: the final silence the departing
  /// node may promise on the sealed wire (the adopter deterministically
  /// continues from exactly this point).
  struct SealedOutput {
    WireId wire;
    VirtualTime horizon{-1};
    std::uint64_t next_seq = 0;
  };

  struct ExternalInputState {
    bool known = false;  ///< an adapter exists locally
    std::uint64_t next_seq = 0;
    VirtualTime last_vt{-1};
    bool closed = false;
  };

  /// External input wires feeding one component (migration slices ship the
  /// log suffix per such wire).
  [[nodiscard]] std::vector<WireId> external_inputs_of(ComponentId c) const;
  [[nodiscard]] ExternalInputState external_input_state(WireId wire) const;
  [[nodiscard]] bool component_is_local(ComponentId c) const;
  /// Live owner of `component` (placement overrides applied; hot-path
  /// shared-lock read).
  [[nodiscard]] EngineId engine_of(ComponentId component) const;

  /// Single-component FULL checkpoint barrier (the migration prepare and
  /// seal points). False on timeout or when the component is not running.
  bool force_component_checkpoint(ComponentId c,
                                  std::chrono::milliseconds timeout);

  /// The component's restore plan from the local replica (durable-boot
  /// imports included); nullopt when the replica holds nothing.
  [[nodiscard]] std::optional<checkpoint::RestorePlan> export_component_plan(
      ComponentId c);

  /// Makes `c` live on local engine `onto`: seeds the external log with the
  /// shipped suffix, re-creates the boundary adapters, flips routing, and
  /// runs the engine's single-component recovery (restore + request
  /// replays + start). `plan` nullopt restores whatever the local replica
  /// holds (rollback / repair path).
  bool adopt_component(ComponentId c, EngineId onto,
                       const std::optional<checkpoint::RestorePlan>& plan,
                       const std::vector<AdoptedInput>& inputs,
                       std::string* error);

  /// Stops and unhosts a local component, drops its boundary adapters (the
  /// gateway redirects external arrivals from then on) and flips routing to
  /// `new_owner`. Returns the sealed output positions. Safe to call for a
  /// non-local component (routing-only flip, empty result).
  std::vector<SealedOutput> evict_component(ComponentId c, EngineId new_owner);

  /// Routing-only placement override (the bystander path: neither adopting
  /// nor evicting, just learning where a component lives now).
  void apply_placement(ComponentId c, EngineId engine);

  /// Trims the LOCAL sender's output retention on `wire` below `below_seq`
  /// — the remote consumer's durable-checkpoint cover, which no failover
  /// can ever replay-request again. No-op for external or non-local wires.
  void trim_retention_below(WireId wire, std::uint64_t below_seq);

  /// Records trimmed by trim_retention_below across all wires (monotone;
  /// the host surfaces it as tart_retention_trimmed_records_total).
  [[nodiscard]] std::uint64_t retention_trimmed() const {
    return retention_trimmed_.load(std::memory_order_relaxed);
  }

  // --- Durability (docs/RECOVERY.md; active only in durable mode) ----------

  /// External input wires whose consumer is local — the wires a durable
  /// checkpoint records coverage for.
  [[nodiscard]] std::vector<WireId> external_input_wires() const;

  /// Forces every live local component to take a FULL soft checkpoint and
  /// waits until the replica holds them all. Returns false on timeout (a
  /// crashed component is skipped, not waited for).
  bool force_component_checkpoints(std::chrono::milliseconds timeout);

  /// Checkpoint-gated compaction: drops log records covered per-wire by
  /// `covered` (consumer next_seq bounds) and deletes wholly-covered log
  /// segments. Call only after the covering checkpoint is durable.
  /// Returns records reclaimed from memory.
  std::uint64_t compact_below(const std::map<WireId, std::uint64_t>& covered);

  /// Bytes the segmented external log occupies on disk (0 when not in
  /// durable mode).
  [[nodiscard]] std::uint64_t log_bytes_on_disk() const;

  /// Suppresses external output callbacks (records are still kept): the
  /// replay driver hides catch-up re-deliveries from the outside world.
  void set_output_suppressed(bool suppressed) {
    outputs_suppressed_.store(suppressed);
  }
  [[nodiscard]] bool outputs_suppressed() const {
    return outputs_suppressed_.load();
  }

  /// What this incarnation restored from (zeroes outside durable mode).
  [[nodiscard]] const RecoveryInfo& recovery_info() const { return recovery_; }
  /// Null when durable mode is off.
  [[nodiscard]] durability::CheckpointManager* checkpoint_manager() {
    return ckpt_manager_.get();
  }
  /// Null when durable mode is off.
  [[nodiscard]] log::SegmentedStore* segment_store() {
    return segment_store_.get();
  }
  /// Flight recorder; nullptr when `config.trace.enabled` is false. The
  /// trace file (if configured) is written when the runtime stops.
  [[nodiscard]] trace::TraceRecorder* trace_recorder() {
    return tracer_.get();
  }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] Engine& engine(EngineId id) { return *engines_.at(id); }

  // --- FrameRouter ----------------------------------------------------------

  void to_receiver(WireId wire, transport::Frame frame) override;
  void to_receiver_batch(WireId wire, std::vector<Message>& batch) override;
  void to_sender(WireId wire, transport::Frame frame) override;

 private:
  struct InputAdapter {
    std::mutex mu;
    std::uint64_t next_seq = 0;
    VirtualTime last_vt = VirtualTime(-1);
    /// Greatest silence promise ever issued; future injections must land
    /// strictly after it (a promised-silent tick can never carry data).
    VirtualTime promised = VirtualTime(-1);
    /// A source's nature is established by first use: inject() marks it
    /// real-time (probes may promise silence through "now", since any
    /// future arrival is stamped later); inject_at() marks it scripted
    /// (virtual times are unrelated to real time, so probes may only
    /// promise through the last logged arrival). Probes before the first
    /// injection promise nothing beyond last_vt.
    enum class Source { kUnknown, kRealtime, kScripted };
    Source source = Source::kUnknown;
    bool closed = false;
    /// Seq-prefix and last vt of the data frames already handed to the
    /// receiver's path. A message is stamped and logged (next_seq, last_vt)
    /// under `mu`, but delivered after `mu` is released; a probe's silence
    /// reply must not announce it before then, or it can overtake the data
    /// and read as a gap (replay request, then a duplicate discard).
    std::uint64_t handed_seq = 0;
    VirtualTime handed_vt = VirtualTime(-1);

    /// Resumes past everything the log already holds (recovered from
    /// stable storage or shipped by a migration). Receivers fetch those
    /// records by replay request, so they count as handed over.
    void resume(std::uint64_t seq, VirtualTime vt) {
      next_seq = handed_seq = seq;
      last_vt = handed_vt = vt;
    }
  };

  struct OutputSink {
    mutable std::mutex mu;
    OutputCallback callback;
    std::vector<OutputRecord> records;
    VirtualTime last_vt = VirtualTime(-1);
  };

  struct LinkBridge {
    EngineId lo;
    EngineId hi;
    std::unique_ptr<transport::ReliableChannel> channel;
  };

  void dispatch_local(const transport::Frame& frame);
  void dispatch_to_receiver_local(WireId wire, const transport::Frame& frame);
  void dispatch_to_sender_local(WireId wire, const transport::Frame& frame);
  void handle_external_sender_frame(WireId wire,
                                    const transport::Frame& frame);
  void deliver_external_output(WireId wire, const transport::Frame& frame);
  [[nodiscard]] LinkBridge* bridge_between(EngineId a, EngineId b);
  /// Routes a frame that must travel from engine `src` toward engine `dst`,
  /// through the pair's link when one is configured.
  void route(EngineId src, EngineId dst, WireId wire, transport::Frame frame);
  [[nodiscard]] VirtualTime real_now() const;
  /// Records kIngestArrive (+ kIngestDurable when durable_ns >= 0) for one
  /// stamped-and-logged injection against the edge pseudo-component.
  void record_ingest(const Message& m, std::int64_t arrive_ns,
                     std::int64_t durable_ns);
  /// Counts an injection whose data frame was delivered, with every
  /// earlier one on its wire, as handed over (InputAdapter::handed_seq).
  void mark_handed(InputAdapter& in, const Message& m);
  /// Pins the adapter/sink for a wire (nullptr when not locally owned);
  /// shared_ptr so a concurrent eviction cannot free it mid-call.
  [[nodiscard]] std::shared_ptr<InputAdapter> input_adapter(WireId wire) const;
  [[nodiscard]] std::shared_ptr<OutputSink> output_sink(WireId wire) const;
  [[nodiscard]] std::map<ComponentId, EngineId> placement_snapshot() const;

  Topology topology_;
  /// Live placement: migration rewrites entries mid-run. Reads on the
  /// routing hot path take the shared lock; only adopt/evict/apply mutate.
  mutable std::shared_mutex placement_mu_;
  std::map<ComponentId, EngineId> placement_;
  RuntimeConfig config_;

  RemoteRouter remote_router_;
  std::atomic<std::uint64_t> remote_frames_dropped_{0};
  std::atomic<std::uint64_t> retention_trimmed_{0};

  log::ExternalMessageLog message_log_;
  log::DeterminismFaultLog fault_log_;
  checkpoint::ReplicaStore replica_;
  std::unique_ptr<log::FileStableStore> message_store_;
  std::unique_ptr<log::FileStableStore> fault_store_;
  std::unique_ptr<log::FileStableStore> replica_store_;

  /// Durable mode (config.durability.enabled && log_dir set): the external
  /// log lives in rotated segments instead of one messages.log, and the
  /// manager writes checkpoint files + gates compaction on them.
  std::unique_ptr<log::SegmentedStore> segment_store_;
  std::unique_ptr<durability::CheckpointManager> ckpt_manager_;
  RecoveryInfo recovery_;
  std::atomic<bool> outputs_suppressed_{false};

  /// Output listeners: the flag spares deliveries the lock when none is
  /// registered; calls run under the mutex, which removal waits on.
  std::mutex output_listener_mu_;
  std::map<OutputListenerId, OutputListener> output_listeners_;
  OutputListenerId next_output_listener_ = 1;
  std::atomic<bool> has_output_listener_{false};

  /// Owned here, not by the engines: a component's trace stream (and its
  /// sequence counter) must survive engine crash/recover for recovery
  /// traces to be prefix-comparable. Declared before engines_ so it
  /// outlives every runner holding a raw pointer to it.
  std::unique_ptr<trace::TraceRecorder> tracer_;

  /// Telemetry registry: like the tracer, owned here and declared before
  /// engines_ — runners hold handles into it, and a recovered runner
  /// re-attaches to the same cells (counts survive crash/recover).
  obs::Registry registry_;
  /// Live end-to-end latency (origin arrival -> output visibility), with
  /// (wire, seq) exemplars; registered in the ctor, recorded in
  /// deliver_external_output.
  obs::Histogram* e2e_hist_ = nullptr;

  std::map<EngineId, std::unique_ptr<Engine>> engines_;
  /// Guards the MAP STRUCTURE of inputs_/outputs_ (adoption inserts,
  /// eviction erases); the per-adapter mutexes still guard the values.
  /// Values are shared_ptr so in-flight calls outlive a concurrent erase.
  mutable std::shared_mutex io_mu_;
  std::map<WireId, std::shared_ptr<InputAdapter>> inputs_;
  std::map<WireId, std::shared_ptr<OutputSink>> outputs_;
  std::vector<std::unique_ptr<LinkBridge>> bridges_;

  std::chrono::steady_clock::time_point epoch_;
  bool started_ = false;
};

}  // namespace tart::core
