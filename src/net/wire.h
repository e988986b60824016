// TailGuard wire protocol: compact length-prefixed binary frames.
//
// Every message travels as one frame:
//
//   offset  size  field
//   0       2     magic 0x5447 ("TG", little-endian u16)
//   2       1     protocol version (kWireVersion)
//   3       1     message type (MsgType)
//   4       4     payload length in bytes (little-endian u32)
//   8       n     payload
//
// Payloads are flat little-endian scalars (doubles as IEEE-754 bit patterns)
// plus u32-length-prefixed strings — no padding, no host-endianness leakage.
// Unknown message types within a known protocol version are skippable (the
// length prefix delimits them), which is what makes the framing versioned:
// new message types can be added without breaking old peers, while a version
// byte mismatch is a hard error.
//
// All times on the wire are *relative* durations in milliseconds; the two
// ends never exchange absolute clock readings, so the protocol is immune to
// clock offset between the dispatcher and the task servers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "shard/state_sync.h"

namespace tailguard::net {

inline constexpr std::uint16_t kWireMagic = 0x5447;  // "TG"
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Upper bound on a single payload; a peer announcing more is corrupt or
/// hostile, and the connection is dropped rather than the allocation made.
inline constexpr std::size_t kMaxPayloadBytes = 16u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,         ///< dispatcher -> server: version handshake
  kHelloAck = 2,      ///< server -> dispatcher: handshake reply
  kSubmitTask = 3,    ///< dispatcher -> server: enqueue one task
  kTaskDone = 4,      ///< server -> dispatcher: one task finished
  kModelSync = 5,     ///< server -> dispatcher: post-queuing-time backfill
  kStatsRequest = 6,  ///< dispatcher -> server: poll server stats
  kStatsResponse = 7, ///< server -> dispatcher: stats snapshot
  kGossipHello = 8,   ///< server -> dispatcher: announces delta-gossip support
  kGossipDelta = 9,   ///< server -> dispatcher: periodic ShardDelta broadcast
};

/// Handshake. The version is repeated inside the payload so a future frame
/// format can still negotiate down.
struct HelloMsg {
  std::uint32_t protocol_version = kWireVersion;
  std::string peer_name;

  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kWireVersion;
  std::uint8_t policy = 0;  ///< Policy the server queues under (informational)
  std::uint32_t num_executors = 1;

  friend bool operator==(const HelloAckMsg&, const HelloAckMsg&) = default;
};

/// One task of a fanned-out query. Deadlines are shipped as durations
/// relative to receipt, which the server stamps against its own clock,
/// mirroring Eq. 6 with the network delay folded into the budget:
/// `relative_deadline_ms` is the policy ordering key, and
/// `relative_tail_deadline_ms` is t_D, which the miss rule judges against.
/// The two differ except under TF-EDFQ. Version 2 appended the t_D field.
struct SubmitTaskMsg {
  TaskId task = 0;
  QueryId query = 0;
  ClassId cls = 0;
  TimeMs relative_deadline_ms = 0.0;
  TimeMs simulated_service_ms = 0.0;
  TimeMs relative_tail_deadline_ms = 0.0;

  friend bool operator==(const SubmitTaskMsg&, const SubmitTaskMsg&) = default;
};

/// Completion report. `queue_ms` is time spent queued (enqueue->dequeue) and
/// `service_ms` the post-queuing time (dequeue->complete) — the observation
/// the dispatcher's per-server CDF model absorbs (paper §III.B.2).
struct TaskDoneMsg {
  TaskId task = 0;
  QueryId query = 0;
  TimeMs queue_ms = 0.0;
  TimeMs service_ms = 0.0;
  bool missed_deadline = false;

  friend bool operator==(const TaskDoneMsg&, const TaskDoneMsg&) = default;
};

/// Post-queuing-time samples the server observed while no dispatcher was
/// connected (e.g. tasks that finished after a disconnect). Sent on
/// (re)connect so the dispatcher's frozen CDF model catches up.
struct ModelSyncMsg {
  std::vector<double> samples_ms;

  friend bool operator==(const ModelSyncMsg&, const ModelSyncMsg&) = default;
};

/// Announces that the sender will stream GossipDelta messages. Sent by a
/// task server right after HelloAck when gossip is enabled. A dispatcher
/// that never sees this treats the server as a pre-gossip daemon and relies
/// on the kModelSync backfill alone — the unknown-type skip rule in the
/// framing is the entire downgrade path, no capability bits needed.
struct GossipHelloMsg {
  /// Version of the gossip sub-protocol (delta layout), independent of the
  /// frame version. Receivers ignore deltas with a newer version than theirs.
  std::uint32_t gossip_version = 1;
  /// Sender-chosen origin id echoed into each delta (informational; wire
  /// receivers dedup per connection, not per origin).
  std::uint32_t origin = 0;

  friend bool operator==(const GossipHelloMsg&, const GossipHelloMsg&) =
      default;
};

/// One shard/state_sync.h ShardDelta on the wire: incremental CDF samples,
/// admission-window increments, and load gauges accumulated since the
/// sender's previous delta. Sample times are relative durations (ms), like
/// every other time on the wire. ServerEntry's slack-sample fields are
/// deliberately NOT serialized: task-server daemons never place tasks, so
/// shipping placement-only state to them would be dead weight. Slack deltas
/// travel only over the in-process StateSyncBus between handler shards.
struct GossipDeltaMsg {
  ShardDelta delta;

  friend bool operator==(const GossipDeltaMsg&, const GossipDeltaMsg&) =
      default;
};

struct StatsRequestMsg {
  friend bool operator==(const StatsRequestMsg&, const StatsRequestMsg&) =
      default;
};

struct StatsResponseMsg {
  std::uint32_t queue_depth = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_missed_deadline = 0;

  friend bool operator==(const StatsResponseMsg&, const StatsResponseMsg&) =
      default;
};

// ------------------------------------------------------------------ encode

// encode_into appends one complete frame (header + payload, built in place —
// no intermediate payload buffer) to `out`, which may already hold other
// frames: this is the batching primitive the net loops use to coalesce a
// burst of messages into one contiguous send buffer. The encode() forms are
// conveniences for tests and one-off frames.

void encode_into(const HelloMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const HelloAckMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const SubmitTaskMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const TaskDoneMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const ModelSyncMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const StatsRequestMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const StatsResponseMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const GossipHelloMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const GossipDeltaMsg& msg, std::vector<std::uint8_t>& out);

std::vector<std::uint8_t> encode(const HelloMsg& msg);
std::vector<std::uint8_t> encode(const HelloAckMsg& msg);
std::vector<std::uint8_t> encode(const SubmitTaskMsg& msg);
std::vector<std::uint8_t> encode(const TaskDoneMsg& msg);
std::vector<std::uint8_t> encode(const ModelSyncMsg& msg);
std::vector<std::uint8_t> encode(const StatsRequestMsg& msg);
std::vector<std::uint8_t> encode(const StatsResponseMsg& msg);
std::vector<std::uint8_t> encode(const GossipHelloMsg& msg);
std::vector<std::uint8_t> encode(const GossipDeltaMsg& msg);

// ------------------------------------------------------------------ decode

/// One parsed frame: type plus raw payload bytes.
struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;
};

/// Payload decoders; return false on truncated/trailing/corrupt payloads.
bool decode(const Frame& frame, HelloMsg* out);
bool decode(const Frame& frame, HelloAckMsg* out);
bool decode(const Frame& frame, SubmitTaskMsg* out);
bool decode(const Frame& frame, TaskDoneMsg* out);
bool decode(const Frame& frame, ModelSyncMsg* out);
bool decode(const Frame& frame, StatsRequestMsg* out);
bool decode(const Frame& frame, StatsResponseMsg* out);
bool decode(const Frame& frame, GossipHelloMsg* out);
bool decode(const Frame& frame, GossipDeltaMsg* out);

/// Incremental frame reassembly over a byte stream. Feed whatever the socket
/// produced; pop complete frames. A magic/version mismatch or an oversized
/// length poisons the buffer (error() becomes non-empty) and the connection
/// should be closed — framing cannot be re-synchronised once corrupt.
class FrameBuffer {
 public:
  void append(const std::uint8_t* data, std::size_t n);

  /// Next complete frame, or nullopt when more bytes are needed or the
  /// stream is poisoned.
  std::optional<Frame> next();

  /// Non-empty once the stream is unrecoverably corrupt.
  const std::string& error() const { return error_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< parsed prefix, compacted lazily
  std::string error_;
};

}  // namespace tailguard::net
