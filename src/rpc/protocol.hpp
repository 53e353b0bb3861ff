// gmfnetd wire protocol: length-prefixed binary frames carrying typed
// admission-control messages between an operator tool and the daemon.
//
// One message = one frame.  Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "GMFNRPC1"
//   8       4     protocol version (u32); readers reject versions they do
//                 not know (forward-incompatible by design)
//   12      4     message type (u32); unknown types rejected
//   16      8     body length in bytes (u64); zero and > kMaxBodyLen
//                 rejected (every message body is non-empty by
//                 construction — bodiless messages carry one reserved
//                 zero byte — so a zero length is always a framing bug)
//   24      8     FNV-1a 64 checksum of the body bytes (u64)
//   32      ...   body (io/codec field encodings)
//
// The decode path is strict in the io/checkpoint tradition: truncation,
// bit flips (checksummed body, validated header fields), unknown message
// types, oversized or zero lengths, and trailing bytes are all rejected
// with ProtocolError — never UB, never a silently wrong message.
//
// Message catalog (request -> response):
//
//   ADMIT            { flow }            -> { admitted?, HolisticResult }
//   ADMIT_BATCH      { flows }           -> { per-flow verdicts, flows_after }
//                                           (one gated admission pass over
//                                            many flows: one engine commit,
//                                            one snapshot publish, one
//                                            replication DELTA batch)
//   REMOVE           { index }           -> { removed }
//   WHAT_IF_BATCH    { candidates,       -> { WhatIfResult per candidate;
//                      verdict_only? }      verdict_only requests elide the
//                                           O(world) per-flow payload }
//   STATS            {}                  -> { EngineStats, flows, shards,
//                                            role, epoch, commit_seq, uptime,
//                                            server counters, solver byte }
//   SAVE_CHECKPOINT  {}                  -> { checkpoint blob (PR 4 stream) }
//   RESTORE          { checkpoint blob } -> { restored flow count }
//   SHUTDOWN         {}                  -> {}
//   SUBSCRIBE        { epoch, seq, hist }-> SUBSCRIBE_OK { epoch, next_seq }
//                                           then a one-way DELTA stream, or
//                                           SYNC_FULL { epoch, seq, hist,
//                                                       checkpoint } then the
//                                           DELTA stream (replication link)
//   PROMOTE          {}                  -> { epoch } (replica -> primary,
//                                            epoch bumped — the fence)
//   ROLE             {}                  -> { role, epoch, seq, sync state }
//   REPOINT          { primary addr }    -> { } (replica follows a new
//                                            primary)
//   (mutation on a replica or a fenced   -> NOT_PRIMARY { primary addr,
//    ex-primary)                            epoch }
//   (any request)                        -> ERROR { message } on failure
//
//   DELTA frames are pushed primary -> replica on a subscribed connection:
//   one frame per committed mutation, carrying (epoch, commit_seq), the
//   operation bytes (io/codec encodings — the same bytes a checkpoint
//   section would hold) and the expected post-apply resident count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/holistic.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/snapshot.hpp"
#include "gmf/flow.hpp"
#include "io/wire.hpp"

namespace gmfnet::rpc {

/// Thrown on malformed frames and protocol violations: truncated input,
/// checksum mismatch, bad magic, a forward-incompatible protocol version,
/// an unknown message type, oversized/zero body lengths, trailing bytes,
/// or a body that fails strict decode.
class ProtocolError : public io::WireError {
 public:
  explicit ProtocolError(const std::string& message)
      : io::WireError("rpc: " + message) {}
};

/// Frame constants, shared with tests that forge malformed frames.
inline constexpr char kMagic[8] = {'G', 'M', 'F', 'N', 'R', 'P', 'C', '1'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kVersionOffset = 8;
inline constexpr std::size_t kTypeOffset = 12;
inline constexpr std::size_t kBodyLenOffset = 16;
inline constexpr std::size_t kChecksumOffset = 24;
inline constexpr std::size_t kHeaderSize = 32;
/// Body-length sanity bound: a frame larger than this is rejected before
/// any allocation happens.  Checkpoint blobs ride inside RESTORE frames,
/// so the bound is generous; anything beyond it is a corrupted length
/// field, not a real message.
inline constexpr std::uint64_t kMaxBodyLen = 1ull << 30;  // 1 GiB

enum class MsgType : std::uint32_t {
  kAdmitRequest = 1,
  kRemoveRequest = 2,
  kWhatIfBatchRequest = 3,
  kStatsRequest = 4,
  kSaveCheckpointRequest = 5,
  kRestoreRequest = 6,
  kShutdownRequest = 7,
  kSubscribeRequest = 8,
  kPromoteRequest = 9,
  kRoleRequest = 10,
  kRepointRequest = 11,
  kAdmitBatchRequest = 12,

  kAdmitResponse = 101,
  kRemoveResponse = 102,
  kWhatIfBatchResponse = 103,
  kStatsResponse = 104,
  kSaveCheckpointResponse = 105,
  kRestoreResponse = 106,
  kShutdownResponse = 107,
  kSubscribeResponse = 108,
  kSyncFullResponse = 109,
  kDeltaResponse = 110,
  kPromoteResponse = 111,
  kRoleResponse = 112,
  kNotPrimaryResponse = 113,
  kAdmitBatchResponse = 114,

  kErrorResponse = 200,
};

/// Replication role of a daemon.  On the wire in STATS/ROLE responses.
enum class Role : std::uint8_t {
  kPrimary = 1,  ///< accepts mutations, journals + streams deltas
  kReplica = 2,  ///< follows a primary, serves reads from its snapshots
};

/// The kind of committed mutation a DELTA frame carries.
enum class DeltaKind : std::uint8_t {
  kAdmit = 1,    ///< body: io/codec flow encoding (the admitted flow)
  kRemove = 2,   ///< body: u64 resident index
  kRestore = 3,  ///< body: a complete PR 4 checkpoint stream
  kBatch = 4,    ///< body: a coalesced sequence of admit/remove ops that
                 ///< committed as ONE engine commit on the primary; replicas
                 ///< apply the whole sequence before checking flows_after
};

// ------------------------------------------------------------- requests --

struct AdmitRequest {
  gmf::Flow flow;
};
struct RemoveRequest {
  std::uint64_t index = 0;
};
struct WhatIfBatchRequest {
  std::vector<gmf::Flow> candidates;
  /// When set, responses carry the admission verdict plus summary fields
  /// (converged, sweeps, flow_count) but no per-flow payload — the full
  /// HolisticResult is a deep copy of every resident's FlowResult, O(world)
  /// to encode per probe, which dwarfs the probe itself on large worlds.
  /// Decoded verdict-only results throw on result()/flow_result().
  bool verdict_only = false;
};
struct StatsRequest {};
struct SaveCheckpointRequest {};
struct RestoreRequest {
  std::string checkpoint;  ///< a complete io/checkpoint stream
};
struct ShutdownRequest {};
/// Replica -> primary: start (or resume) the delta stream.  `epoch`,
/// `next_seq` and `history` describe the replica's current position; a
/// primary that can serve the journal tail from exactly that position of
/// the SAME history answers SubscribeResponse, otherwise SyncFullResponse.
/// A brand-new replica sends (0, 0, 0) and always gets a full sync.
struct SubscribeRequest {
  std::uint64_t epoch = 0;
  std::uint64_t next_seq = 0;  ///< first commit_seq the replica still needs
  std::uint64_t history = 0;   ///< history token of the primary it followed
};
/// Operator -> replica: become the primary.  Bumps the epoch (the fence).
struct PromoteRequest {};
/// Operator -> any daemon: report role + replication position/health.
struct RoleRequest {};
/// Operator -> replica: follow a different primary ("unix:PATH" or
/// "HOST:PORT").  The replica resubscribes there; epoch fencing decides
/// whether its state survives (catch-up / full sync) or the new primary is
/// rejected as stale.
struct RepointRequest {
  std::string primary_addr;
};
/// Gated admission of many flows in one request: the daemon runs the same
/// per-flow admission test as ADMIT, in order, but commits all accepted
/// flows as ONE engine commit + ONE snapshot publish + ONE replication
/// DELTA batch.  Verdicts are bit-identical to sending the flows as
/// sequential ADMITs.
struct AdmitBatchRequest {
  std::vector<gmf::Flow> flows;
};

// New request types append LAST: type_of() maps variant index -> MsgType
// arithmetically from kAdmitRequest.
using Request =
    std::variant<AdmitRequest, RemoveRequest, WhatIfBatchRequest,
                 StatsRequest, SaveCheckpointRequest, RestoreRequest,
                 ShutdownRequest, SubscribeRequest, PromoteRequest,
                 RoleRequest, RepointRequest, AdmitBatchRequest>;

// ------------------------------------------------------------ responses --

struct AdmitResponse {
  /// Engaged with the committed whole-set result iff the flow was admitted
  /// (exactly AnalysisEngine::try_admit's contract over the wire).
  std::optional<core::HolisticResult> result;
};
struct RemoveResponse {
  bool removed = false;
};
struct WhatIfBatchResponse {
  std::vector<engine::WhatIfResult> results;  ///< parallel to candidates
};
struct StatsResponse {
  engine::EngineStats stats;
  std::uint64_t flows = 0;
  std::uint64_t shards = 0;
  // Appended after the PR 5 fields (decode layout of the old fields is
  // unchanged): replication position + daemon uptime, so failover tooling
  // can watch a fleet with the one verb it already speaks.
  Role role = Role::kPrimary;
  std::uint64_t epoch = 0;
  std::uint64_t commit_seq = 0;
  std::uint64_t uptime_ms = 0;
  // Appended after the PR 8 fields: reactor-server observability counters
  // (zero on daemons without a serving reactor).
  std::uint64_t active_connections = 0;  ///< currently open operator conns
  std::uint64_t frames_served = 0;       ///< total request frames answered
  std::uint64_t coalesced_commits = 0;   ///< mutations folded into group
                                         ///< commits beyond the group heads
  std::uint64_t pipelined_hwm = 0;  ///< max frames in flight on one conn
  // Appended after the reactor counters.  Always 0: a frozen wire field of
  // the removed Anderson solver strategy (like `stats.accel_*`), kept so the
  // STATS layout is unchanged until StatsResponse moves to a tagged
  // key/value section.
  std::uint8_t solver_mode = 0;
};
struct SaveCheckpointResponse {
  std::string checkpoint;
};
struct RestoreResponse {
  std::uint64_t flows = 0;
};
struct ShutdownResponse {};
/// Primary -> replica: the journal covers the replica's position; deltas
/// follow starting at exactly `next_seq`.
struct SubscribeResponse {
  std::uint64_t epoch = 0;
  std::uint64_t next_seq = 0;
};
/// Primary -> replica: the journal cannot cover the replica's position (or
/// histories/epochs differ) — here is the whole world instead.  `commit_seq`
/// is the position the checkpoint captures; deltas follow from
/// `commit_seq + 1`.
struct SyncFullResponse {
  std::uint64_t epoch = 0;
  std::uint64_t commit_seq = 0;
  std::uint64_t history = 0;       ///< the primary's history token
  std::string checkpoint;          ///< a complete io/checkpoint stream
};
/// One committed mutation, pushed primary -> replica on a subscribed
/// connection.  `seq` values are contiguous per epoch; `flows_after` is the
/// resident flow count after applying — a cheap divergence tripwire on top
/// of the per-frame checksum.
/// One element of a kBatch delta: an admit (flow) or a remove (index) that
/// was part of a coalesced commit group.
struct DeltaOp {
  DeltaKind kind = DeltaKind::kAdmit;  ///< kAdmit or kRemove only
  gmf::Flow flow;                      ///< kAdmit payload
  std::uint64_t index = 0;             ///< kRemove payload
};
struct DeltaResponse {
  DeltaKind kind = DeltaKind::kAdmit;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t flows_after = 0;
  gmf::Flow flow;               ///< kAdmit payload
  std::uint64_t index = 0;      ///< kRemove payload
  std::string checkpoint;       ///< kRestore payload
  std::vector<DeltaOp> ops;     ///< kBatch payload (in commit order)
};
struct PromoteResponse {
  std::uint64_t epoch = 0;  ///< the freshly fenced epoch
};
/// Replication state of a daemon; serves both `gmfnet_ctl role` and
/// `gmfnet_ctl sync`.  The journal/subscriber fields are primary-side, the
/// connected/sync counters replica-side; the irrelevant half reads zero.
struct RoleResponse {
  Role role = Role::kPrimary;
  bool fenced = false;           ///< ex-primary refusing mutations
  std::uint64_t epoch = 0;
  std::uint64_t commit_seq = 0;
  std::string primary_addr;      ///< upstream (replica) / own ad (primary)
  bool connected = false;        ///< replica: delta stream currently up
  std::uint64_t full_syncs = 0;  ///< replica: bootstrap + gap recoveries
  std::uint64_t deltas_applied = 0;
  std::uint64_t subscribers = 0;      ///< primary: live delta streams
  std::uint64_t journal_begin = 0;    ///< primary: oldest journaled seq
  std::uint64_t journal_end = 0;      ///< primary: newest journaled seq
};
/// Mutation refused: this daemon is a replica (or a fenced ex-primary).
/// Carries where writes should go so operators/tools can follow.
struct NotPrimaryResponse {
  std::string primary_addr;  ///< may be empty if unknown (fenced primary)
  std::uint64_t epoch = 0;
};
/// Server-side failure executing an otherwise well-framed request (e.g. a
/// malformed flow, a checkpoint that fails validation).  The connection
/// stays usable.
struct ErrorResponse {
  std::string message;
};
/// Per-flow verdicts of an ADMIT_BATCH, parallel to the request's flows
/// (1 = admitted).  `flows_after` is the resident count after the single
/// coalesced commit.
struct AdmitBatchResponse {
  std::vector<std::uint8_t> admitted;
  std::uint64_t flows_after = 0;
};

// New response types append immediately BEFORE ErrorResponse: type_of()
// maps variant index -> MsgType arithmetically from kAdmitResponse, with
// ErrorResponse special-cased to 200.
using Response =
    std::variant<AdmitResponse, RemoveResponse, WhatIfBatchResponse,
                 StatsResponse, SaveCheckpointResponse, RestoreResponse,
                 ShutdownResponse, SubscribeResponse, SyncFullResponse,
                 DeltaResponse, PromoteResponse, RoleResponse,
                 NotPrimaryResponse, AdmitBatchResponse, ErrorResponse>;

// -------------------------------------------------------------- framing --

[[nodiscard]] MsgType type_of(const Request& req);
[[nodiscard]] MsgType type_of(const Response& resp);

/// Encodes one message as a complete frame (header + body).
[[nodiscard]] std::string encode_request(const Request& req);
[[nodiscard]] std::string encode_response(const Response& resp);

/// Strict whole-frame decode; the frame must contain exactly one message
/// (trailing bytes rejected).  decode_request rejects response-typed
/// frames and vice versa.  Throws ProtocolError on any violation.
[[nodiscard]] Request decode_request(std::string_view frame);
[[nodiscard]] Response decode_response(std::string_view frame);

/// Validated frame header, for stream transports that read the header
/// first and then exactly `body_len` more bytes.
struct FrameHeader {
  MsgType type;
  std::uint64_t body_len = 0;
  std::uint64_t checksum = 0;
};

/// Validates magic, version, message type and body-length bounds of a
/// kHeaderSize-byte prefix.  Throws ProtocolError.
[[nodiscard]] FrameHeader decode_frame_header(std::string_view header);

/// Verifies `body` against a decoded header (length + checksum); throws
/// ProtocolError on mismatch.
void verify_body(const FrameHeader& header, std::string_view body);

}  // namespace gmfnet::rpc
