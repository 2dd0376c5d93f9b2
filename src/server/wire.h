#ifndef PAW_SERVER_WIRE_H_
#define PAW_SERVER_WIRE_H_

/// \file wire.h
/// \brief The pawd binary wire protocol: frames and message bodies.
///
/// Every request and response travels as one length-prefixed,
/// CRC-checksummed *frame*:
///
/// \code
///   +-----------+-------------+-----------+-----+--------+------------+---------+
///   | magic u32 | payload u32 | crc32 u32 | ver | opcode | req id u64 | payload |
///   +-----------+-------------+-----------+-----+--------+------------+---------+
///     "PAW!" LE   body bytes    see below   u8     u8       LE fixed64
/// \endcode
///
/// The CRC covers everything after itself — version byte, opcode byte,
/// request id, and the payload — so a frame whose length field
/// survived a partial write (or a bit flip anywhere in the covered
/// region) is rejected rather than parsed, exactly like the store's
/// record format (src/store/record.h, whose fixed/varint primitives
/// the payload codecs reuse). Payloads above `kMaxFramePayload` are
/// treated as protocol corruption, never allocated.
///
/// **Version negotiation.** The first frame on a connection must be
/// `kHello`, carrying the client's `[min_version, max_version]` range.
/// The server answers with the highest version both sides support and
/// every later frame on the connection — both directions — must carry
/// it; a disjoint range is a `FailedPrecondition` error response
/// followed by connection close. This build speaks exactly one version
/// (`kMinProtocolVersion == kProtocolVersion == 2`); the handshake
/// stays so a future version can be negotiated the same way.
///
/// **Trace-context trailer.** Every frame except HELLO — both
/// directions — carries a 16-byte trailer (`fixed64 trace_id | fixed64
/// span_id`, src/common/trace.h) appended after the body. The trailer
/// is part of the payload for framing purposes (counted by
/// `payload u32`, covered by the CRC) and is stripped by `ParseFrame`
/// into `Frame::trace`. HELLO frames never carry it: they travel before
/// the version is agreed.
///
/// **Responses** reuse the request's opcode and request id; every
/// response payload begins with `varint status_code | str message`
/// (`str` = varint length + raw bytes, as in the store's record codec),
/// followed by the op-specific body only when the status is OK.
///
/// Request/response body layouts are documented next to their structs
/// below; tools/README.md carries the operator-facing summary.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/trace.h"

namespace paw {
namespace wire {

/// \brief Frame magic: "PAW!" little-endian.
inline constexpr uint32_t kMagic = 0x21574150u;

/// \brief Newest protocol version this build speaks: frames carry the
/// trace-context trailer (see file comment).
inline constexpr uint8_t kProtocolVersion = 2;
/// \brief Oldest protocol version this build accepts. Version 1 (no
/// trace trailer) is retired.
inline constexpr uint8_t kMinProtocolVersion = 2;

/// \brief Frame header size: magic + payload_len + crc + version +
/// opcode + request id.
inline constexpr size_t kFrameHeaderSize = 4 + 4 + 4 + 1 + 1 + 8;

/// \brief Upper bound on a frame payload; larger lengths are protocol
/// corruption (a spec or execution text this large is rejected at the
/// application layer long before).
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

/// \brief Operation selector of a frame.
enum class Opcode : uint8_t {
  kHello = 1,        ///< version negotiation; first frame, pre-auth
  kAuth = 2,         ///< bind the connection to a principal
  kAddSpec = 3,      ///< durably store a specification + policy
  kAddExecution = 4, ///< durably store one execution of a stored spec
  kGetSpec = 5,      ///< fetch a spec (full access view required)
  kGetExecution = 6, ///< fetch an execution, values masked per policy
  kKeywordSearch = 7,///< repository-wide keyword search
  kStructuralQuery = 8, ///< pattern match inside the principal's view
  kLineage = 9,      ///< provenance of one data item, masked + zoomed
  kStatus = 10,      ///< server / store statistics
  kCompact = 11,     ///< fold WALs into snapshots (admin only)
  kMetrics = 12,     ///< snapshot of the process metrics registry
  kSubscribe = 13,   ///< follower attaches to the replication stream
  kReplicate = 14,   ///< leader→follower WAL batch; reply acks durability
  kTraceDump = 15,   ///< snapshot of the span flight recorder
};

/// \brief True iff `op` names a known opcode.
bool IsValidOpcode(uint8_t op);

/// \brief Short name of an opcode ("hello", "add_spec", ...).
std::string_view OpcodeName(Opcode op);

/// \brief One parsed frame.
struct Frame {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kHello;
  uint64_t request_id = 0;
  std::string payload;
  /// Trace-context trailer: filled by `ParseFrame` / consumed by
  /// `AppendFrame` on every non-HELLO frame; all zero on HELLO.
  TraceContext trace;
};

/// \brief Appends the encoded frame to `out`.
void AppendFrame(const Frame& frame, std::string* out);

/// \brief Outcome of one `ParseFrame` attempt.
enum class ParseResult {
  /// A whole, checksum-valid frame was produced.
  kFrame,
  /// The buffer holds a valid prefix; read more bytes.
  kNeedMore,
  /// The buffer cannot be (a prefix of) a valid frame: bad magic,
  /// implausible length, checksum mismatch, or unknown opcode.
  kBad,
};

/// \brief Tries to parse one frame from the head of `buf`.
///
/// On `kFrame`, `*frame` holds the message and `*consumed` the bytes
/// to drop from the buffer. On `kBad`, `*error` says why (the
/// connection should be closed — framing is unrecoverable once the
/// stream is corrupt).
ParseResult ParseFrame(std::string_view buf, Frame* frame,
                       size_t* consumed, std::string* error);

// ---- Response status preamble ----------------------------------------------

/// \brief Appends the `varint code | str message` preamble every
/// response payload starts with.
void AppendResponseStatus(const Status& status, std::string* out);

/// \brief Reads the response preamble at `*offset`, reconstructing the
/// `Status` (OK when the wire code is 0) into `*out`; returns false on
/// a malformed preamble.
bool ReadResponseStatus(std::string_view payload, size_t* offset,
                        Status* out);

// ---- Message bodies ---------------------------------------------------------
//
// Each body has an Encode* function producing the payload bytes and a
// Decode* function rebuilding the struct; both sides share them, and
// wire_test fuzzes the round trip. `str` is varint length + raw bytes.

/// \brief `kHello` request: `varint min | varint max | str client`.
struct HelloRequest {
  uint8_t min_version = kMinProtocolVersion;
  uint8_t max_version = kProtocolVersion;
  std::string client_name;
};
std::string EncodeHelloRequest(const HelloRequest& req);
Result<HelloRequest> DecodeHelloRequest(std::string_view payload);

/// \brief `kHello` response body: `varint version | str server`.
struct HelloResponse {
  uint8_t version = kProtocolVersion;
  std::string server_name;
};
std::string EncodeHelloResponse(const HelloResponse& resp);
Result<HelloResponse> DecodeHelloResponse(std::string_view payload,
                                          size_t offset);

/// \brief `kAuth` request: `str principal`.
struct AuthRequest {
  std::string principal;
};
std::string EncodeAuthRequest(const AuthRequest& req);
Result<AuthRequest> DecodeAuthRequest(std::string_view payload);

/// \brief `kAuth` response body: `varint principal_id | zigzag level`.
struct AuthResponse {
  int principal_id = -1;
  int level = 0;
};
std::string EncodeAuthResponse(const AuthResponse& resp);
Result<AuthResponse> DecodeAuthResponse(std::string_view payload,
                                        size_t offset);

/// \brief `kAddSpec` request: `str spec_text | str policy_text`.
struct AddSpecRequest {
  std::string spec_text;
  std::string policy_text;
};
std::string EncodeAddSpecRequest(const AddSpecRequest& req);
Result<AddSpecRequest> DecodeAddSpecRequest(std::string_view payload);

/// \brief `kAddSpec` response body:
/// `varint shard | varint spec_id | varint global_lsn`.
struct AddSpecResponse {
  int shard = 0;
  int spec_id = -1;
  uint64_t global_lsn = 0;
};
std::string EncodeAddSpecResponse(const AddSpecResponse& resp);
Result<AddSpecResponse> DecodeAddSpecResponse(std::string_view payload,
                                              size_t offset);

/// \brief `kAddExecution` request: `str spec_name | str exec_text`.
struct AddExecutionRequest {
  std::string spec_name;
  std::string exec_text;
};
std::string EncodeAddExecutionRequest(const AddExecutionRequest& req);
Result<AddExecutionRequest> DecodeAddExecutionRequest(
    std::string_view payload);

/// \brief `kAddExecution` response body:
/// `varint shard | varint exec_id | varint global_lsn`.
struct AddExecutionResponse {
  int shard = 0;
  int exec_id = -1;
  uint64_t global_lsn = 0;
};
std::string EncodeAddExecutionResponse(const AddExecutionResponse& resp);
Result<AddExecutionResponse> DecodeAddExecutionResponse(
    std::string_view payload, size_t offset);

/// \brief `kGetSpec` request: `str spec_name`.
struct GetSpecRequest {
  std::string spec_name;
};
std::string EncodeGetSpecRequest(const GetSpecRequest& req);
Result<GetSpecRequest> DecodeGetSpecRequest(std::string_view payload);

/// \brief `kGetSpec` response body: `str spec_text | str policy_text`.
struct GetSpecResponse {
  std::string spec_text;
  std::string policy_text;
};
std::string EncodeGetSpecResponse(const GetSpecResponse& resp);
Result<GetSpecResponse> DecodeGetSpecResponse(std::string_view payload,
                                              size_t offset);

/// \brief `kGetExecution` request: `str spec_name | varint ordinal`
/// (ordinal = index into the spec's executions, in append order).
struct GetExecutionRequest {
  std::string spec_name;
  int ordinal = 0;
};
std::string EncodeGetExecutionRequest(const GetExecutionRequest& req);
Result<GetExecutionRequest> DecodeGetExecutionRequest(
    std::string_view payload);

/// \brief `kGetExecution` response body:
/// `str exec_text | varint num_masked` — item values above the
/// principal's level arrive masked, and `num_masked` says how many.
struct GetExecutionResponse {
  std::string exec_text;
  int num_masked = 0;
};
std::string EncodeGetExecutionResponse(const GetExecutionResponse& resp);
Result<GetExecutionResponse> DecodeGetExecutionResponse(
    std::string_view payload, size_t offset);

/// \brief `kKeywordSearch` request: `varint n | n x str term`.
struct SearchRequest {
  std::vector<std::string> terms;
};
std::string EncodeSearchRequest(const SearchRequest& req);
Result<SearchRequest> DecodeSearchRequest(std::string_view payload);

/// \brief One keyword hit:
/// `str spec_name | fixed64 score_bits | varint view_size |
///  varint n x str module_code`.
struct SearchHit {
  std::string spec_name;
  double score = 0;
  int view_size = 0;
  std::vector<std::string> matched;
};

/// \brief `kKeywordSearch` response body: `varint n | n x hit`.
struct SearchResponse {
  std::vector<SearchHit> hits;
};
std::string EncodeSearchResponse(const SearchResponse& resp);
Result<SearchResponse> DecodeSearchResponse(std::string_view payload,
                                            size_t offset);

/// \brief `kStructuralQuery` request:
/// `str spec_name | varint n_vars x str term |
///  varint n_edges x { varint from | varint to | u8 transitive }`.
struct StructuralRequest {
  std::string spec_name;
  std::vector<std::string> var_terms;
  struct Edge {
    int from = 0;
    int to = 0;
    bool transitive = true;
  };
  std::vector<Edge> edges;
};
std::string EncodeStructuralRequest(const StructuralRequest& req);
Result<StructuralRequest> DecodeStructuralRequest(std::string_view payload);

/// \brief `kStructuralQuery` response body:
/// `varint n_matches x { varint k x str module_code }`.
struct StructuralResponse {
  std::vector<std::vector<std::string>> matches;
};
std::string EncodeStructuralResponse(const StructuralResponse& resp);
Result<StructuralResponse> DecodeStructuralResponse(
    std::string_view payload, size_t offset);

/// \brief `kLineage` request:
/// `str spec_name | varint ordinal | varint item`.
struct LineageRequest {
  std::string spec_name;
  int ordinal = 0;
  int item = 0;
};
std::string EncodeLineageRequest(const LineageRequest& req);
Result<LineageRequest> DecodeLineageRequest(std::string_view payload);

/// \brief `kLineage` response body:
/// `varint zoom_steps | varint n x str prefix_code |
///  varint n x str row`.
struct LineageResponse {
  int zoom_steps = 0;
  std::vector<std::string> prefix_codes;
  std::vector<std::string> rows;
};
std::string EncodeLineageResponse(const LineageResponse& resp);
Result<LineageResponse> DecodeLineageResponse(std::string_view payload,
                                              size_t offset);

/// \brief `kStatus` response body (request payload is empty):
/// `varint shards | varint specs | varint executions |
///  varint principals | varint connections | str text`.
struct StatusResponse {
  int shards = 0;
  int specs = 0;
  int executions = 0;
  int principals = 0;
  int connections = 0;
  std::string text;
};
std::string EncodeStatusResponse(const StatusResponse& resp);
Result<StatusResponse> DecodeStatusResponse(std::string_view payload,
                                            size_t offset);

/// \brief `kMetrics` response body (request payload is empty): the
/// varint-encoded registry snapshot (src/common/metrics.h codec).
struct MetricsResponse {
  MetricsSnapshot snapshot;
};
std::string EncodeMetricsResponse(const MetricsResponse& resp);
Result<MetricsResponse> DecodeMetricsResponse(std::string_view payload,
                                              size_t offset);

// ---- Replication ------------------------------------------------------------
//
// A follower connects like any client (HELLO, AUTH as an admin-level
// principal), then sends one `kSubscribe` carrying its per-shard
// last-applied WAL LSNs. From the response on, the connection
// *inverts*: the leader pushes `kReplicate` request frames (each one
// shard's contiguous record batch) and the follower answers each with
// a `kReplicate` response frame acking the shard's durable LSN. LSNs
// here are raw per-shard WAL LSNs, never epoch-prefixed global ones.

/// \brief `kSubscribe` request:
/// `varint n_shards | n x varint last_lsn | str follower_name`
/// (`last_lsn` = highest WAL LSN the follower has applied for that
/// shard; 0 means "from the beginning").
struct SubscribeRequest {
  std::vector<uint64_t> last_lsns;
  std::string follower_name;
};
std::string EncodeSubscribeRequest(const SubscribeRequest& req);
Result<SubscribeRequest> DecodeSubscribeRequest(std::string_view payload);

/// \brief `kSubscribe` response body:
/// `varint n_shards | n x varint leader_lsn` — the leader's current
/// per-shard WAL tail, so the follower knows its initial lag.
struct SubscribeResponse {
  std::vector<uint64_t> leader_lsns;
};
std::string EncodeSubscribeResponse(const SubscribeResponse& resp);
Result<SubscribeResponse> DecodeSubscribeResponse(std::string_view payload,
                                                  size_t offset);

/// \brief `kReplicate` request (leader→follower push):
/// `varint shard | varint base_lsn | varint n |
///  n x { u8 record_type | str payload }` — `base_lsn` is the WAL LSN
/// of `records[0]`; the batch is contiguous, so records[i] has LSN
/// `base_lsn + i`.
struct ReplicateRequest {
  struct Rec {
    uint8_t type = 0;
    std::string payload;
  };
  int shard = 0;
  uint64_t base_lsn = 0;
  std::vector<Rec> records;
};
std::string EncodeReplicateRequest(const ReplicateRequest& req);
Result<ReplicateRequest> DecodeReplicateRequest(std::string_view payload);

/// \brief `kReplicate` response body (follower→leader ack):
/// `varint shard | varint durable_lsn` — every record of that shard up
/// to `durable_lsn` is applied and durable in the follower's own WAL.
struct ReplicateResponse {
  int shard = 0;
  uint64_t durable_lsn = 0;
};
std::string EncodeReplicateResponse(const ReplicateResponse& resp);
Result<ReplicateResponse> DecodeReplicateResponse(std::string_view payload,
                                                  size_t offset);

// ---- Tracing ----------------------------------------------------------------

/// \brief Which ring entries a `kTraceDump` request selects.
enum class TraceDumpMode : uint8_t {
  kAll = 0,     ///< every span in the ring
  kSlow = 1,    ///< traces whose root span is flagged slow
  kErrors = 2,  ///< traces whose root span is flagged error
  kById = 3,    ///< spans of `trace_id` only
  kAudit = 4,   ///< audit events only
};

/// \brief `kTraceDump` request:
/// `u8 mode | fixed64 trace_id | varint max_spans` (`trace_id` only
/// meaningful for `kById`; `max_spans` 0 = server default).
struct TraceDumpRequest {
  TraceDumpMode mode = TraceDumpMode::kAll;
  uint64_t trace_id = 0;
  uint32_t max_spans = 0;
};
std::string EncodeTraceDumpRequest(const TraceDumpRequest& req);
Result<TraceDumpRequest> DecodeTraceDumpRequest(std::string_view payload);

/// \brief `kTraceDump` response body: `varint dropped | span list`
/// (src/common/trace.h codec). `dropped` = spans that matched but were
/// cut by `max_spans` (oldest first).
struct TraceDumpResponse {
  uint64_t dropped = 0;
  std::vector<Span> spans;
};
std::string EncodeTraceDumpResponse(const TraceDumpResponse& resp);
Result<TraceDumpResponse> DecodeTraceDumpResponse(std::string_view payload,
                                                  size_t offset);

}  // namespace wire
}  // namespace paw

#endif  // PAW_SERVER_WIRE_H_
