#include "src/server/wire.h"

#include "src/common/crc32.h"
#include "src/store/record.h"

namespace paw {
namespace wire {
namespace {

/// Reads a `str` (varint length + raw bytes) into an owning string.
bool GetString(std::string_view buf, size_t* offset, std::string* out) {
  std::string_view v;
  if (!GetLengthPrefixed(buf, offset, &v)) return false;
  out->assign(v);
  return true;
}

/// Reads a varint that must fit a non-negative int.
bool GetCount(std::string_view buf, size_t* offset, int* out) {
  uint32_t v = 0;
  if (!GetVarint32(buf, offset, &v)) return false;
  if (v > static_cast<uint32_t>(INT32_MAX)) return false;
  *out = static_cast<int>(v);
  return true;
}

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed " + std::string(what) +
                                 " payload");
}

/// A list length must be plausible against the remaining bytes (each
/// element costs at least one byte) — rejects absurd counts before any
/// allocation.
bool PlausibleCount(std::string_view buf, size_t offset, int n) {
  return n >= 0 && static_cast<size_t>(n) <= buf.size() - offset + 1;
}

}  // namespace

bool IsValidOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kHello) &&
         op <= static_cast<uint8_t>(Opcode::kTraceDump);
}

namespace {

/// True iff a frame of this opcode carries the 16-byte trace-context
/// trailer after its body. HELLO is exempt: it travels before the
/// version is agreed.
bool FrameHasTraceTrailer(Opcode opcode) { return opcode != Opcode::kHello; }

}  // namespace

std::string_view OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello: return "hello";
    case Opcode::kAuth: return "auth";
    case Opcode::kAddSpec: return "add_spec";
    case Opcode::kAddExecution: return "add_execution";
    case Opcode::kGetSpec: return "get_spec";
    case Opcode::kGetExecution: return "get_execution";
    case Opcode::kKeywordSearch: return "keyword_search";
    case Opcode::kStructuralQuery: return "structural_query";
    case Opcode::kLineage: return "lineage";
    case Opcode::kStatus: return "status";
    case Opcode::kCompact: return "compact";
    case Opcode::kMetrics: return "metrics";
    case Opcode::kSubscribe: return "subscribe";
    case Opcode::kReplicate: return "replicate";
    case Opcode::kTraceDump: return "trace_dump";
  }
  return "unknown";
}

void AppendFrame(const Frame& frame, std::string* out) {
  // CRC covers version..payload; build that region once, checksum it,
  // then splice the prefix in front. On non-HELLO frames the
  // trace-context trailer rides inside the payload region (counted and
  // checksummed like body bytes).
  const bool trailer = FrameHasTraceTrailer(frame.opcode);
  std::string covered;
  covered.reserve(1 + 1 + 8 + frame.payload.size() +
                  (trailer ? kTraceContextBytes : 0));
  covered.push_back(static_cast<char>(frame.version));
  covered.push_back(static_cast<char>(frame.opcode));
  PutFixed64(&covered, frame.request_id);
  covered.append(frame.payload);
  if (trailer) AppendTraceContext(frame.trace, &covered);

  PutFixed32(out, kMagic);
  PutFixed32(out, static_cast<uint32_t>(covered.size() - 10));
  PutFixed32(out, Crc32(covered));
  out->append(covered);
}

ParseResult ParseFrame(std::string_view buf, Frame* frame,
                       size_t* consumed, std::string* error) {
  *consumed = 0;
  // The fixed prefix (magic + payload_len + crc) is enough to validate
  // framing before waiting for the body.
  if (buf.size() < 4) {
    // A partial magic must still be a prefix of the real magic.
    std::string magic_bytes;
    PutFixed32(&magic_bytes, kMagic);
    if (buf != std::string_view(magic_bytes).substr(0, buf.size())) {
      *error = "bad frame magic";
      return ParseResult::kBad;
    }
    return ParseResult::kNeedMore;
  }
  size_t offset = 0;
  uint32_t magic = 0, payload_len = 0, crc = 0;
  GetFixed32(buf, &offset, &magic);
  if (magic != kMagic) {
    *error = "bad frame magic";
    return ParseResult::kBad;
  }
  if (buf.size() < 12) return ParseResult::kNeedMore;
  GetFixed32(buf, &offset, &payload_len);
  GetFixed32(buf, &offset, &crc);
  if (payload_len > kMaxFramePayload) {
    *error = "frame payload length " + std::to_string(payload_len) +
             " exceeds cap";
    return ParseResult::kBad;
  }
  const size_t total = kFrameHeaderSize + payload_len;
  if (buf.size() < total) return ParseResult::kNeedMore;

  const std::string_view covered = buf.substr(12, 1 + 1 + 8 + payload_len);
  if (Crc32(covered) != crc) {
    *error = "frame checksum mismatch";
    return ParseResult::kBad;
  }
  const uint8_t version = static_cast<uint8_t>(covered[0]);
  const uint8_t opcode = static_cast<uint8_t>(covered[1]);
  if (!IsValidOpcode(opcode)) {
    *error = "unknown opcode " + std::to_string(opcode);
    return ParseResult::kBad;
  }
  frame->version = version;
  frame->opcode = static_cast<Opcode>(opcode);
  size_t id_offset = 2;
  GetFixed64(covered, &id_offset, &frame->request_id);
  std::string_view body = covered.substr(10);
  frame->trace = TraceContext{};
  if (FrameHasTraceTrailer(frame->opcode)) {
    if (body.size() < kTraceContextBytes) {
      *error = "frame too short for trace trailer";
      return ParseResult::kBad;
    }
    ParseTraceContext(body.substr(body.size() - kTraceContextBytes),
                      &frame->trace);
    body.remove_suffix(kTraceContextBytes);
  }
  frame->payload.assign(body);
  *consumed = total;
  return ParseResult::kFrame;
}

void AppendResponseStatus(const Status& status, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(status.code()));
  PutLengthPrefixed(out, status.message());
}

bool ReadResponseStatus(std::string_view payload, size_t* offset,
                        Status* out) {
  uint32_t code = 0;
  std::string message;
  if (!GetVarint32(payload, offset, &code) ||
      !GetString(payload, offset, &message) ||
      code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return false;
  }
  *out = code == 0 ? Status::OK()
                   : Status(static_cast<StatusCode>(code),
                            std::move(message));
  return true;
}

// ---- Hello ------------------------------------------------------------------

std::string EncodeHelloRequest(const HelloRequest& req) {
  std::string out;
  PutVarint32(&out, req.min_version);
  PutVarint32(&out, req.max_version);
  PutLengthPrefixed(&out, req.client_name);
  return out;
}

Result<HelloRequest> DecodeHelloRequest(std::string_view payload) {
  HelloRequest req;
  size_t offset = 0;
  uint32_t min_v = 0, max_v = 0;
  if (!GetVarint32(payload, &offset, &min_v) ||
      !GetVarint32(payload, &offset, &max_v) ||
      !GetString(payload, &offset, &req.client_name) ||
      offset != payload.size() || min_v > 255 || max_v > 255) {
    return Malformed("hello request");
  }
  req.min_version = static_cast<uint8_t>(min_v);
  req.max_version = static_cast<uint8_t>(max_v);
  return req;
}

std::string EncodeHelloResponse(const HelloResponse& resp) {
  std::string out;
  PutVarint32(&out, resp.version);
  PutLengthPrefixed(&out, resp.server_name);
  return out;
}

Result<HelloResponse> DecodeHelloResponse(std::string_view payload,
                                          size_t offset) {
  HelloResponse resp;
  uint32_t version = 0;
  if (!GetVarint32(payload, &offset, &version) ||
      !GetString(payload, &offset, &resp.server_name) ||
      offset != payload.size() || version > 255) {
    return Malformed("hello response");
  }
  resp.version = static_cast<uint8_t>(version);
  return resp;
}

// ---- Auth -------------------------------------------------------------------

std::string EncodeAuthRequest(const AuthRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.principal);
  return out;
}

Result<AuthRequest> DecodeAuthRequest(std::string_view payload) {
  AuthRequest req;
  size_t offset = 0;
  if (!GetString(payload, &offset, &req.principal) ||
      offset != payload.size()) {
    return Malformed("auth request");
  }
  return req;
}

std::string EncodeAuthResponse(const AuthResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.principal_id));
  PutVarint32(&out, ZigZag32(resp.level));
  return out;
}

Result<AuthResponse> DecodeAuthResponse(std::string_view payload,
                                        size_t offset) {
  AuthResponse resp;
  uint32_t id = 0, level = 0;
  if (!GetVarint32(payload, &offset, &id) ||
      !GetVarint32(payload, &offset, &level) ||
      offset != payload.size() ||
      id > static_cast<uint32_t>(INT32_MAX)) {
    return Malformed("auth response");
  }
  resp.principal_id = static_cast<int>(id);
  resp.level = UnZigZag32(level);
  return resp;
}

// ---- AddSpec ----------------------------------------------------------------

std::string EncodeAddSpecRequest(const AddSpecRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.spec_text);
  PutLengthPrefixed(&out, req.policy_text);
  return out;
}

Result<AddSpecRequest> DecodeAddSpecRequest(std::string_view payload) {
  AddSpecRequest req;
  size_t offset = 0;
  if (!GetString(payload, &offset, &req.spec_text) ||
      !GetString(payload, &offset, &req.policy_text) ||
      offset != payload.size()) {
    return Malformed("add_spec request");
  }
  return req;
}

namespace {

/// Shared layout of the AddSpec / AddExecution response bodies:
/// `varint shard | varint id | varint global_lsn`.
std::string EncodeAddResponse(int shard, int id, uint64_t global_lsn) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(shard));
  PutVarint32(&out, static_cast<uint32_t>(id));
  PutVarint64(&out, global_lsn);
  return out;
}

bool DecodeAddResponse(std::string_view payload, size_t offset, int* shard,
                       int* id, uint64_t* global_lsn) {
  uint32_t s = 0, i = 0;
  if (!GetVarint32(payload, &offset, &s) ||
      !GetVarint32(payload, &offset, &i) ||
      !GetVarint64(payload, &offset, global_lsn) ||
      offset != payload.size() ||
      s > static_cast<uint32_t>(INT32_MAX) ||
      i > static_cast<uint32_t>(INT32_MAX)) {
    return false;
  }
  *shard = static_cast<int>(s);
  *id = static_cast<int>(i);
  return true;
}

}  // namespace

std::string EncodeAddSpecResponse(const AddSpecResponse& resp) {
  return EncodeAddResponse(resp.shard, resp.spec_id, resp.global_lsn);
}

Result<AddSpecResponse> DecodeAddSpecResponse(std::string_view payload,
                                              size_t offset) {
  AddSpecResponse resp;
  if (!DecodeAddResponse(payload, offset, &resp.shard, &resp.spec_id,
                         &resp.global_lsn)) {
    return Malformed("add_spec response");
  }
  return resp;
}

// ---- AddExecution -----------------------------------------------------------

std::string EncodeAddExecutionRequest(const AddExecutionRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.spec_name);
  PutLengthPrefixed(&out, req.exec_text);
  return out;
}

Result<AddExecutionRequest> DecodeAddExecutionRequest(
    std::string_view payload) {
  AddExecutionRequest req;
  size_t offset = 0;
  if (!GetString(payload, &offset, &req.spec_name) ||
      !GetString(payload, &offset, &req.exec_text) ||
      offset != payload.size()) {
    return Malformed("add_execution request");
  }
  return req;
}

std::string EncodeAddExecutionResponse(const AddExecutionResponse& resp) {
  return EncodeAddResponse(resp.shard, resp.exec_id, resp.global_lsn);
}

Result<AddExecutionResponse> DecodeAddExecutionResponse(
    std::string_view payload, size_t offset) {
  AddExecutionResponse resp;
  if (!DecodeAddResponse(payload, offset, &resp.shard, &resp.exec_id,
                         &resp.global_lsn)) {
    return Malformed("add_execution response");
  }
  return resp;
}

// ---- GetSpec ----------------------------------------------------------------

std::string EncodeGetSpecRequest(const GetSpecRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.spec_name);
  return out;
}

Result<GetSpecRequest> DecodeGetSpecRequest(std::string_view payload) {
  GetSpecRequest req;
  size_t offset = 0;
  if (!GetString(payload, &offset, &req.spec_name) ||
      offset != payload.size()) {
    return Malformed("get_spec request");
  }
  return req;
}

std::string EncodeGetSpecResponse(const GetSpecResponse& resp) {
  std::string out;
  PutLengthPrefixed(&out, resp.spec_text);
  PutLengthPrefixed(&out, resp.policy_text);
  return out;
}

Result<GetSpecResponse> DecodeGetSpecResponse(std::string_view payload,
                                              size_t offset) {
  GetSpecResponse resp;
  if (!GetString(payload, &offset, &resp.spec_text) ||
      !GetString(payload, &offset, &resp.policy_text) ||
      offset != payload.size()) {
    return Malformed("get_spec response");
  }
  return resp;
}

// ---- GetExecution -----------------------------------------------------------

std::string EncodeGetExecutionRequest(const GetExecutionRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.spec_name);
  PutVarint32(&out, static_cast<uint32_t>(req.ordinal));
  return out;
}

Result<GetExecutionRequest> DecodeGetExecutionRequest(
    std::string_view payload) {
  GetExecutionRequest req;
  size_t offset = 0;
  if (!GetString(payload, &offset, &req.spec_name) ||
      !GetCount(payload, &offset, &req.ordinal) ||
      offset != payload.size()) {
    return Malformed("get_execution request");
  }
  return req;
}

std::string EncodeGetExecutionResponse(const GetExecutionResponse& resp) {
  std::string out;
  PutLengthPrefixed(&out, resp.exec_text);
  PutVarint32(&out, static_cast<uint32_t>(resp.num_masked));
  return out;
}

Result<GetExecutionResponse> DecodeGetExecutionResponse(
    std::string_view payload, size_t offset) {
  GetExecutionResponse resp;
  if (!GetString(payload, &offset, &resp.exec_text) ||
      !GetCount(payload, &offset, &resp.num_masked) ||
      offset != payload.size()) {
    return Malformed("get_execution response");
  }
  return resp;
}

// ---- KeywordSearch ----------------------------------------------------------

std::string EncodeSearchRequest(const SearchRequest& req) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(req.terms.size()));
  for (const std::string& term : req.terms) {
    PutLengthPrefixed(&out, term);
  }
  return out;
}

Result<SearchRequest> DecodeSearchRequest(std::string_view payload) {
  SearchRequest req;
  size_t offset = 0;
  int n = 0;
  if (!GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("search request");
  }
  req.terms.resize(static_cast<size_t>(n));
  for (std::string& term : req.terms) {
    if (!GetString(payload, &offset, &term)) {
      return Malformed("search request");
    }
  }
  if (offset != payload.size()) return Malformed("search request");
  return req;
}

namespace {

void EncodeSearchHit(const SearchHit& hit, std::string* out) {
  PutLengthPrefixed(out, hit.spec_name);
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(hit.score));
  __builtin_memcpy(&bits, &hit.score, sizeof(bits));
  PutFixed64(out, bits);
  PutVarint32(out, static_cast<uint32_t>(hit.view_size));
  PutVarint32(out, static_cast<uint32_t>(hit.matched.size()));
  for (const std::string& code : hit.matched) {
    PutLengthPrefixed(out, code);
  }
}

bool DecodeSearchHit(std::string_view payload, size_t* offset,
                     SearchHit* hit) {
  uint64_t bits = 0;
  int n = 0;
  if (!GetString(payload, offset, &hit->spec_name) ||
      !GetFixed64(payload, offset, &bits) ||
      !GetCount(payload, offset, &hit->view_size) ||
      !GetCount(payload, offset, &n) ||
      !PlausibleCount(payload, *offset, n)) {
    return false;
  }
  __builtin_memcpy(&hit->score, &bits, sizeof(bits));
  hit->matched.resize(static_cast<size_t>(n));
  for (std::string& code : hit->matched) {
    if (!GetString(payload, offset, &code)) return false;
  }
  return true;
}

}  // namespace

std::string EncodeSearchResponse(const SearchResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.hits.size()));
  for (const SearchHit& hit : resp.hits) EncodeSearchHit(hit, &out);
  return out;
}

Result<SearchResponse> DecodeSearchResponse(std::string_view payload,
                                            size_t offset) {
  SearchResponse resp;
  int n = 0;
  if (!GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("search response");
  }
  resp.hits.resize(static_cast<size_t>(n));
  for (SearchHit& hit : resp.hits) {
    if (!DecodeSearchHit(payload, &offset, &hit)) {
      return Malformed("search response");
    }
  }
  if (offset != payload.size()) return Malformed("search response");
  return resp;
}

// ---- StructuralQuery --------------------------------------------------------

std::string EncodeStructuralRequest(const StructuralRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.spec_name);
  PutVarint32(&out, static_cast<uint32_t>(req.var_terms.size()));
  for (const std::string& term : req.var_terms) {
    PutLengthPrefixed(&out, term);
  }
  PutVarint32(&out, static_cast<uint32_t>(req.edges.size()));
  for (const StructuralRequest::Edge& edge : req.edges) {
    PutVarint32(&out, static_cast<uint32_t>(edge.from));
    PutVarint32(&out, static_cast<uint32_t>(edge.to));
    out.push_back(edge.transitive ? 1 : 0);
  }
  return out;
}

Result<StructuralRequest> DecodeStructuralRequest(
    std::string_view payload) {
  StructuralRequest req;
  size_t offset = 0;
  int n_vars = 0;
  if (!GetString(payload, &offset, &req.spec_name) ||
      !GetCount(payload, &offset, &n_vars) ||
      !PlausibleCount(payload, offset, n_vars)) {
    return Malformed("structural request");
  }
  req.var_terms.resize(static_cast<size_t>(n_vars));
  for (std::string& term : req.var_terms) {
    if (!GetString(payload, &offset, &term)) {
      return Malformed("structural request");
    }
  }
  int n_edges = 0;
  if (!GetCount(payload, &offset, &n_edges) ||
      !PlausibleCount(payload, offset, n_edges)) {
    return Malformed("structural request");
  }
  req.edges.resize(static_cast<size_t>(n_edges));
  for (StructuralRequest::Edge& edge : req.edges) {
    std::string_view flag;
    if (!GetCount(payload, &offset, &edge.from) ||
        !GetCount(payload, &offset, &edge.to) ||
        !GetBytes(payload, &offset, 1, &flag)) {
      return Malformed("structural request");
    }
    edge.transitive = flag[0] != 0;
  }
  if (offset != payload.size()) return Malformed("structural request");
  return req;
}

std::string EncodeStructuralResponse(const StructuralResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.matches.size()));
  for (const std::vector<std::string>& match : resp.matches) {
    PutVarint32(&out, static_cast<uint32_t>(match.size()));
    for (const std::string& code : match) PutLengthPrefixed(&out, code);
  }
  return out;
}

Result<StructuralResponse> DecodeStructuralResponse(
    std::string_view payload, size_t offset) {
  StructuralResponse resp;
  int n = 0;
  if (!GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("structural response");
  }
  resp.matches.resize(static_cast<size_t>(n));
  for (std::vector<std::string>& match : resp.matches) {
    int k = 0;
    if (!GetCount(payload, &offset, &k) ||
        !PlausibleCount(payload, offset, k)) {
      return Malformed("structural response");
    }
    match.resize(static_cast<size_t>(k));
    for (std::string& code : match) {
      if (!GetString(payload, &offset, &code)) {
        return Malformed("structural response");
      }
    }
  }
  if (offset != payload.size()) return Malformed("structural response");
  return resp;
}

// ---- Lineage ----------------------------------------------------------------

std::string EncodeLineageRequest(const LineageRequest& req) {
  std::string out;
  PutLengthPrefixed(&out, req.spec_name);
  PutVarint32(&out, static_cast<uint32_t>(req.ordinal));
  PutVarint32(&out, static_cast<uint32_t>(req.item));
  return out;
}

Result<LineageRequest> DecodeLineageRequest(std::string_view payload) {
  LineageRequest req;
  size_t offset = 0;
  if (!GetString(payload, &offset, &req.spec_name) ||
      !GetCount(payload, &offset, &req.ordinal) ||
      !GetCount(payload, &offset, &req.item) ||
      offset != payload.size()) {
    return Malformed("lineage request");
  }
  return req;
}

std::string EncodeLineageResponse(const LineageResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.zoom_steps));
  PutVarint32(&out, static_cast<uint32_t>(resp.prefix_codes.size()));
  for (const std::string& code : resp.prefix_codes) {
    PutLengthPrefixed(&out, code);
  }
  PutVarint32(&out, static_cast<uint32_t>(resp.rows.size()));
  for (const std::string& row : resp.rows) PutLengthPrefixed(&out, row);
  return out;
}

Result<LineageResponse> DecodeLineageResponse(std::string_view payload,
                                              size_t offset) {
  LineageResponse resp;
  int n = 0;
  if (!GetCount(payload, &offset, &resp.zoom_steps) ||
      !GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("lineage response");
  }
  resp.prefix_codes.resize(static_cast<size_t>(n));
  for (std::string& code : resp.prefix_codes) {
    if (!GetString(payload, &offset, &code)) {
      return Malformed("lineage response");
    }
  }
  if (!GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("lineage response");
  }
  resp.rows.resize(static_cast<size_t>(n));
  for (std::string& row : resp.rows) {
    if (!GetString(payload, &offset, &row)) {
      return Malformed("lineage response");
    }
  }
  if (offset != payload.size()) return Malformed("lineage response");
  return resp;
}

// ---- Status -----------------------------------------------------------------

std::string EncodeStatusResponse(const StatusResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.shards));
  PutVarint32(&out, static_cast<uint32_t>(resp.specs));
  PutVarint32(&out, static_cast<uint32_t>(resp.executions));
  PutVarint32(&out, static_cast<uint32_t>(resp.principals));
  PutVarint32(&out, static_cast<uint32_t>(resp.connections));
  PutLengthPrefixed(&out, resp.text);
  return out;
}

Result<StatusResponse> DecodeStatusResponse(std::string_view payload,
                                            size_t offset) {
  StatusResponse resp;
  if (!GetCount(payload, &offset, &resp.shards) ||
      !GetCount(payload, &offset, &resp.specs) ||
      !GetCount(payload, &offset, &resp.executions) ||
      !GetCount(payload, &offset, &resp.principals) ||
      !GetCount(payload, &offset, &resp.connections) ||
      !GetString(payload, &offset, &resp.text) ||
      offset != payload.size()) {
    return Malformed("status response");
  }
  return resp;
}

// ---- Metrics ----------------------------------------------------------------

std::string EncodeMetricsResponse(const MetricsResponse& resp) {
  return EncodeMetricsSnapshot(resp.snapshot);
}

Result<MetricsResponse> DecodeMetricsResponse(std::string_view payload,
                                              size_t offset) {
  MetricsResponse resp;
  auto snapshot = DecodeMetricsSnapshot(payload, &offset);
  if (!snapshot.ok() || offset != payload.size()) {
    return Malformed("metrics response");
  }
  resp.snapshot = std::move(snapshot).value();
  return resp;
}

// ---- Subscribe --------------------------------------------------------------

std::string EncodeSubscribeRequest(const SubscribeRequest& req) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(req.last_lsns.size()));
  for (uint64_t lsn : req.last_lsns) PutVarint64(&out, lsn);
  PutLengthPrefixed(&out, req.follower_name);
  return out;
}

Result<SubscribeRequest> DecodeSubscribeRequest(std::string_view payload) {
  SubscribeRequest req;
  size_t offset = 0;
  int n = 0;
  if (!GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("subscribe request");
  }
  req.last_lsns.resize(static_cast<size_t>(n));
  for (uint64_t& lsn : req.last_lsns) {
    if (!GetVarint64(payload, &offset, &lsn)) {
      return Malformed("subscribe request");
    }
  }
  if (!GetString(payload, &offset, &req.follower_name) ||
      offset != payload.size()) {
    return Malformed("subscribe request");
  }
  return req;
}

std::string EncodeSubscribeResponse(const SubscribeResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.leader_lsns.size()));
  for (uint64_t lsn : resp.leader_lsns) PutVarint64(&out, lsn);
  return out;
}

Result<SubscribeResponse> DecodeSubscribeResponse(std::string_view payload,
                                                  size_t offset) {
  SubscribeResponse resp;
  int n = 0;
  if (!GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("subscribe response");
  }
  resp.leader_lsns.resize(static_cast<size_t>(n));
  for (uint64_t& lsn : resp.leader_lsns) {
    if (!GetVarint64(payload, &offset, &lsn)) {
      return Malformed("subscribe response");
    }
  }
  if (offset != payload.size()) return Malformed("subscribe response");
  return resp;
}

// ---- Replicate --------------------------------------------------------------

std::string EncodeReplicateRequest(const ReplicateRequest& req) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(req.shard));
  PutVarint64(&out, req.base_lsn);
  PutVarint32(&out, static_cast<uint32_t>(req.records.size()));
  for (const ReplicateRequest::Rec& rec : req.records) {
    out.push_back(static_cast<char>(rec.type));
    PutLengthPrefixed(&out, rec.payload);
  }
  return out;
}

Result<ReplicateRequest> DecodeReplicateRequest(std::string_view payload) {
  ReplicateRequest req;
  size_t offset = 0;
  int n = 0;
  if (!GetCount(payload, &offset, &req.shard) ||
      !GetVarint64(payload, &offset, &req.base_lsn) ||
      !GetCount(payload, &offset, &n) ||
      !PlausibleCount(payload, offset, n)) {
    return Malformed("replicate request");
  }
  req.records.resize(static_cast<size_t>(n));
  for (ReplicateRequest::Rec& rec : req.records) {
    std::string_view type_byte;
    if (!GetBytes(payload, &offset, 1, &type_byte) ||
        !GetString(payload, &offset, &rec.payload)) {
      return Malformed("replicate request");
    }
    rec.type = static_cast<uint8_t>(type_byte[0]);
  }
  if (offset != payload.size()) return Malformed("replicate request");
  return req;
}

std::string EncodeReplicateResponse(const ReplicateResponse& resp) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(resp.shard));
  PutVarint64(&out, resp.durable_lsn);
  return out;
}

Result<ReplicateResponse> DecodeReplicateResponse(std::string_view payload,
                                                  size_t offset) {
  ReplicateResponse resp;
  if (!GetCount(payload, &offset, &resp.shard) ||
      !GetVarint64(payload, &offset, &resp.durable_lsn) ||
      offset != payload.size()) {
    return Malformed("replicate response");
  }
  return resp;
}

// ---- TraceDump --------------------------------------------------------------

std::string EncodeTraceDumpRequest(const TraceDumpRequest& req) {
  std::string out;
  out.push_back(static_cast<char>(req.mode));
  PutFixed64(&out, req.trace_id);
  PutVarint32(&out, req.max_spans);
  return out;
}

Result<TraceDumpRequest> DecodeTraceDumpRequest(std::string_view payload) {
  TraceDumpRequest req;
  size_t offset = 0;
  std::string_view mode_byte;
  if (!GetBytes(payload, &offset, 1, &mode_byte) ||
      !GetFixed64(payload, &offset, &req.trace_id) ||
      !GetVarint32(payload, &offset, &req.max_spans) ||
      offset != payload.size()) {
    return Malformed("trace_dump request");
  }
  const uint8_t mode = static_cast<uint8_t>(mode_byte[0]);
  if (mode > static_cast<uint8_t>(TraceDumpMode::kAudit)) {
    return Malformed("trace_dump request");
  }
  req.mode = static_cast<TraceDumpMode>(mode);
  return req;
}

std::string EncodeTraceDumpResponse(const TraceDumpResponse& resp) {
  std::string out;
  PutVarint64(&out, resp.dropped);
  out += EncodeSpans(resp.spans);
  return out;
}

Result<TraceDumpResponse> DecodeTraceDumpResponse(std::string_view payload,
                                                  size_t offset) {
  TraceDumpResponse resp;
  if (!GetVarint64(payload, &offset, &resp.dropped)) {
    return Malformed("trace_dump response");
  }
  auto spans = DecodeSpans(payload, &offset);
  if (!spans.ok()) return spans.status();
  if (offset != payload.size()) return Malformed("trace_dump response");
  resp.spans = std::move(spans).value();
  return resp;
}

}  // namespace wire
}  // namespace paw
