#include "src/client/paw_client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_set>

namespace paw {
namespace {

Status ErrnoStatus(const std::string& op) {
  return Status::Internal(op + ": " + std::strerror(errno));
}

}  // namespace

struct PawClient::Rep {
  int fd = -1;
  uint8_t version = wire::kProtocolVersion;
  std::string server_name;
  uint64_t next_request_id = 1;
  /// Tickets of pipelined requests sent but not yet awaited. Only
  /// responses matching one of these ids are worth stashing; anything
  /// else the server sends is dropped (it can never be awaited).
  std::unordered_set<uint64_t> outstanding;
  /// Responses read while waiting for a different request id; bounded
  /// by `max_stashed` — overflow poisons the connection.
  std::unordered_map<uint64_t, wire::Frame> stashed;
  size_t max_stashed = 4096;
  /// Trace id stamped on the most recent request frame.
  uint64_t last_trace_id = 0;
  /// Unconsumed bytes of the read stream.
  std::string in;
  /// Sticky transport/framing error.
  Status error;

  ~Rep() {
    if (fd >= 0) ::close(fd);
  }

  /// Sets the sticky error and discards state no later call can use:
  /// stashed responses can never be redeemed once the connection is
  /// poisoned, and clearing `outstanding` makes every later Await
  /// fail fast on the sticky error instead of reading the socket.
  Status Poison(Status status) {
    error = std::move(status);
    stashed.clear();
    outstanding.clear();
    return error;
  }

  Status WriteAll(std::string_view data) {
    PAW_RETURN_NOT_OK(error);
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Poison(ErrnoStatus("write"));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status SendFrame(wire::Opcode opcode, uint64_t request_id,
                   std::string payload, TraceContext ctx = {}) {
    wire::Frame frame;
    frame.version = version;
    frame.opcode = opcode;
    frame.request_id = request_id;
    frame.payload = std::move(payload);
    if (opcode != wire::Opcode::kHello) {
      // Every request carries a trace context: the caller's (an
      // explicit one, or the thread's current trace when this call is
      // nested inside one), else a fresh id so the server can stitch
      // all of this request's spans together.
      if (!ctx.valid()) ctx = CurrentTraceContext();
      if (!ctx.valid()) {
        ctx.trace_id = TraceRecorder::Global().NewTraceId();
      }
      frame.trace = ctx;
      last_trace_id = ctx.trace_id;
    }
    std::string bytes;
    AppendFrame(frame, &bytes);
    return WriteAll(bytes);
  }

  /// Reads frames until the one with `request_id` arrives; other
  /// responses (pipelining completing out of order) are stashed.
  Result<wire::Frame> ReadResponse(uint64_t request_id) {
    PAW_RETURN_NOT_OK(error);
    auto it = stashed.find(request_id);
    if (it != stashed.end()) {
      wire::Frame frame = std::move(it->second);
      stashed.erase(it);
      return frame;
    }
    char buf[64 << 10];
    for (;;) {
      // Try to parse what we have first.
      for (;;) {
        wire::Frame frame;
        size_t consumed = 0;
        std::string parse_error;
        const wire::ParseResult result =
            wire::ParseFrame(in, &frame, &consumed, &parse_error);
        if (result == wire::ParseResult::kBad) {
          return Poison(Status::Internal("protocol error: " + parse_error));
        }
        if (result == wire::ParseResult::kNeedMore) break;
        in.erase(0, consumed);
        if (frame.request_id == request_id) return frame;
        if (outstanding.count(frame.request_id) == 0) continue;
        if (stashed.size() >= max_stashed) {
          return Poison(Status::FailedPrecondition(
              "pipelined response stash overflow (" +
              std::to_string(stashed.size()) +
              " unawaited responses); await tickets as they complete"));
        }
        stashed.emplace(frame.request_id, std::move(frame));
      }
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) {
        return Poison(Status::Internal(
            "connection closed by server while awaiting response"));
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return Poison(ErrnoStatus("read"));
      }
      in.append(buf, static_cast<size_t>(n));
    }
  }

  /// One sync round trip: send, await, check the status preamble, and
  /// return (payload, body offset).
  Result<std::pair<std::string, size_t>> Call(wire::Opcode opcode,
                                              std::string payload) {
    const uint64_t id = next_request_id++;
    PAW_RETURN_NOT_OK(SendFrame(opcode, id, std::move(payload)));
    PAW_ASSIGN_OR_RETURN(wire::Frame frame, ReadResponse(id));
    if (frame.opcode != opcode) {
      return Poison(Status::Internal("response opcode mismatch"));
    }
    size_t offset = 0;
    Status status;
    if (!wire::ReadResponseStatus(frame.payload, &offset, &status)) {
      return Poison(Status::Internal("malformed response status preamble"));
    }
    PAW_RETURN_NOT_OK(status);
    return std::make_pair(std::move(frame.payload), offset);
  }
};

PawClient::PawClient(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
PawClient::PawClient(PawClient&&) noexcept = default;
PawClient& PawClient::operator=(PawClient&&) noexcept = default;
PawClient::~PawClient() = default;

Result<PawClient> PawClient::Connect(const std::string& host, int port,
                                     PawClientOptions options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &list);
  if (rc != 0) {
    return Status::Internal("resolve " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  Status last = Status::Internal("no addresses for " + host);
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = ErrnoStatus("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(list);
  if (fd < 0) return last;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto rep = std::make_unique<Rep>();
  rep->fd = fd;
  rep->max_stashed = options.max_stashed_responses;
  // HELLO is sent with the *offered max* version; the server replies
  // with the negotiated one, which every later frame carries.
  rep->version = options.max_version;
  wire::HelloRequest hello;
  hello.min_version = options.min_version;
  hello.max_version = options.max_version;
  hello.client_name = std::move(options.client_name);
  auto result = rep->Call(wire::Opcode::kHello,
                          wire::EncodeHelloRequest(hello));
  if (!result.ok()) return result.status();
  auto resp = wire::DecodeHelloResponse(result.value().first,
                                        result.value().second);
  if (!resp.ok()) return resp.status();
  rep->version = resp.value().version;
  rep->server_name = std::move(resp.value().server_name);
  return PawClient(std::move(rep));
}

Status PawClient::Auth(const std::string& principal) {
  auto result = rep_->Call(
      wire::Opcode::kAuth,
      wire::EncodeAuthRequest(wire::AuthRequest{principal}));
  if (!result.ok()) return result.status();
  return wire::DecodeAuthResponse(result.value().first,
                                  result.value().second)
      .status();
}

int PawClient::version() const { return rep_->version; }
const std::string& PawClient::server_name() const {
  return rep_->server_name;
}

Result<wire::AddSpecResponse> PawClient::AddSpec(
    const std::string& spec_text, const std::string& policy_text) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kAddSpec,
                 wire::EncodeAddSpecRequest(
                     wire::AddSpecRequest{spec_text, policy_text})));
  return wire::DecodeAddSpecResponse(result.first, result.second);
}

Result<wire::AddExecutionResponse> PawClient::AddExecution(
    const std::string& spec_name, const std::string& exec_text) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kAddExecution,
                 wire::EncodeAddExecutionRequest(
                     wire::AddExecutionRequest{spec_name, exec_text})));
  return wire::DecodeAddExecutionResponse(result.first, result.second);
}

Result<wire::GetSpecResponse> PawClient::GetSpec(
    const std::string& spec_name) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kGetSpec,
                 wire::EncodeGetSpecRequest(
                     wire::GetSpecRequest{spec_name})));
  return wire::DecodeGetSpecResponse(result.first, result.second);
}

Result<wire::GetExecutionResponse> PawClient::GetExecution(
    const std::string& spec_name, int ordinal) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kGetExecution,
                 wire::EncodeGetExecutionRequest(
                     wire::GetExecutionRequest{spec_name, ordinal})));
  return wire::DecodeGetExecutionResponse(result.first, result.second);
}

Result<wire::SearchResponse> PawClient::Search(
    const std::vector<std::string>& terms) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kKeywordSearch,
                 wire::EncodeSearchRequest(wire::SearchRequest{terms})));
  return wire::DecodeSearchResponse(result.first, result.second);
}

Result<wire::StructuralResponse> PawClient::Structural(
    const wire::StructuralRequest& request) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kStructuralQuery,
                 wire::EncodeStructuralRequest(request)));
  return wire::DecodeStructuralResponse(result.first, result.second);
}

Result<wire::LineageResponse> PawClient::Lineage(
    const std::string& spec_name, int ordinal, int item) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kLineage,
                 wire::EncodeLineageRequest(
                     wire::LineageRequest{spec_name, ordinal, item})));
  return wire::DecodeLineageResponse(result.first, result.second);
}

Result<wire::StatusResponse> PawClient::GetStatus() {
  PAW_ASSIGN_OR_RETURN(auto result,
                       rep_->Call(wire::Opcode::kStatus, ""));
  return wire::DecodeStatusResponse(result.first, result.second);
}

Result<wire::MetricsResponse> PawClient::Metrics() {
  PAW_ASSIGN_OR_RETURN(auto result,
                       rep_->Call(wire::Opcode::kMetrics, ""));
  return wire::DecodeMetricsResponse(result.first, result.second);
}

Result<wire::TraceDumpResponse> PawClient::TraceDump(
    const wire::TraceDumpRequest& request) {
  PAW_ASSIGN_OR_RETURN(
      auto result, rep_->Call(wire::Opcode::kTraceDump,
                              wire::EncodeTraceDumpRequest(request)));
  return wire::DecodeTraceDumpResponse(result.first, result.second);
}

uint64_t PawClient::last_trace_id() const { return rep_->last_trace_id; }

Status PawClient::Compact() {
  return rep_->Call(wire::Opcode::kCompact, "").status();
}

Result<PawTicket> PawClient::SendAddExecution(
    const std::string& spec_name, const std::string& exec_text) {
  const uint64_t id = rep_->next_request_id++;
  PAW_RETURN_NOT_OK(rep_->SendFrame(
      wire::Opcode::kAddExecution, id,
      wire::EncodeAddExecutionRequest(
          wire::AddExecutionRequest{spec_name, exec_text})));
  rep_->outstanding.insert(id);
  return id;
}

Result<wire::AddExecutionResponse> PawClient::AwaitAddExecution(
    PawTicket ticket) {
  PAW_RETURN_NOT_OK(rep_->error);
  if (rep_->outstanding.erase(ticket) == 0) {
    // Blocking on a ticket that was never sent (or already redeemed)
    // would wait forever; fail fast instead.
    return Status::InvalidArgument("unknown or already-awaited ticket " +
                                   std::to_string(ticket));
  }
  PAW_ASSIGN_OR_RETURN(wire::Frame frame, rep_->ReadResponse(ticket));
  if (frame.opcode != wire::Opcode::kAddExecution) {
    return rep_->Poison(Status::Internal("response opcode mismatch"));
  }
  size_t offset = 0;
  Status status;
  if (!wire::ReadResponseStatus(frame.payload, &offset, &status)) {
    return rep_->Poison(
        Status::Internal("malformed response status preamble"));
  }
  PAW_RETURN_NOT_OK(status);
  return wire::DecodeAddExecutionResponse(frame.payload, offset);
}

size_t PawClient::pending() const { return rep_->outstanding.size(); }

size_t PawClient::stashed() const { return rep_->stashed.size(); }

Result<wire::SubscribeResponse> PawClient::Subscribe(
    const wire::SubscribeRequest& request) {
  PAW_ASSIGN_OR_RETURN(
      auto result,
      rep_->Call(wire::Opcode::kSubscribe,
                 wire::EncodeSubscribeRequest(request)));
  return wire::DecodeSubscribeResponse(result.first, result.second);
}

Result<wire::Frame> PawClient::ReadPushedFrame() {
  PAW_RETURN_NOT_OK(rep_->error);
  char buf[64 << 10];
  for (;;) {
    wire::Frame frame;
    size_t consumed = 0;
    std::string parse_error;
    const wire::ParseResult result =
        wire::ParseFrame(rep_->in, &frame, &consumed, &parse_error);
    if (result == wire::ParseResult::kBad) {
      return rep_->Poison(
          Status::Internal("protocol error: " + parse_error));
    }
    if (result == wire::ParseResult::kFrame) {
      rep_->in.erase(0, consumed);
      return frame;
    }
    const ssize_t n = ::read(rep_->fd, buf, sizeof(buf));
    if (n == 0) {
      return rep_->Poison(
          Status::Internal("connection closed by server"));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return rep_->Poison(ErrnoStatus("read"));
    }
    rep_->in.append(buf, static_cast<size_t>(n));
  }
}

Status PawClient::SendRawFrame(wire::Opcode opcode, uint64_t request_id,
                               std::string payload, TraceContext ctx) {
  return rep_->SendFrame(opcode, request_id, std::move(payload), ctx);
}

void PawClient::Shutdown() {
  if (rep_->fd >= 0) ::shutdown(rep_->fd, SHUT_RDWR);
}

void PawClient::Close() {
  if (rep_->fd >= 0) {
    ::close(rep_->fd);
    rep_->fd = -1;
  }
  if (rep_->error.ok()) {
    rep_->error = Status::FailedPrecondition("client closed");
  }
}

}  // namespace paw
