#ifndef PAW_CLIENT_PAW_CLIENT_H_
#define PAW_CLIENT_PAW_CLIENT_H_

/// \file paw_client.h
/// \brief `PawClient` — the C++ client for the pawd wire protocol.
///
/// A thin, blocking TCP client speaking `src/server/wire.h`.
/// `Connect` performs version negotiation (HELLO); `Auth` binds the
/// connection to a principal, after which every call runs under that
/// principal's privacy view on the server.
///
/// Two calling styles:
///
///  - **Sync**: `AddExecution`, `Search`, ... send one request and
///    block for its response — one round trip per call.
///  - **Pipelined**: `SendAddExecution` writes the request and
///    returns a ticket without reading; `Await(ticket)` collects the
///    response. Keeping a window of tickets in flight lets the server
///    batch many appends into one group commit and overlaps the
///    network round trips — the difference bench_server (E11)
///    measures. Responses may complete out of order server-side; the
///    client matches them by request id, so `Await` can be called in
///    any order.
///
/// A `PawClient` is single-threaded (no internal locking); use one
/// client per thread. Any transport or framing error poisons the
/// connection — every later call returns the sticky error
/// immediately (no further socket I/O), and any stashed out-of-order
/// responses are discarded. The stash itself is bounded
/// (`PawClientOptions::max_stashed_responses`): only responses whose
/// request id matches an outstanding ticket are stashed, and pushing
/// the stash past the bound poisons the connection instead of growing
/// without limit.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/server/wire.h"

namespace paw {

/// \brief Connection options.
struct PawClientOptions {
  /// HELLO version range offered; defaults to this build's range.
  uint8_t min_version = wire::kMinProtocolVersion;
  uint8_t max_version = wire::kProtocolVersion;
  /// Reported to the server in HELLO.
  std::string client_name = "paw-client";
  /// Cap on responses held for out-of-order pipelined completion; a
  /// response that would push the stash past this poisons the
  /// connection (it means tickets are being sent but never awaited).
  size_t max_stashed_responses = 4096;
};

/// \brief A pipelined-call ticket; redeem with the matching Await.
using PawTicket = uint64_t;

/// \brief Client for one pawd connection.
class PawClient {
 public:
  /// \brief Connects and negotiates the protocol version.
  static Result<PawClient> Connect(const std::string& host, int port,
                                   PawClientOptions options = {});

  PawClient(PawClient&&) noexcept;
  PawClient& operator=(PawClient&&) noexcept;
  PawClient(const PawClient&) = delete;
  PawClient& operator=(const PawClient&) = delete;
  ~PawClient();

  /// \brief Binds the connection to `principal` (server-registered).
  Status Auth(const std::string& principal);

  /// \brief Negotiated protocol version.
  int version() const;
  /// \brief Server name from HELLO.
  const std::string& server_name() const;

  // ---- Sync calls ----

  Result<wire::AddSpecResponse> AddSpec(const std::string& spec_text,
                                        const std::string& policy_text = "");
  Result<wire::AddExecutionResponse> AddExecution(
      const std::string& spec_name, const std::string& exec_text);
  Result<wire::GetSpecResponse> GetSpec(const std::string& spec_name);
  Result<wire::GetExecutionResponse> GetExecution(
      const std::string& spec_name, int ordinal);
  Result<wire::SearchResponse> Search(
      const std::vector<std::string>& terms);
  Result<wire::StructuralResponse> Structural(
      const wire::StructuralRequest& request);
  Result<wire::LineageResponse> Lineage(const std::string& spec_name,
                                        int ordinal, int item);
  Result<wire::StatusResponse> GetStatus();
  /// \brief Fetches the server's metrics-registry snapshot (METRICS).
  Result<wire::MetricsResponse> Metrics();
  /// \brief Fetches spans from the server's flight recorder
  /// (TRACE_DUMP).
  Result<wire::TraceDumpResponse> TraceDump(
      const wire::TraceDumpRequest& request);
  Status Compact();

  /// \brief Trace id stamped on the most recent request frame; lets
  /// callers correlate a call they just made with `TraceDump` output
  /// and `trace=` slow-log lines.
  uint64_t last_trace_id() const;

  // ---- Pipelined calls ----

  /// \brief Writes an ADD_EXECUTION request and returns its ticket
  /// without waiting for the acknowledgment.
  Result<PawTicket> SendAddExecution(const std::string& spec_name,
                                     const std::string& exec_text);

  /// \brief Collects the acknowledgment for `ticket` (reading —
  /// and stashing — any other responses that arrive first).
  Result<wire::AddExecutionResponse> AwaitAddExecution(PawTicket ticket);

  /// \brief Requests outstanding (sent, not yet awaited).
  size_t pending() const;

  /// \brief Responses stashed for out-of-order pipelined completion.
  size_t stashed() const;

  // ---- Replication transport (follower side) ----

  /// \brief Attaches this connection to the leader's replication
  /// stream (requires a prior `Auth` as an admin-level principal).
  /// After an OK response the connection *inverts*: the leader pushes
  /// `kReplicate` request frames, read with `ReadPushedFrame` and
  /// acked with `SendRawFrame`. The ordinary call methods must not be
  /// used afterwards.
  Result<wire::SubscribeResponse> Subscribe(
      const wire::SubscribeRequest& request);

  /// \brief Blocks for the next frame the server pushes (any opcode
  /// or request id). For subscribed connections only; the stash must
  /// be empty.
  Result<wire::Frame> ReadPushedFrame();

  /// \brief Writes one raw frame (used to ack pushed `kReplicate`
  /// batches with the leader's request id). `ctx` rides the trace
  /// trailer — followers echo the pushed batch's context so the
  /// leader's ack handling joins the same trace.
  Status SendRawFrame(wire::Opcode opcode, uint64_t request_id,
                      std::string payload, TraceContext ctx = {});

  /// \brief Shuts the socket down (both directions) without closing
  /// the fd: a thread blocked in `ReadPushedFrame` sees end-of-stream
  /// and returns. Safe to call from another thread.
  void Shutdown();

  /// \brief Closes the socket; later calls fail.
  void Close();

 private:
  struct Rep;
  explicit PawClient(std::unique_ptr<Rep> rep);
  std::unique_ptr<Rep> rep_;
};

}  // namespace paw

#endif  // PAW_CLIENT_PAW_CLIENT_H_
