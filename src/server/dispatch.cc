#include "src/server/dispatch.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <iterator>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace paw {
namespace {

// ---- Metrics ---------------------------------------------------------------

constexpr size_t kNumOpcodes =
    static_cast<size_t>(wire::Opcode::kTraceDump) + 1;

/// A per-opcode metric family: the full array registers on first use
/// so the per-request path is an index + relaxed add, never the
/// registry mutex.
template <typename M>
class OpcodeFamily {
 public:
  OpcodeFamily(const char* family,
               M& (MetricsRegistry::*get)(std::string_view)) {
    for (size_t i = 0; i < kNumOpcodes; ++i) {
      metrics_[i] = &(MetricsRegistry::Global().*get)(
          std::string(family) + "{opcode=\"" +
          std::string(wire::OpcodeName(static_cast<wire::Opcode>(i))) +
          "\"}");
    }
  }
  M& operator[](wire::Opcode op) const {
    const size_t i = static_cast<size_t>(op);
    return *metrics_[i < kNumOpcodes ? i : 0];
  }

 private:
  std::array<M*, kNumOpcodes> metrics_;
};

Counter& RequestsTotal(wire::Opcode op) {
  static const OpcodeFamily<Counter> family("paw_server_requests_total",
                                            &MetricsRegistry::GetCounter);
  return family[op];
}

Counter& RequestErrorsTotal(wire::Opcode op) {
  static const OpcodeFamily<Counter> family("paw_server_errors_total",
                                            &MetricsRegistry::GetCounter);
  return family[op];
}

Histogram& RequestSeconds(wire::Opcode op) {
  static const OpcodeFamily<Histogram> family(
      "paw_server_request_seconds", &MetricsRegistry::GetLatencyHistogram);
  return family[op];
}

Counter& SlowQueriesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_slow_queries_total");
  return c;
}

/// Lease accounting: E12 and the concurrent server test assert that the
/// exclusive counter stays flat across a query-only phase — the proof
/// that reads no longer serialize against ingest.
Counter& LeaseSharedTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_lease_shared_total");
  return c;
}

Counter& LeaseExclusiveTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_lease_exclusive_total");
  return c;
}

Histogram& LeaseWaitSeconds() {
  static Histogram& h = MetricsRegistry::Global().GetLatencyHistogram(
      "paw_server_lease_wait_seconds");
  return h;
}

// ---- The opcode table ------------------------------------------------------

constexpr LeaseKind kNone = LeaseKind::kNone;
constexpr LeaseKind kShared = LeaseKind::kShared;
constexpr LeaseKind kExclusive = LeaseKind::kExclusive;
using Op = wire::Opcode;

/// One row per opcode, in opcode order. Columns: needs AUTH, refused on
/// a follower, admin only, lease, privacy-enforced, handler.
constexpr OpcodeRow kOpcodeTable[] = {
    {Op::kHello, false, false, false, kNone, false, HandleHello, nullptr},
    {Op::kAuth, false, false, false, kNone, false, HandleAuth, nullptr},
    {Op::kAddSpec, true, true, false, kExclusive, false, HandleAddSpec,
     nullptr},
    {Op::kAddExecution, true, true, false, kShared, false, nullptr,
     HandleAddExecutionRun},
    {Op::kGetSpec, true, false, false, kNone, true, HandleGetSpec, nullptr},
    {Op::kGetExecution, true, false, false, kShared, true,
     HandleGetExecution, nullptr},
    {Op::kKeywordSearch, true, false, false, kShared, true, HandleSearch,
     nullptr},
    {Op::kStructuralQuery, true, false, false, kShared, true,
     HandleStructural, nullptr},
    {Op::kLineage, true, false, false, kShared, true, HandleLineage,
     nullptr},
    {Op::kStatus, true, false, false, kShared, false, HandleStatus, nullptr},
    {Op::kCompact, true, true, true, kExclusive, false, HandleCompact,
     nullptr},
    {Op::kMetrics, true, false, false, kNone, false, HandleMetrics, nullptr},
    {Op::kSubscribe, true, true, true, kNone, false, HandleSubscribe,
     nullptr},
    {Op::kReplicate, true, false, false, kNone, false, HandleReplicate,
     nullptr},
    {Op::kTraceDump, true, false, true, kNone, false, HandleTraceDump,
     nullptr},
};

constexpr bool TableCoversEveryOpcodeInOrder() {
  if (std::size(kOpcodeTable) != kNumOpcodes - 1) return false;
  for (size_t i = 0; i < std::size(kOpcodeTable); ++i) {
    if (static_cast<size_t>(kOpcodeTable[i].opcode) != i + 1) return false;
  }
  return true;
}
static_assert(TableCoversEveryOpcodeInOrder());

/// `ParseFrame` admits only known opcodes, so every frame has a row.
const OpcodeRow& RowFor(wire::Opcode op) {
  return kOpcodeTable[static_cast<size_t>(op) - 1];
}

/// The row's gates, in order: AUTH, follower, admin level.
Status Gate(const ServerCore& s, const Request& req) {
  const OpcodeRow& row = req.row;
  const auto name = [&row] {
    return std::string(wire::OpcodeName(row.opcode));
  };
  if (row.needs_auth && !req.conn.authed) {
    return Status::PermissionDenied(name() + " requires AUTH");
  }
  if (row.follower_rejects && s.is_follower) {
    // Redirect-style rejection naming the leader, so clients (and
    // operators) know where writes go.
    return Status::FailedPrecondition(
        name() + " rejected: this pawd is a read-only follower of " +
        s.options.follow_host + ":" + std::to_string(s.options.follow_port) +
        "; send writes to the leader");
  }
  if (row.admin_only && req.conn.level < s.options.admin_level) {
    std::string upper = name();
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    return Status::PermissionDenied(
        upper + " requires level >= " +
        std::to_string(s.options.admin_level) + " (session level " +
        std::to_string(req.conn.level) + ")");
  }
  return Status::OK();
}

/// Adopts the client's wire-propagated trace context. HELLO (and a
/// client that sends an empty context) carries none, so the server
/// roots a fresh trace; subscriber acks keep whatever the follower
/// echoed.
TraceContext ContextFor(const wire::Frame& frame) {
  TraceContext ctx = frame.trace;
  if (!ctx.valid() && frame.opcode != wire::Opcode::kReplicate) {
    ctx.trace_id = TraceRecorder::Global().NewTraceId();
  }
  return ctx;
}

// ---- Closing a request -----------------------------------------------------

/// One stage of a request: it runs from the previous stage's end (the
/// request's receipt, for the first) to `end_us`. `log_key` names it
/// in the slow log; the reply stage is not logged.
struct Stage {
  const char* span;
  const char* log_key;
  int64_t end_us;
};

std::string FormatMs(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1e3);
  return buf;
}

#if !defined(PAW_NO_TRACE)
/// Records the request's span family — recorded when the trace is
/// head-sampled, and always for slow/error requests: the root plus one
/// child per stage, tiling [recv, reply] by construction.
void RecordSpans(const Request& req, const Status& status,
                 size_t result_bytes, bool is_slow,
                 std::span<const Stage> stages, int64_t reply_us) {
  TraceRecorder& recorder = TraceRecorder::Global();
  const bool is_error = !status.ok();
  if (!req.ctx.valid() ||
      !(is_slow || is_error || recorder.Sampled(req.ctx.trace_id))) {
    return;
  }
  Span root;
  root.trace_id = req.ctx.trace_id;
  root.span_id = recorder.NewSpanId();
  root.parent_span_id = req.ctx.span_id;
  root.start_us = req.recv_us;
  root.end_us = reply_us;
  root.result_bytes =
      static_cast<uint32_t>(std::min<size_t>(result_bytes, UINT32_MAX));
  root.opcode = static_cast<uint8_t>(req.frame.opcode);
  root.status_code = static_cast<uint8_t>(status.code());
  root.flags = static_cast<uint8_t>((is_slow ? kSpanFlagSlow : 0) |
                                    (is_error ? kSpanFlagError : 0));
  root.set_name("req." + std::string(wire::OpcodeName(req.frame.opcode)));
  root.set_principal(req.conn.principal_name);
  recorder.Record(root);
  Span child;
  child.trace_id = root.trace_id;
  child.parent_span_id = root.span_id;
  child.opcode = root.opcode;
  child.set_principal(req.conn.principal_name);
  int64_t from = req.recv_us;
  for (const Stage& stage : stages) {
    child.span_id = recorder.NewSpanId();
    child.start_us = from;
    child.end_us = stage.end_us;
    child.set_name(stage.span);
    recorder.Record(child);
    from = stage.end_us;
  }
}
#endif

size_t SlowLogSlotIndex(wire::Opcode op, const std::string& principal) {
  size_t h = std::hash<std::string>{}(principal);
  h ^= (static_cast<size_t>(op) + 1) * size_t{0x9e3779b97f4a7c15ULL};
  return h % std::tuple_size_v<decltype(ServerCore::slow_log)>;
}

void LogSlow(const Request& req, int64_t span_us, size_t result_bytes,
             std::span<const Stage> stages, int64_t reply_us) {
  SlowQueriesTotal().Add();
  // At most one line per (opcode, principal) per second; the counter
  // above still sees every slow request, and the next emitted line for
  // the key carries the number of its lines elided since the last one.
  ServerCore::SlowLogSlot& slot = req.core.slow_log[SlowLogSlotIndex(
      req.frame.opcode, req.conn.principal_name)];
  int64_t last = slot.last_us.load(std::memory_order_relaxed);
  const bool emit = (last == 0 || reply_us - last >= 1000000) &&
                    slot.last_us.compare_exchange_strong(
                        last, reply_us, std::memory_order_relaxed);
  if (!emit) {
    slot.suppressed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t suppressed =
      slot.suppressed.exchange(0, std::memory_order_relaxed);
  std::string fields;
  int64_t from = req.recv_us;
  for (const Stage& stage : stages) {
    if (stage.log_key != nullptr) {
      fields += std::string(" ") + stage.log_key + "=" +
                FormatMs(stage.end_us - from);
    }
    from = stage.end_us;
  }
  PAW_LOG(kWarning)
      << "pawd: slow request id=" << req.frame.request_id
      << " opcode=" << wire::OpcodeName(req.frame.opcode) << " principal="
      << (req.conn.principal_name.empty() ? "-" : req.conn.principal_name)
      << " trace=" << TraceIdHex(req.ctx.trace_id)
      << " duration_ms=" << FormatMs(span_us)
      << " result_bytes=" << result_bytes << fields
      << (suppressed != 0 ? " suppressed=" + std::to_string(suppressed)
                          : "");
}

/// Computes the request's stage boundaries once and feeds the three
/// consumers: the latency histogram, the flight recorder and the slow
/// log. The request runs from frame parse (queueing behind earlier
/// pipelined frames included) to its response hitting the output
/// buffer.
void CloseRequest(const Request& req, const Status& status,
                  size_t result_bytes) {
  const int64_t reply_us = TraceNowMicros();
  Stage stages[3];
  size_t n = 0;
  if (req.leased_us != 0) {
    stages[n++] = {"lease.wait", "lease_wait_ms", req.leased_us};
    if (req.released_us != 0) {
      stages[n++] = {"engine", "engine_ms", req.released_us};
    }
    stages[n++] = {"reply", nullptr, reply_us};
  }
  const std::span<const Stage> list(stages, n);
  const int64_t span_us = reply_us - req.recv_us;
  const wire::Opcode op = req.frame.opcode;
  RequestsTotal(op).Add();
  if (!status.ok()) RequestErrorsTotal(op).Add();
  RequestSeconds(op).Observe(static_cast<double>(span_us) / 1e6);
  const int slow_ms = req.core.options.slow_query_ms;
  const bool is_slow = slow_ms >= 0 && span_us > int64_t{slow_ms} * 1000;
#if !defined(PAW_NO_TRACE)
  RecordSpans(req, status, result_bytes, is_slow, list, reply_us);
#endif
  if (is_slow) LogSlow(req, span_us, result_bytes, list, reply_us);
}

}  // namespace

// ---- Leases ----------------------------------------------------------------

StoreLease::StoreLease(ServerCore& core, LeaseKind kind,
                       std::span<Request> reqs)
    : reqs_(reqs) {
  const int64_t start = TraceNowMicros();
  if (kind == LeaseKind::kExclusive) {
    exclusive_ = std::unique_lock<std::shared_mutex>(core.lease);
    LeaseExclusiveTotal().Add();
  } else {
    shared_ = std::shared_lock<std::shared_mutex>(core.lease);
    LeaseSharedTotal().Add();
  }
  int64_t now = TraceNowMicros();
  LeaseWaitSeconds().Observe(static_cast<double>(now - start) / 1e6);
  if (exclusive_.owns_lock()) {
    // Exclusive holders fold or index a complete acked prefix.
    core.store->Drain();
    now = TraceNowMicros();
  }
  for (Request& req : reqs_) req.leased_us = now;
}

void StoreLease::Release() {
  if (!shared_.owns_lock() && !exclusive_.owns_lock()) return;
  const int64_t now = TraceNowMicros();
  for (Request& req : reqs_) req.released_us = now;
  if (shared_.owns_lock()) {
    shared_.unlock();
  } else {
    exclusive_.unlock();
  }
}

StoreLease Request::Lease() {
  return StoreLease(core, row.lease, std::span<Request>(this, 1));
}

// ---- Dispatch --------------------------------------------------------------

void Respond(Request& req, const Status& status, std::string_view body,
             std::string* out) {
  const Connection& conn = req.conn;
  wire::Frame resp;
  resp.version = conn.hello_done ? conn.version : wire::kProtocolVersion;
  resp.opcode = req.frame.opcode;
  resp.request_id = req.frame.request_id;
  // Echo the effective context: a client that sent no explicit id
  // learns which trace the server filed it under.
  resp.trace = req.ctx;
  wire::AppendResponseStatus(status, &resp.payload);
  if (status.ok()) resp.payload.append(body);
  AppendFrame(resp, out);
  req.responded = true;
  // Every outright refusal of an authed principal is a privacy audit
  // event, whichever gate or handler refused.
  if (status.IsPermissionDenied() && conn.authed) {
    RecordAuditEvent(AuditVerdict::kDenied, conn.principal_name,
                     static_cast<uint8_t>(req.frame.opcode),
                     status.message());
  }
  CloseRequest(req, status, body.size());
}

bool DispatchBatch(ServerCore& s, Connection& conn,
                   std::vector<PendingFrame>& batch, std::string* out) {
  bool close = false;
  size_t i = 0;
  while (i < batch.size()) {
    const wire::Frame& frame = batch[i].frame;
    Request req{s,   conn, RowFor(frame.opcode), frame, ContextFor(frame),
                out, batch[i].recv_us};
    ScopedTraceContext scoped_ctx(req.ctx);
    // Session gates run in frame order on this (single) worker, so a
    // pipelined HELLO/AUTH prefix is processed before the ops behind it.
    if (!conn.hello_done && frame.opcode != wire::Opcode::kHello) {
      Respond(req,
              Status::FailedPrecondition(
                  "first frame on a connection must be HELLO"),
              "", out);
      return true;
    }
    if (conn.hello_done && frame.version != conn.version) {
      Respond(req,
              Status::FailedPrecondition(
                  "frame version " + std::to_string(frame.version) +
                  " does not match negotiated version " +
                  std::to_string(conn.version)),
              "", out);
      return true;
    }
    if (conn.subscriber.load(std::memory_order_relaxed) &&
        frame.opcode == wire::Opcode::kReplicate) {
      // Inverted connection: this is the follower's ack to a pushed
      // batch, not a request — route it, emit no response.
      HandleReplicateAck(s, conn, frame);
      ++i;
      continue;
    }
    if (Status gate = Gate(s, req); !gate.ok()) {
      Respond(req, gate, "", out);
      ++i;
      continue;
    }
    if (req.row.run != nullptr) {
      // The whole pipelined run of this opcode shares the gates just
      // passed: the session state they read cannot change inside it.
      std::vector<Request> run{req};
      for (++i; i < batch.size() && batch[i].frame.opcode == frame.opcode &&
                batch[i].frame.version == conn.version;
           ++i) {
        run.push_back(Request{s, conn, req.row, batch[i].frame,
                              ContextFor(batch[i].frame), out,
                              batch[i].recv_us});
      }
      req.row.run(s, run);
      continue;
    }
    Result<Reply> reply = req.row.handler(s, req);
    if (!req.responded) {
      if (reply.ok() && req.row.privacy_enforced) {
        RecordAuditEvent(reply.value().verdict, conn.principal_name,
                         static_cast<uint8_t>(frame.opcode),
                         reply.value().audit);
      }
      Respond(req, reply.status(),
              reply.ok() ? std::string_view(reply.value().body) : "", out);
    }
    // A failed HELLO leaves no session to continue on.
    if (frame.opcode == wire::Opcode::kHello && !reply.ok()) close = true;
    ++i;
  }
  return close;
}

}  // namespace paw
