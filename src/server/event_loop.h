#ifndef PAW_SERVER_EVENT_LOOP_H_
#define PAW_SERVER_EVENT_LOOP_H_

/// \file event_loop.h
/// \brief pawd's reactor (private to src/server/). One thread owns the
/// listening socket and every connection fd through epoll: it reads
/// and parses frames, flushes responses, enforces idle timeouts and
/// backpressure, and closes connections on protocol corruption. A
/// worker pool runs each connection's frames serially, in order,
/// through the one `Dispatch` callback — the loop knows nothing else
/// about requests.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/server/wire.h"
#include "src/workflow/spec.h"

namespace paw {

/// A parsed frame plus the monotonic stamp (`TraceNowMicros`) of when
/// the event loop finished parsing it — the start of the request's
/// latency (queueing behind earlier frames counts as latency).
struct PendingFrame {
  wire::Frame frame;
  int64_t recv_us = 0;
};

/// Per-connection state. The event loop owns `fd`, `in`, `out` and
/// `want_write`; everything under `mu` is shared with the worker that
/// processes this connection's frames.
struct Connection : std::enable_shared_from_this<Connection> {
  int fd = -1;
  int64_t last_active_ms = 0;
  /// Server-unique id; doubles as the replication subscriber token.
  uint64_t id = 0;
  /// Set once this connection SUBSCRIBEd as a replication follower:
  /// its incoming kReplicate frames are acks (not requests), and the
  /// idle timeout is waived — a caught-up follower is quiet by design.
  std::atomic<bool> subscriber{false};

  // Event-loop-only:
  std::string in;
  std::string out;
  bool want_write = false;

  std::mutex mu;
  /// Parsed frames awaiting processing (FIFO).
  std::deque<PendingFrame> frames;
  /// True while a worker task owns this connection's frame queue.
  bool processing = false;
  /// Responses produced by the worker, awaiting the event loop.
  std::string pending_out;
  /// Set by the event loop when it drops the connection; the worker
  /// then discards output instead of queueing it.
  bool closed = false;
  /// Set when the dispatcher asked to close: flush, then close.
  bool close_after_flush = false;
  /// Run once by the event loop when it closes the connection.
  std::function<void()> on_close;

  // Session state (worker-only once handshake frames are serialized).
  bool hello_done = false;
  uint8_t version = wire::kProtocolVersion;
  bool authed = false;
  PrincipalId principal;
  AccessLevel level = 0;
  /// Principal name from the AUTH request (span and slow-log attribution).
  std::string principal_name;
  /// Principal's group (audit-event attribution only).
  std::string group;
};

/// \brief The event loop plus the worker pool it feeds.
class EventLoop {
 public:
  /// Handles one batch of a connection's frames in order, appending
  /// the responses to `out`; returns true when the connection must be
  /// closed once `out` is flushed.
  using Dispatch = std::function<bool(
      Connection& conn, std::vector<PendingFrame>& batch, std::string* out)>;

  /// Binds `bind_address:port` (0 = ephemeral) and spawns the workers;
  /// the loop thread starts with `Start`. `idle_timeout_ms` 0 disables
  /// the idle sweep.
  static Result<std::unique_ptr<EventLoop>> Create(
      const std::string& bind_address, int port, int worker_threads,
      int idle_timeout_ms, Dispatch dispatch);

  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void Start();
  /// Joins the loop thread after a best-effort flush of completed
  /// responses, and closes every connection. Idempotent.
  void Stop();
  /// Waits for the workers to finish the batches they hold.
  void JoinWorkers() { workers_.reset(); }

  int port() const { return port_; }
  int connections() const {
    return live_conns_.load(std::memory_order_relaxed);
  }

  /// Queues `bytes` on `conn` from any thread and wakes the loop;
  /// false once the connection is closing.
  bool Send(Connection& conn, std::string_view bytes);

 private:
  EventLoop(int idle_timeout_ms, Dispatch dispatch);
  Status Listen(const std::string& bind_address, int port);
  Status Watch(int epoll_op, int fd, bool want_write);
  void Wake();
  void Loop();
  void AcceptAll();
  bool ReadConn(const std::shared_ptr<Connection>& conn);
  void WriteConn(const std::shared_ptr<Connection>& conn);
  void FlushPending();
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void CloseIdle();
  void Close(const std::shared_ptr<Connection>& conn);
  void ProcessConnection(const std::shared_ptr<Connection>& conn);

  const int idle_timeout_ms_;
  const Dispatch dispatch_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_read_ = -1;
  int wake_write_ = -1;
  /// Reserved descriptor sacrificed to accept-and-close when the
  /// process runs out of fds (see AcceptAll).
  int reserve_fd_ = -1;
  int epfd_ = -1;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::atomic<int> live_conns_{0};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<bool> stopping_{false};
  std::unique_ptr<ThreadPool> workers_;
  std::thread thread_;
};

}  // namespace paw

#endif  // PAW_SERVER_EVENT_LOOP_H_
