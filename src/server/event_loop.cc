#include "src/server/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace paw {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Counter& BytesInTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_server_bytes_in_total");
  return c;
}

Counter& BytesOutTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_server_bytes_out_total");
  return c;
}

Gauge& ConnectionsGauge() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge("paw_server_connections");
  return g;
}

Counter& ConnectionsTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_server_connections_total");
  return c;
}

Counter& BackpressureDropsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_backpressure_drops_total");
  return c;
}

Counter& BadFramesTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_server_bad_frames_total");
  return c;
}

Counter& IdleClosedTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_server_idle_closed_total");
  return c;
}

Status ErrnoStatus(const std::string& op) {
  return Status::Internal(op + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl O_NONBLOCK");
  }
  return Status::OK();
}

/// Backpressure limits: a client that pipelines without ever reading
/// responses (or floods frames faster than the store drains them)
/// would otherwise grow the connection's queues without bound. Beyond
/// these caps the connection is dropped — protocol abuse, not load.
constexpr size_t kMaxQueuedFrames = 16384;
constexpr size_t kMaxOutputBacklogBytes = 64u << 20;

}  // namespace

EventLoop::EventLoop(int idle_timeout_ms, Dispatch dispatch)
    : idle_timeout_ms_(idle_timeout_ms), dispatch_(std::move(dispatch)) {}

Result<std::unique_ptr<EventLoop>> EventLoop::Create(
    const std::string& bind_address, int port, int worker_threads,
    int idle_timeout_ms, Dispatch dispatch) {
  std::unique_ptr<EventLoop> loop(
      new EventLoop(idle_timeout_ms, std::move(dispatch)));
  PAW_RETURN_NOT_OK(loop->Listen(bind_address, port));
  loop->reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  loop->wake_read_ = pipe_fds[0];
  loop->wake_write_ = pipe_fds[1];
  PAW_RETURN_NOT_OK(SetNonBlocking(loop->wake_read_));
  PAW_RETURN_NOT_OK(SetNonBlocking(loop->wake_write_));
  loop->epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop->epfd_ < 0) return ErrnoStatus("epoll_create1");
  PAW_RETURN_NOT_OK(loop->Watch(EPOLL_CTL_ADD, loop->listen_fd_, false));
  PAW_RETURN_NOT_OK(loop->Watch(EPOLL_CTL_ADD, loop->wake_read_, false));
  loop->workers_ = std::make_unique<ThreadPool>(std::max(1, worker_threads));
  return loop;
}

EventLoop::~EventLoop() {
  Stop();
  JoinWorkers();
  for (int fd : {listen_fd_, wake_read_, wake_write_, reserve_fd_, epfd_}) {
    if (fd >= 0) ::close(fd);
  }
}

/// Read interest is always on; write interest only while output waits.
Status EventLoop::Watch(int op, int fd, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) return ErrnoStatus("epoll_ctl");
  return Status::OK();
}

Status EventLoop::Listen(const std::string& bind_address, int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address " + bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + bind_address + ":" + std::to_string(port));
  }
  if (::listen(listen_fd_, 128) != 0) return ErrnoStatus("listen");
  PAW_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void EventLoop::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void EventLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Wake() {
  if (wake_write_ < 0) return;
  const char byte = 1;
  (void)!::write(wake_write_, &byte, 1);
}

bool EventLoop::Send(Connection& conn, std::string_view bytes) {
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.closed || conn.close_after_flush) return false;
    conn.pending_out.append(bytes);
  }
  Wake();
  return true;
}

void EventLoop::CloseAfterFlush(Connection& conn) {
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.close_after_flush = true;
  }
  Wake();
}

void EventLoop::Loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int timeout =
        idle_timeout_ms_ > 0 ? std::min(idle_timeout_ms_, 250) : 500;
    epoll_event events[128];
    const int n = ::epoll_wait(epfd_, events, 128, timeout);
    if (n < 0 && errno != EINTR) {
      PAW_LOG(kError) << "pawd poller: "
                      << ErrnoStatus("epoll_wait").ToString();
      break;
    }
    for (int k = 0; k < n; ++k) {
      const int fd = events[k].data.fd;
      const uint32_t ready = events[k].events;
      if (fd == listen_fd_) {
        AcceptAll();
      } else if (fd == wake_read_) {
        char buf[256];
        while (::read(wake_read_, buf, sizeof(buf)) > 0) {
        }
      } else {
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        std::shared_ptr<Connection> conn = it->second;
        if ((ready & EPOLLERR) != 0) {
          Close(conn);
          continue;
        }
        bool alive = true;
        if ((ready & (EPOLLIN | EPOLLHUP)) != 0) alive = ReadConn(conn);
        if (alive && (ready & EPOLLOUT) != 0) WriteConn(conn);
      }
    }
    FlushPending();
    if (idle_timeout_ms_ > 0) CloseIdle();
  }
  // Shutdown: best-effort flush of completed responses, then close.
  FlushPending();
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (!conn->out.empty()) {
      (void)!::write(conn->fd, conn->out.data(), conn->out.size());
    }
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    ::close(conn->fd);
  }
  conns_.clear();
}

void EventLoop::AcceptAll() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors with a connection still pending: under
        // level-triggered polling the listen fd would stay readable
        // and spin the loop. Briefly close the reserve fd, accept
        // the connection, and close it — the peer sees a reset
        // instead of the server burning a core.
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
          const int victim = ::accept(listen_fd_, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          continue;
        }
      }
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->last_active_ms = NowMs();
    if (!Watch(EPOLL_CTL_ADD, fd, false).ok()) {
      ::close(fd);
      continue;
    }
    conns_[fd] = std::move(conn);
    live_conns_.fetch_add(1, std::memory_order_relaxed);
    ConnectionsTotal().Add();
    ConnectionsGauge().Add(1);
  }
}

/// Returns false when the connection was closed.
bool EventLoop::ReadConn(const std::shared_ptr<Connection>& conn) {
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      conn->last_active_ms = NowMs();
      BytesInTotal().Add(static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {  // peer closed
      Close(conn);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Close(conn);
    return false;
  }
  // Parse as many whole frames as arrived.
  bool dispatched = false;
  size_t parsed = 0;
  for (;;) {
    wire::Frame frame;
    size_t consumed = 0;
    std::string error;
    const wire::ParseResult result = wire::ParseFrame(
        std::string_view(conn->in).substr(parsed), &frame, &consumed,
        &error);
    if (result == wire::ParseResult::kNeedMore) break;
    if (result == wire::ParseResult::kBad) {
      BadFramesTotal().Add();
      PAW_LOG(kWarning) << "pawd: closing connection on bad frame: "
                        << error;
      Close(conn);
      return false;
    }
    parsed += consumed;
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->frames.push_back(PendingFrame{std::move(frame), TraceNowMicros()});
    if (!conn->processing) {
      conn->processing = true;
      dispatched = true;
    }
  }
  if (parsed > 0) conn->in.erase(0, parsed);
  // Backpressure: a peer that floods requests or never reads its
  // responses does not get to grow our queues without bound.
  size_t queued, backlog;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    queued = conn->frames.size();
    backlog = conn->pending_out.size();
  }
  backlog += conn->out.size() + conn->in.size();
  if (queued > kMaxQueuedFrames || backlog > kMaxOutputBacklogBytes) {
    BackpressureDropsTotal().Add();
    PAW_LOG(kWarning) << "pawd: dropping connection over backpressure "
                         "limits ("
                      << queued << " queued frames, " << backlog
                      << " backlog bytes)";
    Close(conn);
    return false;
  }
  if (dispatched) {
    std::shared_ptr<Connection> c = conn;
    workers_->Submit([this, c] { ProcessConnection(c); });
  }
  return true;
}

void EventLoop::WriteConn(const std::shared_ptr<Connection>& conn) {
  while (!conn->out.empty()) {
    const ssize_t n = ::write(conn->fd, conn->out.data(), conn->out.size());
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_active_ms = NowMs();
      BytesOutTotal().Add(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Close(conn);
    return;
  }
  bool close_now = false;
  if (conn->out.empty()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    close_now = conn->close_after_flush && conn->pending_out.empty();
  }
  if (close_now) {
    Close(conn);
    return;
  }
  UpdateInterest(conn);
}

/// Moves worker output into the event-loop write buffers.
void EventLoop::FlushPending() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    std::shared_ptr<Connection> conn = it->second;
    ++it;
    bool try_write = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->pending_out.empty()) {
        conn->out.append(conn->pending_out);
        conn->pending_out.clear();
        try_write = true;
      } else if (conn->close_after_flush && conn->out.empty()) {
        try_write = true;  // nothing to send; WriteConn will close
      }
    }
    if (try_write) WriteConn(conn);  // may Close(conn)
  }
}

void EventLoop::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  const bool want_write = !conn->out.empty();
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    (void)Watch(EPOLL_CTL_MOD, conn->fd, want_write);
  }
}

void EventLoop::CloseIdle() {
  const int64_t now = NowMs();
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    // Replication subscribers are exempt: a fully caught-up follower
    // exchanges no frames, which is success, not idleness.
    if (conn->subscriber.load(std::memory_order_relaxed)) continue;
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      busy = conn->processing || !conn->frames.empty() ||
             !conn->pending_out.empty();
    }
    // `in` non-empty means a partially received frame (e.g. a slow
    // client trickling a pipelined append): the request is in flight
    // even though no parsed frame is queued yet, so the connection
    // is NOT idle — closing here would drop an accepted-but-unacked
    // write mid-upload.
    if (!busy && conn->in.empty() && conn->out.empty() &&
        now - conn->last_active_ms > idle_timeout_ms_) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : idle) {
    IdleClosedTotal().Add();
    Close(conn);
  }
}

void EventLoop::Close(const std::shared_ptr<Connection>& conn) {
  auto it = conns_.find(conn->fd);
  if (it == conns_.end()) return;
  conns_.erase(it);
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  std::function<void()> on_close;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    on_close = std::move(conn->on_close);
  }
  if (on_close) on_close();
  ::close(conn->fd);
  live_conns_.fetch_sub(1, std::memory_order_relaxed);
  ConnectionsGauge().Add(-1);
}

void EventLoop::ProcessConnection(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    std::vector<PendingFrame> batch;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->frames.empty() || conn->closed || conn->close_after_flush) {
        conn->processing = false;
        return;
      }
      batch.assign(std::make_move_iterator(conn->frames.begin()),
                   std::make_move_iterator(conn->frames.end()));
      conn->frames.clear();
    }
    std::string out;
    const bool close = dispatch_(*conn, batch, &out);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->closed) conn->pending_out.append(out);
      // Set together with the output it follows, so the loop never
      // sees the close request before the responses it must flush.
      if (close) {
        conn->close_after_flush = true;
        conn->processing = false;
      }
    }
    Wake();
    if (close) return;
  }
}

}  // namespace paw
