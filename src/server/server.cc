#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/privacy/access_control.h"
#include "src/privacy/data_privacy.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/query/engine.h"
#include "src/server/replication.h"
#include "src/server/wire.h"
#include "src/store/sharded_repository.h"
#include "src/workflow/serialize.h"

namespace paw {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FormatMs(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1e3);
  return buf;
}

// ---- Metrics ---------------------------------------------------------------

constexpr size_t kNumOpcodes =
    static_cast<size_t>(wire::Opcode::kTraceDump) + 1;

std::string OpcodeMetricName(const char* family, size_t op) {
  return std::string(family) + "{opcode=\"" +
         std::string(wire::OpcodeName(static_cast<wire::Opcode>(op))) +
         "\"}";
}

/// Per-opcode counter family: the full array registers on first use so
/// the per-request path is an index + relaxed add, never the registry
/// mutex.
Counter& RequestsTotal(wire::Opcode op) {
  static std::array<Counter*, kNumOpcodes>& counters = *[] {
    auto* a = new std::array<Counter*, kNumOpcodes>();
    for (size_t i = 0; i < kNumOpcodes; ++i) {
      (*a)[i] = &MetricsRegistry::Global().GetCounter(
          OpcodeMetricName("paw_server_requests_total", i));
    }
    return a;
  }();
  const size_t i = static_cast<size_t>(op);
  return *counters[i < kNumOpcodes ? i : 0];
}

Counter& RequestErrorsTotal(wire::Opcode op) {
  static std::array<Counter*, kNumOpcodes>& counters = *[] {
    auto* a = new std::array<Counter*, kNumOpcodes>();
    for (size_t i = 0; i < kNumOpcodes; ++i) {
      (*a)[i] = &MetricsRegistry::Global().GetCounter(
          OpcodeMetricName("paw_server_errors_total", i));
    }
    return a;
  }();
  const size_t i = static_cast<size_t>(op);
  return *counters[i < kNumOpcodes ? i : 0];
}

Histogram& RequestSeconds(wire::Opcode op) {
  static std::array<Histogram*, kNumOpcodes>& hists = *[] {
    auto* a = new std::array<Histogram*, kNumOpcodes>();
    for (size_t i = 0; i < kNumOpcodes; ++i) {
      (*a)[i] = &MetricsRegistry::Global().GetLatencyHistogram(
          OpcodeMetricName("paw_server_request_seconds", i));
    }
    return a;
  }();
  const size_t i = static_cast<size_t>(op);
  return *hists[i < kNumOpcodes ? i : 0];
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

Counter& AuthSessionsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_auth_sessions_total");
  return c;
}

Counter& AuthFailuresTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_auth_failures_total");
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

Counter& SlowQueriesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_slow_queries_total");
  return c;
}

Counter& EngineRebuildsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_query_engine_rebuilds_total");
  return c;
}

Histogram& EngineRebuildSeconds() {
  static Histogram& h = MetricsRegistry::Global().GetLatencyHistogram(
      "paw_query_engine_rebuild_seconds");
  return h;
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

// ---- Poller ----------------------------------------------------------------

/// One readiness event; read interest is always on.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// The event loop's readiness multiplexer (epoll).
class Poller {
 public:
  static Result<std::unique_ptr<Poller>> Create() {
    int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) return ErrnoStatus("epoll_create1");
    return std::unique_ptr<Poller>(new Poller(fd));
  }
  ~Poller() { ::close(epfd_); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  Status Add(int fd, bool want_write) {
    return Ctl(EPOLL_CTL_ADD, fd, want_write);
  }
  Status Mod(int fd, bool want_write) {
    return Ctl(EPOLL_CTL_MOD, fd, want_write);
  }
  void Del(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  Result<std::vector<PollEvent>> Wait(int timeout_ms) {
    epoll_event events[128];
    const int n = ::epoll_wait(epfd_, events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return std::vector<PollEvent>{};
      return ErrnoStatus("epoll_wait");
    }
    std::vector<PollEvent> out;
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      PollEvent e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & EPOLLERR) != 0;
      out.push_back(e);
    }
    return out;
  }

 private:
  explicit Poller(int fd) : epfd_(fd) {}
  Status Ctl(int op, int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
      return ErrnoStatus("epoll_ctl");
    }
    return Status::OK();
  }
  int epfd_;
};

/// Backpressure limits: a client that pipelines without ever reading
/// responses (or floods frames faster than the store drains them)
/// would otherwise grow the connection's queues without bound. Beyond
/// these caps the connection is dropped — protocol abuse, not load.
constexpr size_t kMaxQueuedFrames = 16384;
constexpr size_t kMaxOutputBacklogBytes = 64u << 20;

// ---- Connection ------------------------------------------------------------

/// A parsed frame plus the monotonic microsecond stamp of when the
/// event loop finished parsing it — the start of the request's
/// latency span (queueing behind earlier frames counts as latency).
struct PendingFrame {
  wire::Frame frame;
  int64_t recv_us = 0;
};

/// Timestamps of the current request's milestones, carried on the
/// connection (frames of one connection are processed serially by one
/// worker, so a single slot suffices). `recv_us` is always stamped;
/// handlers that take the store lease stamp `lease_us`, engine-backed
/// handlers stamp `engine_us` after the engine returned, and
/// `Respond` stamps `reply_us` and closes the span.
struct RequestTrace {
  int64_t recv_us = 0;
  int64_t lease_us = 0;
  int64_t engine_us = 0;
  int64_t reply_us = 0;
};

/// Per-connection state. The event loop owns `fd`, `in`, `out`, and
/// `want_write`; everything under `mu` is shared with the worker that
/// processes this connection's frames.
struct Connection : std::enable_shared_from_this<Connection> {
  int fd = -1;
  int64_t last_active_ms = 0;
  /// Monotonic stamp of the accept(2), for connection-age traces.
  int64_t accept_us = 0;
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
  /// True while a worker task owns this connection's frame queue —
  /// frames of one connection are processed serially, in order.
  bool processing = false;
  /// Responses produced by the worker, awaiting the event loop.
  std::string pending_out;
  /// Set by the event loop when it drops the connection; the worker
  /// then discards output instead of queueing it.
  bool closed = false;
  /// Set by the worker on fatal protocol errors: flush, then close.
  /// Atomic because the worker writes it outside `mu` while the event
  /// loop polls it.
  std::atomic<bool> close_after_flush{false};

  // Session state (worker-only once handshake frames are serialized).
  bool hello_done = false;
  uint8_t version = wire::kProtocolVersion;
  bool authed = false;
  PrincipalId principal;
  AccessLevel level = 0;
  /// Principal name from the AUTH request (slow-query log attribution).
  std::string principal_name;
  /// Principal's cache/sharing group (audit-event attribution).
  std::string group;
  /// Milestones of the request currently being handled.
  RequestTrace trace;
  /// Trace context of the request currently being handled: the
  /// client's wire-propagated context, or a server-rooted one when the
  /// peer sent an empty one.
  TraceContext trace_ctx;
};

}  // namespace

// ---- PawServer::Impl --------------------------------------------------------

struct PawServer::Impl {
  std::string dir;
  ServerOptions options;

  /// The store. Appends go through its per-shard writer queues; the
  /// lease discipline above supplies the concurrency contract (shard
  /// reads go through the engines' pinned views, `AddSpecification`
  /// and `Compact` run only under the exclusive lease after `Drain`).
  std::unique_ptr<ShardedRepository> store;
  AccessControl acl;
  AccessLevel admin_level = 100;
  /// Effective slow-query threshold (ms); < 0 disables the log.
  int slow_query_ms = 100;
  /// Slow-query log rate limit, keyed on (opcode, principal): micros
  /// timestamp of the last emitted line for the key (0 = never), and
  /// how many slow requests of that key were counted but not logged
  /// since then. A deep pipelined burst makes every queued request
  /// "slow" at once; logging each one would flood stderr and distort
  /// the very latencies being reported. Keying on the principal too
  /// means one tenant's burst cannot silence another tenant's slow
  /// queries (and the suppressed= carry stays per-key). Keys hash into
  /// a fixed table; a collision just makes two keys share one limiter,
  /// which is benign for a log rate limit.
  struct SlowLogSlot {
    std::atomic<int64_t> last_us{0};
    std::atomic<uint64_t> suppressed{0};
  };
  static constexpr size_t kSlowLogSlots = 128;
  std::array<SlowLogSlot, kSlowLogSlots> slow_log_slots;

  static size_t SlowLogSlotIndex(wire::Opcode op,
                                 const std::string& principal) {
    size_t h = std::hash<std::string>{}(principal);
    h ^= (static_cast<size_t>(op) + 1) * size_t{0x9e3779b97f4a7c15ULL};
    return h % kSlowLogSlots;
  }

  /// The "g=<group>@<level>" attribution every audit event carries.
  static std::string AuditWho(const Connection* conn) {
    return "g=" + (conn->group.empty() ? std::string("-") : conn->group) +
           "@" + std::to_string(conn->level);
  }

  /// The store lease: appends AND queries take it shared — queries
  /// serve from per-engine pinned MVCC views, so they need no quiescent
  /// store. Only spec ingest and compaction take it exclusive (and
  /// drain first): ADD_SPEC because the registry pin requires a settled
  /// entry vector, COMPACT because it folds store files under readers.
  std::shared_mutex lease;

  /// name -> location + pinned entry pointer (entries are immutable
  /// and address-stable, so a registry hit never touches the shard's
  /// entry vector — the part that races with appends).
  std::mutex reg_mu;
  struct SpecInfo {
    ShardedRepository::SpecRef ref;
    const SpecEntry* entry = nullptr;
  };
  std::unordered_map<std::string, SpecInfo> registry;

  /// Per-shard query engines, built once at startup. Each engine pins
  /// its own MVCC view of the shard and catches up incrementally (by
  /// the repository mutation epoch) inside its query entry points, so
  /// the server never rebuilds or swaps engines while serving.
  std::vector<std::unique_ptr<QueryEngine>> engines;

  /// Leader-side replication stream manager (null on followers).
  std::unique_ptr<ReplicationManager> repl;
  /// Follower-side connect/subscribe/apply loop (null on leaders).
  std::unique_ptr<ReplicationFollower> follower;
  /// True when `options.follow_host` is set: this pawd is a read-only
  /// replica and rejects write opcodes.
  bool is_follower = false;
  std::atomic<uint64_t> next_conn_id{1};

  int listen_fd = -1;
  int port = 0;
  int wake_read = -1;
  int wake_write = -1;
  /// Reserved descriptor sacrificed to accept-and-close when the
  /// process runs out of fds (see AcceptAll).
  int reserve_fd = -1;
  std::unique_ptr<Poller> poller;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::atomic<int> live_conns{0};

  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  Stats stats;

  /// Workers before loop_thread: the loop must still be alive while
  /// workers run; destruction order (reverse) tears the loop down
  /// after the pool drained.
  std::unique_ptr<ThreadPool> workers;
  std::thread loop_thread;

  ~Impl() { StopInternal(); }

  // ---- lifecycle ----

  Status Listen() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return ErrnoStatus("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options.port));
    if (::inet_pton(AF_INET, options.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad bind address " +
                                     options.bind_address);
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return ErrnoStatus("bind " + options.bind_address + ":" +
                         std::to_string(options.port));
    }
    if (::listen(listen_fd, 128) != 0) return ErrnoStatus("listen");
    PAW_RETURN_NOT_OK(SetNonBlocking(listen_fd));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return ErrnoStatus("getsockname");
    }
    port = ntohs(bound.sin_port);
    return Status::OK();
  }

  void StopInternal() {
    if (stopped.exchange(true)) return;
    // Follower first: its apply thread takes the lease and writes the
    // store, so it must be quiet before teardown.
    if (follower != nullptr) follower->Stop();
    stopping.store(true, std::memory_order_release);
    Wake();
    if (loop_thread.joinable()) loop_thread.join();
    // The sender thread only appends to (now dead) connections; stop
    // it before the WAL sinks' owner goes away.
    if (repl != nullptr) repl->Stop();
    // Drain workers (their output goes nowhere now, but queued writer
    // ops must land before the store closes).
    workers.reset();
    if (store != nullptr) {
      store->Drain();
      (void)store->Sync();
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
    if (reserve_fd >= 0) ::close(reserve_fd);
    listen_fd = wake_read = wake_write = reserve_fd = -1;
  }

  void Wake() {
    if (wake_write < 0) return;
    const char byte = 1;
    (void)!::write(wake_write, &byte, 1);
  }

  // ---- registry / engines ----

  void BuildRegistry() {
    std::lock_guard<std::mutex> lock(reg_mu);
    registry.clear();
    for (int s = 0; s < store->num_shards(); ++s) {
      const Repository& r = repo(s);
      for (int id = 0; id < r.num_specs(); ++id) {
        const SpecEntry& entry = r.entry(id);
        registry[entry.spec.name()] = SpecInfo{{s, id}, &entry};
      }
    }
  }

  const Repository& repo(int shard) const {
    return store->shard(shard).repo();
  }

  /// Shard LSN rendered globally (epoch-prefixed). An atomic read —
  /// safe to call concurrently with appends.
  uint64_t GlobalLsn(int shard) const {
    return ShardedRepository::EpochLsn(store->epoch(),
                                       store->shard(shard).lsn());
  }

  /// Raw per-shard WAL LSN — the unit replication speaks.
  uint64_t ShardLsn(int shard) const { return store->shard(shard).lsn(); }

  Result<SpecInfo> FindSpec(const std::string& name) {
    std::lock_guard<std::mutex> lock(reg_mu);
    auto it = registry.find(name);
    if (it == registry.end()) {
      return Status::NotFound("no spec named \"" + name + "\"");
    }
    return it->second;
  }

  /// Builds the per-shard engines once, at startup (store quiescent).
  /// From then on engines maintain themselves with view/index deltas;
  /// there is no rebuild-on-dirty path (and no count heuristic to get
  /// it wrong) on the serving side.
  void BuildEngines() {
    if (options.view_cache_bytes > 0) {
      PrivacyViewCache::Global().set_byte_budget(options.view_cache_bytes);
    }
    EngineOptions engine_options;
    engine_options.view_cache = options.enable_view_cache;
    engines.resize(static_cast<size_t>(store->num_shards()));
    for (int s = 0; s < store->num_shards(); ++s) {
      Timer rebuild_timer;
      engines[static_cast<size_t>(s)] =
          std::make_unique<QueryEngine>(repo(s), acl, engine_options);
      EngineRebuildSeconds().Observe(rebuild_timer.ElapsedMicros() / 1e6);
      EngineRebuildsTotal().Add();
    }
  }

  /// Lease acquisition helpers: count by kind and record the wait, so
  /// the exclusive-counter delta proves which paths take which lease.
  std::shared_lock<std::shared_mutex> SharedLease() {
    const int64_t start = NowMicros();
    std::shared_lock<std::shared_mutex> lock(lease);
    LeaseSharedTotal().Add();
    LeaseWaitSeconds().Observe(
        static_cast<double>(NowMicros() - start) / 1e6);
    return lock;
  }

  std::unique_lock<std::shared_mutex> ExclusiveLease() {
    const int64_t start = NowMicros();
    std::unique_lock<std::shared_mutex> lock(lease);
    LeaseExclusiveTotal().Add();
    LeaseWaitSeconds().Observe(
        static_cast<double>(NowMicros() - start) / 1e6);
    return lock;
  }

  // ---- event loop ----

  void Loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      const int timeout = options.idle_timeout_ms > 0
                              ? std::min(options.idle_timeout_ms, 250)
                              : 500;
      auto events = poller->Wait(timeout);
      if (!events.ok()) {
        PAW_LOG(kError) << "pawd poller: " << events.status().ToString();
        break;
      }
      for (const PollEvent& e : events.value()) {
        if (e.fd == listen_fd) {
          AcceptAll();
        } else if (e.fd == wake_read) {
          char buf[256];
          while (::read(wake_read, buf, sizeof(buf)) > 0) {
          }
        } else {
          auto it = conns.find(e.fd);
          if (it == conns.end()) continue;
          std::shared_ptr<Connection> conn = it->second;
          if (e.error) {
            Close(conn);
            continue;
          }
          bool alive = true;
          if (e.readable) alive = ReadConn(conn);
          if (alive && e.writable) WriteConn(conn);
        }
      }
      FlushPending();
      if (options.idle_timeout_ms > 0) CloseIdle();
    }
    // Shutdown: best-effort flush of completed responses, then close.
    FlushPending();
    for (auto& [fd, conn] : conns) {
      (void)fd;
      if (!conn->out.empty()) {
        (void)!::write(conn->fd, conn->out.data(), conn->out.size());
      }
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
      ::close(conn->fd);
    }
    conns.clear();
  }

  void AcceptAll() {
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors with a connection still pending: under
          // level-triggered polling the listen fd would stay readable
          // and spin the loop. Briefly close the reserve fd, accept
          // the connection, and close it — the peer sees a reset
          // instead of the server burning a core.
          if (reserve_fd >= 0) {
            ::close(reserve_fd);
            reserve_fd = -1;
            const int victim = ::accept(listen_fd, nullptr, nullptr);
            if (victim >= 0) ::close(victim);
            reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
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
      conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
      conn->last_active_ms = NowMs();
      conn->accept_us = NowMicros();
      if (!poller->Add(fd, false).ok()) {
        ::close(fd);
        continue;
      }
      conns[fd] = std::move(conn);
      live_conns.fetch_add(1, std::memory_order_relaxed);
      stats.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      ConnectionsTotal().Add();
      ConnectionsGauge().Add(1);
    }
  }

  /// Returns false when the connection was closed.
  bool ReadConn(const std::shared_ptr<Connection>& conn) {
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
        stats.bad_frames.fetch_add(1, std::memory_order_relaxed);
        BadFramesTotal().Add();
        PAW_LOG(kWarning) << "pawd: closing connection on bad frame: "
                          << error;
        Close(conn);
        return false;
      }
      parsed += consumed;
      stats.frames_received.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->frames.push_back(PendingFrame{std::move(frame), NowMicros()});
      if (!conn->processing) {
        conn->processing = true;
        dispatched = true;
      }
    }
    if (parsed > 0) conn->in.erase(0, parsed);
    // Backpressure: a peer that floods requests or never reads its
    // responses does not get to grow our queues without bound.
    {
      size_t queued, backlog;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        queued = conn->frames.size();
        backlog = conn->pending_out.size();
      }
      backlog += conn->out.size() + conn->in.size();
      if (queued > kMaxQueuedFrames || backlog > kMaxOutputBacklogBytes) {
        BackpressureDropsTotal().Add();
        PAW_LOG(kWarning)
            << "pawd: dropping connection over backpressure limits ("
            << queued << " queued frames, " << backlog
            << " backlog bytes)";
        Close(conn);
        return false;
      }
    }
    if (dispatched) {
      std::shared_ptr<Connection> c = conn;
      workers->Submit([this, c] { ProcessConnection(c); });
    }
    return true;
  }

  void WriteConn(const std::shared_ptr<Connection>& conn) {
    while (!conn->out.empty()) {
      const ssize_t n =
          ::write(conn->fd, conn->out.data(), conn->out.size());
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
  void FlushPending() {
    for (auto it = conns.begin(); it != conns.end();) {
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

  void UpdateInterest(const std::shared_ptr<Connection>& conn) {
    const bool want_write = !conn->out.empty();
    if (want_write != conn->want_write) {
      conn->want_write = want_write;
      (void)poller->Mod(conn->fd, want_write);
    }
  }

  void CloseIdle() {
    const int64_t now = NowMs();
    std::vector<std::shared_ptr<Connection>> idle;
    for (auto& [fd, conn] : conns) {
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
          now - conn->last_active_ms > options.idle_timeout_ms) {
        idle.push_back(conn);
      }
    }
    for (auto& conn : idle) {
      stats.idle_closed.fetch_add(1, std::memory_order_relaxed);
      IdleClosedTotal().Add();
      Close(conn);
    }
  }

  void Close(const std::shared_ptr<Connection>& conn) {
    auto it = conns.find(conn->fd);
    if (it == conns.end()) return;
    conns.erase(it);
    poller->Del(conn->fd);
    if (repl != nullptr &&
        conn->subscriber.load(std::memory_order_relaxed)) {
      repl->RemoveSubscriber(conn->id);
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->closed = true;
    }
    ::close(conn->fd);
    live_conns.fetch_sub(1, std::memory_order_relaxed);
    ConnectionsGauge().Add(-1);
  }

  /// Queues one leader-pushed frame on a subscriber connection; called
  /// from the replication sender thread. Returns false once the
  /// connection is closing — the manager then fails the subscriber.
  bool PushFrame(const std::shared_ptr<Connection>& conn,
                 wire::Frame&& frame) {
    frame.version = conn->version;
    std::string bytes;
    AppendFrame(frame, &bytes);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed || conn->close_after_flush) return false;
      conn->pending_out.append(bytes);
    }
    Wake();
    return true;
  }

  // ---- request processing (worker threads) ----

  void ProcessConnection(const std::shared_ptr<Connection>& conn) {
    for (;;) {
      std::vector<PendingFrame> batch;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->frames.empty() || conn->closed ||
            conn->close_after_flush) {
          conn->processing = false;
          return;
        }
        batch.assign(std::make_move_iterator(conn->frames.begin()),
                     std::make_move_iterator(conn->frames.end()));
        conn->frames.clear();
      }
      std::string out;
      HandleBatch(conn.get(), batch, &out);
      bool fatal;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->closed) conn->pending_out.append(out);
        fatal = conn->close_after_flush;
      }
      Wake();
      if (fatal) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->processing = false;
        return;
      }
    }
  }

  void Respond(Connection* conn, const wire::Frame& request,
               const Status& status, std::string body, std::string* out) {
    const size_t result_bytes = body.size();
    wire::Frame resp;
    resp.version = conn->hello_done ? conn->version
                                    : wire::kProtocolVersion;
    resp.opcode = request.opcode;
    resp.request_id = request.request_id;
    // Echo the effective context: a client that sent no explicit id
    // learns which trace the server filed it under.
    resp.trace = conn->trace_ctx;
    wire::AppendResponseStatus(status, &resp.payload);
    if (status.ok()) resp.payload.append(body);
    AppendFrame(resp, out);
    stats.responses_sent.fetch_add(1, std::memory_order_relaxed);
    if (status.IsPermissionDenied()) {
      stats.permission_denied.fetch_add(1, std::memory_order_relaxed);
      // Every outright refusal of an authed principal is a privacy
      // audit event — denial sites are scattered (GET_SPEC coverage,
      // COMPACT/SUBSCRIBE level checks), so record them centrally.
      if (conn->authed) {
        RecordAuditEvent(AuditVerdict::kDenied, conn->principal_name,
                         static_cast<uint8_t>(request.opcode),
                         status.message());
      }
    }
    // Request accounting + slow-query log: the span runs from frame
    // parse (queueing behind earlier pipelined frames included) to
    // the response hitting the output buffer.
    conn->trace.reply_us = NowMicros();
    const int64_t span_us = conn->trace.reply_us - conn->trace.recv_us;
    RequestsTotal(request.opcode).Add();
    if (!status.ok()) RequestErrorsTotal(request.opcode).Add();
    RequestSeconds(request.opcode)
        .Observe(static_cast<double>(span_us) / 1e6);
    const bool is_error = !status.ok();
    const bool is_slow =
        slow_query_ms >= 0 && span_us > int64_t{slow_query_ms} * 1000;
#if !defined(PAW_NO_TRACE)
    // Flight-recorder span family for the request: recorded when the
    // trace is head-sampled, and always for slow/error requests (the
    // coarse request spans can be reconstructed here at Respond time
    // from the RequestTrace stamps; only the sub-layer spans require
    // the trace to have been sampled up front).
    TraceRecorder& recorder = TraceRecorder::Global();
    const TraceContext ctx = conn->trace_ctx;
    if (ctx.valid() &&
        (is_slow || is_error || recorder.Sampled(ctx.trace_id))) {
      const RequestTrace& t = conn->trace;
      Span root;
      root.trace_id = ctx.trace_id;
      root.span_id = recorder.NewSpanId();
      root.parent_span_id = ctx.span_id;
      root.start_us = t.recv_us;
      root.end_us = t.reply_us;
      root.result_bytes = static_cast<uint32_t>(
          std::min<size_t>(result_bytes, UINT32_MAX));
      root.opcode = static_cast<uint8_t>(request.opcode);
      root.status_code = static_cast<uint8_t>(status.code());
      root.flags = static_cast<uint8_t>((is_slow ? kSpanFlagSlow : 0) |
                                        (is_error ? kSpanFlagError : 0));
      root.set_name(std::string("req.") +
                    std::string(wire::OpcodeName(request.opcode)));
      root.set_principal(conn->principal_name);
      recorder.Record(root);
      const auto child = [&](std::string_view name, int64_t from,
                             int64_t to) {
        Span s;
        s.trace_id = ctx.trace_id;
        s.span_id = recorder.NewSpanId();
        s.parent_span_id = root.span_id;
        s.start_us = from;
        s.end_us = to;
        s.opcode = root.opcode;
        s.set_name(name);
        s.set_principal(conn->principal_name);
        recorder.Record(s);
      };
      if (t.lease_us >= t.recv_us && t.lease_us > 0) {
        child("lease.wait", t.recv_us, t.lease_us);
        if (t.engine_us >= t.lease_us) {
          child("engine", t.lease_us, t.engine_us);
          child("reply", t.engine_us, t.reply_us);
        } else {
          child("reply", t.lease_us, t.reply_us);
        }
      }
    }
#endif
    if (is_slow) {
      SlowQueriesTotal().Add();
      // At most one line per (opcode, principal) per second; the
      // counter above still sees every slow request, and the next
      // emitted line for the key carries the number of its lines
      // elided since the last one.
      SlowLogSlot& slot = slow_log_slots[SlowLogSlotIndex(
          request.opcode, conn->principal_name)];
      int64_t last = slot.last_us.load(std::memory_order_relaxed);
      const bool emit =
          (last == 0 || conn->trace.reply_us - last >= 1000000) &&
          slot.last_us.compare_exchange_strong(
              last, conn->trace.reply_us, std::memory_order_relaxed);
      if (!emit) {
        slot.suppressed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const uint64_t suppressed =
          slot.suppressed.exchange(0, std::memory_order_relaxed);
      std::string spans;
      if (conn->trace.lease_us >= conn->trace.recv_us &&
          conn->trace.lease_us > 0) {
        spans += " lease_wait_ms=" +
                 FormatMs(conn->trace.lease_us - conn->trace.recv_us);
        if (conn->trace.engine_us >= conn->trace.lease_us) {
          spans += " engine_ms=" + FormatMs(conn->trace.engine_us -
                                            conn->trace.lease_us);
        }
      }
      PAW_LOG(kWarning)
          << "pawd: slow request id=" << request.request_id
          << " opcode=" << wire::OpcodeName(request.opcode)
          << " principal="
          << (conn->principal_name.empty() ? "-" : conn->principal_name)
          << " trace=" << TraceIdHex(conn->trace_ctx.trace_id)
          << " duration_ms=" << FormatMs(span_us)
          << " result_bytes=" << result_bytes << spans
          << (suppressed != 0
                  ? " suppressed=" + std::to_string(suppressed)
                  : "");
    }
  }

  void HandleBatch(Connection* conn,
                   std::vector<PendingFrame>& batch, std::string* out) {
    size_t i = 0;
    while (i < batch.size()) {
      // Gate: handshake and session checks happen in frame order on
      // this (single) worker, so a pipelined HELLO/AUTH prefix is
      // processed before the ops behind it.
      const wire::Frame& frame = batch[i].frame;
      conn->trace = RequestTrace{batch[i].recv_us, 0, 0, 0};
      // Adopt the client's wire-propagated trace context; HELLO (and a
      // client that sends an empty context) carries none, so the server
      // roots a fresh trace (its own spans still group even without
      // client correlation). Subscriber acks keep whatever the follower
      // echoed.
      TraceContext ctx = frame.trace;
      if (!ctx.valid() && frame.opcode != wire::Opcode::kReplicate) {
        ctx.trace_id = TraceRecorder::Global().NewTraceId();
      }
      conn->trace_ctx = ctx;
      ScopedTraceContext scoped_ctx(ctx);
      if (!conn->hello_done && frame.opcode != wire::Opcode::kHello) {
        Respond(conn, frame,
                Status::FailedPrecondition(
                    "first frame on a connection must be HELLO"),
                "", out);
        conn->close_after_flush = true;
        return;
      }
      if (conn->hello_done && frame.version != conn->version) {
        Respond(conn, frame,
                Status::FailedPrecondition(
                    "frame version " + std::to_string(frame.version) +
                    " does not match negotiated version " +
                    std::to_string(conn->version)),
                "", out);
        conn->close_after_flush = true;
        return;
      }
      if (conn->subscriber.load(std::memory_order_relaxed) &&
          frame.opcode == wire::Opcode::kReplicate) {
        // Inverted connection: this is the follower's ack to a pushed
        // batch, not a request — route it, emit no response.
        HandleReplicateAck(conn, frame);
        ++i;
        continue;
      }
      if (frame.opcode == wire::Opcode::kAddExecution && conn->authed &&
          !is_follower) {
        // Batch the whole pipelined run of appends: enqueue all, then
        // await acks in order — one shared lease acquisition, and the
        // store's group commit amortizes the fsyncs.
        size_t j = i;
        while (j < batch.size() &&
               batch[j].frame.opcode == wire::Opcode::kAddExecution &&
               batch[j].frame.version == conn->version) {
          ++j;
        }
        HandleAddExecutionRun(conn, batch, i, j, out);
        i = j;
        continue;
      }
      HandleFrame(conn, frame, out);
      ++i;
    }
  }

  void HandleFrame(Connection* conn, const wire::Frame& frame,
                   std::string* out) {
    switch (frame.opcode) {
      case wire::Opcode::kHello:
        return HandleHello(conn, frame, out);
      case wire::Opcode::kAuth:
        return HandleAuth(conn, frame, out);
      default:
        break;
    }
    if (!conn->authed) {
      Respond(conn, frame,
              Status::PermissionDenied(
                  std::string(wire::OpcodeName(frame.opcode)) +
                  " requires AUTH"),
              "", out);
      return;
    }
    if (is_follower) {
      switch (frame.opcode) {
        case wire::Opcode::kAddSpec:
        case wire::Opcode::kAddExecution:
        case wire::Opcode::kCompact:
        case wire::Opcode::kSubscribe:
          // Read-only replica: redirect-style rejection naming the
          // leader, so clients (and operators) know where writes go.
          Respond(conn, frame,
                  Status::FailedPrecondition(
                      std::string(wire::OpcodeName(frame.opcode)) +
                      " rejected: this pawd is a read-only follower of " +
                      options.follow_host + ":" +
                      std::to_string(options.follow_port) +
                      "; send writes to the leader"),
                  "", out);
          return;
        default:
          break;
      }
    }
    switch (frame.opcode) {
      case wire::Opcode::kAddSpec:
        return HandleAddSpec(conn, frame, out);
      case wire::Opcode::kAddExecution: {
        std::vector<PendingFrame> one;
        one.push_back(PendingFrame{frame, conn->trace.recv_us});
        return HandleAddExecutionRun(conn, one, 0, 1, out);
      }
      case wire::Opcode::kGetSpec:
        return HandleGetSpec(conn, frame, out);
      case wire::Opcode::kGetExecution:
        return HandleGetExecution(conn, frame, out);
      case wire::Opcode::kKeywordSearch:
        return HandleSearch(conn, frame, out);
      case wire::Opcode::kStructuralQuery:
        return HandleStructural(conn, frame, out);
      case wire::Opcode::kLineage:
        return HandleLineage(conn, frame, out);
      case wire::Opcode::kStatus:
        return HandleStatus(conn, frame, out);
      case wire::Opcode::kCompact:
        return HandleCompact(conn, frame, out);
      case wire::Opcode::kMetrics:
        return HandleMetrics(conn, frame, out);
      case wire::Opcode::kTraceDump:
        return HandleTraceDump(conn, frame, out);
      case wire::Opcode::kSubscribe:
        return HandleSubscribe(conn, frame, out);
      case wire::Opcode::kReplicate:
        // Only valid as an ack on a subscribed connection (routed in
        // HandleBatch before it gets here).
        Respond(conn, frame,
                Status::FailedPrecondition(
                    "REPLICATE is only valid on a connection that "
                    "SUBSCRIBEd as a replication follower"),
                "", out);
        return;
      default:
        Respond(conn, frame,
                Status::Unimplemented("unhandled opcode"), "", out);
    }
  }

  /// SUBSCRIBE: registers the connection as a replication follower.
  /// The subscriber starts paused in the manager; the response is
  /// queued on the wire *before* activation, so the first REPLICATE
  /// push can never overtake the SUBSCRIBE response.
  void HandleSubscribe(Connection* conn, const wire::Frame& frame,
                       std::string* out) {
    if (conn->level < admin_level) {
      Respond(conn, frame,
              Status::PermissionDenied(
                  "SUBSCRIBE requires level >= " +
                  std::to_string(admin_level) + " (session level " +
                  std::to_string(conn->level) + ")"),
              "", out);
      return;
    }
    auto req = wire::DecodeSubscribeRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    wire::SubscribeRequest sreq = std::move(req).value();
    std::weak_ptr<Connection> weak = conn->shared_from_this();
    auto resp = repl->AddSubscriber(
        conn->id, sreq.follower_name, std::move(sreq.last_lsns),
        [this, weak](wire::Frame&& f) {
          std::shared_ptr<Connection> c = weak.lock();
          return c != nullptr && PushFrame(c, std::move(f));
        });
    if (!resp.ok()) {
      Respond(conn, frame, resp.status(), "", out);
      return;
    }
    conn->subscriber.store(true, std::memory_order_relaxed);
    std::string resp_bytes;
    Respond(conn, frame, Status::OK(),
            EncodeSubscribeResponse(resp.value()), &resp_bytes);
    {
      // Flush this batch's earlier responses plus ours straight to the
      // connection, preserving order, then activate — from that point
      // the sender thread may append pushes behind them.
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->closed) {
        conn->pending_out.append(*out);
        out->clear();
        conn->pending_out.append(resp_bytes);
      }
    }
    Wake();
    repl->ActivateSubscriber(conn->id);
  }

  /// A follower's REPLICATE response riding the inverted subscriber
  /// connection: decode, route to the manager. No response is emitted
  /// (pushes are leader-initiated).
  void HandleReplicateAck(Connection* conn, const wire::Frame& frame) {
    size_t offset = 0;
    Status status;
    if (!wire::ReadResponseStatus(frame.payload, &offset, &status) ||
        !status.ok()) {
      return;  // follower failed the batch; it will drop and resubscribe
    }
    auto ack = wire::DecodeReplicateResponse(frame.payload, offset);
    if (ack.ok() && repl != nullptr) {
      {
        // The follower echoed the pushed batch's trace context on its
        // ack (installed as the thread-local by HandleBatch), so this
        // span lands in the same trace as the client write it
        // acknowledges. A point event, recorded BEFORE the ack is
        // routed: HandleAck may wake a quorum-blocked client, and an
        // acked client must already find the whole span family in the
        // flight recorder.
        ScopedSpan span("repl.ack_recv");
        span.set_detail("shard=" + std::to_string(ack.value().shard) +
                        " lsn=" +
                        std::to_string(ack.value().durable_lsn));
      }
      repl->HandleAck(conn->id, ack.value());
    }
  }

  /// Follower apply path: one pushed batch → the store, under the same
  /// lease discipline the leader's own write path uses. Returns the
  /// shard's durable LSN to ack.
  Result<uint64_t> ApplyReplicatedBatch(const wire::ReplicateRequest& req) {
    if (req.shard < 0 || req.shard >= store->num_shards()) {
      return Status::InvalidArgument(
          "replicated batch for unknown shard " +
          std::to_string(req.shard));
    }
    const uint64_t have = ShardLsn(req.shard);
    // A reconnect can replay records the follower already applied (the
    // leader streams from segment boundaries): skip the known prefix.
    size_t skip = 0;
    if (req.base_lsn <= have) {
      skip = static_cast<size_t>(have - req.base_lsn) + 1;
      if (skip >= req.records.size()) return have;
    } else if (req.base_lsn != have + 1) {
      return Status::FailedPrecondition(
          "replication gap: follower at lsn " + std::to_string(have) +
          ", batch starts at lsn " + std::to_string(req.base_lsn));
    }
    for (size_t k = skip; k < req.records.size(); ++k) {
      const auto& rec = req.records[k];
      const RecordType type = static_cast<RecordType>(rec.type);
      // The replication apply thread is the only writer on a follower
      // (write opcodes are rejected), so bypassing the writer queues
      // preserves the per-shard single-writer contract.
      PersistentRepository& shard = store->shard(req.shard);
      if (type == RecordType::kSpecV2) {
        // Spec appends pin registry entries from the shard's entry
        // vector — exclusive + drained, exactly like ADD_SPEC.
        std::unique_lock<std::shared_mutex> exclusive = ExclusiveLease();
        store->Drain();
        auto lsn = shard.ApplyReplicated(type, rec.payload);
        PAW_RETURN_NOT_OK(lsn.status());
        const Repository& r = repo(req.shard);
        const int id = r.num_specs() - 1;
        const SpecEntry& entry = r.entry(id);
        {
          std::lock_guard<std::mutex> lock(reg_mu);
          registry[entry.spec.name()] = SpecInfo{{req.shard, id}, &entry};
        }
        engines[static_cast<size_t>(req.shard)]->InvalidateSpecViews(id);
      } else {
        std::shared_lock<std::shared_mutex> shared = SharedLease();
        auto lsn = shard.ApplyReplicated(type, rec.payload);
        PAW_RETURN_NOT_OK(lsn.status());
      }
    }
    // The ack promises durability: force the batch down when the store
    // is not already syncing each append.
    if (!options.store.sync_each_append) {
      PAW_RETURN_NOT_OK(store->Sync());
    }
    return ShardLsn(req.shard);
  }

  void HandleHello(Connection* conn, const wire::Frame& frame,
                   std::string* out) {
    if (conn->hello_done) {
      Respond(conn, frame,
              Status::FailedPrecondition("duplicate HELLO"), "", out);
      conn->close_after_flush = true;
      return;
    }
    auto req = wire::DecodeHelloRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      conn->close_after_flush = true;
      return;
    }
    const uint8_t lo =
        std::max(req.value().min_version, wire::kMinProtocolVersion);
    const uint8_t hi =
        std::min(req.value().max_version, wire::kProtocolVersion);
    if (lo > hi) {
      Respond(conn, frame,
              Status::FailedPrecondition(
                  "no common protocol version: server speaks [" +
                  std::to_string(wire::kMinProtocolVersion) + ", " +
                  std::to_string(wire::kProtocolVersion) +
                  "], client offered [" +
                  std::to_string(req.value().min_version) + ", " +
                  std::to_string(req.value().max_version) + "]"),
              "", out);
      conn->close_after_flush = true;
      return;
    }
    conn->hello_done = true;
    conn->version = hi;
    wire::HelloResponse resp;
    resp.version = hi;
    resp.server_name = options.server_name;
    Respond(conn, frame, Status::OK(), EncodeHelloResponse(resp), out);
  }

  void HandleAuth(Connection* conn, const wire::Frame& frame,
                  std::string* out) {
    auto req = wire::DecodeAuthRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    auto principal = acl.Find(req.value().principal);
    if (!principal.ok()) {
      stats.auth_failures.fetch_add(1, std::memory_order_relaxed);
      AuthFailuresTotal().Add();
      Respond(conn, frame,
              Status::PermissionDenied("unknown principal \"" +
                                       req.value().principal + "\""),
              "", out);
      return;
    }
    conn->authed = true;
    conn->principal = principal.value().id;
    conn->level = principal.value().level;
    conn->principal_name = req.value().principal;
    conn->group = principal.value().group;
    AuthSessionsTotal().Add();
    wire::AuthResponse resp;
    resp.principal_id = principal.value().id.value();
    resp.level = principal.value().level;
    Respond(conn, frame, Status::OK(), EncodeAuthResponse(resp), out);
  }

  void HandleAddSpec(Connection* conn, const wire::Frame& frame,
                     std::string* out) {
    auto req = wire::DecodeAddSpecRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    auto spec = ParseSpecification(req.value().spec_text);
    if (!spec.ok()) {
      Respond(conn, frame, spec.status(), "", out);
      return;
    }
    PolicySet policy;
    if (!req.value().policy_text.empty()) {
      auto parsed = ParsePolicy(req.value().policy_text, spec.value());
      if (!parsed.ok()) {
        Respond(conn, frame, parsed.status(), "", out);
        return;
      }
      policy = std::move(parsed).value();
    }
    const std::string name = spec.value().name();
    // Exclusive: the registry pin below indexes the shard's entry
    // vector, which must not race concurrent appends.
    std::unique_lock<std::shared_mutex> exclusive = ExclusiveLease();
    store->Drain();
    conn->trace.lease_us = NowMicros();
    if (FindSpec(name).ok()) {
      exclusive.unlock();
      Respond(conn, frame,
              Status::AlreadyExists("spec \"" + name +
                                    "\" is already stored"),
              "", out);
      return;
    }
    auto ref = store->AddSpecification(std::move(spec).value(),
                                       std::move(policy));
    if (!ref.ok()) {
      exclusive.unlock();
      Respond(conn, frame, ref.status(), "", out);
      return;
    }
    const SpecEntry& entry = repo(ref.value().shard).entry(ref.value().id);
    {
      std::lock_guard<std::mutex> lock(reg_mu);
      registry[name] = SpecInfo{ref.value(), &entry};
    }
    // Epoch-floor discipline: a spec-affecting append drops any memoized
    // views keyed by this spec id (defensive — ids are append-only, so
    // the slot should be empty) while every other spec's views stay hot.
    engines[static_cast<size_t>(ref.value().shard)]->InvalidateSpecViews(
        ref.value().id);
    wire::AddSpecResponse resp;
    resp.shard = ref.value().shard;
    resp.spec_id = ref.value().id;
    resp.global_lsn = GlobalLsn(ref.value().shard);
    exclusive.unlock();
    Respond(conn, frame, Status::OK(), EncodeAddSpecResponse(resp), out);
  }

  /// Handles frames [begin, end) of `batch`, all kAddExecution: parse
  /// and enqueue every append first (one shared lease hold), then
  /// await and emit the acknowledgments in order.
  void HandleAddExecutionRun(Connection* conn,
                             std::vector<PendingFrame>& batch, size_t begin,
                             size_t end, std::string* out) {
    struct Prepared {
      size_t index;
      ShardedRepository::SpecRef ref;
      Execution exec;
      TraceContext ctx;
      StoreFuture<ExecutionId> future;
    };
    std::vector<Prepared> run;
    run.reserve(end - begin);
    // Per-frame trace contexts, fixed up front so the enqueue below
    // and the response emission agree on each frame's trace id (a frame
    // without one gets a server-rooted one here, exactly once).
    std::vector<TraceContext> ctxs(end - begin);
    for (size_t i = begin; i < end; ++i) {
      ctxs[i - begin] = batch[i].frame.trace;
      if (!ctxs[i - begin].valid()) {
        ctxs[i - begin].trace_id = TraceRecorder::Global().NewTraceId();
      }
    }
    // Parse off-lock: registry entries are address-stable and specs
    // immutable, so execution texts resolve without touching the
    // store's entry vectors.
    std::vector<std::pair<size_t, Status>> failures;
    for (size_t i = begin; i < end; ++i) {
      auto req = wire::DecodeAddExecutionRequest(batch[i].frame.payload);
      if (!req.ok()) {
        failures.emplace_back(i, req.status());
        continue;
      }
      auto info = FindSpec(req.value().spec_name);
      if (!info.ok()) {
        failures.emplace_back(i, info.status());
        continue;
      }
      auto exec =
          ParseExecution(req.value().exec_text, info.value().entry->spec);
      if (!exec.ok()) {
        failures.emplace_back(i, exec.status());
        continue;
      }
      Prepared p{i, info.value().ref, std::move(exec).value(),
                 ctxs[i - begin], {}};
      run.push_back(std::move(p));
    }
    int64_t lease_us = 0;
    {
      std::shared_lock<std::shared_mutex> shared = SharedLease();
      lease_us = NowMicros();
      for (Prepared& p : run) {
        // The writer queue captures the thread-local context at
        // enqueue, so the shard's commit (and the replication stream
        // behind it) carries this frame's trace id.
        ScopedTraceContext op_ctx(p.ctx);
        p.future = store->AddExecutionAsync(p.ref, std::move(p.exec));
      }
    }
    // Emit responses in request order (failures interleaved). Each
    // frame gets its own latency span (its parse stamp to its ack).
    size_t fi = 0, ri = 0;
    for (size_t i = begin; i < end; ++i) {
      conn->trace = RequestTrace{batch[i].recv_us, lease_us, 0, 0};
      conn->trace_ctx = ctxs[i - begin];
      if (fi < failures.size() && failures[fi].first == i) {
        Respond(conn, batch[i].frame, failures[fi].second, "", out);
        ++fi;
        continue;
      }
      Prepared& p = run[ri++];
      auto id = p.future.get();
      if (!id.ok()) {
        Respond(conn, batch[i].frame, id.status(), "", out);
        continue;
      }
      if (options.quorum_acks && repl != nullptr) {
        // acks=quorum: the ack additionally means "a follower has this
        // durable". Waiting on the shard's current tail is conservative
        // (it may cover later writes too) but always covers this one.
        const int shard = p.ref.shard;
        const uint64_t lsn = ShardLsn(shard);
        bool quorum_ok;
        {
          ScopedTraceContext tl(p.ctx);
          ScopedSpan qspan("quorum.wait");
          qspan.set_detail("shard=" + std::to_string(shard) +
                           " lsn=" + std::to_string(lsn));
          quorum_ok = repl->WaitForQuorum(shard, lsn,
                                          options.quorum_timeout_ms);
        }
        if (!quorum_ok) {
          Respond(conn, batch[i].frame,
                  Status::FailedPrecondition(
                      "quorum ack timeout: the write is durable on the "
                      "leader, but no follower confirmed shard " +
                      std::to_string(shard) + " lsn " +
                      std::to_string(lsn) + " within " +
                      std::to_string(options.quorum_timeout_ms) + " ms"),
                  "", out);
          continue;
        }
      }
      wire::AddExecutionResponse resp;
      resp.shard = p.ref.shard;
      resp.exec_id = id.value().value();
      resp.global_lsn = GlobalLsn(p.ref.shard);
      Respond(conn, batch[i].frame, Status::OK(),
              EncodeAddExecutionResponse(resp), out);
    }
  }

  void HandleGetSpec(Connection* conn, const wire::Frame& frame,
                     std::string* out) {
    auto req = wire::DecodeGetSpecRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    auto info = FindSpec(req.value().spec_name);
    if (!info.ok()) {
      Respond(conn, frame, info.status(), "", out);
      return;
    }
    const SpecEntry& entry = *info.value().entry;
    // A spec's full text reveals every level of the hierarchy, so it
    // is only served to principals whose access view covers all of it.
    auto view = acl.AccessViewFor(conn->principal, entry.spec,
                                  entry.hierarchy);
    if (!view.ok()) {
      Respond(conn, frame, view.status(), "", out);
      return;
    }
    if (view.value() != entry.hierarchy.FullPrefix()) {
      Respond(conn, frame,
              Status::PermissionDenied(
                  "access view at level " + std::to_string(conn->level) +
                  " does not cover the full specification"),
              "", out);
      return;
    }
    wire::GetSpecResponse resp;
    resp.spec_text = Serialize(entry.spec);
    resp.policy_text = SerializePolicy(entry.policy);
    RecordAuditEvent(AuditVerdict::kServed, conn->principal_name,
                     static_cast<uint8_t>(frame.opcode),
                     "spec=" + req.value().spec_name + " " +
                         AuditWho(conn) + " view=full");
    Respond(conn, frame, Status::OK(), EncodeGetSpecResponse(resp), out);
  }

  void HandleGetExecution(Connection* conn, const wire::Frame& frame,
                          std::string* out) {
    auto req = wire::DecodeGetExecutionRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    auto info = FindSpec(req.value().spec_name);
    if (!info.ok()) {
      Respond(conn, frame, info.status(), "", out);
      return;
    }
    // Shared lease: the lookup runs on the engine's pinned cut, and the
    // returned entry is immutable/address-stable, so the lease drops as
    // soon as the pointer is in hand.
    std::shared_lock<std::shared_mutex> shared = SharedLease();
    conn->trace.lease_us = NowMicros();
    QueryEngine* engine =
        engines[static_cast<size_t>(info.value().ref.shard)].get();
    auto found = engine->ExecutionByOrdinal(info.value().ref.id,
                                            req.value().ordinal);
    if (!found.ok()) {
      shared.unlock();
      Respond(conn, frame,
              Status(found.status().code(),
                     "spec \"" + req.value().spec_name + "\" " +
                         found.status().message()),
              "", out);
      return;
    }
    const ExecutionEntry& ee = *found.value();
    // Per-item visibility from the privacy-view cache: the mask set
    // depends only on the immutable execution entry and the
    // principal's cache group, so repeated GET_EXECUTIONs skip
    // ComputeMasking entirely.
    auto mask = engine->ExecutionMask(conn->principal, ee.id);
    shared.unlock();
    if (!mask.ok()) {
      Respond(conn, frame, mask.status(), "", out);
      return;
    }
    // use_count > 1 means the privacy-view cache also holds this
    // report — i.e. the mask was served memoized, not recomputed.
    const bool cache_hit = mask.value().use_count() > 1;
    // Re-render the execution with every item value the principal may
    // not see replaced by the mask — identity and structure stay
    // queryable, contents stay hidden (data privacy, paper Sec. 3).
    const MaskingReport& report = *mask.value();
    Execution masked(info.value().entry->spec);
    for (const ExecNode& node : ee.exec.nodes()) {
      masked.AddNode(node.kind, node.module, node.process_id,
                     node.enclosing);
    }
    for (const DataItem& item : ee.exec.items()) {
      const bool visible =
          report.visible[static_cast<size_t>(item.id.value())];
      masked.AddItem(item.label, item.producer,
                     visible ? item.value : std::string(kMaskedValue));
    }
    const Digraph& g = ee.exec.graph();
    for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
      for (NodeIndex v : g.OutNeighbors(u)) {
        (void)masked.AddFlow(ExecNodeId(u), ExecNodeId(v),
                             ee.exec.ItemsOn(ExecNodeId(u),
                                             ExecNodeId(v)));
      }
    }
    wire::GetExecutionResponse resp;
    resp.exec_text = SerializeExecution(masked);
    resp.num_masked = report.num_masked;
    RecordAuditEvent(
        report.num_masked > 0 ? AuditVerdict::kMasked
                              : AuditVerdict::kServed,
        conn->principal_name, static_cast<uint8_t>(frame.opcode),
        // Verdict-relevant fields first: the detail buffer is capped,
        // and a long spec name must not push `masked=` off the end.
        "masked=" + std::to_string(report.num_masked) +
            (cache_hit ? " cache=hit " : " cache=miss ") +
            AuditWho(conn) + " exec=" + req.value().spec_name + "#" +
            std::to_string(req.value().ordinal));
    Respond(conn, frame, Status::OK(), EncodeGetExecutionResponse(resp),
            out);
  }

  void HandleSearch(Connection* conn, const wire::Frame& frame,
                    std::string* out) {
    auto req = wire::DecodeSearchRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    // Shared lease: each shard's engine serves from its pinned cut and
    // catches up to the current epoch itself — searches run concurrently
    // with pipelined ingest and with each other.
    std::shared_lock<std::shared_mutex> shared = SharedLease();
    conn->trace.lease_us = NowMicros();
    std::vector<wire::SearchHit> hits;
    for (int s = 0; s < store->num_shards(); ++s) {
      QueryEngine* engine = engines[static_cast<size_t>(s)].get();
      auto answers = engine->Search(conn->principal, req.value().terms);
      if (!answers.ok()) {
        shared.unlock();
        Respond(conn, frame, answers.status(), "", out);
        return;
      }
      for (const KeywordAnswer& answer : answers.value()) {
        // Answers come from the engine's cut, so the entry is always
        // within it; render via the cut, never the live vectors.
        const SpecEntry* entry = engine->SpecEntryAt(answer.spec_id);
        if (entry == nullptr) continue;
        wire::SearchHit hit;
        const Specification& spec = entry->spec;
        hit.spec_name = spec.name();
        hit.score = answer.score;
        hit.view_size = answer.view_size;
        for (ModuleId m : answer.matched) {
          hit.matched.push_back(spec.module(m).code);
        }
        hits.push_back(std::move(hit));
      }
    }
    conn->trace.engine_us = NowMicros();
    shared.unlock();
    // Merge across shards: scores share one TF-IDF scale per shard, so
    // the cross-shard order is approximate; ties break toward smaller
    // views exactly as the per-shard ranking does.
    std::stable_sort(hits.begin(), hits.end(),
                     [](const wire::SearchHit& a, const wire::SearchHit& b) {
                       if (a.score != b.score) return a.score > b.score;
                       return a.view_size < b.view_size;
                     });
    wire::SearchResponse resp;
    resp.hits = std::move(hits);
    // Searches are confined to the principal's access views by
    // construction — served, never masked.
    RecordAuditEvent(AuditVerdict::kServed, conn->principal_name,
                     static_cast<uint8_t>(frame.opcode),
                     "terms=" + std::to_string(req.value().terms.size()) +
                         " hits=" + std::to_string(resp.hits.size()) +
                         " " + AuditWho(conn));
    Respond(conn, frame, Status::OK(), EncodeSearchResponse(resp), out);
  }

  void HandleStructural(Connection* conn, const wire::Frame& frame,
                        std::string* out) {
    auto req = wire::DecodeStructuralRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    auto info = FindSpec(req.value().spec_name);
    if (!info.ok()) {
      Respond(conn, frame, info.status(), "", out);
      return;
    }
    StructuralPattern pattern;
    for (const std::string& term : req.value().var_terms) {
      pattern.vars.push_back(NodePredicate{term});
    }
    const int n_vars = static_cast<int>(pattern.vars.size());
    for (const wire::StructuralRequest::Edge& edge : req.value().edges) {
      if (edge.from >= n_vars || edge.to >= n_vars) {
        Respond(conn, frame,
                Status::InvalidArgument("pattern edge references an "
                                        "unknown variable"),
                "", out);
        return;
      }
      pattern.edges.push_back(
          PatternEdge{edge.from, edge.to, edge.transitive});
    }
    std::shared_lock<std::shared_mutex> shared = SharedLease();
    conn->trace.lease_us = NowMicros();
    auto matches =
        engines[static_cast<size_t>(info.value().ref.shard)]->Structural(
            conn->principal, info.value().ref.id, pattern);
    conn->trace.engine_us = NowMicros();
    shared.unlock();
    if (!matches.ok()) {
      Respond(conn, frame, matches.status(), "", out);
      return;
    }
    wire::StructuralResponse resp;
    const Specification& spec = info.value().entry->spec;
    for (const PatternMatch& match : matches.value()) {
      std::vector<std::string> codes;
      for (ModuleId m : match.binding) {
        codes.push_back(spec.module(m).code);
      }
      resp.matches.push_back(std::move(codes));
    }
    RecordAuditEvent(AuditVerdict::kServed, conn->principal_name,
                     static_cast<uint8_t>(frame.opcode),
                     "spec=" + req.value().spec_name + " matches=" +
                         std::to_string(resp.matches.size()) + " " +
                         AuditWho(conn));
    Respond(conn, frame, Status::OK(), EncodeStructuralResponse(resp),
            out);
  }

  void HandleLineage(Connection* conn, const wire::Frame& frame,
                     std::string* out) {
    auto req = wire::DecodeLineageRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    auto info = FindSpec(req.value().spec_name);
    if (!info.ok()) {
      Respond(conn, frame, info.status(), "", out);
      return;
    }
    std::shared_lock<std::shared_mutex> shared = SharedLease();
    conn->trace.lease_us = NowMicros();
    QueryEngine* engine =
        engines[static_cast<size_t>(info.value().ref.shard)].get();
    auto found = engine->ExecutionByOrdinal(info.value().ref.id,
                                            req.value().ordinal);
    if (!found.ok()) {
      shared.unlock();
      Respond(conn, frame,
              Status::NotFound("no execution #" +
                               std::to_string(req.value().ordinal) +
                               " of \"" + req.value().spec_name + "\""),
              "", out);
      return;
    }
    auto answer = engine->Lineage(conn->principal, found.value()->id,
                                  DataItemId(req.value().item));
    conn->trace.engine_us = NowMicros();
    shared.unlock();
    if (!answer.ok()) {
      Respond(conn, frame, answer.status(), "", out);
      return;
    }
    wire::LineageResponse resp;
    resp.zoom_steps = answer.value().zoom_steps;
    const Specification& spec = info.value().entry->spec;
    for (WorkflowId w : answer.value().prefix) {
      resp.prefix_codes.push_back(spec.workflow(w).code);
    }
    resp.rows = std::move(answer.value().rows);
    // A zoomed-out lineage is the structural analogue of masking: the
    // principal got an answer coarsened to their level.
    RecordAuditEvent(
        resp.zoom_steps > 0 ? AuditVerdict::kMasked
                            : AuditVerdict::kServed,
        conn->principal_name, static_cast<uint8_t>(frame.opcode),
        // Verdict-relevant fields first: the detail buffer is capped,
        // and a long spec name must not push `zoom=` off the end.
        "zoom=" + std::to_string(resp.zoom_steps) +
            " rows=" + std::to_string(resp.rows.size()) + " " +
            AuditWho(conn) + " exec=" + req.value().spec_name + "#" +
            std::to_string(req.value().ordinal) +
            " item=" + std::to_string(req.value().item));
    Respond(conn, frame, Status::OK(), EncodeLineageResponse(resp), out);
  }

  void HandleStatus(Connection* conn, const wire::Frame& frame,
                    std::string* out) {
    // Shared lease; counts are atomic reads. Ops still queued behind
    // the writers are not counted yet — acked appends always are.
    std::shared_lock<std::shared_mutex> shared = SharedLease();
    conn->trace.lease_us = NowMicros();
    wire::StatusResponse resp;
    resp.shards = store->num_shards();
    for (int s = 0; s < store->num_shards(); ++s) {
      resp.specs += repo(s).num_specs();
      resp.executions += repo(s).num_executions();
    }
    resp.principals = acl.size();
    resp.connections = live_conns.load(std::memory_order_relaxed);
    std::string text = options.server_name + ": " +
                       std::to_string(resp.shards) + " shard(s), " +
                       std::to_string(resp.specs) + " spec(s), " +
                       std::to_string(resp.executions) +
                       " execution(s)";
    for (int s = 0; s < store->num_shards(); ++s) {
      text += "\nshard " + std::to_string(s) + ": lsn " +
              std::to_string(GlobalLsn(s));
    }
    if (is_follower) {
      text += "\nfollower of " + options.follow_host + ":" +
              std::to_string(options.follow_port) +
              (follower != nullptr && follower->connected()
                   ? " (connected)"
                   : " (connecting)");
    } else if (repl != nullptr) {
      text += "\nreplication: " +
              std::to_string(repl->num_subscribers()) + " subscriber(s)" +
              (options.quorum_acks ? ", acks=quorum" : ", acks=local");
    }
    resp.text = std::move(text);
    shared.unlock();
    Respond(conn, frame, Status::OK(), EncodeStatusResponse(resp), out);
  }

  void HandleCompact(Connection* conn, const wire::Frame& frame,
                     std::string* out) {
    if (conn->level < admin_level) {
      Respond(conn, frame,
              Status::PermissionDenied(
                  "COMPACT requires level >= " +
                  std::to_string(admin_level) + " (session level " +
                  std::to_string(conn->level) + ")"),
              "", out);
      return;
    }
    // Exclusive: compaction folds store files and must not run under
    // concurrent readers or writers.
    std::unique_lock<std::shared_mutex> exclusive = ExclusiveLease();
    store->Drain();
    conn->trace.lease_us = NowMicros();
    Status status = store->CompactAsync();
    if (status.ok()) status = store->WaitForCompaction();
    exclusive.unlock();
    Respond(conn, frame, status, "", out);
  }

  /// METRICS: a registry snapshot. Reads only relaxed atomics, so it
  /// deliberately skips the lease — observability must stay cheap and
  /// must work while the store is busy.
  void HandleMetrics(Connection* conn, const wire::Frame& frame,
                     std::string* out) {
    wire::MetricsResponse resp;
    resp.snapshot = MetricsRegistry::Global().Snapshot();
    Respond(conn, frame, Status::OK(), EncodeMetricsResponse(resp), out);
  }

  /// TRACE_DUMP: a flight-recorder snapshot. Lease-free like METRICS
  /// (the ring is safe under any store state); requires `admin_level`
  /// because spans and audit events expose other principals' activity.
  void HandleTraceDump(Connection* conn, const wire::Frame& frame,
                       std::string* out) {
    if (conn->level < admin_level) {
      Respond(conn, frame,
              Status::PermissionDenied(
                  "TRACE_DUMP requires level >= " +
                  std::to_string(admin_level) + " (session level " +
                  std::to_string(conn->level) + ")"),
              "", out);
      return;
    }
    auto req = wire::DecodeTraceDumpRequest(frame.payload);
    if (!req.ok()) {
      Respond(conn, frame, req.status(), "", out);
      return;
    }
    const wire::TraceDumpRequest& q = req.value();
    const std::vector<Span> all = TraceRecorder::Global().Collect();
    std::vector<Span> matched;
    switch (q.mode) {
      case wire::TraceDumpMode::kAll:
        for (const Span& s : all) {
          if (s.kind == SpanKind::kSpan) matched.push_back(s);
        }
        break;
      case wire::TraceDumpMode::kAudit:
        for (const Span& s : all) {
          if (s.kind == SpanKind::kAudit) matched.push_back(s);
        }
        break;
      case wire::TraceDumpMode::kById:
        // By id, everything of the trace rides along — spans from any
        // layer plus the audit events it triggered.
        for (const Span& s : all) {
          if (s.trace_id == q.trace_id) matched.push_back(s);
        }
        break;
      case wire::TraceDumpMode::kSlow:
      case wire::TraceDumpMode::kErrors: {
        // Two passes: find trace ids carrying the flag, then keep
        // every span of those traces (the whole tree, not just roots).
        const uint8_t want = q.mode == wire::TraceDumpMode::kSlow
                                 ? kSpanFlagSlow
                                 : kSpanFlagError;
        std::unordered_set<uint64_t> ids;
        for (const Span& s : all) {
          if ((s.flags & want) != 0) ids.insert(s.trace_id);
        }
        for (const Span& s : all) {
          if (ids.count(s.trace_id) != 0) matched.push_back(s);
        }
        break;
      }
    }
    wire::TraceDumpResponse resp;
    const size_t cap = q.max_spans != 0 ? q.max_spans : 4096;
    if (matched.size() > cap) {
      // Keep the newest spans — a flight recorder's tail is the part
      // that explains what just happened.
      resp.dropped = static_cast<uint32_t>(matched.size() - cap);
      matched.erase(matched.begin(),
                    matched.end() - static_cast<ptrdiff_t>(cap));
    }
    resp.spans = std::move(matched);
    Respond(conn, frame, Status::OK(), EncodeTraceDumpResponse(resp),
            out);
  }
};

// ---- PawServer --------------------------------------------------------------

PawServer::PawServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

PawServer::~PawServer() { Stop(); }

void PawServer::Stop() { impl_->StopInternal(); }

int PawServer::port() const { return impl_->port; }

int PawServer::connections() const {
  return impl_->live_conns.load(std::memory_order_relaxed);
}

const PawServer::Stats& PawServer::stats() const { return impl_->stats; }

Result<std::unique_ptr<PawServer>> PawServer::Start(const std::string& dir,
                                                    ServerOptions options) {
  auto impl = std::make_unique<Impl>();
  impl->dir = dir;
  impl->admin_level = options.admin_level;

  // Open (and lock) the store. Refuse a directory without a shard
  // manifest before touching it.
  if (!ShardedRepository::IsShardedStore(dir)) {
    return Status::FailedPrecondition(
        dir + " has no PAWSHARDS manifest; create a store with "
        "`pawctl init " + dir + "`");
  }
  auto store =
      ShardedRepository::Open(dir, options.store, options.open_threads);
  if (!store.ok()) return store.status();
  impl->store = std::make_unique<ShardedRepository>(std::move(store).value());

  // Principal registry.
  if (options.principals.empty()) {
    options.principals.push_back(
        ServerPrincipal{"admin", options.admin_level, ""});
  }
  for (const ServerPrincipal& p : options.principals) {
    auto id = impl->acl.AddPrincipal(p.name, p.level, p.group);
    if (!id.ok()) return id.status();
  }

  // One knob for both layers: a non-default store threshold wins when
  // the server-level one was left alone.
  impl->slow_query_ms = options.slow_query_ms != 100
                            ? options.slow_query_ms
                            : options.store.slow_query_ms;

  if (options.trace_sample_n > 0) {
    TraceRecorder::Global().set_sample_n(options.trace_sample_n);
  }

  impl->options = std::move(options);
  impl->BuildRegistry();
  impl->BuildEngines();

  PAW_RETURN_NOT_OK(impl->Listen());
  impl->reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  impl->wake_read = pipe_fds[0];
  impl->wake_write = pipe_fds[1];
  PAW_RETURN_NOT_OK(SetNonBlocking(impl->wake_read));
  PAW_RETURN_NOT_OK(SetNonBlocking(impl->wake_write));

  PAW_ASSIGN_OR_RETURN(impl->poller, Poller::Create());
  PAW_RETURN_NOT_OK(impl->poller->Add(impl->listen_fd, false));
  PAW_RETURN_NOT_OK(impl->poller->Add(impl->wake_read, false));

  impl->workers = std::make_unique<ThreadPool>(
      std::max(1, impl->options.worker_threads));
  Impl* raw = impl.get();

  // Replication role. A leader always runs the stream manager (its
  // commit sinks are cheap with zero subscribers), so followers can
  // attach at any time; a follower starts the connect/apply loop and
  // flips the server read-only.
  impl->is_follower = !impl->options.follow_host.empty();
  if (impl->is_follower) {
    ReplicationFollowerOptions fopts;
    fopts.leader_host = impl->options.follow_host;
    fopts.leader_port = impl->options.follow_port;
    fopts.principal = impl->options.follow_principal;
    fopts.follower_name = impl->options.server_name;
    impl->follower = std::make_unique<ReplicationFollower>(
        std::move(fopts),
        [raw] {
          std::vector<uint64_t> lsns;
          for (int s = 0; s < raw->store->num_shards(); ++s) {
            lsns.push_back(raw->ShardLsn(s));
          }
          return lsns;
        },
        [raw](const wire::ReplicateRequest& batch) {
          return raw->ApplyReplicatedBatch(batch);
        });
  } else {
    std::vector<WriteAheadLog*> wals;
    for (int s = 0; s < impl->store->num_shards(); ++s) {
      wals.push_back(impl->store->shard(s).mutable_wal());
    }
    impl->repl = std::make_unique<ReplicationManager>(std::move(wals));
    impl->repl->Start();
  }

  impl->loop_thread = std::thread([raw] { raw->Loop(); });
  if (impl->follower != nullptr) impl->follower->Start();

  return std::unique_ptr<PawServer>(new PawServer(std::move(impl)));
}

}  // namespace paw
