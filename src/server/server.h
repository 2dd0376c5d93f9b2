#ifndef PAW_SERVER_SERVER_H_
#define PAW_SERVER_SERVER_H_

/// \file server.h
/// \brief `pawd` — the multi-user provenance server.
///
/// Fronts a sharded persistent store (`ShardedRepository`, created by
/// `pawctl init`) and the privacy-aware query engine over the binary
/// wire protocol of `src/server/wire.h`. The design is a classic
/// reactor, in three parts:
///
///  - `event_loop.{h,cc}`: one *event-loop thread* owns the listening
///    socket and every connection fd, multiplexed through epoll. It
///    reads bytes, parses frames, flushes responses, enforces idle
///    timeouts, and closes connections on protocol corruption (a bad
///    magic/CRC poisons the stream — there is no way to resync). A
///    fixed *worker pool* executes requests. Frames of one connection
///    are processed serially and in order (so a pipelined ADD_SPEC →
///    ADD_EXECUTION sequence works), while different connections run
///    in parallel.
///  - `dispatch.{h,cc}`: the opcode table — per opcode, whether it
///    needs AUTH, is refused on a follower, is admin only, which store
///    lease it takes, and whether it is privacy-enforced (audited) —
///    and the one dispatcher that applies it. A `Request` carries the
///    request's stage boundaries (lease.wait → engine → reply), from
///    which `Respond` derives the latency histogram, the span family
///    and the slow-log line.
///  - `handlers.cc`: one handler per opcode, returning its reply.
///
/// **Sessions and privacy.** A connection must HELLO (version
/// negotiation) and then AUTH as a registered principal before any
/// other opcode is accepted. Every query runs through the privacy
/// engine *as that principal*: keyword search and structural matching
/// are confined to the principal's access views, lineage rows are
/// masked and zoomed per policy, GET_SPEC requires the principal's
/// access view to cover the whole specification, and GET_EXECUTION
/// masks item values above the principal's level. COMPACT requires
/// `admin_level`.
///
/// **Write path.** ADD_EXECUTION requests are parsed off-lock and
/// enqueued onto the store's per-shard writer queues, so many
/// connections ride one group commit; when the store was opened with
/// `sync_each_append`, a request is acknowledged only after its batch
/// fdatasync'd — an acked write survives `kill -9`. Consecutive
/// pipelined ADD_EXECUTIONs of one connection are enqueued as a batch
/// before the first acknowledgment is awaited, which is what makes
/// pipelining >> sync round trips (bench/bench_server.cc, E11).
///
/// **Concurrency model (MVCC read path).** Appends AND queries hold a
/// *shared* store lease: each shard's query engine pins an MVCC read
/// view of the repository and serves from that cut, catching up to the
/// repository's mutation epoch with view/index deltas before each
/// query — searches never drain writer queues and run concurrently
/// with pipelined ingest (bench/bench_server.cc, E12). A query
/// observes a cut at least as fresh as every append acknowledged
/// before it was issued (read-your-writes per connection). Only
/// ADD_SPEC and COMPACT take the lease *exclusively* and drain first:
/// spec ingestion pins registry entries from the live entry vectors,
/// and compaction folds store files under the readers' feet. See
/// tools/README.md for the opcode table.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/store/persistent_repository.h"
#include "src/workflow/spec.h"

namespace paw {

/// \brief One principal the server will accept AUTH for.
struct ServerPrincipal {
  std::string name;
  AccessLevel level = 0;
  /// Cache/sharing group (two principals share cached answers only
  /// within one group + level).
  std::string group;
};

/// \brief Knobs of a `PawServer`.
struct ServerOptions {
  /// Address to bind; loopback by default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see `PawServer::port`).
  int port = 0;
  /// Request worker threads.
  int worker_threads = 4;
  /// Threads used to recover the store on startup.
  int open_threads = 4;
  /// Store knobs. `sync_each_append` decides whether an ADD ack
  /// implies durability (pawctl serve turns it on by default);
  /// `writer_threads` sizes the sharded store's writer pool.
  StoreOptions store;
  /// Principals accepted by AUTH. When empty, a single "admin" at
  /// `admin_level` is registered so a fresh server is reachable.
  std::vector<ServerPrincipal> principals;
  /// Close connections idle longer than this; 0 disables.
  int idle_timeout_ms = 0;
  /// Slow-query log threshold: requests whose parse-to-reply span
  /// exceeds this many milliseconds are logged at warning level with
  /// request id, opcode, principal, duration, and result size (plus
  /// the lease.wait/engine stage durations of leased opcodes), and
  /// their span family is always recorded. < 0 disables.
  int slow_query_ms = 100;
  /// Minimum level for COMPACT.
  AccessLevel admin_level = 100;
  /// Reported in the HELLO response.
  std::string server_name = "pawd";
  /// Memoize computed privacy views (zoom-outs, access views, mask
  /// sets) in the process-wide `PrivacyViewCache`. Off = recompute per
  /// query (bench_server --no-view-cache measures the difference).
  bool enable_view_cache = true;
  /// Span flight-recorder head sampling: record full sub-layer span
  /// detail for 1-in-N traces (deterministic by trace id, so leader
  /// and follower agree); 1 records every trace, 0 keeps the
  /// recorder's current setting. Slow/error requests always get their
  /// request-family spans regardless. Applied to
  /// `TraceRecorder::Global()` at `Start`.
  uint32_t trace_sample_n = 0;
  /// Byte budget for the privacy-view cache; 0 keeps the cache's
  /// current budget (default 64 MiB).
  size_t view_cache_bytes = 0;

  // ---- Replication (src/server/replication.h) ----

  /// When non-empty, this server starts as a *follower*: it connects
  /// to the leader at `follow_host:follow_port`, subscribes to its
  /// WAL stream, applies records into its own store, and serves
  /// read-only privacy-enforced queries. Write opcodes are rejected
  /// with a FailedPrecondition naming the leader ("redirect"). Leave
  /// empty (default) to run as a leader; a leader accepts SUBSCRIBE
  /// from followers whose principal is at `admin_level`.
  std::string follow_host;
  int follow_port = 0;
  /// Principal the follower authenticates as on the leader (must be
  /// registered there at `admin_level` or above).
  std::string follow_principal = "admin";
  /// Leader ack mode: false = acknowledge ADD_EXECUTION after the
  /// local WAL commit ("acks=local"); true = additionally wait until
  /// at least one subscribed follower confirms the record durable
  /// ("acks=quorum") — a quorum-acked write survives losing the
  /// leader machine entirely.
  bool quorum_acks = false;
  /// Upper bound on one quorum wait; on timeout the ADD_EXECUTION is
  /// failed back to the client (the record is still durable locally).
  int quorum_timeout_ms = 5000;
};

/// \brief The provenance server. Start it, read `port()`, connect
/// `PawClient`s; destruction (or `Stop`) shuts down gracefully —
/// in-flight requests finish, acknowledged writes are durable per the
/// store's sync mode, and the store closes cleanly (releasing the
/// store-dir lock).
class PawServer {
 public:
  /// \brief Opens (and locks) the sharded store under `dir`, binds the
  /// socket, and spawns the event loop + workers. A directory without
  /// a `PAWSHARDS` manifest is refused untouched.
  static Result<std::unique_ptr<PawServer>> Start(const std::string& dir,
                                                  ServerOptions options);

  ~PawServer();
  PawServer(const PawServer&) = delete;
  PawServer& operator=(const PawServer&) = delete;

  /// \brief Stops accepting, flushes what can be flushed, joins the
  /// loop and the workers. Idempotent.
  void Stop();

  /// \brief The bound TCP port (the actual one when `options.port` was 0).
  int port() const;

  /// \brief Live connection count.
  int connections() const;

 private:
  struct Impl;
  explicit PawServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace paw

#endif  // PAW_SERVER_SERVER_H_
