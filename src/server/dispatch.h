#ifndef PAW_SERVER_DISPATCH_H_
#define PAW_SERVER_DISPATCH_H_

/// \file dispatch.h
/// \brief pawd's request path (private to src/server/): the server
/// state handlers share, the opcode table, and the `Request` object
/// that gates, leases and times one request. The dispatcher and
/// `Respond` live in dispatch.cc, the handlers in handlers.cc.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/trace.h"
#include "src/privacy/access_control.h"
#include "src/query/engine.h"
#include "src/server/event_loop.h"
#include "src/server/replication.h"
#include "src/server/server.h"
#include "src/store/sharded_repository.h"

namespace paw {

/// \brief State every handler shares.
struct ServerCore {
  ServerOptions options;
  std::unique_ptr<ShardedRepository> store;
  AccessControl acl;

  /// The store lease: appends AND queries take it shared — queries
  /// serve from per-engine pinned MVCC views, so they need no quiescent
  /// store. Only spec ingest and compaction take it exclusive (and
  /// drain first): ADD_SPEC because the registry pin requires a settled
  /// entry vector, COMPACT because it folds store files under readers.
  std::shared_mutex lease;

  /// name -> location + pinned entry pointer (entries are immutable
  /// and address-stable, so a registry hit never touches the shard's
  /// entry vector — the part that races with appends).
  struct SpecInfo {
    ShardedRepository::SpecRef ref;
    const SpecEntry* entry = nullptr;
  };
  std::mutex reg_mu;
  std::unordered_map<std::string, SpecInfo> registry;

  /// Per-shard query engines, built once at startup. Each pins its own
  /// MVCC view of the shard and catches up incrementally inside its
  /// query entry points, so the server never rebuilds them.
  std::vector<std::unique_ptr<QueryEngine>> engines;

  /// Leader-side replication stream manager (null on followers).
  std::unique_ptr<ReplicationManager> repl;
  /// Follower-side connect/subscribe/apply loop (null on leaders).
  std::unique_ptr<ReplicationFollower> follower;
  /// True when `options.follow_host` is set: a read-only replica.
  bool is_follower = false;
  EventLoop* loop = nullptr;

  /// Slow-query log rate limit, keyed on (opcode, principal): micros
  /// timestamp of the last emitted line for the key (0 = never), and
  /// how many slow requests of that key were counted but not logged
  /// since then. A deep pipelined burst makes every queued request
  /// "slow" at once; logging each one would flood stderr. Keying on
  /// the principal too means one tenant's burst cannot silence
  /// another's. Keys hash into a fixed table; a collision just makes
  /// two keys share one limiter.
  struct SlowLogSlot {
    std::atomic<int64_t> last_us{0};
    std::atomic<uint64_t> suppressed{0};
  };
  std::array<SlowLogSlot, 128> slow_log;

  const Repository& repo(int shard) const {
    return store->shard(shard).repo();
  }
  /// Shard LSN rendered globally (epoch-prefixed); an atomic read.
  uint64_t GlobalLsn(int shard) const {
    return ShardedRepository::EpochLsn(store->epoch(),
                                       store->shard(shard).lsn());
  }
  /// Raw per-shard WAL LSN — the unit replication speaks.
  uint64_t ShardLsn(int shard) const { return store->shard(shard).lsn(); }

  Result<SpecInfo> FindSpec(const std::string& name);
  /// Registers the spec at `ref` and drops any memoized views keyed by
  /// its id. Requires the exclusive lease.
  void PinSpec(ShardedRepository::SpecRef ref);
};

enum class LeaseKind : uint8_t { kNone, kShared, kExclusive };

/// What a handler answers with: the response body plus, for
/// privacy-enforced opcodes, the audit verdict and its detail.
struct Reply {
  std::string body;
  AuditVerdict verdict = AuditVerdict::kServed;
  std::string audit = {};
};

struct Request;

/// One row of the opcode table: how the dispatcher gates, leases and
/// audits an opcode before and after its handler runs.
struct OpcodeRow {
  wire::Opcode opcode;
  bool needs_auth;
  /// A write: refused on a read-only follower, naming the leader.
  bool follower_rejects;
  /// Requires `ServerOptions::admin_level`.
  bool admin_only;
  /// What `Request::Lease` takes.
  LeaseKind lease;
  /// An OK reply records one audit event with the reply's verdict.
  bool privacy_enforced;
  Result<Reply> (*handler)(ServerCore&, Request&);
  /// Set instead of `handler` for ADD_EXECUTION: a pipelined run of
  /// consecutive frames is handled as one, under one lease.
  void (*run)(ServerCore&, std::span<Request>);
};

class StoreLease;

/// \brief One request on its way through the dispatcher, and the only
/// source of its timing: receipt, then at most two boundaries marked
/// by its lease (lease.wait → engine → reply). `Respond` closes it.
struct Request {
  ServerCore& core;
  Connection& conn;
  const OpcodeRow& row;
  const wire::Frame& frame;
  /// The client's trace context, or a server-rooted one.
  TraceContext ctx;
  /// The batch's response buffer.
  std::string* out;
  int64_t recv_us = 0;
  int64_t leased_us = 0;
  int64_t released_us = 0;
  bool responded = false;

  /// Takes the lease the row declares; see `StoreLease`.
  StoreLease Lease();
};

/// \brief A held store lease. Acquiring it (draining the writer queues
/// first when exclusive) marks `leased_us` on every request it serves;
/// releasing it, explicitly or at scope exit, marks `released_us`.
class StoreLease {
 public:
  StoreLease(ServerCore& core, LeaseKind kind, std::span<Request> reqs);
  ~StoreLease() { Release(); }
  StoreLease(const StoreLease&) = delete;
  StoreLease& operator=(const StoreLease&) = delete;
  void Release();

 private:
  std::span<Request> reqs_;
  std::shared_lock<std::shared_mutex> shared_;
  std::unique_lock<std::shared_mutex> exclusive_;
};

/// Encodes the response to `req` into `out` and closes the request:
/// its latency histogram, span family and slow-log line.
void Respond(Request& req, const Status& status, std::string_view body,
             std::string* out);

/// The event loop's dispatch callback (see `EventLoop::Dispatch`).
bool DispatchBatch(ServerCore& core, Connection& conn,
                   std::vector<PendingFrame>& batch, std::string* out);

// ---- Handlers (handlers.cc) ----
//
// Each decodes its request off-lock, takes its row's lease through
// `req.Lease()` when it has one, and returns its reply; the dispatcher
// responds. Only the ADD_EXECUTION run and SUBSCRIBE respond themselves.

Result<Reply> HandleHello(ServerCore& s, Request& req);
Result<Reply> HandleAuth(ServerCore& s, Request& req);
Result<Reply> HandleAddSpec(ServerCore& s, Request& req);
void HandleAddExecutionRun(ServerCore& s, std::span<Request> run);
Result<Reply> HandleGetSpec(ServerCore& s, Request& req);
Result<Reply> HandleGetExecution(ServerCore& s, Request& req);
Result<Reply> HandleSearch(ServerCore& s, Request& req);
Result<Reply> HandleStructural(ServerCore& s, Request& req);
Result<Reply> HandleLineage(ServerCore& s, Request& req);
Result<Reply> HandleStatus(ServerCore& s, Request& req);
Result<Reply> HandleCompact(ServerCore& s, Request& req);
Result<Reply> HandleMetrics(ServerCore& s, Request& req);
Result<Reply> HandleSubscribe(ServerCore& s, Request& req);
Result<Reply> HandleReplicate(ServerCore& s, Request& req);
Result<Reply> HandleTraceDump(ServerCore& s, Request& req);
/// A follower's ack riding its subscribed connection; no response.
void HandleReplicateAck(ServerCore& s, Connection& conn,
                        const wire::Frame& frame);

}  // namespace paw

#endif  // PAW_SERVER_DISPATCH_H_
