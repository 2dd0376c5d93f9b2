#ifndef PAW_SERVER_REPLICATION_H_
#define PAW_SERVER_REPLICATION_H_

/// \file replication.h
/// \brief WAL-shipping replication: leader-side stream manager and
/// follower-side apply loop.
///
/// A follower pawd is a read-capacity replica: it connects to the
/// leader like any client, authenticates as an admin-level principal,
/// and sends one SUBSCRIBE frame carrying its per-shard last-applied
/// WAL LSNs. From then on the connection *inverts*: the leader pushes
/// REPLICATE request frames — contiguous per-shard record batches —
/// and the follower acks each with the shard's durable LSN. The
/// follower re-appends every record to its own WAL through
/// `PersistentRepository::ApplyReplicated`, whose framing is
/// deterministic, so the follower's segment chain is byte-identical
/// to the leader's and *promotion is just a restart*: point a new
/// leader process at the follower's store directory.
///
/// **Leader feed.** One source, read by position. Each subscriber
/// holds one cursor per shard — a `WalTailReader` at (segment, byte
/// offset, next LSN) — and the sender thread reads committed records
/// forward from the segment files with `pread`, so each byte is read
/// once, across the boundary from sealed to active segments. The WAL's
/// commit sink is only a wake-up: it reports where each group-commit
/// batch ends (LSN, segment, offset) once the batch is in the file
/// (post fsync under `sync_each_append`), and no cursor reads past the
/// last report, so nothing ships that the leader has not committed.
///
/// A subscriber whose cursor predates the oldest on-disk segment is
/// *too far behind* — those records exist only inside a snapshot —
/// and the SUBSCRIBE is refused (re-seed by copying the store dir).
/// To keep that window from racing compaction, subscribers pin a
/// *retention floor* (`WriteAheadLog::SetRetainFloor`): sealed
/// segments at or above the floor survive compaction cleanup until
/// every subscriber's ack passes them. A refused SUBSCRIBE releases
/// its pin.
///
/// **Ack modes.** `acks=local` (default) acknowledges clients after
/// the leader's own WAL commit. `acks=quorum` additionally blocks
/// each ADD_EXECUTION ack until at least one subscriber has confirmed
/// the record durable (`WaitForQuorum`), so a quorum-acked write
/// survives the leader's disk dying with the leader.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/server/wire.h"
#include "src/store/wal.h"

namespace paw {

/// \brief Leader-side replication: subscriber registry, per-shard
/// read cursors, retention-floor management, and quorum waits.
///
/// Owned by the server. `AddSubscriber`/`RemoveSubscriber`/`HandleAck`
/// are called from server worker threads; one internal sender thread
/// builds and pushes batches through each subscriber's `SendFn`.
class ReplicationManager {
 public:
  /// Enqueues one encoded frame on the subscriber's connection (any
  /// thread); returns false once the connection is gone, which fails
  /// the subscriber.
  using SendFn = std::function<bool(wire::Frame&&)>;
  /// Closes the subscriber's connection (any thread).
  using CloseFn = std::function<void()>;

  /// `wals[i]` is shard `i`'s log; pointers must outlive the manager.
  explicit ReplicationManager(std::vector<WriteAheadLog*> wals);
  ~ReplicationManager();

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// \brief Installs the commit sinks and starts the sender thread.
  void Start();

  /// \brief Clears the sinks, fails every subscriber, joins the
  /// sender. Idempotent; the destructor calls it.
  void Stop();

  /// \brief Registers a subscriber (its SUBSCRIBE handler). `token`
  /// identifies the connection in later `HandleAck`/`RemoveSubscriber`
  /// calls; `last_lsns[i]` is the highest LSN the follower already has
  /// for shard `i`. Pins the retention floor before validating, so the
  /// returned cursor cannot be compacted away underneath the stream.
  /// Fails — and releases the pin — when the shard count mismatches,
  /// the follower is ahead of the committed log, or its cursor predates
  /// the oldest on-disk segment. The subscriber starts *paused*: no
  /// push is emitted until `ActivateSubscriber`, so the caller can
  /// queue its SUBSCRIBE response first and keep the wire FIFO. When a
  /// read of the segment files fails, the sender calls `close`: the
  /// follower reconnects and reopens its cursors by position.
  Result<wire::SubscribeResponse> AddSubscriber(
      uint64_t token, const std::string& name,
      std::vector<uint64_t> last_lsns, SendFn send, CloseFn close);

  /// \brief Starts pushing to a subscriber registered by
  /// `AddSubscriber` (call after the SUBSCRIBE response is queued on
  /// the connection).
  void ActivateSubscriber(uint64_t token);

  /// \brief Drops a subscriber (connection closed); recomputes the
  /// retention floor. No-op for unknown tokens.
  void RemoveSubscriber(uint64_t token);

  /// \brief Routes a follower's REPLICATE ack: advances its cursor
  /// window, observes replication lag, wakes quorum waiters, and
  /// releases retention floor the ack no longer needs.
  void HandleAck(uint64_t token, const wire::ReplicateResponse& ack);

  /// \brief Blocks until some subscriber has acked `lsn` on `shard`
  /// durable, or `timeout_ms` elapses. Returns true on quorum.
  bool WaitForQuorum(int shard, uint64_t lsn, int timeout_ms);

  /// \brief Activated subscriber count (the `paw_repl_subscribers`
  /// gauge).
  size_t num_subscribers() const;

 private:
  struct Shard;
  struct Subscriber;
  struct Rep;

  void SenderLoop();
  /// One push for `sub` on `shard` if work + window allow; returns
  /// true when a batch was sent (the loop re-scans until idle). Reads
  /// and sends with `lock` released.
  bool MaybeSendLocked(std::unique_lock<std::mutex>& lock, Subscriber& sub,
                       size_t shard);
  /// Re-derives each shard's retention floor from subscriber cursors
  /// and persists changes. Caller holds the rep mutex.
  void UpdateFloorsLocked();

  std::unique_ptr<Rep> rep_;
};

/// \brief Knobs of the follower-side apply loop.
struct ReplicationFollowerOptions {
  std::string leader_host;
  int leader_port = 0;
  /// Admin-level principal the follower authenticates as.
  std::string principal = "admin";
  /// Reported in HELLO and SUBSCRIBE (diagnostics).
  std::string follower_name = "paw-follower";
  /// Reconnect back-off after a failed connect or a dropped stream.
  int retry_ms = 500;
};

/// \brief Follower-side replication: one background thread that
/// connects to the leader, subscribes, applies pushed batches via the
/// injected callback, and acks durable LSNs. Reconnects with back-off
/// until `Stop`.
class ReplicationFollower {
 public:
  /// Applies one pushed batch under the server's lease discipline and
  /// returns the shard's durable LSN to ack; an error drops the
  /// connection (divergence is not retried silently — it reconnects
  /// and re-subscribes from the follower's own cursor).
  using ApplyFn =
      std::function<Result<uint64_t>(const wire::ReplicateRequest&)>;
  /// Supplies the per-shard last-applied LSNs for each (re)subscribe.
  using LsnsFn = std::function<std::vector<uint64_t>()>;

  ReplicationFollower(ReplicationFollowerOptions options, LsnsFn lsns,
                      ApplyFn apply);
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  void Start();
  void Stop();

  /// \brief True while subscribed to a live stream.
  bool connected() const;
  /// \brief Why the last connect or stream failed; empty before the
  /// first failure and again once a SUBSCRIBE succeeds.
  std::string last_error() const;

 private:
  struct Rep;
  void Loop();
  /// One connect → subscribe → apply-until-drop cycle.
  Status RunOnce();

  std::unique_ptr<Rep> rep_;
};

}  // namespace paw

#endif  // PAW_SERVER_REPLICATION_H_
