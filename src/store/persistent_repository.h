#ifndef PAW_STORE_PERSISTENT_REPOSITORY_H_
#define PAW_STORE_PERSISTENT_REPOSITORY_H_

/// \file persistent_repository.h
/// \brief A `Repository` that survives process restarts.
///
/// Layers durability over the in-memory `Repository` with a classic
/// snapshot + write-ahead-log design. A store directory holds:
///
/// \code
///   <dir>/PAWSTORE                  format marker ("pawstore 2")
///   <dir>/PAWWAL                    WAL segment manifest (wal.h)
///   <dir>/wal-<seq>.log             WAL segments; highest seq is active
///   <dir>/snapshot-<lsn>.paws       latest full snapshot (snapshot.h)
/// \endcode
///
/// `AddSpecification` / `AddExecution` append a WAL record *before*
/// mutating memory, so anything visible in `repo()` is also in the log.
/// `Open` recovers by loading the newest snapshot and replaying only
/// the WAL suffix past the snapshot's LSN; a torn log tail (crash
/// mid-append) is detected, reported in `RecoveryInfo`, and truncated.
///
/// **Compaction.** `Compact` seals the WAL at a rotation cut, writes a
/// snapshot covering everything up to the cut, and deletes the sealed
/// segments the snapshot supersedes. `CompactAsync` does the same on a
/// background snapshot worker: the cut pins a `RepositoryView` (entry
/// pointers are stable and entries immutable once inserted), appends
/// keep landing in the fresh active segment while the worker encodes
/// and installs the snapshot, and every crash point in the
/// rotate → snapshot → manifest-bump → segment-delete sequence leaves
/// a recoverable store (recovery replays snapshot + surviving segments
/// in order, skipping records the snapshot already covers).
///
/// The writer contract is unchanged: one thread mutates the store at a
/// time (`ShardedRepository`'s writer queues provide exactly that per
/// shard). `Compact`/`CompactAsync` must be called from that writer
/// thread (or with no append in flight); `CompactAsync` returns as
/// soon as the cut is pinned, after which appends may resume
/// immediately. The store object may be moved while a background
/// compaction runs (the worker only touches heap-pinned state);
/// destruction joins the worker.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/repo/repository.h"
#include "src/store/codec.h"
#include "src/store/lock_file.h"
#include "src/store/wal.h"

namespace paw {

class ThreadPool;

/// \brief Where a (background or inline) compaction currently is; the
/// test hook `StoreOptions::compaction_hook` observes these in order.
enum class CompactionPhase {
  /// Cut pinned (WAL rotated, view captured); about to encode + write
  /// the snapshot file.
  kSnapshot,
  /// Snapshot durable on disk; about to bump the WAL manifest (the
  /// commit point of sealed-segment deletion).
  kInstall,
  /// Manifest bumped; about to unlink the superseded segments and old
  /// snapshots.
  kCleanup,
  /// Everything installed and cleaned; coverage published.
  kDone,
};

/// \brief Knobs of the persistent store.
struct StoreOptions {
  /// fdatasync before an append returns; off by default (use `Sync()`
  /// to batch durability points). Concurrent appenders share one fsync
  /// per commit group (wal.h).
  bool sync_each_append = false;
  /// When > 0, a compaction runs automatically after this many WAL
  /// records accumulate past the last snapshot (inline on the writer,
  /// or in the background with `background_compaction`).
  uint64_t snapshot_every = 0;
  /// Decode-verify every payload before it reaches the WAL, proving
  /// the record will replay. Costs one decode per append; disable only
  /// for ingest paths whose inputs are already known to round-trip.
  bool verify_payloads = true;
  /// Used by `ShardedRepository` only: size of the writer pool that
  /// drains per-shard append queues (0 = synchronous appends on the
  /// caller thread, no pool).
  int writer_threads = 0;
  /// When > 0, the active WAL segment seals and rotates once it
  /// reaches this many bytes (see wal.h). 0 = rotate only at
  /// compaction cuts.
  uint64_t segment_bytes = 0;
  /// Run auto-triggered compactions on the background snapshot worker
  /// instead of inline on the writer; with `segment_bytes` set, a
  /// size-based rotation also triggers a background compaction, so
  /// sealed segments fold into snapshots without ever stalling ingest.
  bool background_compaction = false;
  /// Test hook: called by the compacting thread as each
  /// `CompactionPhase` begins. Lets tests pause the snapshot worker
  /// between phases for deterministic interleavings and crash-point
  /// captures. Must be thread-safe (sharded stores share it across
  /// shard workers). Leave empty in production.
  std::function<void(CompactionPhase)> compaction_hook;
};

/// \brief Durable provenance-aware workflow repository.
class PersistentRepository {
 public:
  using Options = StoreOptions;

  /// \brief What `Open` had to do to rebuild state.
  struct RecoveryInfo {
    /// LSN covered by the snapshot that seeded recovery; 0 when the
    /// store had no snapshot yet.
    uint64_t snapshot_lsn = 0;
    /// WAL records replayed on top of the snapshot.
    uint64_t records_replayed = 0;
    /// WAL records skipped because the snapshot already covered them
    /// (non-zero only after a crash between snapshot install and
    /// sealed-segment deletion).
    uint64_t records_skipped = 0;
    /// True when the log ended in a torn record.
    bool torn_tail = false;
    /// Bytes of torn tail dropped during repair.
    uint64_t dropped_bytes = 0;
    /// Why the tail was rejected (empty unless `torn_tail`).
    std::string tail_error;
    /// Live WAL segment files after recovery.
    int wal_segments = 0;
    /// Stale segments (already superseded by a snapshot before the
    /// crash) reclaimed on open.
    int stale_segments_removed = 0;
    /// Whole records dropped because a *sealed* segment was corrupt
    /// (clean-prefix repair; 0 for ordinary crash recovery).
    uint64_t dropped_records = 0;
  };

  /// \brief Creates an empty store in `dir` (created if missing; must
  /// not already contain a store).
  static Result<PersistentRepository> Init(const std::string& dir,
                                           Options options = {});

  /// \brief Opens an existing store and recovers its state.
  static Result<PersistentRepository> Open(const std::string& dir,
                                           Options options = {});

  /// \brief Durably stores a specification; returns its id.
  Result<int> AddSpecification(Specification spec, PolicySet policy = {});

  /// \brief Durably stores an execution of spec `spec_id`. As with
  /// `Repository`, the execution must have been built against
  /// `repo().entry(spec_id).spec`.
  Result<ExecutionId> AddExecution(int spec_id, Execution exec);

  /// \brief Compacts inline on the calling thread: waits for any
  /// background compaction, then rotates the WAL, writes a snapshot
  /// covering everything logged so far, and deletes the superseded
  /// segments and older snapshots.
  Status Compact();

  /// \brief Starts a background compaction and returns once the cut is
  /// pinned (WAL rotated + view captured) — appends may continue
  /// immediately, landing in the fresh active segment while the
  /// snapshot worker runs. No-op returning OK when a compaction is
  /// already in flight. The worker's own failure is reported by
  /// `WaitForCompaction` (and superseded by the next compaction).
  Status CompactAsync();

  /// \brief Blocks until no compaction is running and returns the
  /// status of the most recently finished one (OK if none ever ran).
  Status WaitForCompaction();

  /// \brief True while a compaction (background or inline) is active.
  bool compaction_running() const;

  /// \brief Forces logged records to stable storage.
  Status Sync();

  /// \brief The recovered / live in-memory repository.
  const Repository& repo() const { return repo_; }

  /// \brief Total records ever logged (monotonic across compactions).
  uint64_t lsn() const { return wal_.last_lsn(); }

  /// \brief LSN covered by the newest *installed* snapshot.
  uint64_t snapshot_lsn() const;

  /// \brief WAL records not yet covered by a snapshot.
  uint64_t records_since_snapshot() const {
    return wal_.last_lsn() - snapshot_lsn();
  }

  /// \brief Applies one replicated WAL record: appends it to this
  /// store's own WAL (identical framing, so the LSN chain matches the
  /// leader's byte for byte) and replays it through the same path
  /// recovery uses. Only data record types are accepted. The returned
  /// LSN must equal the leader's LSN for the record — callers deliver
  /// contiguously and verify. Same writer contract as AddExecution:
  /// one thread per store at a time (the replication apply loop).
  Result<uint64_t> ApplyReplicated(RecordType type,
                                   std::string_view payload);

  /// \brief Read-only view of the store's WAL (segment/LSN state).
  const WriteAheadLog& wal() const { return wal_; }

  /// \brief Mutable WAL access for replication: commit-sink
  /// installation and retention-floor moves only.
  WriteAheadLog* mutable_wal() { return &wal_; }

  /// \brief How the last `Open` rebuilt state (zeros after `Init`).
  const RecoveryInfo& recovery() const { return recovery_; }

  const std::string& dir() const { return dir_; }

 private:
  /// Compaction state the background worker may touch. Heap-held so
  /// the worker survives moves of the owning store object; destroyed
  /// first (declared last), which joins the worker before the rest of
  /// the store tears down.
  struct CompactState;

  /// Everything a compaction needs, captured at the cut; deliberately
  /// self-contained (paths + pinned view, no pointer back into the
  /// store object) so the worker is immune to the store moving.
  struct CompactJob {
    std::string dir;
    RepositoryView view;
    /// LSN the snapshot will cover (== end of the sealed segments).
    uint64_t covered = 0;
    /// Active segment seq after the rotation cut; segments below it
    /// are deleted once the snapshot installs.
    uint64_t keep_seq = 0;
    std::function<void(CompactionPhase)> hook;
  };

  PersistentRepository(std::string dir, WriteAheadLog wal,
                       Options options);

  /// Rotates the WAL and pins the view: the synchronous part of every
  /// compaction. Caller must hold the writer role (no append in
  /// flight).
  Result<CompactJob> PrepareCompaction();

  /// The phased, crash-ordered heavy part: snapshot → manifest bump →
  /// segment/snapshot deletion → publish. Static: runs on the worker
  /// against captured state only.
  static Status ExecuteCompactionJob(const CompactJob& job,
                                     CompactState* state);

  /// Runs `Compact()` / `CompactAsync()` when thresholds are exceeded.
  Status MaybeAutoCompact();

  std::string dir_;
  /// Exclusive flock on `<dir>/LOCK`, held for the life of the handle:
  /// a second read-write open of the same directory — by this or any
  /// other process — fails cleanly instead of corrupting the WAL. The
  /// kernel releases it on any process death, so crashes never leave a
  /// stale lock.
  StoreDirLock lock_;
  Repository repo_;
  WriteAheadLog wal_;
  Options options_;
  RecoveryInfo recovery_;
  std::shared_ptr<CompactState> state_;  // last: destroyed (joined) first
};

}  // namespace paw

#endif  // PAW_STORE_PERSISTENT_REPOSITORY_H_
