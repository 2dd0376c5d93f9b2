#ifndef PAW_STORE_WAL_H_
#define PAW_STORE_WAL_H_

/// \file wal.h
/// \brief Segmented append-only write-ahead log with torn-tail
/// recovery, group commit, and rotation.
///
/// The log of a store directory is a sequence of *segment* files
/// `wal-<seq>.log` (seq zero-padded to 8 digits, starting at 1) plus a
/// `PAWWAL` manifest naming the oldest live segment:
///
/// \code
///   <dir>/PAWWAL            pawwal 1
///                           first=<seq>
///   <dir>/wal-00000007.log  sealed segment
///   <dir>/wal-00000008.log  active segment (highest seq)
/// \endcode
///
/// Each segment is a flat file of records (record.h) whose first record
/// is a `kWalHeader` carrying the segment's *base LSN*: the number of
/// records logged before this segment was started. Record `i` of a
/// segment (0-based, header excluded) has LSN `base + i + 1`; segments
/// chain — segment `k+1`'s base equals segment `k`'s end — so LSNs stay
/// monotonic and dense across rotations and compactions.
///
/// **Rotation.** Only the highest-numbered segment (the *active* one)
/// accepts appends. `Rotate` — or, with `Options::segment_bytes` set, a
/// commit that pushes the active segment past the threshold — seals the
/// active segment (flush + fdatasync, so sealed segments never carry a
/// torn tail after a crash) and starts `wal-<seq+1>.log`. Sealed
/// segments are immutable; a background snapshot can read or cover them
/// while appends keep landing in the active segment, and once a
/// snapshot covers them they are deleted by bumping the manifest's
/// `first` (atomic) and unlinking oldest-first, so every crash point
/// leaves a recoverable store.
///
/// **Recovery.** `Open` reads the manifest (reconstructing it from the
/// segment files when absent — the crash window of `Create`),
/// reclaims stale segments below `first`, requires seqs `first..max` to
/// be contiguous, verifies the base-LSN chain, and replays all segments
/// in order. A torn tail in the active segment is the signature of a
/// crash mid-append: it is reported and physically truncated away. A
/// torn tail in a *sealed* segment can only be media corruption (seals
/// fsync); recovery then keeps the clean prefix — the tail is truncated,
/// every later segment is dropped, and the repaired segment becomes
/// active — never resurrecting records past the damage.
///
/// **Group commit.** `Append` and `Sync` are thread-safe. Concurrent
/// appenders stage frames into a shared buffer under a mutex; one
/// caller becomes the *leader* and writes every staged frame in a
/// single `write()` (plus a single `fdatasync` when
/// `sync_each_append`), while the others wait as followers and return
/// as soon as the batch containing their frame commits. LSNs are
/// assigned in staging order, which is also file order, so replay
/// reconstructs the same assignment. A caller's record is on stable
/// storage when `Append` returns iff `sync_each_append` is set; with N
/// concurrent appenders the N fsyncs collapse into one per batch.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/store/record.h"

namespace paw {

/// \brief File name of WAL segment `seq` ("wal-00000007.log").
std::string WalSegmentFileName(uint64_t seq);

/// \brief A WAL segment file found on disk.
struct WalSegmentFile {
  uint64_t seq = 0;
  std::string path;
};

/// \brief Segment files under `dir`, sorted by seq (empty when none).
Result<std::vector<WalSegmentFile>> ListWalSegments(const std::string& dir);

/// \brief Reads `<dir>/PAWWAL` and returns its `first` seq; NotFound
/// when the manifest is absent, FailedPrecondition when malformed.
Result<uint64_t> ReadWalManifest(const std::string& dir);

/// \brief Atomically (re)writes `<dir>/PAWWAL` with `first=first_seq`.
/// This is the commit point of segment deletion: recovery ignores (and
/// reclaims) segments below `first`.
Status WriteWalManifest(const std::string& dir, uint64_t first_seq);

/// \brief Reads `<dir>/PAWREPL` and returns the retention floor: the
/// lowest segment seq a replication subscriber checkpoint still
/// references. Returns `WriteAheadLog::kNoRetainFloor` when the file
/// is absent (nothing pinned), FailedPrecondition when malformed.
Result<uint64_t> ReadWalRetainFloor(const std::string& dir);

/// \brief Atomically (re)writes `<dir>/PAWREPL` with `floor=floor_seq`;
/// `WriteAheadLog::kNoRetainFloor` removes the file (releases the pin).
Status WriteWalRetainFloor(const std::string& dir, uint64_t floor_seq);

/// \brief What `WriteAheadLog::Open` recovered from a log directory.
struct WalReplay {
  /// LSN of the last record logged before the oldest surviving
  /// segment was started (== that segment's header base).
  uint64_t base_lsn = 0;
  /// Whole, checksum-valid records across all segments, in append
  /// order. Record `i` has LSN `base_lsn + i + 1`.
  std::vector<Record> records;
  /// True when recovery hit a torn (partially written or corrupted)
  /// record — in the active segment, a crash mid-append; in a sealed
  /// segment, media corruption that also drops every later segment.
  bool torn_tail = false;
  /// Bytes dropped by repair truncation (plus the bytes of any later
  /// segments dropped after a mid-chain tear).
  uint64_t dropped_bytes = 0;
  /// Human-readable reason the tail was rejected.
  std::string tail_error;
  /// Whole records lost from segments after a mid-chain tear (always 0
  /// for a plain crash, which can only tear the active segment).
  uint64_t dropped_records = 0;
  /// Live segment files after recovery (>= 1).
  int segments = 0;
  /// Seq of the oldest live segment after recovery.
  uint64_t first_seq = 0;
  /// Segments below the manifest's `first` reclaimed on open (a crash
  /// between the manifest bump and the unlinks of a compaction).
  int stale_segments_removed = 0;
  /// Segments below the manifest's `first` kept on disk because the
  /// retention floor (`PAWREPL`) still pins them for a replication
  /// subscriber. They are not replayed — the snapshot covers them.
  int retained_segments = 0;
};

/// \brief Knobs of the write-ahead log.
struct WalOptions {
  /// fdatasync before `Append` returns (durable; one fsync per commit
  /// *group*, not per record); off by default — callers batch with
  /// explicit `Sync()`.
  bool sync_each_append = false;
  /// When > 0, a commit that leaves the active segment at or past this
  /// many bytes seals it and rotates to a fresh segment. 0 disables
  /// size-based rotation (segments then rotate only via `Rotate`).
  uint64_t segment_bytes = 0;
};

/// \brief What `WriteAheadLog::Rotate` just did.
struct WalRotation {
  /// Seq of the segment sealed by this rotation.
  uint64_t sealed_seq = 0;
  /// Seq of the new active segment (`sealed_seq + 1`).
  uint64_t active_seq = 0;
  /// LSN of the last record in the sealed segment == base LSN of the
  /// new active segment. Everything up to here is in sealed segments.
  uint64_t end_lsn = 0;
};

/// \brief The segmented write-ahead log of one store directory.
class WriteAheadLog {
 public:
  using Options = WalOptions;

  /// \brief Retention-floor value meaning "nothing pinned" (every seq
  /// compares below it, so reclaim is unrestricted).
  static constexpr uint64_t kNoRetainFloor = UINT64_MAX;

  /// \brief Tap on the group-commit leader: called after a batch is on
  /// disk (post fdatasync when `sync_each_append`, post flush
  /// otherwise) with the LSN of the batch's first record, the record
  /// count, the batch's raw record frames (record.h framing), and the
  /// per-record trace contexts captured at `Append` (one entry per
  /// record, null contexts for untraced appends). Invocations are
  /// serialized and arrive in LSN order — the caller holds the writer
  /// slot. Replication forks live batches here and stamps the stream's
  /// push frames from the contexts.
  using CommitSink = std::function<void(
      uint64_t first_lsn, uint64_t num_records, std::string_view frames,
      const std::vector<TraceContext>& traces)>;

  /// \brief Creates an empty log in `dir`: manifest `first=1` and
  /// segment 1 whose header carries `base_lsn`. Fails if `dir` already
  /// holds segments.
  static Result<WriteAheadLog> Create(const std::string& dir,
                                      uint64_t base_lsn,
                                      Options options = {});

  /// \brief Opens the log in `dir`, replays every live segment into
  /// `*replay`, repairs any torn tail, and positions for append on the
  /// active segment.
  static Result<WriteAheadLog> Open(const std::string& dir,
                                    WalReplay* replay,
                                    Options options = {});

  /// \brief Appends one record and returns its LSN. Thread-safe;
  /// concurrent calls are group-committed (see file comment). After an
  /// I/O error the log is poisoned and every further call returns that
  /// error (recover by reopening).
  Result<uint64_t> Append(RecordType type, std::string_view payload);

  /// \brief Pushes appended bytes to stable storage. Thread-safe.
  Status Sync();

  /// \brief Installs (or clears, with an empty function) the commit
  /// sink. Thread-safe; takes effect for the next committed batch.
  void SetCommitSink(CommitSink sink);

  /// \brief Persistently pins segments with seq >= `floor_seq`: neither
  /// open-time stale reclaim nor compaction cleanup unlinks them even
  /// after the manifest's `first` moves past them, so a lagging
  /// replication subscriber can still stream them. `kNoRetainFloor`
  /// releases the pin. Thread-safe; durable across reopen (`PAWREPL`).
  Status SetRetainFloor(uint64_t floor_seq);

  /// \brief Current retention floor (`kNoRetainFloor` when unpinned).
  uint64_t retain_floor() const {
    return rep_->retain_floor.load(std::memory_order_acquire);
  }

  /// \brief Seals the active segment (flush + fdatasync) and starts the
  /// next one. Thread-safe with concurrent `Append`s: frames staged
  /// before the rotation land in the sealed segment, frames staged
  /// after land in the new one. This is the cut point of a compaction —
  /// the returned `end_lsn` is exactly what a snapshot taken now
  /// covers.
  Result<WalRotation> Rotate();

  /// \brief LSN of the most recently staged record (== total records
  /// ever logged by this store, across compactions). Under concurrent
  /// appends this is a snapshot; use the LSN returned by `Append` for
  /// the caller's own record.
  uint64_t last_lsn() const {
    return rep_->last_lsn.load(std::memory_order_acquire);
  }

  /// \brief Base LSN of the *active* segment (the LSN rotation sealed
  /// everything up to).
  uint64_t base_lsn() const {
    return rep_->base_lsn.load(std::memory_order_acquire);
  }

  /// \brief Seq of the active segment. Sealed segments awaiting
  /// compaction exist iff this exceeds the manifest's `first`.
  uint64_t active_seq() const {
    return rep_->seq.load(std::memory_order_acquire);
  }

  /// \brief Committed size of the *active* segment in bytes (excludes
  /// frames still being staged by in-flight appends).
  int64_t size_bytes() const {
    return rep_->size_bytes.load(std::memory_order_acquire);
  }

  /// \brief Directory holding manifest + segments.
  const std::string& dir() const { return rep_->dir; }

  /// \brief Path of the active segment file. Under concurrent rotation
  /// this is a snapshot; meant for stats and tests.
  std::string path() const {
    std::lock_guard<std::mutex> lock(rep_->mu);
    return rep_->file.path();
  }

 private:
  /// Heap-held so the log stays movable while carrying a mutex, and so
  /// waiting followers keep a stable address to block on.
  struct Rep {
    Rep(AppendOnlyFile f, std::string d, uint64_t segment_seq,
        uint64_t base, uint64_t last, Options opts)
        : file(std::move(f)),
          dir(std::move(d)),
          options(opts),
          seq(segment_seq),
          base_lsn(base),
          last_lsn(last),
          size_bytes(file.size()) {}

    AppendOnlyFile file;  // active segment
    std::string dir;
    Options options;

    mutable std::mutex mu;
    std::condition_variable cv;
    std::atomic<uint64_t> seq;
    std::atomic<uint64_t> base_lsn;
    std::atomic<uint64_t> last_lsn;
    std::atomic<int64_t> size_bytes;
    /// LSN of the last record handed to the file (== last_lsn once all
    /// staged frames commit). Rotation seals exactly up to here.
    uint64_t committed_lsn = 0;
    /// Frames staged but not yet handed to the file.
    std::string pending;
    /// Record count behind `pending` (the group-commit batch-size
    /// metric needs records, not bytes).
    uint64_t pending_records = 0;
    /// Trace context of each staged record (captured from the
    /// appender's thread-local at `Append`), parallel to the records
    /// behind `pending`; swapped out with the batch at the cut.
    std::vector<TraceContext> pending_traces;
    /// Commit-group bookkeeping: a staged frame belongs to batch
    /// `next_batch_seq`; the leader that cuts a batch takes that seq
    /// and bumps it, and `committed_seq` trails behind as batches land.
    uint64_t next_batch_seq = 1;
    uint64_t committed_seq = 0;
    /// True while some thread is doing file I/O (leader, Sync, Rotate).
    bool writer_active = false;
    /// Sticky: a failed write poisons the log (mirrors AppendOnlyFile).
    Status error;
    /// Replication tap; copied under `mu`, invoked off-lock by the
    /// writer that committed the batch (so invocations serialize).
    CommitSink commit_sink;
    /// Serializes PAWREPL writes without stalling the staging mutex.
    std::mutex floor_mu;
    /// Lowest segment seq pinned on disk for a subscriber checkpoint.
    std::atomic<uint64_t> retain_floor{kNoRetainFloor};
  };

  WriteAheadLog(AppendOnlyFile file, std::string dir, uint64_t seq,
                uint64_t base_lsn, uint64_t last_lsn, Options options)
      : rep_(std::make_unique<Rep>(std::move(file), std::move(dir), seq,
                                   base_lsn, last_lsn, options)) {
    rep_->committed_lsn = last_lsn;
  }

  /// Seals the active segment and opens the next. Caller holds the
  /// writer slot with `lock` on `rep_->mu`. `pending` may be non-empty:
  /// staged-but-unwritten frames belong to batches after the cut and
  /// are later written to the *new* segment, whose base is the last
  /// committed LSN — exactly what keeps the chain dense. Do not flush
  /// them into the sealed segment here.
  Status RotateLocked(std::unique_lock<std::mutex>& lock);

  std::unique_ptr<Rep> rep_;
};

}  // namespace paw

#endif  // PAW_STORE_WAL_H_
