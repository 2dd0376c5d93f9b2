#ifndef PAW_STORE_SHARDED_REPOSITORY_H_
#define PAW_STORE_SHARDED_REPOSITORY_H_

/// \file sharded_repository.h
/// \brief N-way sharded persistent store with parallel recovery.
///
/// Partitions specifications (and the executions that belong to them)
/// across `N` shard directories, each an independent single-directory
/// `PersistentRepository` with its own WAL and snapshot. Layout:
///
/// \code
///   <dir>/PAWSHARDS                 manifest (text):
///                                     pawshards 1
///                                     shards=<N>
///                                     epoch=<E>
///   <dir>/shard-0000/               full paw store (PAWSTORE, PAWWAL,
///   ...                             wal-<seq>.log segments,
///   <dir>/shard-<N-1 zero-padded>/  snapshot-<lsn>.paws)
/// \endcode
///
/// **Routing.** A specification lives on shard
/// `Crc32(spec name) % N`; the shard count is fixed at `Init` and
/// recorded in the manifest, so routing is deterministic across
/// restarts. Executions ride with their specification, preserving the
/// invariant that an execution's spec lives in the same `Repository` —
/// so every existing query/privacy primitive runs unchanged against a
/// shard's `repo()`.
///
/// **LSNs and epochs.** Each shard keeps its own monotonic LSN exactly
/// as a single-directory store does. There is deliberately no global
/// append counter (that would re-serialize writers); instead the
/// manifest carries a store-wide *epoch* that `Open` atomically bumps
/// before touching any shard. A record is globally identified by the
/// epoch-prefixed LSN `EpochLsn(epoch, lsn)` = `epoch << 40 | lsn`:
/// within a shard LSNs order appends, and the epoch prefix keeps ids
/// unique across crash-recovery cycles even when torn-tail repair rolls
/// a shard's physical LSN back (a re-issued physical LSN after repair
/// belongs to a strictly larger epoch). Note the epoch only *names*
/// store generations — the write path does not re-read the manifest,
/// so two live handles to the same store are still undefined behavior
/// (as with the single-directory store); external coordination that
/// wants to fence stale writers can compare their recorded epoch
/// against the manifest, but nothing in-process does so yet.
///
/// **Recovery and compaction** fan out across shards on a small thread
/// pool (`src/common/thread_pool.h`); shards are independent, so the
/// result is bit-identical regardless of thread count (asserted by
/// tests/sharded_store_test.cc).
///
/// **Per-shard writer queues.** With `Options::writer_threads > 0`,
/// appends are routed through one FIFO queue per shard and drained by
/// a shared writer pool, so ingest fans out across shards instead of
/// serializing on the caller thread. `AddSpecificationAsync` /
/// `AddExecutionAsync` enqueue and return a `StoreFuture`; the
/// synchronous `AddSpecification` / `AddExecution` also go through the
/// queue (and wait), which keeps every shard single-writer — at most
/// one drain task runs per shard at a time, and ops within a shard
/// apply in enqueue order. When the store was opened with
/// `sync_each_append`, the drain group-commits durability: it applies
/// every queued op of the batch with buffered writes, issues **one**
/// fdatasync, and only then completes the futures — N queued appends
/// cost one fsync instead of N. With `writer_threads == 0` (default)
/// no pool exists and every call is synchronous on the caller thread,
/// exactly as before. Queue entries are intrusive single-allocation
/// nodes: the op's payload, its result slot, the completion flag the
/// future blocks on (C++20 atomic wait), and the queue link all live
/// in one heap block — no `std::promise` shared state, no
/// `std::function` chains, exactly one allocation per append on the
/// hot ingest path.
///
/// **Background compaction.** `CompactAsync` rides the same queues: a
/// compaction-cut op is enqueued per shard, so the cut (WAL rotation +
/// pinned repository view, see persistent_repository.h) is serialized
/// with that shard's appends, and each shard's snapshot worker then
/// runs concurrently with further ingest. `WaitForCompaction` drains
/// the queues and joins every shard's worker.
///
/// **Concurrency contract.** Any number of threads may enqueue
/// appends concurrently, and `CompactAsync` may be called while they
/// do. Everything else — reading shard state (`shard(i)`, `repo()`,
/// `FindSpec`, `num_specs`), `Compact`, and `Sync` — requires
/// quiescence: no append may be in flight and no other thread may
/// enqueue until the call returns. `Drain()` (and a resolved future)
/// is the barrier callers use to establish that; `Compact`/`Sync`
/// drain internally, but that only covers ops enqueued *before* the
/// call — enqueueing concurrently with them is undefined behavior,
/// exactly like the pre-existing two-live-handles caveat.

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/store/lock_file.h"
#include "src/store/persistent_repository.h"

namespace paw {

/// \brief Contents of the `PAWSHARDS` manifest.
struct ShardManifest {
  int shards = 0;
  uint64_t epoch = 0;
};

/// \brief Reads `<dir>/PAWSHARDS`; NotFound when absent,
/// FailedPrecondition when malformed.
Result<ShardManifest> ReadShardManifest(const std::string& dir);

/// \brief Atomically (re)writes `<dir>/PAWSHARDS`.
Status WriteShardManifest(const std::string& dir,
                          const ShardManifest& manifest);

namespace store_detail {

/// \brief One queued writer op: payload, result slot, completion flag,
/// and the intrusive queue link in a single heap block.
///
/// Completion is intrusive: `done` flips to 1 after the batch's group
/// sync and waiters block on it with C++20 atomic wait — there is no
/// `std::promise` (whose shared state is a separate allocation) behind
/// a `StoreFuture`. Ownership is a 2-way refcount: the drain loop holds
/// one reference, the future (if any) the other; whoever lets go last
/// frees the node, so a dropped future never dangles and a completed
/// queue never leaks.
struct PendingOp {
  PendingOp* next = nullptr;  // intrusive FIFO link
  /// Trace context of the enqueuing request (captured by `Enqueue`),
  /// re-installed on the drain thread around `Run` so WAL/store spans
  /// of this op join the request's trace across the thread hop.
  TraceContext trace_ctx;
  /// 0 until the op's result is final; flips once, then notifies.
  std::atomic<uint32_t> done{0};
  /// Live references: the queue, plus the future when one is attached.
  std::atomic<uint32_t> refs{1};

  virtual ~PendingOp() = default;
  /// Applies the op against its shard and stashes the result.
  virtual void Run(PersistentRepository* shard) = 0;
  /// Folds the batch's group-sync status into the stashed result;
  /// called exactly once, before `MarkDone`.
  virtual void Complete(const Status& sync) = 0;

  void MarkDone() {
    done.store(1, std::memory_order_release);
    done.notify_all();
  }
  void WaitDone() const {
    while (done.load(std::memory_order_acquire) == 0) {
      done.wait(0, std::memory_order_acquire);
    }
  }
  void Unref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

/// \brief An op whose completion yields a `Result<T>`.
template <typename T>
struct ResultOp : PendingOp {
  Result<T> result{Status::Internal("op not run")};
};

/// \brief A never-enqueued op carrying an already-final result; backs
/// `MakeReadyFuture`.
template <typename T>
struct ReadyOp : ResultOp<T> {
  void Run(PersistentRepository*) override {}
  void Complete(const Status&) override {}
};

}  // namespace store_detail

/// \brief A one-shot future for a queued writer op, backed by the op
/// node itself (see `store_detail::PendingOp` — no promise shared
/// state). Movable, not copyable; `get()` blocks until the op's batch
/// committed (and, under `sync_each_append`, synced), then consumes
/// the result. Dropping an unresolved future is safe.
template <typename T>
class StoreFuture {
 public:
  StoreFuture() = default;
  StoreFuture(StoreFuture&& other) noexcept
      : op_(std::exchange(other.op_, nullptr)) {}
  StoreFuture& operator=(StoreFuture&& other) noexcept {
    if (this != &other) {
      Reset();
      op_ = std::exchange(other.op_, nullptr);
    }
    return *this;
  }
  StoreFuture(const StoreFuture&) = delete;
  StoreFuture& operator=(const StoreFuture&) = delete;
  ~StoreFuture() { Reset(); }

  /// \brief True until `get()` consumes the result.
  bool valid() const { return op_ != nullptr; }

  /// \brief Blocks until the op completes; may be called once.
  Result<T> get() {
    assert(op_ != nullptr);
    op_->WaitDone();
    Result<T> out = std::move(op_->result);
    Reset();
    return out;
  }

  /// \brief Blocks until the op completes without consuming it.
  void wait() const {
    if (op_ != nullptr) op_->WaitDone();
  }

  /// \brief Internal: adopts one reference to `op`. Only the store's
  /// writer-queue plumbing constructs futures from op nodes.
  explicit StoreFuture(store_detail::ResultOp<T>* op) : op_(op) {}

 private:
  void Reset() {
    if (op_ != nullptr) {
      op_->Unref();
      op_ = nullptr;
    }
  }

  store_detail::ResultOp<T>* op_ = nullptr;
};

/// \brief Wraps an already-known result as a resolved `StoreFuture`
/// (the inline append path and early-error paths).
template <typename T>
StoreFuture<T> MakeReadyFuture(Result<T> result) {
  auto* op = new store_detail::ReadyOp<T>();
  op->result = std::move(result);
  op->MarkDone();
  return StoreFuture<T>(op);
}

/// \brief Durable repository partitioned across shard directories.
class ShardedRepository {
 public:
  using Options = StoreOptions;

  /// \brief Upper bound on the shard count — a typo guard shared with
  /// pawctl; each shard costs a directory, a WAL fd, and a recovery
  /// task.
  static constexpr int kMaxShards = 1024;

  /// \brief Identifies a stored spec: the shard it routes to and its
  /// dense id *within that shard's* repository.
  struct SpecRef {
    int shard = -1;
    int id = -1;
    bool operator==(const SpecRef&) const = default;
  };

  /// \brief Aggregate of what `Open` did across shards.
  struct RecoveryStats {
    /// Epoch claimed by this open (already written to the manifest).
    uint64_t epoch = 0;
    /// Threads the recovery actually used.
    int threads = 1;
    /// Sums of the per-shard `PersistentRepository::RecoveryInfo`.
    uint64_t records_replayed = 0;
    uint64_t records_skipped = 0;
    uint64_t dropped_bytes = 0;
    /// Shards whose WAL ended in a torn record.
    int torn_shards = 0;
  };

  /// \brief Creates an empty sharded store of `num_shards` shards
  /// (manifest epoch 1). Fails if `dir` already holds a sharded or
  /// single-directory store.
  static Result<ShardedRepository> Init(const std::string& dir,
                                        int num_shards,
                                        Options options = {});

  /// \brief Recovers every shard, using up to `threads` workers. Bumps
  /// the manifest epoch before opening any shard.
  static Result<ShardedRepository> Open(const std::string& dir,
                                        Options options = {},
                                        int threads = 1);

  /// \brief Routes by spec name and durably stores the specification.
  Result<SpecRef> AddSpecification(Specification spec,
                                   PolicySet policy = {});

  /// \brief Durably stores an execution of the spec at `ref`. The
  /// execution must have been built against
  /// `shard(ref.shard).repo().entry(ref.id).spec`.
  Result<ExecutionId> AddExecution(SpecRef ref, Execution exec);

  /// \brief Enqueues the specification onto its shard's writer queue
  /// and returns immediately; the result arrives via the future. With
  /// `writer_threads == 0` the append runs inline (the future is
  /// already ready on return).
  StoreFuture<SpecRef> AddSpecificationAsync(Specification spec,
                                             PolicySet policy = {});

  /// \brief Enqueues an execution append; see `AddSpecificationAsync`.
  StoreFuture<ExecutionId> AddExecutionAsync(SpecRef ref, Execution exec);

  /// \brief Blocks until every enqueued append has been applied (and,
  /// under `sync_each_append`, made durable). No-op without a writer
  /// pool.
  void Drain();

  /// \brief Locates a stored spec by name (routed, then looked up).
  Result<SpecRef> FindSpec(std::string_view name) const;

  /// \brief Snapshots + truncates every shard, up to `threads` at a
  /// time. Returns the first shard error, if any. Requires quiescence
  /// (drains internally); for compaction concurrent with ingest use
  /// `CompactAsync`.
  Status Compact(int threads = 1);

  /// \brief Starts a background compaction of every shard and returns
  /// without waiting for the snapshots. The per-shard cut is enqueued
  /// on the shard's writer queue (serialized with appends), so this is
  /// safe to call while other threads keep enqueueing; each shard's
  /// snapshot worker then runs alongside further ingest. Without a
  /// writer pool the cuts are taken inline (the snapshot work is still
  /// backgrounded).
  Status CompactAsync();

  /// \brief Drains the writer queues, joins every shard's snapshot
  /// worker, and returns the first shard's compaction error, if any.
  Status WaitForCompaction();

  /// \brief True while any shard's compaction is active.
  bool compaction_running() const;

  /// \brief Forces every shard's logged records to stable storage.
  Status Sync();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  PersistentRepository& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const PersistentRepository& shard(int i) const {
    return *shards_[static_cast<size_t>(i)];
  }

  /// \brief Spec / execution totals across shards.
  int num_specs() const;
  int num_executions() const;

  /// \brief Store generation claimed by this handle (see file comment).
  uint64_t epoch() const { return epoch_; }

  /// \brief How the last `Open` rebuilt state (zeros after `Init`,
  /// except `epoch`).
  const RecoveryStats& recovery() const { return recovery_; }

  const std::string& dir() const { return dir_; }

  /// \brief Shard a spec name routes to (Crc32 mod `num_shards`).
  static int ShardOf(std::string_view spec_name, int num_shards);

  /// \brief Directory name of shard `i` ("shard-0007").
  static std::string ShardDirName(int shard);

  /// \brief Epoch-prefixed global LSN (`epoch << 40 | lsn`).
  static uint64_t EpochLsn(uint64_t epoch, uint64_t lsn);

  /// \brief True iff `dir` holds a sharded-store manifest.
  static bool IsShardedStore(const std::string& dir);

 private:
  struct SpecOp;
  struct ExecOp;
  struct CompactOp;

  /// One shard's append queue. Heap-held (array behind unique_ptr) so
  /// drain tasks can hold stable pointers across moves of the owner.
  struct ShardQueue {
    std::mutex mu;
    /// Intrusive FIFO of ops awaiting the next drain.
    store_detail::PendingOp* head = nullptr;
    store_detail::PendingOp* tail = nullptr;
    /// True while a drain task for this queue is scheduled or running;
    /// guarantees the single-writer-per-shard invariant.
    bool scheduled = false;
  };

  /// Writer-pool state shared by all queues. `pool` is declared last
  /// so its destructor (which drains in-flight tasks) runs while the
  /// queues and counters are still alive.
  struct WriterState {
    explicit WriterState(int num_shards, int threads)
        : queues(std::make_unique<ShardQueue[]>(
              static_cast<size_t>(num_shards))),
          pool(threads) {}

    std::unique_ptr<ShardQueue[]> queues;
    std::mutex mu;
    std::condition_variable drained_cv;
    int64_t pending_ops = 0;  // enqueued but not yet completed
    ThreadPool pool;
  };

  ShardedRepository(std::string dir, Options options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  /// Spins up the writer pool when `options_.writer_threads > 0`.
  void StartWriterPool();

  /// Enqueues `op` on shard `shard`'s queue (taking the queue's
  /// reference) and schedules a drain.
  void Enqueue(int shard, store_detail::PendingOp* op);

  /// Store options as passed down to individual shards (per-append
  /// sync is lifted to the batch level when a writer pool exists).
  Options ShardOptions() const;

  std::string dir_;
  /// Exclusive flock on the *root* directory (each shard additionally
  /// holds its own): a second read-write open fails before it can bump
  /// the epoch or touch any shard. Released by the kernel on process
  /// death, so a kill -9 leaves no stale lock.
  StoreDirLock lock_;
  Options options_;
  std::vector<std::unique_ptr<PersistentRepository>> shards_;
  uint64_t epoch_ = 0;
  RecoveryStats recovery_;
  std::unique_ptr<WriterState> writer_;  // after shards_: destroyed first
};

}  // namespace paw

#endif  // PAW_STORE_SHARDED_REPOSITORY_H_
