#include "src/store/sharded_repository.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/common/crc32.h"
#include "src/common/file_io.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"

namespace paw {
namespace {

Gauge& QueueDepthGauge() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge("paw_store_queue_depth");
  return g;
}

constexpr std::string_view kManifestName = "PAWSHARDS";
constexpr std::string_view kManifestMagic = "pawshards 1";
// Bits reserved for the per-shard physical LSN inside an
// epoch-prefixed LSN: 2^40 records per shard per epoch.
constexpr int kEpochShift = 40;
// Largest epoch the manifest may carry. One epoch burns per open, so
// at this bound a store survives ~8.4M open cycles; Open refuses the
// bump past it with a clean error instead of writing a manifest the
// reader would reject (which would brick the store).
constexpr uint64_t kMaxEpoch = (uint64_t{1} << 23) - 1;

/// Strict integer field parse: the whole of `v` must be digits within
/// [0, `max`]. The manifest gates every open, so trailing junk or an
/// overflowing value is corruption, not something to round down.
bool ParseManifestUint(const std::string& v, uint64_t max, uint64_t* out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size() || parsed > max) {
    return false;
  }
  *out = parsed;
  return true;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + std::string(kManifestName);
}

std::string ShardPath(const std::string& dir, int shard) {
  return dir + "/" + ShardedRepository::ShardDirName(shard);
}

std::string RenderManifest(const ShardManifest& m) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s\nshards=%d\nepoch=%llu\n",
                std::string(kManifestMagic).c_str(), m.shards,
                static_cast<unsigned long long>(m.epoch));
  return buf;
}

}  // namespace

Result<ShardManifest> ReadShardManifest(const std::string& dir) {
  auto contents = ReadFileToString(ManifestPath(dir));
  if (!contents.ok()) {
    return Status::NotFound(dir + " has no " + std::string(kManifestName) +
                            " manifest");
  }
  std::vector<std::string> lines = Split(contents.value(), '\n');
  if (lines.empty() || Trim(lines[0]) != kManifestMagic) {
    return Status::FailedPrecondition(dir + " is not a sharded paw store");
  }
  ShardManifest manifest;
  bool have_shards = false, have_epoch = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string line(Trim(lines[i]));
    if (line.empty()) continue;
    std::string v;
    uint64_t parsed = 0;
    if (KeyValueField(line, "shards", &v)) {
      if (!ParseManifestUint(
              v, static_cast<uint64_t>(ShardedRepository::kMaxShards),
              &parsed)) {
        return Status::FailedPrecondition("bad manifest shards= in " + dir);
      }
      manifest.shards = static_cast<int>(parsed);
      have_shards = true;
    } else if (KeyValueField(line, "epoch", &v)) {
      if (!ParseManifestUint(v, kMaxEpoch, &parsed)) {
        return Status::FailedPrecondition("bad manifest epoch= in " + dir);
      }
      manifest.epoch = parsed;
      have_epoch = true;
    } else {
      return Status::FailedPrecondition("bad manifest line: " + line);
    }
  }
  if (!have_shards || !have_epoch || manifest.shards < 1 ||
      manifest.epoch == 0) {
    return Status::FailedPrecondition("corrupt manifest in " + dir);
  }
  return manifest;
}

Status WriteShardManifest(const std::string& dir,
                          const ShardManifest& manifest) {
  return AtomicWriteFile(ManifestPath(dir), RenderManifest(manifest));
}

int ShardedRepository::ShardOf(std::string_view spec_name, int num_shards) {
  return static_cast<int>(Crc32(spec_name) %
                          static_cast<uint32_t>(num_shards));
}

std::string ShardedRepository::ShardDirName(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04d", shard);
  return buf;
}

uint64_t ShardedRepository::EpochLsn(uint64_t epoch, uint64_t lsn) {
  return (epoch << kEpochShift) | lsn;
}

bool ShardedRepository::IsShardedStore(const std::string& dir) {
  return PathExists(ManifestPath(dir));
}

Result<ShardedRepository> ShardedRepository::Init(const std::string& dir,
                                                  int num_shards,
                                                  Options options) {
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "shard count must be in [1, " + std::to_string(kMaxShards) +
        "]: " + std::to_string(num_shards));
  }
  PAW_RETURN_NOT_OK(EnsureDir(dir));
  if (IsShardedStore(dir)) {
    return Status::AlreadyExists(dir + " already contains a sharded store");
  }
  if (PathExists(dir + "/PAWSTORE")) {
    return Status::AlreadyExists(
        dir + " already holds a bare shard engine (PAWSTORE); a store "
        "root holds PAWSHARDS plus shard-NNNN directories");
  }
  // Claim the root before writing anything (Open does the same, so two
  // processes cannot race an Init against an Open).
  PAW_ASSIGN_OR_RETURN(StoreDirLock lock, StoreDirLock::Acquire(dir));
  // Manifest first (epoch 1), then the shards: the manifest is the
  // double-init guard, and a crash mid-init leaves a store that fails
  // to open (missing shard) rather than one that half-exists.
  PAW_RETURN_NOT_OK(WriteShardManifest(dir, {num_shards, /*epoch=*/1}));
  ShardedRepository store(dir, options);
  store.lock_ = std::move(lock);
  store.epoch_ = 1;
  store.recovery_.epoch = 1;
  store.shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    PAW_ASSIGN_OR_RETURN(PersistentRepository shard,
                         PersistentRepository::Init(ShardPath(dir, i),
                                                    store.ShardOptions()));
    store.shards_.push_back(
        std::make_unique<PersistentRepository>(std::move(shard)));
  }
  store.StartWriterPool();
  return store;
}

Result<ShardedRepository> ShardedRepository::Open(const std::string& dir,
                                                  Options options,
                                                  int threads) {
  PAW_ASSIGN_OR_RETURN(ShardManifest manifest, ReadShardManifest(dir));
  // The root lock comes before the epoch bump: a second live opener
  // must fail cleanly rather than burn an epoch and fight over shards.
  PAW_ASSIGN_OR_RETURN(StoreDirLock lock, StoreDirLock::Acquire(dir));
  // Claim the next epoch *before* any shard is touched; after a crash
  // anywhere past this point, the next open claims a larger epoch, so
  // epoch-prefixed LSNs never repeat even if shard recovery rolls a
  // physical LSN back.
  if (manifest.epoch >= kMaxEpoch) {
    // Refuse rather than write a manifest the reader would reject: the
    // data stays intact and the error is actionable.
    return Status::FailedPrecondition(
        dir + " has exhausted its epoch space (" +
        std::to_string(kMaxEpoch) + " opens)");
  }
  manifest.epoch += 1;
  PAW_RETURN_NOT_OK(WriteShardManifest(dir, manifest));

  ShardedRepository store(dir, options);
  store.lock_ = std::move(lock);
  store.epoch_ = manifest.epoch;
  store.recovery_.epoch = manifest.epoch;
  // Clamp the recovery fan-out to the machine: WAL replay is CPU-bound
  // per shard, so threads beyond the core count only add contention —
  // measured 0.7-0.8x on a 1-core box at 100k records when 4 recovery
  // threads fought over one core (the E10d "regression"; with the
  // clamp, sharded recovery matches single-dir there and wins with
  // real cores). Callers typically pass the shard count.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int max_useful = std::min(manifest.shards, std::max(1, hw));
  store.recovery_.threads = std::max(1, std::min(threads, max_useful));
  store.shards_.resize(static_cast<size_t>(manifest.shards));

  // Recover shards in parallel; each task touches only its own slot.
  const Options shard_options = store.ShardOptions();
  std::vector<Status> statuses(static_cast<size_t>(manifest.shards));
  ParallelFor(store.recovery_.threads, manifest.shards, [&](int i) {
    auto shard = PersistentRepository::Open(ShardPath(dir, i),
                                            shard_options);
    if (!shard.ok()) {
      statuses[static_cast<size_t>(i)] = shard.status();
      return;
    }
    store.shards_[static_cast<size_t>(i)] =
        std::make_unique<PersistentRepository>(std::move(shard).value());
  });
  for (int i = 0; i < manifest.shards; ++i) {
    if (!statuses[static_cast<size_t>(i)].ok()) {
      return Status(statuses[static_cast<size_t>(i)].code(),
                    ShardDirName(i) + ": " +
                        statuses[static_cast<size_t>(i)].message());
    }
    const auto& info = store.shards_[static_cast<size_t>(i)]->recovery();
    store.recovery_.records_replayed += info.records_replayed;
    store.recovery_.records_skipped += info.records_skipped;
    store.recovery_.dropped_bytes += info.dropped_bytes;
    if (info.torn_tail) ++store.recovery_.torn_shards;
  }
  store.StartWriterPool();
  return store;
}

StoreOptions ShardedRepository::ShardOptions() const {
  Options shard_options = options_;
  shard_options.writer_threads = 0;
  if (options_.writer_threads > 0) {
    // Durability is group-committed at the drain level: one Sync per
    // drained batch instead of one fdatasync per record (see the
    // writer-queue notes in the header).
    shard_options.sync_each_append = false;
  }
  return shard_options;
}

void ShardedRepository::StartWriterPool() {
  if (options_.writer_threads <= 0) return;
  writer_ = std::make_unique<WriterState>(
      num_shards(), std::min(options_.writer_threads, num_shards()));
}

void ShardedRepository::Enqueue(int shard, store_detail::PendingOp* op) {
  using store_detail::PendingOp;
  // Capture the enqueuing request's trace context here — the drain
  // runs on a writer thread, and the context must hop with the op.
  op->trace_ctx = CurrentTraceContext();
  WriterState* ws = writer_.get();
  ShardQueue* q = &ws->queues[static_cast<size_t>(shard)];
  {
    std::lock_guard<std::mutex> lock(ws->mu);
    ++ws->pending_ops;
  }
  QueueDepthGauge().Add(1);
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(q->mu);
    // Intrusive push: the node is the queue entry, no container churn.
    if (q->tail == nullptr) {
      q->head = op;
    } else {
      q->tail->next = op;
    }
    q->tail = op;
    if (!q->scheduled) {
      q->scheduled = true;
      schedule = true;
    }
  }
  if (!schedule) return;
  PersistentRepository* target = shards_[static_cast<size_t>(shard)].get();
  const bool group_sync = options_.sync_each_append;
  // The drain task captures only heap-stable pointers (queue slots and
  // shards live behind unique_ptr), so moving the ShardedRepository
  // around does not invalidate an in-flight drain.
  ws->pool.Submit([ws, q, target, group_sync] {
    for (;;) {
      PendingOp* batch = nullptr;
      {
        std::lock_guard<std::mutex> lock(q->mu);
        if (q->head == nullptr) {
          q->scheduled = false;
          return;
        }
        batch = q->head;
        q->head = nullptr;
        q->tail = nullptr;
      }
      // Apply the whole batch with buffered appends, then make it
      // durable with a single fdatasync, then acknowledge: a waiter's
      // future never completes before its record is where the store's
      // durability mode promises.
      int64_t count = 0;
      TraceContext sync_ctx;
      for (PendingOp* op = batch; op != nullptr; op = op->next) {
        ScopedTraceContext op_trace(op->trace_ctx);
        op->Run(target);
        if (!sync_ctx.valid()) sync_ctx = op->trace_ctx;
        ++count;
      }
      // The group fdatasync commits the whole batch; attribute its
      // span to the first traced op (the batch leader's request).
      ScopedTraceContext sync_trace(sync_ctx);
      const Status sync = group_sync ? target->Sync() : Status::OK();
      for (PendingOp* op = batch; op != nullptr;) {
        // Read the link before MarkDone: the moment `done` flips, a
        // waiting future may consume the result, unref, and free the
        // node from under us.
        PendingOp* next = op->next;
        op->Complete(sync);
        op->MarkDone();
        op->Unref();
        op = next;
      }
      QueueDepthGauge().Add(-static_cast<int64_t>(count));
      {
        std::lock_guard<std::mutex> lock(ws->mu);
        ws->pending_ops -= count;
        if (ws->pending_ops == 0) ws->drained_cv.notify_all();
      }
    }
  });
}

void ShardedRepository::Drain() {
  if (writer_ == nullptr) return;
  std::unique_lock<std::mutex> lock(writer_->mu);
  writer_->drained_cv.wait(lock,
                           [this] { return writer_->pending_ops == 0; });
}

/// A queued specification append: payload + result slot in one block.
struct ShardedRepository::SpecOp : store_detail::ResultOp<SpecRef> {
  SpecOp(int shard_index, Specification s, PolicySet p)
      : shard(shard_index), spec(std::move(s)), policy(std::move(p)) {}

  int shard;
  Specification spec;
  PolicySet policy;

  void Run(PersistentRepository* target) override {
    auto id = target->AddSpecification(std::move(spec), std::move(policy));
    result = id.ok() ? Result<SpecRef>(SpecRef{shard, id.value()})
                     : Result<SpecRef>(id.status());
  }
  void Complete(const Status& sync) override {
    if (result.ok() && !sync.ok()) result = sync;
  }
};

/// A queued execution append.
struct ShardedRepository::ExecOp : store_detail::ResultOp<ExecutionId> {
  ExecOp(SpecRef r, Execution e) : ref(r), exec(std::move(e)) {}

  SpecRef ref;
  Execution exec;

  void Run(PersistentRepository* target) override {
    result = target->AddExecution(ref.id, std::move(exec));
  }
  void Complete(const Status& sync) override {
    if (result.ok() && !sync.ok()) result = sync;
  }
};

/// A queued compaction cut: riding the shard queue serializes the cut
/// (WAL rotation + pinned view) with that shard's appends; the shard's
/// own snapshot worker does the heavy part afterwards, off the queue.
struct ShardedRepository::CompactOp : store_detail::PendingOp {
  Status result;

  void Run(PersistentRepository* target) override {
    result = target->CompactAsync();
  }
  void Complete(const Status& sync) override {
    // Cut errors surface through the shard's WaitForCompaction (the
    // shard records them as its last compaction status); the group
    // sync status belongs to the append ops in the batch.
    (void)sync;
  }
};

Result<ShardedRepository::SpecRef> ShardedRepository::AddSpecification(
    Specification spec, PolicySet policy) {
  if (writer_ != nullptr) {
    // Route through the shard queue so the shard stays single-writer
    // even when async appends are in flight.
    return AddSpecificationAsync(std::move(spec), std::move(policy)).get();
  }
  const int shard = ShardOf(spec.name(), num_shards());
  PAW_ASSIGN_OR_RETURN(int id,
                       shards_[static_cast<size_t>(shard)]->AddSpecification(
                           std::move(spec), std::move(policy)));
  return SpecRef{shard, id};
}

Result<ExecutionId> ShardedRepository::AddExecution(SpecRef ref,
                                                    Execution exec) {
  if (ref.shard < 0 || ref.shard >= num_shards()) {
    return Status::NotFound("unknown shard " + std::to_string(ref.shard));
  }
  if (writer_ != nullptr) {
    return AddExecutionAsync(ref, std::move(exec)).get();
  }
  return shards_[static_cast<size_t>(ref.shard)]->AddExecution(
      ref.id, std::move(exec));
}

StoreFuture<ShardedRepository::SpecRef>
ShardedRepository::AddSpecificationAsync(Specification spec,
                                         PolicySet policy) {
  const int shard = ShardOf(spec.name(), num_shards());
  if (writer_ == nullptr) {
    PersistentRepository* target = shards_[static_cast<size_t>(shard)].get();
    auto id = target->AddSpecification(std::move(spec), std::move(policy));
    return MakeReadyFuture<SpecRef>(id.ok()
                                    ? Result<SpecRef>(SpecRef{shard,
                                                              id.value()})
                                    : Result<SpecRef>(id.status()));
  }
  auto* op = new SpecOp(shard, std::move(spec), std::move(policy));
  op->refs.store(2, std::memory_order_relaxed);  // queue + future
  StoreFuture<SpecRef> future{op};
  Enqueue(shard, op);
  return future;
}

StoreFuture<ExecutionId> ShardedRepository::AddExecutionAsync(
    SpecRef ref, Execution exec) {
  if (ref.shard < 0 || ref.shard >= num_shards()) {
    return MakeReadyFuture<ExecutionId>(
        Status::NotFound("unknown shard " + std::to_string(ref.shard)));
  }
  if (writer_ == nullptr) {
    PersistentRepository* target =
        shards_[static_cast<size_t>(ref.shard)].get();
    return MakeReadyFuture<ExecutionId>(
        target->AddExecution(ref.id, std::move(exec)));
  }
  auto* op = new ExecOp(ref, std::move(exec));
  op->refs.store(2, std::memory_order_relaxed);  // queue + future
  StoreFuture<ExecutionId> future{op};
  Enqueue(ref.shard, op);
  return future;
}

Status ShardedRepository::CompactAsync() {
  if (writer_ == nullptr) {
    // No queues to serialize against: the caller owns the writer role,
    // so take every shard's cut inline; the snapshot workers still run
    // in the background.
    for (auto& shard : shards_) {
      PAW_RETURN_NOT_OK(shard->CompactAsync());
    }
    return Status::OK();
  }
  for (int i = 0; i < num_shards(); ++i) {
    Enqueue(i, new CompactOp());
  }
  return Status::OK();
}

Status ShardedRepository::WaitForCompaction() {
  // First the queues (so every enqueued cut has been taken), then the
  // per-shard snapshot workers.
  Drain();
  Status first;
  for (int i = 0; i < num_shards(); ++i) {
    Status s = shards_[static_cast<size_t>(i)]->WaitForCompaction();
    if (!s.ok() && first.ok()) {
      first = Status(s.code(), ShardDirName(i) + ": " + s.message());
    }
  }
  return first;
}

bool ShardedRepository::compaction_running() const {
  for (const auto& shard : shards_) {
    if (shard->compaction_running()) return true;
  }
  return false;
}

Result<ShardedRepository::SpecRef> ShardedRepository::FindSpec(
    std::string_view name) const {
  const int shard = ShardOf(name, num_shards());
  PAW_ASSIGN_OR_RETURN(int id,
                       shards_[static_cast<size_t>(shard)]->repo().FindSpec(
                           name));
  return SpecRef{shard, id};
}

Status ShardedRepository::Compact(int threads) {
  // Queued appends must land before the snapshot cut.
  Drain();
  std::vector<Status> statuses(shards_.size());
  ParallelFor(std::max(1, std::min(threads, num_shards())), num_shards(),
              [&](int i) {
                statuses[static_cast<size_t>(i)] =
                    shards_[static_cast<size_t>(i)]->Compact();
              });
  for (int i = 0; i < num_shards(); ++i) {
    if (!statuses[static_cast<size_t>(i)].ok()) {
      return Status(statuses[static_cast<size_t>(i)].code(),
                    ShardDirName(i) + ": " +
                        statuses[static_cast<size_t>(i)].message());
    }
  }
  return Status::OK();
}

Status ShardedRepository::Sync() {
  Drain();
  for (auto& shard : shards_) {
    PAW_RETURN_NOT_OK(shard->Sync());
  }
  return Status::OK();
}

int ShardedRepository::num_specs() const {
  int total = 0;
  for (const auto& shard : shards_) total += shard->repo().num_specs();
  return total;
}

int ShardedRepository::num_executions() const {
  int total = 0;
  for (const auto& shard : shards_) total += shard->repo().num_executions();
  return total;
}

}  // namespace paw
