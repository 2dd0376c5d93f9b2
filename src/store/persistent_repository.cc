#include "src/store/persistent_repository.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "src/common/file_io.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/store/codec.h"
#include "src/store/snapshot.h"
#include "src/workflow/validate.h"

namespace paw {
namespace {

Counter& CompactionsTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_store_compactions_total");
  return c;
}

Counter& RecoveryRecordsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_store_recovery_records_total");
  return c;
}

Histogram& RecoverySeconds() {
  static Histogram& h = MetricsRegistry::Global().GetLatencyHistogram(
      "paw_store_recovery_seconds");
  return h;
}

Histogram& CompactionPhaseSeconds(CompactionPhase phase) {
  static Histogram& snapshot =
      MetricsRegistry::Global().GetLatencyHistogram(
          "paw_store_compaction_seconds{phase=\"snapshot\"}");
  static Histogram& install =
      MetricsRegistry::Global().GetLatencyHistogram(
          "paw_store_compaction_seconds{phase=\"install\"}");
  static Histogram& cleanup =
      MetricsRegistry::Global().GetLatencyHistogram(
          "paw_store_compaction_seconds{phase=\"cleanup\"}");
  switch (phase) {
    case CompactionPhase::kSnapshot: return snapshot;
    case CompactionPhase::kInstall: return install;
    default: return cleanup;
  }
}

constexpr std::string_view kMarkerName = "PAWSTORE";
/// The one supported format: every record is a binary payload. Stores
/// written with the retired v1 text codec carry "pawstore 1" and are
/// refused on open.
constexpr std::string_view kMarker = "pawstore 2\n";
// Manifest of a store root (src/store/sharded_repository.h); a shard
// engine must never be created in the root itself.
constexpr std::string_view kShardManifestName = "PAWSHARDS";

std::string MarkerPath(const std::string& dir) {
  return dir + "/" + std::string(kMarkerName);
}

/// Deletes `<name>.tmp` leftovers of interrupted `AtomicWriteFile`
/// calls (a crash between temp write and rename, e.g. mid-compaction
/// snapshot or manifest bump). They are never valid store state — the
/// rename is the commit point — so reclaiming them on open is always
/// safe.
Status RemoveStaleTempFiles(const std::string& dir) {
  PAW_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  for (const std::string& name : names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      PAW_RETURN_NOT_OK(RemoveFileIfExists(dir + "/" + name));
    }
  }
  return Status::OK();
}

WalOptions WalOptionsFrom(const StoreOptions& options) {
  WalOptions wal_options;
  wal_options.sync_each_append = options.sync_each_append;
  wal_options.segment_bytes = options.segment_bytes;
  return wal_options;
}

}  // namespace

/// Shared between the store handle and the snapshot worker; heap-held
/// so a running compaction survives moves of the store object.
struct PersistentRepository::CompactState {
  std::mutex mu;
  std::condition_variable cv;
  /// True from cut-pin to publish (background) / for the whole call
  /// (inline). Guarded by `mu`.
  bool running = false;
  /// Result of the most recently finished compaction. Guarded by `mu`.
  Status last;
  /// LSN covered by the newest installed snapshot.
  std::atomic<uint64_t> snapshot_lsn{0};
  /// Oldest segment seq the last installed compaction kept; sealed
  /// segments awaiting compaction exist iff the WAL's active seq
  /// exceeds this (the background auto-trigger's cue).
  std::atomic<uint64_t> installed_seq{1};
  /// Lazily created one-thread snapshot worker. Declared last: its
  /// destructor drains in-flight work while the rest of the state is
  /// still alive.
  std::unique_ptr<ThreadPool> worker;
};

PersistentRepository::PersistentRepository(std::string dir,
                                           WriteAheadLog wal,
                                           Options options)
    : dir_(std::move(dir)),
      wal_(std::move(wal)),
      options_(std::move(options)),
      state_(std::make_shared<CompactState>()) {}

Result<PersistentRepository> PersistentRepository::Init(
    const std::string& dir, Options options) {
  PAW_RETURN_NOT_OK(EnsureDir(dir));
  if (PathExists(MarkerPath(dir))) {
    return Status::AlreadyExists(dir + " already contains a paw store");
  }
  if (PathExists(dir + "/" + std::string(kShardManifestName))) {
    return Status::AlreadyExists(
        dir + " is a sharded store root; init its shards via "
        "ShardedRepository");
  }
  // Claim the directory before creating any store file, so two
  // concurrent Inits cannot interleave.
  PAW_ASSIGN_OR_RETURN(StoreDirLock lock, StoreDirLock::Acquire(dir));
  PAW_RETURN_NOT_OK(AtomicWriteFile(MarkerPath(dir), kMarker));
  PAW_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::Create(dir, /*base_lsn=*/0, WalOptionsFrom(options)));
  PersistentRepository store(dir, std::move(wal), std::move(options));
  store.lock_ = std::move(lock);
  return store;
}

Result<PersistentRepository> PersistentRepository::Open(
    const std::string& dir, Options options) {
  PAW_ASSIGN_OR_RETURN(std::string marker,
                       ReadFileToString(MarkerPath(dir)));
  // Checked before the lock and any repair, so refusing a store never
  // modifies it.
  if (marker == "pawstore 1\n") {
    return Status::FailedPrecondition(
        dir + " is a v1 (text-record) paw store; this build reads only "
        "pawstore 2 stores");
  }
  if (marker != kMarker) {
    return Status::FailedPrecondition(dir + " is not a paw store (bad " +
                                      std::string(kMarkerName) + ")");
  }

  // Exclude other read-write openers before the first mutation below
  // (temp reclaim and torn-tail repair both rewrite files).
  PAW_ASSIGN_OR_RETURN(StoreDirLock lock, StoreDirLock::Acquire(dir));

  // A crash between AtomicWriteFile's temp write and rename (snapshot
  // mid-compaction, marker, manifests) leaves a `*.tmp` behind; reclaim
  // it before snapshot discovery so it can never accumulate or be
  // mistaken for store state.
  PAW_RETURN_NOT_OK(RemoveStaleTempFiles(dir));

  RecoveryInfo recovery;
  Repository repo;
  Timer recovery_timer;

  // Seed from the newest snapshot, if any; LoadSnapshot stamps the
  // recovered entries' persistence metadata.
  auto snapshot = FindLatestSnapshot(dir);
  if (snapshot.ok()) {
    PAW_ASSIGN_OR_RETURN(recovery.snapshot_lsn,
                         LoadSnapshot(snapshot.value().path, &repo));
  } else if (!snapshot.status().IsNotFound()) {
    return snapshot.status();
  }

  // Replay the log suffix the snapshot does not cover: every surviving
  // segment in seq order (wal.h validates the chain and repairs a torn
  // tail).
  WalReplay replay;
  PAW_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::Open(dir, &replay, WalOptionsFrom(options)));
  recovery.torn_tail = replay.torn_tail;
  recovery.dropped_bytes = replay.dropped_bytes;
  recovery.tail_error = replay.tail_error;
  recovery.wal_segments = replay.segments;
  recovery.stale_segments_removed = replay.stale_segments_removed;
  recovery.dropped_records = replay.dropped_records;
  for (size_t i = 0; i < replay.records.size(); ++i) {
    const uint64_t record_lsn = replay.base_lsn + i + 1;
    if (record_lsn <= recovery.snapshot_lsn) {
      ++recovery.records_skipped;
      continue;
    }
    PAW_RETURN_NOT_OK(ApplyRecord(replay.records[i], &repo));
    ++recovery.records_replayed;
    // Stamp the replayed entry (the newest spec or execution).
    if (replay.records[i].type == RecordType::kSpecV2) {
      repo.SetSpecPersist(
          repo.num_specs() - 1,
          MakePersistMeta(record_lsn, replay.records[i].payload, "wal"));
    } else {
      repo.SetExecutionPersist(
          ExecutionId(repo.num_executions() - 1),
          MakePersistMeta(record_lsn, replay.records[i].payload, "wal"));
    }
  }

  RecoverySeconds().Observe(recovery_timer.ElapsedMicros() / 1e6);
  RecoveryRecordsTotal().Add(recovery.records_replayed);

  PersistentRepository store(dir, std::move(wal), std::move(options));
  store.lock_ = std::move(lock);
  store.repo_ = std::move(repo);
  store.state_->snapshot_lsn.store(recovery.snapshot_lsn,
                                   std::memory_order_release);
  store.state_->installed_seq.store(replay.first_seq,
                                    std::memory_order_release);
  store.recovery_ = std::move(recovery);
  return store;
}

Result<int> PersistentRepository::AddSpecification(Specification spec,
                                                   PolicySet policy) {
  // Validate before logging: the WAL must never contain records that
  // replay with errors.
  PAW_RETURN_NOT_OK(ValidateSpecification(spec));
  PAW_RETURN_NOT_OK(ValidatePolicy(spec, policy));
  const std::string payload = EncodeSpecPayloadV2(spec, policy);
  // Round-trip verify: validation does not constrain everything the
  // payload format does, so prove the payload replays to the same
  // bytes before it can reach the log.
  if (options_.verify_payloads) {
    PAW_ASSIGN_OR_RETURN(DecodedSpec decoded, DecodeSpecPayloadV2(payload));
    if (EncodeSpecPayloadV2(decoded.spec, decoded.policy) != payload) {
      return Status::InvalidArgument(
          "specification does not survive the binary format round-trip");
    }
  }
  PAW_ASSIGN_OR_RETURN(const uint64_t record_lsn,
                       wal_.Append(RecordType::kSpecV2, payload));
  auto id = repo_.AddSpecification(std::move(spec), std::move(policy));
  if (!id.ok()) {
    return Status::Internal("logged spec failed to apply: " +
                            id.status().message());
  }
  repo_.SetSpecPersist(id.value(),
                       MakePersistMeta(record_lsn, payload, "wal"));
  PAW_RETURN_NOT_OK(MaybeAutoCompact());
  return id;
}

Result<ExecutionId> PersistentRepository::AddExecution(int spec_id,
                                                       Execution exec) {
  if (spec_id < 0 || spec_id >= repo_.num_specs()) {
    return Status::NotFound("unknown spec id");
  }
  if (&exec.spec() != &repo_.entry(spec_id).spec) {
    return Status::InvalidArgument(
        "execution does not belong to the given specification");
  }
  const std::string payload = EncodeExecutionPayloadV2(spec_id, exec);
  // Round-trip verify (see AddSpecification).
  if (options_.verify_payloads) {
    auto replayed =
        DecodeExecutionPayloadV2(payload, repo_.entry(spec_id).spec);
    PAW_RETURN_NOT_OK(replayed.status());
    if (EncodeExecutionPayloadV2(spec_id, replayed.value()) != payload) {
      return Status::InvalidArgument(
          "execution does not survive the binary format round-trip");
    }
  }
  PAW_ASSIGN_OR_RETURN(const uint64_t record_lsn,
                       wal_.Append(RecordType::kExecutionV2, payload));
  auto id = repo_.AddExecution(spec_id, std::move(exec));
  if (!id.ok()) {
    return Status::Internal("logged execution failed to apply: " +
                            id.status().message());
  }
  repo_.SetExecutionPersist(
      id.value(), MakePersistMeta(record_lsn, payload, "wal"));
  PAW_RETURN_NOT_OK(MaybeAutoCompact());
  return id;
}

Result<uint64_t> PersistentRepository::ApplyReplicated(
    RecordType type, std::string_view payload) {
  // Only data records travel the replication stream; headers are
  // per-segment framing each side generates for itself.
  if (type != RecordType::kSpecV2 && type != RecordType::kExecutionV2) {
    return Status::InvalidArgument(
        "replicated record has non-data type " +
        std::to_string(static_cast<int>(type)));
  }
  // WAL before memory, like every write path. A record that applied on
  // the leader applies on a follower whose prefix matches (replay is
  // deterministic); a failure here means divergence, which poisons the
  // subscription rather than guessing.
  Record record;
  record.type = type;
  record.payload.assign(payload);
  PAW_ASSIGN_OR_RETURN(const uint64_t record_lsn,
                       wal_.Append(type, payload));
  Status applied = ApplyRecord(record, &repo_);
  if (!applied.ok()) {
    return Status::Internal("replicated record failed to apply: " +
                            applied.message());
  }
  if (type == RecordType::kSpecV2) {
    repo_.SetSpecPersist(repo_.num_specs() - 1,
                         MakePersistMeta(record_lsn, payload, "wal"));
  } else {
    repo_.SetExecutionPersist(
        ExecutionId(repo_.num_executions() - 1),
        MakePersistMeta(record_lsn, payload, "wal"));
  }
  PAW_RETURN_NOT_OK(MaybeAutoCompact());
  return record_lsn;
}

Result<PersistentRepository::CompactJob>
PersistentRepository::PrepareCompaction() {
  // The rotation cut: everything logged so far is sealed (and durable
  // — Rotate fsyncs before the new segment exists); appends from here
  // on land in the fresh active segment and stay out of the snapshot.
  PAW_ASSIGN_OR_RETURN(WalRotation rotation, wal_.Rotate());
  CompactJob job;
  job.dir = dir_;
  // Pin the covered prefix: entry pointers are stable and entries
  // immutable once inserted, so this view stays consistent while the
  // writer keeps appending behind it.
  job.view = repo_.View();
  job.covered = rotation.end_lsn;
  job.keep_seq = rotation.active_seq;
  job.hook = options_.compaction_hook;
  return job;
}

Status PersistentRepository::ExecuteCompactionJob(const CompactJob& job,
                                                  CompactState* state) {
  // Compaction phases are always recorded (no sampling gate):
  // compactions are rare and each one is worth explaining. An inline
  // COMPACT joins the request's trace; a background auto-compaction
  // roots a trace of its own.
  TraceContext trace_ctx = CurrentTraceContext();
  if (!trace_ctx.valid()) {
    trace_ctx.trace_id = TraceRecorder::Global().NewTraceId();
  }
  const auto phase_span = [&trace_ctx](std::string_view name,
                                       int64_t start_us) {
    Span s;
    s.trace_id = trace_ctx.trace_id;
    s.span_id = TraceRecorder::Global().NewSpanId();
    s.parent_span_id = trace_ctx.span_id;
    s.start_us = start_us;
    s.end_us = TraceNowMicros();
    s.set_name(name);
    TraceRecorder::Global().Record(s);
  };
  int64_t phase_start = TraceNowMicros();
  if (job.hook) job.hook(CompactionPhase::kSnapshot);
  Timer phase_timer;
  PAW_RETURN_NOT_OK(WriteSnapshot(job.dir, job.view, job.covered).status());
  CompactionPhaseSeconds(CompactionPhase::kSnapshot)
      .Observe(phase_timer.ElapsedMicros() / 1e6);
  phase_span("compact.snapshot", phase_start);
  phase_start = TraceNowMicros();
  if (job.hook) job.hook(CompactionPhase::kInstall);
  phase_timer.Reset();
  // The manifest bump is the commit point of segment deletion: after
  // it, recovery reclaims segments below keep_seq; before it, they are
  // still live (and merely redundant with the snapshot).
  PAW_RETURN_NOT_OK(WriteWalManifest(job.dir, job.keep_seq));
  CompactionPhaseSeconds(CompactionPhase::kInstall)
      .Observe(phase_timer.ElapsedMicros() / 1e6);
  phase_span("compact.install", phase_start);
  phase_start = TraceNowMicros();
  if (job.hook) job.hook(CompactionPhase::kCleanup);
  phase_timer.Reset();
  // Unlink oldest-first so any crash leaves a contiguous segment
  // suffix; stragglers are reclaimed on the next open anyway. Segments
  // at or above the retention floor stay on disk — a replication
  // subscriber's checkpoint still references them (read fresh here,
  // not at the cut: a subscriber may attach mid-compaction).
  PAW_ASSIGN_OR_RETURN(const uint64_t retain_floor,
                       ReadWalRetainFloor(job.dir));
  PAW_ASSIGN_OR_RETURN(std::vector<WalSegmentFile> segments,
                       ListWalSegments(job.dir));
  for (const WalSegmentFile& segment : segments) {
    if (segment.seq < job.keep_seq && segment.seq < retain_floor) {
      PAW_RETURN_NOT_OK(RemoveFileIfExists(segment.path));
    }
  }
  PAW_RETURN_NOT_OK(RemoveSnapshotsBefore(job.dir, job.covered));
  CompactionPhaseSeconds(CompactionPhase::kCleanup)
      .Observe(phase_timer.ElapsedMicros() / 1e6);
  phase_span("compact.cleanup", phase_start);
  // Publish coverage before the kDone hook so observers released by it
  // already see the new snapshot LSN.
  state->snapshot_lsn.store(job.covered, std::memory_order_release);
  state->installed_seq.store(job.keep_seq, std::memory_order_release);
  CompactionsTotal().Add();
  if (job.hook) job.hook(CompactionPhase::kDone);
  return Status::OK();
}

Status PersistentRepository::Compact() {
  // Join any background compaction first; this inline one supersedes
  // its result.
  (void)WaitForCompaction();
  CompactState* state = state_.get();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->running = true;
  }
  auto job = PrepareCompaction();
  const Status result =
      job.ok() ? ExecuteCompactionJob(job.value(), state) : job.status();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->running = false;
    state->last = result;
  }
  state->cv.notify_all();
  return result;
}

Status PersistentRepository::CompactAsync() {
  CompactState* state = state_.get();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->running) return Status::OK();  // already in flight
    state->running = true;
  }
  auto job = PrepareCompaction();
  if (!job.ok()) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->running = false;
      state->last = job.status();
    }
    state->cv.notify_all();
    return job.status();
  }
  if (state->worker == nullptr) {
    state->worker = std::make_unique<ThreadPool>(1);
  }
  // The task owns a self-contained job plus the heap-pinned state; it
  // never touches the (movable) store object.
  state->worker->Submit([job = std::move(job).value(), state]() {
    const Status result = ExecuteCompactionJob(job, state);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->running = false;
      state->last = result;
    }
    state->cv.notify_all();
  });
  return Status::OK();
}

Status PersistentRepository::WaitForCompaction() {
  CompactState* state = state_.get();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [state] { return !state->running; });
  return state->last;
}

bool PersistentRepository::compaction_running() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->running;
}

uint64_t PersistentRepository::snapshot_lsn() const {
  return state_->snapshot_lsn.load(std::memory_order_acquire);
}

Status PersistentRepository::Sync() { return wal_.Sync(); }

Status PersistentRepository::MaybeAutoCompact() {
  const bool records_due =
      options_.snapshot_every > 0 &&
      records_since_snapshot() >= options_.snapshot_every;
  if (options_.background_compaction) {
    // Size-based rotations also count: fold sealed segments into a
    // snapshot as soon as they appear, without stalling the writer.
    const bool segments_due =
        options_.segment_bytes > 0 &&
        wal_.active_seq() >
            state_->installed_seq.load(std::memory_order_acquire);
    if (!records_due && !segments_due) return Status::OK();
    return CompactAsync();
  }
  if (!records_due) return Status::OK();
  return Compact();
}

}  // namespace paw
