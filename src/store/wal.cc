#include "src/store/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/common/metrics.h"
#include "src/common/timer.h"

namespace paw {
namespace {

Counter& WalAppendsTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_wal_appends_total");
  return c;
}

Counter& WalRotationsTotal() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_wal_rotations_total");
  return c;
}

/// Bytes copied into the staging buffer *while holding the group-commit
/// mutex* (`pending += frame`). The remaining per-append cost the
/// writer-queue work left on the table — bench_store's E10f derives a
/// copy-cost line from this so the "measure before optimizing" question
/// has numbers.
Counter& WalFrameStageCopyBytesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_wal_frame_stage_copy_bytes_total");
  return c;
}

/// Records per committed group-commit batch: 1, 2, 4, ... 32768.
Histogram& WalBatchRecords() {
  static Histogram& h = MetricsRegistry::Global().GetHistogram(
      "paw_wal_batch_records", /*first_bound=*/1, /*growth=*/2,
      /*num_buckets=*/16);
  return h;
}

Histogram& WalFsyncSeconds() {
  static Histogram& h =
      MetricsRegistry::Global().GetLatencyHistogram("paw_wal_fsync_seconds");
  return h;
}

/// fdatasync with its duration observed into the fsync histogram (and,
/// when the committing thread serves a sampled trace, recorded as a
/// `wal.fsync` span — the group-commit leader syncs on behalf of the
/// whole batch, so the span lands in the leading request's trace).
Status TimedSync(AppendOnlyFile* file) {
  ScopedSpan span("wal.fsync");
  Timer timer;
  Status s = file->Sync();
  WalFsyncSeconds().Observe(timer.ElapsedMicros() / 1e6);
  return s;
}

constexpr std::string_view kManifestName = "PAWWAL";
constexpr std::string_view kManifestMagic = "pawwal 1";
constexpr std::string_view kRetainFloorName = "PAWREPL";
constexpr std::string_view kRetainFloorMagic = "pawrepl 1";
constexpr std::string_view kSegmentPrefix = "wal-";
constexpr std::string_view kSegmentSuffix = ".log";
constexpr size_t kSegmentSeqDigits = 8;

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + std::string(kManifestName);
}

std::string RetainFloorPath(const std::string& dir) {
  return dir + "/" + std::string(kRetainFloorName);
}

/// Parses "wal-<seq>.log" into its seq; false otherwise. Seqs are
/// zero-padded to 8 digits but snprintf widens past 99,999,999, so
/// accept 8..19 digits — a store that rotates past 1e8 segments must
/// not have its newer segments become invisible to recovery.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  const size_t overhead = kSegmentPrefix.size() + kSegmentSuffix.size();
  if (name.size() < overhead + kSegmentSeqDigits ||
      name.size() > overhead + 19) {
    return false;
  }
  if (name.compare(0, kSegmentPrefix.size(), kSegmentPrefix) != 0) {
    return false;
  }
  if (name.compare(name.size() - kSegmentSuffix.size(),
                   kSegmentSuffix.size(), kSegmentSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kSegmentPrefix.size();
       i < name.size() - kSegmentSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  if (value == 0) return false;  // seqs start at 1
  *seq = value;
  return true;
}

/// The header-only contents a fresh segment starts with.
std::string SegmentHeaderFrame(uint64_t base_lsn) {
  std::string payload;
  PutFixed64(&payload, base_lsn);
  std::string frame;
  AppendRecord(RecordType::kWalHeader, payload, &frame);
  return frame;
}

/// Creates `wal-<seq>.log` with base `base_lsn` (atomically) and opens
/// it for append.
Result<AppendOnlyFile> CreateSegment(const std::string& dir, uint64_t seq,
                                     uint64_t base_lsn) {
  const std::string path = dir + "/" + WalSegmentFileName(seq);
  // Temp-write + rename: a crash leaves either no segment or a whole
  // header-only segment, never a torn header.
  PAW_RETURN_NOT_OK(AtomicWriteFile(path, SegmentHeaderFrame(base_lsn)));
  return AppendOnlyFile::Open(path);
}

/// Parses a segment file's header record; returns its base LSN and
/// positions `reader` past the header.
Result<uint64_t> ReadSegmentHeader(RecordReader* reader,
                                   const std::string& path) {
  Record record;
  if (reader->Next(&record) != ReadOutcome::kRecord ||
      record.type != RecordType::kWalHeader) {
    return Status::FailedPrecondition("not a WAL segment: " + path);
  }
  size_t pos = 0;
  uint64_t base = 0;
  if (!GetFixed64(record.payload, &pos, &base) ||
      pos != record.payload.size()) {
    return Status::FailedPrecondition("corrupt WAL segment header: " + path);
  }
  return base;
}

}  // namespace

std::string WalSegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

Result<std::vector<WalSegmentFile>> ListWalSegments(const std::string& dir) {
  PAW_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  std::vector<WalSegmentFile> out;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (!ParseSegmentName(name, &seq)) continue;
    out.push_back({seq, dir + "/" + name});
  }
  std::sort(out.begin(), out.end(),
            [](const WalSegmentFile& a, const WalSegmentFile& b) {
              return a.seq < b.seq;
            });
  return out;
}

Result<uint64_t> ReadWalManifest(const std::string& dir) {
  auto contents = ReadFileToString(ManifestPath(dir));
  if (!contents.ok()) {
    return Status::NotFound(dir + " has no " + std::string(kManifestName) +
                            " manifest");
  }
  // Strict parse: the manifest gates segment deletion, so junk is
  // corruption, not something to guess around.
  const std::string& text = contents.value();
  const std::string expect_prefix = std::string(kManifestMagic) + "\nfirst=";
  if (text.compare(0, expect_prefix.size(), expect_prefix) != 0) {
    return Status::FailedPrecondition("corrupt WAL manifest in " + dir);
  }
  const std::string value =
      text.substr(expect_prefix.size(),
                  text.size() - expect_prefix.size() -
                      (text.back() == '\n' ? 1 : 0));
  if (value.empty()) {
    return Status::FailedPrecondition("corrupt WAL manifest in " + dir);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size() || parsed == 0) {
    return Status::FailedPrecondition("bad WAL manifest first= in " + dir);
  }
  return static_cast<uint64_t>(parsed);
}

Status WriteWalManifest(const std::string& dir, uint64_t first_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\nfirst=%llu\n",
                std::string(kManifestMagic).c_str(),
                static_cast<unsigned long long>(first_seq));
  return AtomicWriteFile(ManifestPath(dir), buf);
}

Result<uint64_t> ReadWalRetainFloor(const std::string& dir) {
  auto contents = ReadFileToString(RetainFloorPath(dir));
  if (!contents.ok()) return WriteAheadLog::kNoRetainFloor;
  // Strict parse, like the manifest: the floor gates segment deletion.
  const std::string& text = contents.value();
  const std::string expect_prefix =
      std::string(kRetainFloorMagic) + "\nfloor=";
  if (text.compare(0, expect_prefix.size(), expect_prefix) != 0) {
    return Status::FailedPrecondition("corrupt WAL retention floor in " +
                                      dir);
  }
  const std::string value =
      text.substr(expect_prefix.size(),
                  text.size() - expect_prefix.size() -
                      (text.back() == '\n' ? 1 : 0));
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || errno != 0 ||
      end != value.c_str() + value.size() || parsed == 0) {
    return Status::FailedPrecondition("bad WAL retention floor= in " + dir);
  }
  return static_cast<uint64_t>(parsed);
}

Status WriteWalRetainFloor(const std::string& dir, uint64_t floor_seq) {
  if (floor_seq == WriteAheadLog::kNoRetainFloor) {
    return RemoveFileIfExists(RetainFloorPath(dir));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\nfloor=%llu\n",
                std::string(kRetainFloorMagic).c_str(),
                static_cast<unsigned long long>(floor_seq));
  return AtomicWriteFile(RetainFloorPath(dir), buf);
}

Result<WriteAheadLog> WriteAheadLog::Create(const std::string& dir,
                                            uint64_t base_lsn,
                                            Options options) {
  PAW_ASSIGN_OR_RETURN(std::vector<WalSegmentFile> existing,
                       ListWalSegments(dir));
  if (!existing.empty()) {
    return Status::AlreadyExists(dir + " already contains a WAL");
  }
  // Segment before manifest: Open reconstructs a missing manifest from
  // the segment files, but a manifest without segments is an error.
  PAW_ASSIGN_OR_RETURN(AppendOnlyFile file,
                       CreateSegment(dir, /*seq=*/1, base_lsn));
  PAW_RETURN_NOT_OK(WriteWalManifest(dir, /*first_seq=*/1));
  return WriteAheadLog(std::move(file), dir, /*seq=*/1, base_lsn, base_lsn,
                       options);
}

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& dir,
                                          WalReplay* replay,
                                          Options options) {
  *replay = WalReplay{};

  PAW_ASSIGN_OR_RETURN(std::vector<WalSegmentFile> segments,
                       ListWalSegments(dir));
  if (segments.empty()) {
    return Status::NotFound("no WAL in " + dir);
  }

  uint64_t first = 0;
  auto manifest = ReadWalManifest(dir);
  if (manifest.ok()) {
    first = manifest.value();
  } else if (manifest.status().IsNotFound()) {
    // Crash window of Create: reconstruct and heal.
    first = segments.front().seq;
    PAW_RETURN_NOT_OK(WriteWalManifest(dir, first));
  } else {
    return manifest.status();
  }

  // Reclaim segments a finished compaction already logically deleted
  // (crash between the manifest bump and the unlinks) — except those
  // the retention floor pins for a replication subscriber, which stay
  // on disk (streamable) but out of replay (the snapshot covers them).
  PAW_ASSIGN_OR_RETURN(const uint64_t floor, ReadWalRetainFloor(dir));
  size_t keep_from = 0;
  while (keep_from < segments.size() && segments[keep_from].seq < first) {
    if (segments[keep_from].seq >= floor) {
      ++replay->retained_segments;
    } else {
      PAW_RETURN_NOT_OK(RemoveFileIfExists(segments[keep_from].path));
      ++replay->stale_segments_removed;
    }
    ++keep_from;
  }
  segments.erase(segments.begin(),
                 segments.begin() + static_cast<ptrdiff_t>(keep_from));
  if (segments.empty()) {
    return Status::FailedPrecondition(
        dir + ": WAL manifest names segment " + std::to_string(first) +
        " but no segment at or past it exists");
  }
  // Seqs must be contiguous from `first`: a hole means a live segment
  // was deleted out from under the store.
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].seq != first + i) {
      return Status::FailedPrecondition(
          dir + ": missing WAL segment " +
          WalSegmentFileName(first + i));
    }
  }

  // Replay in seq order, verifying the base-LSN chain. Damage in a
  // *sealed* segment (fsync'd at seal, so never a plain crash
  // artifact) is repaired to the clean prefix: everything from the
  // damage on — including every later segment — is dropped, never
  // spliced over the hole.
  uint64_t running_end = 0;
  uint64_t active_base = 0;
  size_t active_index = segments.size() - 1;

  // Deletes segments[j0..] and accounts their contents as dropped.
  auto drop_segments_from = [&](size_t j0) -> Status {
    for (size_t j = j0; j < segments.size(); ++j) {
      auto lost = ReadFileToString(segments[j].path);
      if (lost.ok()) {
        replay->dropped_bytes += lost.value().size();
        RecordReader lost_reader(lost.value());
        Record lost_record;
        uint64_t seg_records = 0;
        while (lost_reader.Next(&lost_record) == ReadOutcome::kRecord) {
          ++seg_records;
        }
        // The segment's own kWalHeader is framing, not data.
        replay->dropped_records += seg_records > 0 ? seg_records - 1 : 0;
      }
      PAW_RETURN_NOT_OK(RemoveFileIfExists(segments[j].path));
    }
    return Status::OK();
  };

  for (size_t i = 0; i < segments.size(); ++i) {
    const WalSegmentFile& seg = segments[i];
    PAW_ASSIGN_OR_RETURN(std::string contents,
                         ReadFileToString(seg.path));
    RecordReader reader(contents);
    PAW_ASSIGN_OR_RETURN(const uint64_t base,
                         ReadSegmentHeader(&reader, seg.path));
    if (i == 0) {
      replay->base_lsn = base;
      running_end = base;
    } else if (base < running_end) {
      // Overlapping LSNs cannot come from any crash ordering: refuse
      // rather than guess which copy of a record is real.
      return Status::FailedPrecondition(
          seg.path + ": segment chain overlap (base " +
          std::to_string(base) + ", already replayed through " +
          std::to_string(running_end) + ")");
    } else if (base > running_end) {
      // Gap: the tail of the previous (sealed) segment is missing —
      // e.g. truncation that happened to land on a record boundary.
      // Clean prefix: drop this segment and everything after it.
      replay->torn_tail = true;
      replay->tail_error =
          seg.path + ": segment chain gap (base " + std::to_string(base) +
          ", previous segment ends at " + std::to_string(running_end) +
          "); dropping this and later segments";
      PAW_RETURN_NOT_OK(drop_segments_from(i));
      active_index = i - 1;
      break;
    }
    active_base = base;
    Record record;
    ReadOutcome outcome;
    while ((outcome = reader.Next(&record)) == ReadOutcome::kRecord) {
      replay->records.push_back(std::move(record));
      ++running_end;
    }
    if (outcome != ReadOutcome::kTornTail) continue;

    replay->torn_tail = true;
    replay->dropped_bytes += reader.dropped_bytes();
    replay->tail_error = reader.tail_error();
    // Repair: drop the tail so the next append starts a clean frame.
    PAW_RETURN_NOT_OK(TruncateFile(
        seg.path, static_cast<int64_t>(reader.valid_bytes())));
    if (i + 1 < segments.size()) {
      replay->tail_error =
          seg.path + ": " + replay->tail_error +
          " (torn sealed segment; dropping later segments)";
      PAW_RETURN_NOT_OK(drop_segments_from(i + 1));
    }
    active_index = i;
    break;
  }
  segments.resize(active_index + 1);

  replay->segments = static_cast<int>(segments.size());
  replay->first_seq = first;

  const WalSegmentFile& active = segments.back();
  PAW_ASSIGN_OR_RETURN(AppendOnlyFile file,
                       AppendOnlyFile::Open(active.path));
  WriteAheadLog log(std::move(file), dir, active.seq, active_base,
                    running_end, options);
  log.rep_->retain_floor.store(floor, std::memory_order_release);
  return log;
}

Result<uint64_t> WriteAheadLog::Append(RecordType type,
                                       std::string_view payload) {
  // A frame longer than kMaxPayloadLen would be written fine but
  // rejected as "implausible" on replay, deleting it (and everything
  // after it) via torn-tail repair — refuse it up front instead.
  if (payload.size() > kMaxPayloadLen) {
    return Status::InvalidArgument(
        "record payload too large: " + std::to_string(payload.size()) +
        " bytes (max " + std::to_string(kMaxPayloadLen) + ")");
  }
  std::string frame;
  frame.reserve(kRecordHeaderSize + payload.size());
  AppendRecord(type, payload, &frame);

  Rep* r = rep_.get();
  std::unique_lock<std::mutex> lock(r->mu);
  if (!r->error.ok()) return r->error;
  // Stage the frame and note which commit group it belongs to. LSNs
  // are assigned in staging order == buffer order == file order.
  const uint64_t lsn =
      r->last_lsn.fetch_add(1, std::memory_order_acq_rel) + 1;
  r->pending += frame;
  ++r->pending_records;
  r->pending_traces.push_back(CurrentTraceContext());
  WalAppendsTotal().Add();
  WalFrameStageCopyBytesTotal().Add(frame.size());
  const uint64_t my_seq = r->next_batch_seq;

  while (r->committed_seq < my_seq) {
    if (!r->error.ok()) return r->error;
    if (!r->writer_active) {
      // Become the leader: take everything staged so far (our frame
      // plus any concurrent arrivals) and commit it as one batch.
      r->writer_active = true;
      const uint64_t batch_seq = r->next_batch_seq++;
      // Every staged frame is in `pending`, so the last assigned LSN
      // is exactly the end of the batch being cut.
      const uint64_t batch_end_lsn =
          r->last_lsn.load(std::memory_order_relaxed);
      std::string batch;
      batch.swap(r->pending);
      const uint64_t batch_records = r->pending_records;
      r->pending_records = 0;
      std::vector<TraceContext> batch_traces;
      batch_traces.swap(r->pending_traces);
      CommitSink sink = r->commit_sink;
      lock.unlock();
      WalBatchRecords().Observe(static_cast<double>(batch_records));
      Status s = r->file.Append(batch);
      if (s.ok()) {
        s = r->options.sync_each_append ? TimedSync(&r->file)
                                        : r->file.Flush();
      }
      // Fork the batch to replication only once it is on disk: a sunk
      // record is never less durable on the leader than advertised.
      if (s.ok() && sink) {
        sink(batch_end_lsn - batch_records + 1, batch_records, batch,
             batch_traces);
      }
      lock.lock();
      if (!s.ok()) {
        r->writer_active = false;
        r->error = s;
        r->cv.notify_all();
        return s;
      }
      r->committed_seq = batch_seq;
      r->committed_lsn = batch_end_lsn;
      r->size_bytes.fetch_add(static_cast<int64_t>(batch.size()),
                              std::memory_order_acq_rel);
      // Size-based rotation: seal while still holding the writer slot,
      // so frames staged by concurrent appenders (which belong to the
      // *next* batch) land in the fresh segment.
      if (r->options.segment_bytes > 0 &&
          static_cast<uint64_t>(
              r->size_bytes.load(std::memory_order_relaxed)) >=
              r->options.segment_bytes) {
        // The caller's record is already committed; a rotation failure
        // poisons the log for *future* ops but this append succeeded.
        (void)RotateLocked(lock);
      }
      r->writer_active = false;
      r->cv.notify_all();
    } else {
      r->cv.wait(lock);
    }
  }
  return lsn;
}

Status WriteAheadLog::Sync() {
  Rep* r = rep_.get();
  std::unique_lock<std::mutex> lock(r->mu);
  if (!r->error.ok()) return r->error;
  // Take the writer slot; flush any staged frames (their appenders are
  // followers of this batch) and fsync in one go.
  while (r->writer_active) {
    r->cv.wait(lock);
    if (!r->error.ok()) return r->error;
  }
  r->writer_active = true;
  const bool have_batch = !r->pending.empty();
  const uint64_t batch_seq = have_batch ? r->next_batch_seq++ : 0;
  const uint64_t batch_end_lsn =
      r->last_lsn.load(std::memory_order_relaxed);
  std::string batch;
  batch.swap(r->pending);
  const uint64_t batch_records = r->pending_records;
  r->pending_records = 0;
  std::vector<TraceContext> batch_traces;
  batch_traces.swap(r->pending_traces);
  CommitSink sink = r->commit_sink;
  lock.unlock();
  if (have_batch) {
    WalBatchRecords().Observe(static_cast<double>(batch_records));
  }
  Status s = have_batch ? r->file.Append(batch) : Status::OK();
  if (s.ok()) s = TimedSync(&r->file);
  if (s.ok() && have_batch && sink) {
    sink(batch_end_lsn - batch_records + 1, batch_records, batch,
         batch_traces);
  }
  lock.lock();
  r->writer_active = false;
  if (!s.ok()) {
    r->error = s;
    r->cv.notify_all();
    return s;
  }
  if (have_batch) {
    r->committed_seq = batch_seq;
    r->committed_lsn = batch_end_lsn;
    r->size_bytes.fetch_add(static_cast<int64_t>(batch.size()),
                            std::memory_order_acq_rel);
  }
  r->cv.notify_all();
  return s;
}

void WriteAheadLog::SetCommitSink(CommitSink sink) {
  Rep* r = rep_.get();
  std::lock_guard<std::mutex> lock(r->mu);
  r->commit_sink = std::move(sink);
}

Status WriteAheadLog::SetRetainFloor(uint64_t floor_seq) {
  Rep* r = rep_.get();
  // Own mutex: a floor move (subscriber attach / checkpoint advance)
  // must not stall the group-commit staging path.
  std::lock_guard<std::mutex> lock(r->floor_mu);
  PAW_RETURN_NOT_OK(WriteWalRetainFloor(r->dir, floor_seq));
  r->retain_floor.store(floor_seq, std::memory_order_release);
  return Status::OK();
}

Result<WalRotation> WriteAheadLog::Rotate() {
  Rep* r = rep_.get();
  std::unique_lock<std::mutex> lock(r->mu);
  if (!r->error.ok()) return r->error;
  while (r->writer_active) {
    r->cv.wait(lock);
    if (!r->error.ok()) return r->error;
  }
  r->writer_active = true;
  Status s = RotateLocked(lock);
  r->writer_active = false;
  r->cv.notify_all();
  PAW_RETURN_NOT_OK(s);
  WalRotation rotation;
  rotation.active_seq = r->seq.load(std::memory_order_relaxed);
  rotation.sealed_seq = rotation.active_seq - 1;
  rotation.end_lsn = r->base_lsn.load(std::memory_order_relaxed);
  return rotation;
}

Status WriteAheadLog::RotateLocked(std::unique_lock<std::mutex>& lock) {
  Rep* r = rep_.get();
  // Frames still staged in `pending` belong to batches after this cut;
  // they will be written to the new segment, whose base is exactly the
  // last committed LSN — the chain stays dense.
  const uint64_t end_lsn = r->committed_lsn;
  const uint64_t new_seq = r->seq.load(std::memory_order_relaxed) + 1;
  lock.unlock();
  // Seal: everything in the old segment is durable before the next
  // segment exists, so a torn tail can only ever appear in the active
  // (last) segment — the invariant recovery relies on.
  Status s = TimedSync(&r->file);
  Result<AppendOnlyFile> next = s.ok()
                                    ? CreateSegment(r->dir, new_seq, end_lsn)
                                    : Result<AppendOnlyFile>(s);
  lock.lock();
  if (!next.ok()) {
    r->error = next.status();
    return next.status();
  }
  r->file = std::move(next).value();
  r->seq.store(new_seq, std::memory_order_release);
  r->base_lsn.store(end_lsn, std::memory_order_release);
  r->size_bytes.store(r->file.size(), std::memory_order_release);
  WalRotationsTotal().Add();
  return Status::OK();
}

}  // namespace paw
