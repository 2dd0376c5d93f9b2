#include "src/store/snapshot.h"

#include <cstdio>

#include "src/common/file_io.h"
#include "src/store/codec.h"
#include "src/store/record.h"

namespace paw {
namespace {

constexpr std::string_view kPrefix = "snapshot-";
constexpr std::string_view kSuffix = ".paws";

/// Parses "snapshot-<20 digits>.paws" into its LSN; false otherwise.
bool ParseSnapshotName(const std::string& name, uint64_t* lsn) {
  if (name.size() != kPrefix.size() + 20 + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + 20; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *lsn = value;
  return true;
}

}  // namespace

std::string SnapshotFileName(uint64_t lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.paws",
                static_cast<unsigned long long>(lsn));
  return buf;
}

Result<SnapshotInfo> WriteSnapshot(const std::string& dir,
                                   const Repository& repo, uint64_t lsn) {
  return WriteSnapshot(dir, repo.View(), lsn);
}

namespace {

/// Bytes buffered in user space before the snapshot stream is pushed
/// to the OS. Bounds snapshot memory by the largest single record plus
/// this constant instead of the whole store's encoded size.
constexpr int64_t kSnapshotFlushBytes = 1 << 20;

/// Appends one record frame to the temp file, flushing when the
/// user-space buffer passes the threshold. `scratch` is reused across
/// calls so the per-record allocation amortizes away.
Status StreamRecord(AppendOnlyFile* file, RecordType type,
                    std::string&& payload, std::string* scratch,
                    int64_t* buffered) {
  scratch->clear();
  AppendRecord(type, payload, scratch);
  PAW_RETURN_NOT_OK(file->Append(*scratch));
  *buffered += static_cast<int64_t>(scratch->size());
  if (*buffered >= kSnapshotFlushBytes) {
    PAW_RETURN_NOT_OK(file->Flush());
    *buffered = 0;
  }
  return Status::OK();
}

}  // namespace

Result<SnapshotInfo> WriteSnapshot(const std::string& dir,
                                   const RepositoryView& view, uint64_t lsn) {
  SnapshotInfo info;
  info.lsn = lsn;
  info.path = dir + "/" + SnapshotFileName(lsn);
  // Stream records straight to the temp file instead of encoding the
  // whole repository into one in-memory string first — a multi-GB
  // store must not need a multi-GB snapshot buffer. The temp path is
  // the same `<path>.tmp` AtomicWriteFile uses, so the stale-temp
  // reclaim on open covers a crash mid-stream; the rename after the
  // final Sync is what publishes the snapshot atomically.
  const std::string tmp = info.path + ".tmp";
  PAW_RETURN_NOT_OK(RemoveFileIfExists(tmp));
  auto opened = AppendOnlyFile::Open(tmp);
  if (!opened.ok()) return opened.status();
  {
    AppendOnlyFile file = std::move(opened).value();
    std::string scratch;
    int64_t buffered = 0;
    std::string header_payload;
    PutFixed64(&header_payload, lsn);
    Status st = StreamRecord(&file, RecordType::kSnapshotHeader,
                             std::move(header_payload), &scratch, &buffered);
    for (const SpecEntry* entry : view.specs) {
      if (!st.ok()) break;
      st = StreamRecord(&file, RecordType::kSpecV2,
                        EncodeSpecPayloadV2(entry->spec, entry->policy),
                        &scratch, &buffered);
    }
    for (const ExecutionEntry* entry : view.execs) {
      if (!st.ok()) break;
      st = StreamRecord(&file, RecordType::kExecutionV2,
                        EncodeExecutionPayloadV2(entry->spec_id, entry->exec),
                        &scratch, &buffered);
    }
    if (st.ok()) st = file.Sync();
    if (!st.ok()) {
      (void)RemoveFileIfExists(tmp);
      return st;
    }
  }
  PAW_RETURN_NOT_OK(RenameFile(tmp, info.path));
  return info;
}

Result<SnapshotInfo> FindLatestSnapshot(const std::string& dir) {
  PAW_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  SnapshotInfo best;
  bool found = false;
  for (const std::string& name : names) {
    uint64_t lsn = 0;
    if (!ParseSnapshotName(name, &lsn)) continue;
    if (!found || lsn > best.lsn) {
      best.lsn = lsn;
      best.path = dir + "/" + name;
      found = true;
    }
  }
  if (!found) return Status::NotFound("no snapshot under " + dir);
  return best;
}

Result<uint64_t> LoadSnapshot(const std::string& path, Repository* repo) {
  if (repo->num_specs() != 0 || repo->num_executions() != 0) {
    return Status::FailedPrecondition(
        "LoadSnapshot requires an empty repository");
  }
  PAW_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  RecordReader reader(contents);
  Record record;
  ReadOutcome outcome = reader.Next(&record);
  if (outcome != ReadOutcome::kRecord ||
      record.type != RecordType::kSnapshotHeader) {
    return Status::FailedPrecondition("not a snapshot file: " + path);
  }
  uint64_t lsn = 0;
  {
    size_t pos = 0;
    if (!GetFixed64(record.payload, &pos, &lsn) ||
        pos != record.payload.size()) {
      return Status::FailedPrecondition("corrupt snapshot header: " + path);
    }
  }
  while ((outcome = reader.Next(&record)) == ReadOutcome::kRecord) {
    PAW_RETURN_NOT_OK(ApplyRecord(record, repo));
    // Stamp durability metadata on the entry just applied. A snapshot
    // does not retain per-record append LSNs, so entries carry the
    // covering snapshot's LSN (an upper bound of the original one).
    PersistMeta meta = MakePersistMeta(lsn, record.payload, "snapshot");
    if (record.type == RecordType::kSpecV2) {
      repo->SetSpecPersist(repo->num_specs() - 1, std::move(meta));
    } else if (record.type == RecordType::kExecutionV2) {
      repo->SetExecutionPersist(
          ExecutionId(repo->num_executions() - 1), std::move(meta));
    }
  }
  if (outcome == ReadOutcome::kTornTail) {
    return Status::Internal("corrupt snapshot " + path + ": " +
                            reader.tail_error());
  }
  return lsn;
}

Status RemoveSnapshotsBefore(const std::string& dir, uint64_t keep_lsn) {
  PAW_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  for (const std::string& name : names) {
    uint64_t lsn = 0;
    if (ParseSnapshotName(name, &lsn) && lsn < keep_lsn) {
      PAW_RETURN_NOT_OK(RemoveFileIfExists(dir + "/" + name));
    }
  }
  return Status::OK();
}

}  // namespace paw
