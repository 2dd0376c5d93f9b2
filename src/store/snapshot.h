#ifndef PAW_STORE_SNAPSHOT_H_
#define PAW_STORE_SNAPSHOT_H_

/// \file snapshot.h
/// \brief Full-repository snapshots with log truncation support.
///
/// A snapshot is a record stream (record.h) in a file named
/// `snapshot-<lsn>.paws`, where `<lsn>` — zero-padded to 20 digits so
/// lexicographic and numeric order agree — is the LSN of the last WAL
/// record folded in. The stream is a `kSnapshotHeader` (payload:
/// fixed64 covered LSN) followed by every `kSpecV2` record in id order,
/// then every `kExecutionV2` record in id order, re-encoded through the
/// same codec the WAL uses.
///
/// Snapshots are written to a temp file and renamed into place, so a
/// crash mid-snapshot leaves the previous snapshot (or none) intact;
/// recovery then simply replays a longer log suffix.

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/repo/repository.h"
#include "src/store/codec.h"

namespace paw {

/// \brief A discovered or freshly written snapshot file.
struct SnapshotInfo {
  /// LSN of the last record the snapshot covers.
  uint64_t lsn = 0;
  /// Full path of the snapshot file.
  std::string path;
};

/// \brief File name for a snapshot covering `lsn`.
std::string SnapshotFileName(uint64_t lsn);

/// \brief Writes a snapshot of `repo` covering `lsn` into `dir`
/// (atomically) and returns the new snapshot's info.
Result<SnapshotInfo> WriteSnapshot(const std::string& dir,
                                   const Repository& repo, uint64_t lsn);

/// \brief Same, over a pinned `RepositoryView` — the background
/// compaction path: the view freezes the covered prefix, so the
/// snapshot is consistent even while a writer thread keeps appending
/// to the live repository behind it.
Result<SnapshotInfo> WriteSnapshot(const std::string& dir,
                                   const RepositoryView& view, uint64_t lsn);

/// \brief Highest-LSN snapshot under `dir`; NotFound when none exists.
Result<SnapshotInfo> FindLatestSnapshot(const std::string& dir);

/// \brief Loads a snapshot into `repo` (which must be empty) and
/// returns the LSN it covers. Any framing or checksum damage fails the
/// whole load — snapshots are written atomically, so unlike the WAL a
/// torn snapshot is corruption, not an expected crash artifact.
Result<uint64_t> LoadSnapshot(const std::string& path, Repository* repo);

/// \brief Deletes every snapshot in `dir` older than `keep_lsn`.
Status RemoveSnapshotsBefore(const std::string& dir, uint64_t keep_lsn);

}  // namespace paw

#endif  // PAW_STORE_SNAPSHOT_H_
