// Crash-injection sweeps over the persistent store's WAL.
//
// Byte-level sweeps: a `FaultyFile` captures a healthy WAL segment and
// reproduces crash artifacts from it — truncation at byte K (crash
// mid-append) and single-bit flips (silent corruption) — at *every*
// byte offset, asserting the recovery invariant: `Open` either replays
// a clean prefix of the original records or repairs the torn tail down
// to the last whole record; it never crashes and never resurrects a
// record that was not fully, correctly written. The sweeps also run
// against multi-segment logs, where damage in a *sealed* segment must
// drop everything past it (clean prefix) rather than splice later
// segments over the hole.
//
// Kill-point sweeps: background compaction runs the crash-ordered
// sequence rotate → snapshot → manifest-bump → segment-delete. The
// `StoreOptions::compaction_hook` pauses the snapshot worker at each
// phase boundary while the harness copies the whole store directory —
// a faithful crash image of that kill point — and every image must
// recover *all* records that were durable when the compaction started
// (no committed LSN is ever lost), for the single-directory shard
// engine and for the sharded store built from it.
//
// The WAL header frame is written atomically (temp file + rename), so a
// real crash cannot tear it; cuts and flips inside the header model
// media corruption instead, where the contract weakens to "fail with a
// Status, never crash, never fabricate state".

#include "src/common/fault_injection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/file_io.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/store/persistent_repository.h"
#include "src/store/record.h"
#include "src/store/sharded_repository.h"
#include "src/workflow/builder.h"
#include "src/workflow/serialize.h"
#include "tests/store_test_util.h"

namespace paw {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("paw_crash_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Path of the store's active (highest-seq) WAL segment.
std::string ActiveWal(const std::string& dir) {
  auto segments = ListWalSegments(dir);
  EXPECT_TRUE(segments.ok() && !segments.value().empty())
      << "no WAL segments under " << dir;
  return segments.value().back().path;
}

/// A deliberately tiny spec so the per-byte sweep over its WAL stays
/// fast (the whole log is ~1 KB).
Specification NamedSpec(const std::string& name) {
  SpecBuilder b(name);
  WorkflowId w = b.AddWorkflow("W1", "top", 0);
  EXPECT_TRUE(b.SetRoot(w).ok());
  ModuleId in = b.AddInput(w);
  ModuleId m = b.AddModule(w, "M1", "Work");
  ModuleId out = b.AddOutput(w);
  EXPECT_TRUE(b.Connect(in, m, {"x"}).ok());
  EXPECT_TRUE(b.Connect(m, out, {"y"}).ok());
  auto spec = std::move(b).Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

Specification TinySpec() { return NamedSpec("tiny"); }

/// The store under test plus everything the sweep needs to check
/// recovered state against the original.
struct SweptStore {
  std::string dir;
  /// Optional only because `FaultyFile` is built after the store
  /// (capture requires the finished WAL); always engaged once returned.
  std::optional<FaultyFile> wal;
  /// Serialized entries in append (LSN) order: [spec, exec1, exec2, ...].
  std::vector<std::string> originals;
  /// Byte offset of each record boundary in the WAL: boundaries[0] is
  /// the end of the header frame, boundaries[i] the end of record i.
  std::vector<size_t> boundaries;
};

SweptStore BuildSweptStore(const std::string& name, int executions) {
  SweptStore out;
  out.dir = TestDir(name);
  {
    auto store = PersistentRepository::Init(out.dir);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto sid = store.value().AddSpecification(TinySpec());
    EXPECT_TRUE(sid.ok()) << sid.status().ToString();
    const Specification& spec = store.value().repo().entry(0).spec;
    out.originals.push_back(Serialize(spec));
    FunctionRegistry fns;
    for (int i = 0; i < executions; ++i) {
      auto exec =
          Execute(spec, fns, {{"x", "value" + std::to_string(i)}});
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      out.originals.push_back(SerializeExecution(exec.value()));
      EXPECT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok());
    }
    EXPECT_TRUE(store.value().Sync().ok());
  }
  auto wal = FaultyFile::Capture(ActiveWal(out.dir));
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  out.wal.emplace(std::move(wal).value());

  RecordReader reader(out.wal->pristine());
  Record record;
  while (reader.Next(&record) == ReadOutcome::kRecord) {
    out.boundaries.push_back(reader.valid_bytes());
  }
  EXPECT_EQ(reader.dropped_bytes(), 0u);
  EXPECT_EQ(out.boundaries.size(), out.originals.size() + 1);  // + header
  return out;
}

/// Serialized entries of a recovered store in LSN order.
std::vector<std::string> Recovered(const PersistentRepository& store) {
  std::vector<std::string> out;
  for (int id = 0; id < store.repo().num_specs(); ++id) {
    out.push_back(Serialize(store.repo().entry(id).spec));
  }
  for (int id = 0; id < store.repo().num_executions(); ++id) {
    out.push_back(
        SerializeExecution(store.repo().execution(ExecutionId(id)).exec));
  }
  return out;
}

/// Asserts `got` is exactly the first `got.size()` originals.
void ExpectPrefixOfOriginals(const std::vector<std::string>& got,
                             const std::vector<std::string>& originals,
                             const std::string& context) {
  ASSERT_LE(got.size(), originals.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], originals[i]) << context << " entry " << i;
  }
}

/// Number of whole records (header excluded) within the first `cut`
/// bytes, and whether `cut` sits exactly on a boundary.
void ClassifyCut(const std::vector<size_t>& boundaries, size_t cut,
                 size_t* whole_records, bool* on_boundary) {
  *whole_records = 0;
  *on_boundary = false;
  for (size_t i = 0; i < boundaries.size(); ++i) {
    if (boundaries[i] <= cut) *whole_records = i;  // i records past header
    if (boundaries[i] == cut) *on_boundary = true;
  }
}

TEST(FaultyFileTest, RestoreTruncateFlipRoundTrip) {
  const std::string dir = TestDir("faulty_file");
  const std::string path = dir + "/f";
  ASSERT_TRUE(AtomicWriteFile(path, "abcdef").ok());
  auto f = FaultyFile::Capture(path);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value().size(), 6);

  ASSERT_TRUE(f.value().TruncateAt(2).ok());
  EXPECT_EQ(ReadFileToString(path).value(), "ab");
  EXPECT_TRUE(f.value().TruncateAt(7).IsInvalidArgument());

  ASSERT_TRUE(f.value().FlipBit(0, 0).ok());
  EXPECT_EQ(ReadFileToString(path).value(), "`bcdef");  // 'a' ^ 1
  EXPECT_TRUE(f.value().FlipBit(6, 0).IsInvalidArgument());
  EXPECT_TRUE(f.value().FlipBit(0, 8).IsInvalidArgument());

  ASSERT_TRUE(f.value().Restore().ok());
  EXPECT_EQ(ReadFileToString(path).value(), "abcdef");
}

// The tentpole sweep: truncate the WAL at every byte offset, including
// every record boundary, and recover.
TEST(CrashInjectionTest, TruncationSweepRecoversCleanPrefix) {
  SweptStore swept = BuildSweptStore("trunc_sweep", 3);
  const size_t header_end = swept.boundaries[0];
  const size_t size = static_cast<size_t>(swept.wal->size());

  for (size_t cut = 0; cut <= size; ++cut) {
    ASSERT_TRUE(swept.wal->TruncateAt(cut).ok());
    auto store = PersistentRepository::Open(swept.dir);
    const std::string context = "cut=" + std::to_string(cut);
    if (cut < header_end) {
      // Inside the atomically written header: corruption, not a crash
      // artifact. Must fail with a Status, not crash.
      EXPECT_FALSE(store.ok()) << context;
      continue;
    }
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    size_t whole = 0;
    bool on_boundary = false;
    ClassifyCut(swept.boundaries, cut, &whole, &on_boundary);
    EXPECT_EQ(store.value().recovery().torn_tail, !on_boundary) << context;
    EXPECT_EQ(store.value().lsn(), whole) << context;
    std::vector<std::string> got = Recovered(store.value());
    ExpectPrefixOfOriginals(got, swept.originals, context);
    EXPECT_EQ(got.size(), whole) << context;
    if (!on_boundary) {
      // Repair truncated the torn tail back to the last whole record.
      EXPECT_EQ(static_cast<size_t>(fs::file_size(swept.wal->path())),
                swept.boundaries[whole])
          << context;
    }
  }
}

// A torn store must not only recover — it must keep working. Spot-check
// a few interior cuts end to end: recover, append, recover again.
TEST(CrashInjectionTest, TornStoreAcceptsAppendsAfterRepair) {
  SweptStore swept = BuildSweptStore("trunc_append", 2);
  const size_t header_end = swept.boundaries[0];
  const size_t size = static_cast<size_t>(swept.wal->size());
  for (size_t cut : {header_end + 1, (header_end + size) / 2, size - 1}) {
    ASSERT_TRUE(swept.wal->TruncateAt(cut).ok());
    size_t whole = 0;
    bool on_boundary = false;
    ClassifyCut(swept.boundaries, cut, &whole, &on_boundary);
    {
      auto store = PersistentRepository::Open(swept.dir);
      ASSERT_TRUE(store.ok()) << cut;
      if (whole == 0) {
        auto sid = store.value().AddSpecification(TinySpec());
        ASSERT_TRUE(sid.ok()) << sid.status().ToString();
      } else {
        FunctionRegistry fns;
        auto exec = Execute(store.value().repo().entry(0).spec, fns,
                            {{"x", "post-crash"}});
        ASSERT_TRUE(exec.ok());
        ASSERT_TRUE(
            store.value().AddExecution(0, std::move(exec).value()).ok());
      }
      ASSERT_TRUE(store.value().Sync().ok());
    }
    auto reopened = PersistentRepository::Open(swept.dir);
    ASSERT_TRUE(reopened.ok()) << cut;
    EXPECT_FALSE(reopened.value().recovery().torn_tail) << cut;
    EXPECT_EQ(reopened.value().lsn(), whole + 1) << cut;
  }
}

// Flip one bit at every byte offset (cycling through bit positions so
// all eight are exercised): recovery must never crash and must never
// deliver a record that differs from what was written.
TEST(CrashInjectionTest, BitFlipSweepNeverResurrectsRecords) {
  SweptStore swept = BuildSweptStore("flip_sweep", 3);
  const size_t header_end = swept.boundaries[0];
  const size_t size = static_cast<size_t>(swept.wal->size());

  for (size_t offset = 0; offset < size; ++offset) {
    const int bit = static_cast<int>(offset % 8);
    ASSERT_TRUE(swept.wal->FlipBit(offset, bit).ok());
    auto store = PersistentRepository::Open(swept.dir);
    const std::string context =
        "offset=" + std::to_string(offset) + " bit=" + std::to_string(bit);
    if (offset < header_end) {
      EXPECT_FALSE(store.ok()) << context;
      continue;
    }
    // CRC32 detects every single-bit error, so the flipped record and
    // everything after it is classified as a torn tail; the clean
    // prefix before it survives byte-for-byte.
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    EXPECT_TRUE(store.value().recovery().torn_tail) << context;
    std::vector<std::string> got = Recovered(store.value());
    ExpectPrefixOfOriginals(got, swept.originals, context);
    EXPECT_LT(got.size(), swept.originals.size()) << context;
  }
}

// The harness composes with snapshots: corrupt WAL bytes behind a
// snapshot's coverage are harmless because recovery replays only the
// suffix past the snapshot LSN.
TEST(CrashInjectionTest, SnapshotShieldsRecoveryFromStaleWalDamage) {
  const std::string dir = TestDir("snap_shield");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().AddSpecification(TinySpec()).ok());
    // Snapshot covers the spec; the WAL is truncated to empty.
    ASSERT_TRUE(store.value().Compact().ok());
  }
  auto wal = FaultyFile::Capture(ActiveWal(dir));
  ASSERT_TRUE(wal.ok());
  // Cut into the (fresh) header: the WAL is unreadable, so Open fails —
  // but it must fail with a Status even though a snapshot exists.
  ASSERT_TRUE(wal.value().TruncateAt(static_cast<uint64_t>(
                  wal.value().size() - 1)).ok());
  EXPECT_FALSE(PersistentRepository::Open(dir).ok());
  // Restored, everything is back.
  ASSERT_TRUE(wal.value().Restore().ok());
  auto store = PersistentRepository::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().repo().num_specs(), 1);
}

// ---------------------------------------------------------------------------
// Compaction kill-point sweeps: crash images of every phase boundary in
// the rotate → snapshot → manifest-bump → segment-delete sequence.
// ---------------------------------------------------------------------------

std::string PhaseName(CompactionPhase phase) {
  switch (phase) {
    case CompactionPhase::kSnapshot: return "snapshot";
    case CompactionPhase::kInstall: return "install";
    case CompactionPhase::kCleanup: return "cleanup";
    case CompactionPhase::kDone: return "done";
  }
  return "unknown";
}

/// Copies a whole store directory (a crash image: at a phase boundary
/// the worker is paused inside the hook, so nothing mutates the source
/// while we copy).
void CopyDir(const std::string& src, const std::string& dst) {
  std::error_code ec;
  fs::create_directories(dst, ec);
  ASSERT_FALSE(ec) << dst << ": " << ec.message();
  fs::copy(src, dst,
           fs::copy_options::recursive | fs::copy_options::overwrite_existing,
           ec);
  ASSERT_FALSE(ec) << src << " -> " << dst << ": " << ec.message();
}

/// A hook that snapshots the store directory at each phase boundary.
struct PhaseImageCapture {
  std::string store_dir;
  std::string image_root;
  std::string tag;  // distinguishes successive compactions
  std::vector<std::pair<std::string, std::string>> images;  // phase, path

  std::function<void(CompactionPhase)> Hook() {
    return [this](CompactionPhase phase) {
      const std::string label = tag + PhaseName(phase);
      const std::string dst = image_root + "/" + label;
      CopyDir(store_dir, dst);
      images.emplace_back(PhaseName(phase), dst);
    };
  }
};

TEST(CompactionKillPointTest, SweepRecoversAllRecords) {
  const std::string dir = TestDir("kp");
  const std::string image_root = TestDir("kp_images");
  PhaseImageCapture capture;
  capture.store_dir = dir;
  capture.image_root = image_root;

  StoreOptions options;
  options.compaction_hook = capture.Hook();

  std::vector<std::string> originals;
  {
    auto store = PersistentRepository::Init(dir, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto sid = store.value().AddSpecification(TinySpec());
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    const Specification& spec = store.value().repo().entry(0).spec;
    originals.push_back(Serialize(spec));
    FunctionRegistry fns;
    for (int i = 0; i < 3; ++i) {
      auto exec = Execute(spec, fns, {{"x", "kp" + std::to_string(i)}});
      ASSERT_TRUE(exec.ok());
      originals.push_back(SerializeExecution(exec.value()));
      ASSERT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok());
    }
    // Everything below is durable before the compaction starts: the
    // invariant under test is that no kill point loses any of it.
    ASSERT_TRUE(store.value().Sync().ok());
    ASSERT_TRUE(store.value().CompactAsync().ok());
    ASSERT_TRUE(store.value().WaitForCompaction().ok());
    EXPECT_EQ(store.value().snapshot_lsn(), originals.size());
  }
  ASSERT_EQ(capture.images.size(), 4u);

  for (const auto& [phase, image] : capture.images) {
    const std::string context = "kill point: " + phase;
    auto store = PersistentRepository::Open(image, options);
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    // No committed LSN is ever lost: every record durable at the cut
    // recovers, with its LSN intact, at every kill point.
    std::vector<std::string> got = Recovered(store.value());
    ASSERT_EQ(got.size(), originals.size()) << context;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], originals[i]) << context << " entry " << i;
    }
    EXPECT_EQ(store.value().lsn(), originals.size()) << context;
    EXPECT_FALSE(store.value().recovery().torn_tail) << context;
    if (phase == "snapshot") {
      // Rotation happened but no snapshot exists yet: pure replay.
      EXPECT_EQ(store.value().recovery().records_replayed,
                originals.size())
          << context;
    } else {
      // Snapshot installed; segment records it covers are skipped.
      EXPECT_EQ(store.value().recovery().snapshot_lsn, originals.size())
          << context;
    }
    if (phase == "cleanup") {
      // Manifest bumped, unlinks not yet run: the stale segment must
      // be reclaimed on open.
      EXPECT_GE(store.value().recovery().stale_segments_removed, 1)
          << context;
    }
    // The image is not just readable — it is a working store.
    FunctionRegistry fns;
    auto exec = Execute(store.value().repo().entry(0).spec, fns,
                        {{"x", "post-crash"}});
    ASSERT_TRUE(exec.ok()) << context;
    ASSERT_TRUE(
        store.value().AddExecution(0, std::move(exec).value()).ok())
        << context;
    ASSERT_TRUE(store.value().Sync().ok()) << context;
    CloseStore(&store);
    auto reopened = PersistentRepository::Open(image, options);
    ASSERT_TRUE(reopened.ok()) << context;
    EXPECT_EQ(reopened.value().lsn(), originals.size() + 1) << context;
  }
}

/// Serialized per-shard entries of a sharded store, in shard order.
std::vector<std::vector<std::string>> RecoveredSharded(
    const ShardedRepository& store) {
  std::vector<std::vector<std::string>> out;
  for (int i = 0; i < store.num_shards(); ++i) {
    out.push_back(Recovered(store.shard(i)));
  }
  return out;
}

TEST(CompactionKillPointTest, ShardedSweepRecoversAllRecords) {
  constexpr int kShards = 2;
  const std::string dir = TestDir("kp_sharded");
  const std::string image_root = TestDir("kp_sharded_images");
  PhaseImageCapture capture;
  capture.store_dir = dir;
  capture.image_root = image_root;

  StoreOptions options;
  options.compaction_hook = capture.Hook();

  std::vector<std::vector<std::string>> originals;
  {
    auto store = ShardedRepository::Init(dir, kShards, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    FunctionRegistry fns;
    // Enough specs that (with crc routing) both shards hold data.
    for (int i = 0; i < 6; ++i) {
      auto ref = store.value().AddSpecification(
          NamedSpec("kp_spec_" + std::to_string(i)));
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      const Specification& spec = store.value()
                                      .shard(ref.value().shard)
                                      .repo()
                                      .entry(ref.value().id)
                                      .spec;
      auto exec = Execute(spec, fns, {{"x", "v" + std::to_string(i)}});
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(store.value()
                      .AddExecution(ref.value(), std::move(exec).value())
                      .ok());
    }
    for (int i = 0; i < kShards; ++i) {
      ASSERT_GT(store.value().shard(i).repo().num_specs(), 0)
          << "routing left shard " << i << " empty";
    }
    ASSERT_TRUE(store.value().Sync().ok());
    originals = RecoveredSharded(store.value());

    // Drive one shard's compaction at a time so each captured image is
    // deterministic (only the paused worker could be mutating files).
    for (int i = 0; i < kShards; ++i) {
      capture.tag = "shard" + std::to_string(i) + "_";
      ASSERT_TRUE(store.value().shard(i).CompactAsync().ok());
      ASSERT_TRUE(store.value().shard(i).WaitForCompaction().ok());
    }
  }
  ASSERT_EQ(capture.images.size(), 4u * kShards);

  for (const auto& [phase, image] : capture.images) {
    const std::string context = "kill point: " + image;
    auto store = ShardedRepository::Open(image, options, kShards);
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    EXPECT_EQ(RecoveredSharded(store.value()), originals) << context;
    // The image is not just readable — it keeps accepting writes.
    FunctionRegistry fns;
    auto ref = store.value().FindSpec("kp_spec_0");
    ASSERT_TRUE(ref.ok()) << context;
    const Specification& spec = store.value()
                                    .shard(ref.value().shard)
                                    .repo()
                                    .entry(ref.value().id)
                                    .spec;
    auto exec = Execute(spec, fns, {{"x", "post-crash"}});
    ASSERT_TRUE(exec.ok()) << context;
    ASSERT_TRUE(store.value()
                    .AddExecution(ref.value(), std::move(exec).value())
                    .ok())
        << context;
    ASSERT_TRUE(store.value().Sync().ok()) << context;
  }
}

// ---------------------------------------------------------------------------
// Multi-segment byte sweeps: damage inside sealed segments.
// ---------------------------------------------------------------------------

/// Builds a store whose WAL spans several segments (tiny rotation
/// threshold), all records synced.
struct SegmentedStore {
  std::string dir;
  StoreOptions options;
  std::vector<std::string> originals;  // LSN order
  std::vector<WalSegmentFile> segments;
};

SegmentedStore BuildSegmentedStore(const std::string& name) {
  SegmentedStore out;
  out.dir = TestDir(name);
  out.options.segment_bytes = 150;  // a couple of records per segment
  {
    auto store = PersistentRepository::Init(out.dir, out.options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto sid = store.value().AddSpecification(TinySpec());
    EXPECT_TRUE(sid.ok()) << sid.status().ToString();
    const Specification& spec = store.value().repo().entry(0).spec;
    out.originals.push_back(Serialize(spec));
    FunctionRegistry fns;
    for (int i = 0; i < 8; ++i) {
      auto exec =
          Execute(spec, fns, {{"x", "seg" + std::to_string(i)}});
      EXPECT_TRUE(exec.ok());
      out.originals.push_back(SerializeExecution(exec.value()));
      EXPECT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok());
    }
    EXPECT_TRUE(store.value().Sync().ok());
  }
  auto segments = ListWalSegments(out.dir);
  EXPECT_TRUE(segments.ok());
  out.segments = segments.value();
  EXPECT_GE(out.segments.size(), 3u) << "threshold produced too few segments";
  return out;
}

/// Records (LSNs, header excluded) wholly contained in the first
/// `segment_index` + the first `cut` bytes of segment `segment_index`,
/// plus whether the cut lands on a record boundary of that segment.
void ClassifySegmentCut(const std::vector<std::string>& pristine,
                        size_t segment_index, size_t cut,
                        size_t* whole_records, bool* on_boundary,
                        size_t* header_end) {
  *whole_records = 0;
  for (size_t s = 0; s < segment_index; ++s) {
    RecordReader reader(pristine[s]);
    Record record;
    bool header = true;
    while (reader.Next(&record) == ReadOutcome::kRecord) {
      if (!header) ++*whole_records;
      header = false;
    }
  }
  RecordReader reader(pristine[segment_index]);
  Record record;
  *on_boundary = false;
  *header_end = 0;
  bool header = true;
  std::vector<size_t> boundaries;
  while (reader.Next(&record) == ReadOutcome::kRecord) {
    if (header) {
      *header_end = reader.valid_bytes();
      header = false;
    } else {
      boundaries.push_back(reader.valid_bytes());
    }
  }
  size_t in_segment = 0;
  if (cut >= *header_end) *on_boundary = cut == *header_end;
  for (size_t i = 0; i < boundaries.size(); ++i) {
    if (boundaries[i] <= cut) in_segment = i + 1;
    if (boundaries[i] == cut) *on_boundary = true;
  }
  *whole_records += in_segment;
}

// Truncate a *sealed* (non-final) segment at every byte offset: the
// clean-prefix contract — recover exactly the records before the
// damage, drop every later segment, never resurrect, keep working.
TEST(CrashInjectionTest, SealedSegmentTruncationSweep) {
  SegmentedStore swept = BuildSegmentedStore("sealed");
  // Damage the middle sealed segment.
  const size_t target = swept.segments.size() / 2;
  ASSERT_GT(target, 0u);
  ASSERT_LT(target, swept.segments.size() - 1);

  // Pristine bytes of every segment, for restore + classification.
  std::vector<std::string> pristine;
  std::vector<FaultyFile> files;
  for (const WalSegmentFile& seg : swept.segments) {
    auto f = FaultyFile::Capture(seg.path);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    pristine.push_back(f.value().pristine());
    files.push_back(std::move(f).value());
  }

  const size_t size = pristine[target].size();
  for (size_t cut = 0; cut < size; cut += 7) {  // stride: keep it fast
    // Recovery may truncate the target and delete later segments;
    // restore the full chain (and manifest semantics are untouched —
    // the manifest only names `first`).
    for (FaultyFile& f : files) ASSERT_TRUE(f.Restore().ok());
    ASSERT_TRUE(files[target].TruncateAt(cut).ok());

    auto store = PersistentRepository::Open(swept.dir, swept.options);
    const std::string context = "sealed cut=" + std::to_string(cut);
    size_t whole = 0, header_end = 0;
    bool on_boundary = false;
    ClassifySegmentCut(pristine, target, cut, &whole, &on_boundary,
                       &header_end);
    if (cut < header_end) {
      // Damaged segment header: corruption, fail with a Status.
      EXPECT_FALSE(store.ok()) << context;
      continue;
    }
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    // A cut strictly inside a sealed segment always tears (even on a
    // record boundary, the chain to the next segment breaks — records
    // after the cut are gone, so the next segment's base mismatches...
    // unless recovery drops later segments, which is exactly what it
    // must do).
    std::vector<std::string> got = Recovered(store.value());
    ExpectPrefixOfOriginals(got, swept.originals, context);
    EXPECT_EQ(got.size(), whole) << context;
    EXPECT_EQ(store.value().lsn(), whole) << context;
    EXPECT_TRUE(store.value().recovery().torn_tail) << context;
    // Later segments were dropped, not spliced over the hole.
    EXPECT_GT(store.value().recovery().dropped_bytes, 0u) << context;
    // The repaired store accepts appends.
    if (store.value().repo().num_specs() > 0) {
      FunctionRegistry fns;
      auto exec = Execute(store.value().repo().entry(0).spec, fns,
                          {{"x", "post-crash"}});
      ASSERT_TRUE(exec.ok()) << context;
      ASSERT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok())
          << context;
      ASSERT_TRUE(store.value().Sync().ok()) << context;
      CloseStore(&store);
      auto reopened = PersistentRepository::Open(swept.dir, swept.options);
      ASSERT_TRUE(reopened.ok()) << context;
      EXPECT_EQ(reopened.value().lsn(), whole + 1) << context;
    }
  }
}

// Bit flips inside a sealed segment: CRC catches them; everything from
// the flipped record on (including later segments) is dropped.
TEST(CrashInjectionTest, SealedSegmentBitFlipKeepsCleanPrefix) {
  SegmentedStore swept = BuildSegmentedStore("sealed_flip");
  const size_t target = swept.segments.size() / 2;
  std::vector<FaultyFile> files;
  std::vector<std::string> pristine;
  for (const WalSegmentFile& seg : swept.segments) {
    auto f = FaultyFile::Capture(seg.path);
    ASSERT_TRUE(f.ok());
    pristine.push_back(f.value().pristine());
    files.push_back(std::move(f).value());
  }
  const size_t size = pristine[target].size();
  for (size_t offset = 0; offset < size; offset += 11) {
    const int bit = static_cast<int>(offset % 8);
    for (FaultyFile& f : files) ASSERT_TRUE(f.Restore().ok());
    ASSERT_TRUE(files[target].FlipBit(offset, bit).ok());
    auto store = PersistentRepository::Open(swept.dir, swept.options);
    const std::string context = "flip offset=" + std::to_string(offset);
    size_t whole = 0, header_end = 0;
    bool on_boundary = false;
    ClassifySegmentCut(pristine, target, offset, &whole, &on_boundary,
                       &header_end);
    if (offset < header_end) {
      EXPECT_FALSE(store.ok()) << context;
      continue;
    }
    ASSERT_TRUE(store.ok()) << context << ": " << store.status().ToString();
    EXPECT_TRUE(store.value().recovery().torn_tail) << context;
    std::vector<std::string> got = Recovered(store.value());
    ExpectPrefixOfOriginals(got, swept.originals, context);
    EXPECT_LT(got.size(), swept.originals.size()) << context;
  }
}

}  // namespace
}  // namespace paw
