// Tests for the persistent provenance store: WAL append + replay,
// snapshot + compaction, torn-tail crash recovery, and byte-for-byte
// round trips across process-restart boundaries (simulated by closing
// and reopening the store object).

#include "src/store/persistent_repository.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/random.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/repo/disease.h"
#include "src/repo/workload.h"
#include "src/store/codec.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"
#include "src/workflow/builder.h"
#include "src/workflow/serialize.h"
#include "tests/store_test_util.h"

namespace paw {
namespace {

namespace fs = std::filesystem;

/// Fresh, empty store directory per test.
std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("paw_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Path of the store's *active* WAL segment (the highest seq). With
/// default options a store has exactly one live segment between
/// compactions, so this is "the log" most assertions mean.
std::string WalFile(const std::string& dir) {
  auto segments = ListWalSegments(dir);
  EXPECT_TRUE(segments.ok() && !segments.value().empty())
      << "no WAL segments under " << dir;
  return segments.value().back().path;
}

int64_t FileSize(const std::string& path) {
  return static_cast<int64_t>(fs::file_size(path));
}

/// Cuts the file at `path` down to `size` bytes (simulated crash).
void CutFile(const std::string& path, int64_t size) {
  ASSERT_TRUE(TruncateFile(path, size).ok());
}

/// Serialized view of every entry, for byte-for-byte comparisons.
struct Snapshotted {
  std::vector<std::string> specs;
  std::vector<std::string> policies;
  std::vector<std::string> execs;
};

Snapshotted Dump(const Repository& repo) {
  Snapshotted out;
  for (int id = 0; id < repo.num_specs(); ++id) {
    out.specs.push_back(Serialize(repo.entry(id).spec));
    out.policies.push_back(SerializePolicy(repo.entry(id).policy));
  }
  for (int id = 0; id < repo.num_executions(); ++id) {
    out.execs.push_back(
        SerializeExecution(repo.execution(ExecutionId(id)).exec));
  }
  return out;
}

void ExpectSameBytes(const Snapshotted& a, const Snapshotted& b) {
  EXPECT_EQ(a.specs, b.specs);
  EXPECT_EQ(a.policies, b.policies);
  EXPECT_EQ(a.execs, b.execs);
}

TEST(StoreTest, InitCreatesEmptyStore) {
  const std::string dir = TestDir("init");
  auto store = PersistentRepository::Init(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(PathExists(dir + "/PAWSTORE"));
  EXPECT_TRUE(PathExists(WalFile(dir)));
  EXPECT_EQ(store.value().lsn(), 0u);
  EXPECT_EQ(store.value().repo().num_specs(), 0);

  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().repo().num_specs(), 0);
  EXPECT_FALSE(reopened.value().recovery().torn_tail);
}

TEST(StoreTest, InitTwiceFails) {
  const std::string dir = TestDir("init_twice");
  ASSERT_TRUE(PersistentRepository::Init(dir).ok());
  EXPECT_TRUE(
      PersistentRepository::Init(dir).status().IsAlreadyExists());
}

TEST(StoreTest, OpenRejectsNonStore) {
  const std::string dir = TestDir("non_store");
  EXPECT_FALSE(PersistentRepository::Open(dir).ok());
}

TEST(StoreTest, SpecAndExecutionsSurviveReopen) {
  const std::string dir = TestDir("reopen");
  Snapshotted before;
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    auto sid = store.value().AddSpecification(std::move(spec).value(),
                                              DiseasePolicy());
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    EXPECT_EQ(sid.value(), 0);
    for (int i = 0; i < 3; ++i) {
      auto exec =
          RunDiseaseExecution(store.value().repo().entry(0).spec);
      ASSERT_TRUE(exec.ok());
      auto eid = store.value().AddExecution(0, std::move(exec).value());
      ASSERT_TRUE(eid.ok()) << eid.status().ToString();
    }
    EXPECT_EQ(store.value().lsn(), 4u);
    before = Dump(store.value().repo());
  }  // store closed; only the files remain

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const PersistentRepository& store = reopened.value();
  EXPECT_EQ(store.repo().num_specs(), 1);
  EXPECT_EQ(store.repo().num_executions(), 3);
  EXPECT_EQ(store.lsn(), 4u);
  EXPECT_EQ(store.recovery().records_replayed, 4u);
  EXPECT_FALSE(store.recovery().torn_tail);
  ExpectSameBytes(Dump(store.repo()), before);
  // Recovered entries carry persistence metadata.
  EXPECT_EQ(store.repo().entry(0).persist.lsn, 1u);
  EXPECT_EQ(store.repo().entry(0).persist.locator, "wal:1");
  EXPECT_EQ(store.repo().execution(ExecutionId(2)).persist.lsn, 4u);
}

// Acceptance: a spec plus >= 100 executions survive restart
// byte-for-byte.
TEST(StoreTest, HundredExecutionsSurviveRestartByteForByte) {
  const std::string dir = TestDir("hundred");
  constexpr int kExecutions = 100;
  Snapshotted before;
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    Rng rng(42);
    auto spec = GenerateSpec(WorkloadParams{}, &rng, "persisted");
    ASSERT_TRUE(spec.ok());
    auto sid = store.value().AddSpecification(std::move(spec).value());
    ASSERT_TRUE(sid.ok());
    for (int i = 0; i < kExecutions; ++i) {
      auto exec = GenerateExecution(
          store.value().repo().entry(sid.value()).spec, &rng);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      ASSERT_TRUE(
          store.value()
              .AddExecution(sid.value(), std::move(exec).value())
              .ok());
    }
    ASSERT_TRUE(store.value().Sync().ok());
    before = Dump(store.value().repo());
  }
  ASSERT_EQ(before.execs.size(), static_cast<size_t>(kExecutions));

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().repo().num_executions(), kExecutions);
  EXPECT_EQ(reopened.value().lsn(),
            static_cast<uint64_t>(kExecutions) + 1);
  ExpectSameBytes(Dump(reopened.value().repo()), before);
}

TEST(StoreTest, TornTailMidRecordRecoversValidPrefix) {
  const std::string dir = TestDir("torn_mid");
  int64_t boundary_before_last = 0;
  Snapshotted before_last;
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
    auto e1 = RunDiseaseExecution(store.value().repo().entry(0).spec);
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(store.value().AddExecution(0, std::move(e1).value()).ok());
    before_last = Dump(store.value().repo());
    boundary_before_last = FileSize(WalFile(dir));
    auto e2 = RunDiseaseExecution(store.value().repo().entry(0).spec);
    ASSERT_TRUE(e2.ok());
    ASSERT_TRUE(store.value().AddExecution(0, std::move(e2).value()).ok());
  }
  const int64_t full = FileSize(WalFile(dir));
  ASSERT_GT(full, boundary_before_last);

  // Crash mid-append: cut into the middle of the last record.
  const int64_t cut = boundary_before_last + (full - boundary_before_last) / 2;
  CutFile(WalFile(dir), cut);

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const PersistentRepository& store = reopened.value();
  EXPECT_TRUE(store.recovery().torn_tail);
  EXPECT_EQ(store.recovery().dropped_bytes,
            static_cast<uint64_t>(cut - boundary_before_last));
  EXPECT_FALSE(store.recovery().tail_error.empty());
  EXPECT_EQ(store.repo().num_specs(), 1);
  EXPECT_EQ(store.repo().num_executions(), 1);
  EXPECT_EQ(store.lsn(), 2u);
  ExpectSameBytes(Dump(store.repo()), before_last);
  // Repair truncated the file back to the record boundary.
  EXPECT_EQ(FileSize(WalFile(dir)), boundary_before_last);
}

TEST(StoreTest, TornTailRepairAllowsFurtherAppends) {
  const std::string dir = TestDir("torn_append");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
  }
  // Tear the spec record's tail off.
  CutFile(WalFile(dir), FileSize(WalFile(dir)) - 3);
  {
    auto reopened = PersistentRepository::Open(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE(reopened.value().recovery().torn_tail);
    EXPECT_EQ(reopened.value().repo().num_specs(), 0);
    EXPECT_EQ(reopened.value().lsn(), 0u);
    // The store is usable again: re-add after the repair.
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(reopened.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
  }
  auto again = PersistentRepository::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().recovery().torn_tail);
  EXPECT_EQ(again.value().repo().num_specs(), 1);
}

TEST(StoreTest, CutAtRecordBoundaryIsCleanRecovery) {
  const std::string dir = TestDir("boundary");
  int64_t boundary = 0;
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
    boundary = FileSize(WalFile(dir));
    auto exec = RunDiseaseExecution(store.value().repo().entry(0).spec);
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE(
        store.value().AddExecution(0, std::move(exec).value()).ok());
  }
  // Crash exactly between two appends: the file ends on a boundary.
  CutFile(WalFile(dir), boundary);

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok());
  // No torn tail: the shorter log is simply a valid, older state.
  EXPECT_FALSE(reopened.value().recovery().torn_tail);
  EXPECT_EQ(reopened.value().recovery().dropped_bytes, 0u);
  EXPECT_EQ(reopened.value().repo().num_specs(), 1);
  EXPECT_EQ(reopened.value().repo().num_executions(), 0);
  EXPECT_EQ(reopened.value().lsn(), 1u);
}

// Acceptance: recovery after snapshot + compaction replays only the
// log suffix.
TEST(StoreTest, CompactionReplaysOnlySuffix) {
  const std::string dir = TestDir("compact");
  Snapshotted before;
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value(),
                                      DiseasePolicy())
                    .ok());
    for (int i = 0; i < 10; ++i) {
      auto exec = RunDiseaseExecution(store.value().repo().entry(0).spec);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok());
    }
    ASSERT_TRUE(store.value().Compact().ok());
    EXPECT_EQ(store.value().records_since_snapshot(), 0u);
    // Five more executions land in the fresh log only.
    for (int i = 0; i < 5; ++i) {
      auto exec = RunDiseaseExecution(store.value().repo().entry(0).spec);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok());
    }
    before = Dump(store.value().repo());
  }

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const PersistentRepository& store = reopened.value();
  EXPECT_EQ(store.recovery().snapshot_lsn, 11u);
  EXPECT_EQ(store.recovery().records_replayed, 5u);
  EXPECT_EQ(store.recovery().records_skipped, 0u);
  EXPECT_EQ(store.repo().num_executions(), 15);
  EXPECT_EQ(store.lsn(), 16u);
  ExpectSameBytes(Dump(store.repo()), before);
  // Snapshot-recovered entries carry full metadata: the covering
  // snapshot's LSN, a payload checksum, and a snapshot locator.
  EXPECT_EQ(store.repo().entry(0).persist.locator, "snapshot:11");
  EXPECT_EQ(store.repo().entry(0).persist.lsn, 11u);
  EXPECT_NE(store.repo().entry(0).persist.payload_crc, 0u);
  EXPECT_GT(store.repo().entry(0).persist.payload_bytes, 0u);
  EXPECT_EQ(store.repo().execution(ExecutionId(14)).persist.locator,
            "wal:16");
  EXPECT_EQ(store.repo().execution(ExecutionId(14)).persist.lsn, 16u);
}

TEST(StoreTest, QuoteEdgedValuesSurviveRestart) {
  // Data values that begin and end with a double quote stress the
  // text-payload framing (regression: a spurious unquoting pass used
  // to strip them during replay).
  const std::string dir = TestDir("quote_edged");
  std::string stored_value;
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
    ValueMap inputs;
    for (const auto& [label, value] : DiseaseInputs()) {
      inputs[label] = "\"" + value + "\"";
    }
    FunctionRegistry fns = BuildDiseaseFunctions();
    auto exec =
        Execute(store.value().repo().entry(0).spec, fns, inputs);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto item = exec.value().FindItemByLabel("SNPs");
    ASSERT_TRUE(item.ok());
    stored_value = exec.value().item(item.value()).value;
    ASSERT_EQ(stored_value.front(), '"');
    ASSERT_EQ(stored_value.back(), '"');
    ASSERT_TRUE(
        store.value().AddExecution(0, std::move(exec).value()).ok());
  }
  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Execution& exec =
      reopened.value().repo().execution(ExecutionId(0)).exec;
  auto item = exec.FindItemByLabel("SNPs");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(exec.item(item.value()).value, stored_value);
}

TEST(StoreTest, EmptyInputValuesSurviveRestart) {
  // An empty item value serializes as `value=""` — it must replay
  // (regression: the field parser used to reject empty values, which
  // would have made the store unopenable after an acked append).
  const std::string dir = TestDir("empty_values");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
    ValueMap inputs = DiseaseInputs();
    inputs["SNPs"] = "";
    FunctionRegistry fns = BuildDiseaseFunctions();
    auto exec =
        Execute(store.value().repo().entry(0).spec, fns, inputs);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto eid = store.value().AddExecution(0, std::move(exec).value());
    ASSERT_TRUE(eid.ok()) << eid.status().ToString();
  }
  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Execution& exec =
      reopened.value().repo().execution(ExecutionId(0)).exec;
  auto item = exec.FindItemByLabel("SNPs");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(exec.item(item.value()).value, "");
}

/// A one-workflow spec whose edge label embeds ';' (the text format's
/// list separator).
Result<Specification> SemicolonSpec() {
  SpecBuilder builder("semi");
  WorkflowId w = builder.AddWorkflow("W1", "top", 0);
  EXPECT_TRUE(builder.SetRoot(w).ok());
  ModuleId in = builder.AddInput(w, "I");
  ModuleId m1 = builder.AddModule(w, "M1", "Work", {});
  ModuleId out = builder.AddOutput(w, "O");
  EXPECT_TRUE(builder.Connect(in, m1, {"age;zip"}).ok());
  EXPECT_TRUE(builder.Connect(m1, out, {"result"}).ok());
  return std::move(builder).Build();
}

TEST(StoreTest, SemicolonLabelSurvivesRestart) {
  // Payloads carry raw string bytes, so a label holding ';' (the list
  // separator of the .paw text format) round-trips verbatim.
  auto spec = SemicolonSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  const std::string dir = TestDir("semicolon_binary");
  auto store = PersistentRepository::Init(dir);
  ASSERT_TRUE(store.ok());
  auto added = store.value().AddSpecification(std::move(spec).value());
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Specification& recovered = reopened.value().repo().entry(0).spec;
  auto m1 = recovered.FindModule("M1");
  ASSERT_TRUE(m1.ok());
  auto in_edges = recovered.InEdges(m1.value());
  ASSERT_EQ(in_edges.size(), 1u);
  EXPECT_EQ(in_edges[0]->labels,
            std::vector<std::string>{"age;zip"});
}

TEST(StoreTest, NewlineValueSurvivesRestart) {
  // A raw newline inside an item value is a plain byte to the payload
  // codec.
  const std::string dir = TestDir("newline_binary");
  auto store = PersistentRepository::Init(dir);
  ASSERT_TRUE(store.ok());
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(
      store.value().AddSpecification(std::move(spec).value()).ok());
  ValueMap inputs = DiseaseInputs();
  inputs["SNPs"] = "line1\nline2";
  FunctionRegistry fns = BuildDiseaseFunctions();
  auto exec = Execute(store.value().repo().entry(0).spec, fns, inputs);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(
      store.value().AddExecution(0, std::move(exec).value()).ok());

  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Execution& recovered =
      reopened.value().repo().execution(ExecutionId(0)).exec;
  auto item = recovered.FindItemByLabel("SNPs");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(recovered.item(item.value()).value, "line1\nline2");
}

TEST(StoreTest, CrashBetweenSnapshotAndLogSwapSkipsCoveredRecords) {
  const std::string dir = TestDir("snap_crash");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value())
                    .ok());
    for (int i = 0; i < 4; ++i) {
      auto exec = RunDiseaseExecution(store.value().repo().entry(0).spec);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(
          store.value().AddExecution(0, std::move(exec).value()).ok());
    }
    // Simulate the crash window: the snapshot lands on disk but the
    // old log is never swapped out.
    auto written =
        WriteSnapshot(dir, store.value().repo(), store.value().lsn());
    ASSERT_TRUE(written.ok()) << written.status().ToString();
  }

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const PersistentRepository& store = reopened.value();
  EXPECT_EQ(store.recovery().snapshot_lsn, 5u);
  EXPECT_EQ(store.recovery().records_skipped, 5u);
  EXPECT_EQ(store.recovery().records_replayed, 0u);
  EXPECT_EQ(store.repo().num_specs(), 1);
  EXPECT_EQ(store.repo().num_executions(), 4);
  EXPECT_EQ(store.lsn(), 5u);
}

TEST(StoreTest, AutoCompactionTriggersAndKeepsOnlyNewestSnapshot) {
  const std::string dir = TestDir("auto_compact");
  StoreOptions options;
  options.snapshot_every = 4;
  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(
      store.value().AddSpecification(std::move(spec).value()).ok());
  for (int i = 0; i < 9; ++i) {
    auto exec = RunDiseaseExecution(store.value().repo().entry(0).spec);
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE(
        store.value().AddExecution(0, std::move(exec).value()).ok());
  }
  // 10 records with a threshold of 4: compactions fired and at most
  // one snapshot file remains.
  auto latest = FindLatestSnapshot(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_GE(latest.value().lsn, 4u);
  int snapshot_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("snapshot-", 0) == 0) {
      ++snapshot_files;
    }
  }
  EXPECT_EQ(snapshot_files, 1);
  EXPECT_LT(store.value().records_since_snapshot(),
            options.snapshot_every);
}

TEST(StoreTest, RejectsForeignExecutionWithoutLogging) {
  const std::string dir = TestDir("foreign");
  auto store = PersistentRepository::Init(dir);
  ASSERT_TRUE(store.ok());
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(
      store.value().AddSpecification(std::move(spec).value()).ok());
  // An execution built against a *different* Specification object.
  auto other = BuildDiseaseSpec();
  ASSERT_TRUE(other.ok());
  auto exec = RunDiseaseExecution(other.value());
  ASSERT_TRUE(exec.ok());
  const uint64_t lsn_before = store.value().lsn();
  EXPECT_FALSE(
      store.value().AddExecution(0, std::move(exec).value()).ok());
  EXPECT_FALSE(store.value().AddExecution(7, Execution(other.value())).ok());
  // Rejected operations must not grow the log.
  EXPECT_EQ(store.value().lsn(), lsn_before);
}

// Satellite edge case: compacting a store that has never seen a write
// must leave it reopenable (snapshot at LSN 0, empty log).
TEST(StoreTest, CompactOnEmptyStoreIsReopenable) {
  const std::string dir = TestDir("compact_empty");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Compact().ok());
    ASSERT_TRUE(store.value().Compact().ok());  // idempotent
    EXPECT_EQ(store.value().records_since_snapshot(), 0u);
  }
  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().repo().num_specs(), 0);
  EXPECT_EQ(reopened.value().lsn(), 0u);
  // Still writable afterwards.
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(
      reopened.value().AddSpecification(std::move(spec).value()).ok());
}

// Satellite edge case: a crash between a snapshot's temp write and its
// rename leaves `snapshot-<lsn>.paws.tmp` behind. It must never be
// picked up as a snapshot, and Open reclaims it.
TEST(StoreTest, StaleSnapshotTempFileIsIgnoredAndReclaimed) {
  const std::string dir = TestDir("stale_tmp");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(
        store.value().AddSpecification(std::move(spec).value()).ok());
    ASSERT_TRUE(store.value().Sync().ok());
  }
  // Simulate the crash artifact: a half-written snapshot at a *higher*
  // LSN than anything durable, plus junk bytes inside.
  const std::string tmp =
      dir + "/" + SnapshotFileName(999) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "half-written snapshot bytes";
  }
  ASSERT_TRUE(PathExists(tmp));

  auto reopened = PersistentRepository::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The store recovered from the WAL, not the junk.
  EXPECT_EQ(reopened.value().repo().num_specs(), 1);
  EXPECT_EQ(reopened.value().recovery().snapshot_lsn, 0u);
  EXPECT_EQ(reopened.value().recovery().records_replayed, 1u);
  // And the leftover was reclaimed.
  EXPECT_FALSE(PathExists(tmp));
  // Compaction still lands on the correct LSN afterwards.
  ASSERT_TRUE(reopened.value().Compact().ok());
  auto latest = FindLatestSnapshot(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().lsn, 1u);
}

// The decoder rejects spec ids that overflow int32 (they could only
// appear via corruption that slipped past the CRC, or a buggy writer).
TEST(StoreFuzzTest, ExecutionPayloadSpecIdOverflowRejected) {
  std::string payload;
  PutVarint32(&payload, 0xFFFFFFFFu);  // > INT32_MAX
  EXPECT_TRUE(DecodeExecutionSpecId(payload).status().IsInvalidArgument());
}

// A store written by the retired v1 text codec carries "pawstore 1".
// Opening it is a clear FailedPrecondition that leaves every byte of
// the directory as it was.
TEST(StoreTest, OpenRefusesV1MarkerUntouched) {
  const std::string dir = TestDir("v1_marker");
  {
    auto store = PersistentRepository::Init(dir);
    ASSERT_TRUE(store.ok());
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(
        store.value().AddSpecification(std::move(spec).value()).ok());
    ASSERT_TRUE(store.value().Sync().ok());
  }
  ASSERT_TRUE(AtomicWriteFile(dir + "/PAWSTORE", "pawstore 1\n").ok());
  const auto before = DirImage(dir);

  auto opened = PersistentRepository::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find("pawstore 2"), std::string::npos)
      << opened.status().ToString();
  EXPECT_EQ(DirImage(dir), before);
}

TEST(StoreTest, WalRecordsCarryMonotonicLsns) {
  const std::string dir = TestDir("wal_lsn");
  auto store = PersistentRepository::Init(dir);
  ASSERT_TRUE(store.ok());
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(
      store.value().AddSpecification(std::move(spec).value()).ok());
  ASSERT_TRUE(store.value().Compact().ok());
  auto exec = RunDiseaseExecution(store.value().repo().entry(0).spec);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(
      store.value().AddExecution(0, std::move(exec).value()).ok());
  // After compaction at LSN 1, the next record is LSN 2 in a log whose
  // base is 1.
  WalReplay replay;
  auto wal = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(replay.base_lsn, 1u);
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(wal.value().last_lsn(), 2u);
}

}  // namespace
}  // namespace paw
