// E10: persistent store costs — append throughput, recovery time as a
// function of log length, snapshot + compaction effect, sharded
// recovery, and concurrent ingest through the group-commit WAL +
// per-shard writer queues (E10f).
//
// Expected shape: appends are cheap and flat (buffered writes; fsync
// dominates when enabled); recovery time grows linearly with the WAL
// suffix length; and with durability on, N concurrent appenders
// share one fsync per commit group instead of paying one each.
//
// Every experiment also lands in BENCH_store.json (in the working
// directory, or $BENCH_JSON) as machine-readable per-experiment
// metrics so CI can track the perf trajectory. `--smoke` runs scaled-
// down tables only (no google-benchmark micro benches).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/metrics.h"
#include "src/common/timer.h"
#include "src/provenance/executor.h"
#include "src/repo/disease.h"
#include "src/store/persistent_repository.h"
#include "src/store/record.h"
#include "src/store/sharded_repository.h"
#include "src/store/wal.h"
#include "src/workflow/builder.h"

namespace {

using namespace paw;

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("paw_bench_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Total bytes across a store's WAL segments.
double WalBytes(const std::string& dir) {
  auto segments = ListWalSegments(dir);
  if (!segments.ok()) return 0;
  double total = 0;
  for (const WalSegmentFile& segment : segments.value()) {
    std::error_code ec;
    const auto size = fs::file_size(segment.path, ec);
    if (!ec) total += static_cast<double>(size);
  }
  return total;
}

/// Collects one flat JSON object per experiment row and writes the
/// BENCH_store.json artifact consumed by tools/check.sh.
class BenchJson {
 public:
  class Row {
   public:
    explicit Row(std::string experiment) {
      json_ = "{\"experiment\":\"" + experiment + "\"";
    }
    Row& Str(const char* key, const std::string& value) {
      json_ += std::string(",\"") + key + "\":\"" + value + "\"";
      return *this;
    }
    Row& Num(const char* key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      json_ += std::string(",\"") + key + "\":" + buf;
      return *this;
    }
    std::string Finish() const { return json_ + "}"; }

   private:
    std::string json_;
  };

  void Add(const Row& row) { rows_.push_back(row.Finish()); }

  void Write(const std::string& path) const {
    std::string out = "{\"bench\":\"store\",\"experiments\":[\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += "  " + rows_[i] + (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out += "]}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu experiment rows)\n", path.c_str(),
                rows_.size());
  }

 private:
  std::vector<std::string> rows_;
};

/// A store seeded with the disease spec; returns the spec id.
int SeedSpec(PersistentRepository* store) {
  auto spec = BuildDiseaseSpec();
  auto id = store->AddSpecification(std::move(spec).value(),
                                    DiseasePolicy());
  return id.value();
}

Execution MakeExecution(const PersistentRepository& store, int spec_id) {
  return RunDiseaseExecution(store.repo().entry(spec_id).spec).value();
}

void TableAppendThroughput(int scale, BenchJson* json) {
  std::printf(
      "=== E10a: WAL append throughput (disease executions) ===\n"
      "%-8s %-8s %-10s %-12s %-12s %-12s\n",
      "sync", "verify", "records", "total-MB", "records/s", "MB/s");
  for (int mode = 0; mode < 3; ++mode) {
    const bool sync = mode == 2;
    const bool verify = mode != 1;
    const int records = (sync ? 200 : 5000) / scale;
    const std::string dir = FreshDir("append_" + std::to_string(mode));
    StoreOptions options;
    options.sync_each_append = sync;
    options.verify_payloads = verify;
    auto store = PersistentRepository::Init(dir, options);
    if (!store.ok()) continue;
    int spec_id = SeedSpec(&store.value());
    Timer timer;
    for (int i = 0; i < records; ++i) {
      store.value()
          .AddExecution(spec_id, MakeExecution(store.value(), spec_id))
          .value();
    }
    store.value().Sync();
    const double secs = timer.ElapsedMicros() / 1e6;
    const double mb = WalBytes(dir) / 1e6;
    std::printf("%-8s %-8s %-10d %-12.2f %-12.0f %-12.1f\n",
                sync ? "yes" : "no", verify ? "yes" : "no", records, mb,
                records / secs, mb / secs);
    json->Add(BenchJson::Row("e10a")
                  .Str("sync", sync ? "each" : "batch")
                  .Str("verify", verify ? "on" : "off")
                  .Num("records", records)
                  .Num("ops_per_sec", records / secs)
                  .Num("mb_per_sec", mb / secs));
    fs::remove_all(dir);
  }
  std::printf("\n");
}

void TableRecoveryVsLogLength(int scale, BenchJson* json) {
  std::printf(
      "=== E10b: recovery time vs WAL length ===\n"
      "%-10s %-12s %-12s %-14s\n",
      "records", "wal-KB", "open-ms", "ms/record");
  for (int base : {100, 500, 2000}) {
    const int records = base / scale;
    const std::string dir =
        FreshDir("recovery_" + std::to_string(records));
    {
      auto store = PersistentRepository::Init(dir);
      int spec_id = SeedSpec(&store.value());
      for (int i = 0; i < records; ++i) {
        store.value()
            .AddExecution(spec_id, MakeExecution(store.value(), spec_id))
            .value();
      }
      store.value().Sync();
    }
    const double wal_kb = WalBytes(dir) / 1e3;
    Timer timer;
    auto reopened = PersistentRepository::Open(dir);
    const double ms = timer.ElapsedMillis();
    if (!reopened.ok()) continue;
    std::printf("%-10d %-12.1f %-12.2f %-14.4f\n", records, wal_kb, ms,
                ms / records);
    json->Add(BenchJson::Row("e10b")
                  .Num("records", records)
                  .Num("open_ms", ms)
                  .Num("ms_per_record", ms / records));
    fs::remove_all(dir);
  }
  std::printf("\n");
}

void TableSnapshotEffect(int scale, BenchJson* json) {
  const int records = 1000 / scale;
  std::printf(
      "=== E10c: snapshot + compaction effect (%d executions) ===\n"
      "%-14s %-14s %-12s %-14s\n",
      records, "state", "snapshot-KB", "wal-KB", "open-ms");
  const std::string dir = FreshDir("snapshot");
  {
    auto store = PersistentRepository::Init(dir);
    int spec_id = SeedSpec(&store.value());
    for (int i = 0; i < records; ++i) {
      store.value()
          .AddExecution(spec_id, MakeExecution(store.value(), spec_id))
          .value();
    }
    store.value().Sync();
  }
  auto wal_kb = [&] { return WalBytes(dir) / 1e3; };
  {
    Timer timer;
    auto reopened = PersistentRepository::Open(dir);
    const double ms = timer.ElapsedMillis();
    std::printf("%-14s %-14s %-12.1f %-14.2f\n", "log-only", "-",
                wal_kb(), ms);
    json->Add(BenchJson::Row("e10c")
                  .Str("state", "log-only")
                  .Num("records", records)
                  .Num("open_ms", ms)
                  .Num("ms_per_record", ms / records));
    reopened.value().Compact();
  }
  double snapshot_kb = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) {
      snapshot_kb = static_cast<double>(entry.file_size()) / 1e3;
    }
  }
  {
    Timer timer;
    auto reopened = PersistentRepository::Open(dir);
    const double ms = timer.ElapsedMillis();
    std::printf("%-14s %-14.1f %-12.1f %-14.2f\n", "compacted",
                snapshot_kb, wal_kb(), ms);
    json->Add(BenchJson::Row("e10c")
                  .Str("state", "compacted")
                  .Num("records", records)
                  .Num("open_ms", ms)
                  .Num("ms_per_record", ms / records));
  }
  fs::remove_all(dir);
  std::printf("\n");
}

/// A minimal one-workflow spec so the 10k-record logs ingest and
/// replay quickly; recovery cost is then dominated by per-record
/// framing + decode, the component sharding attacks.
Specification MakeBenchSpec(const std::string& name) {
  SpecBuilder b(name);
  WorkflowId w = b.AddWorkflow("W1", "top", 0);
  (void)b.SetRoot(w);
  ModuleId in = b.AddInput(w);
  ModuleId m = b.AddModule(w, "M1", "Work");
  ModuleId out = b.AddOutput(w);
  (void)b.Connect(in, m, {"x"});
  (void)b.Connect(m, out, {"y"});
  return std::move(b).Build().value();
}

/// Fills `dir` (single-directory store) with `kSpecs` bench specs and
/// `records` executions round-robin.
void FillSingleStore(const std::string& dir, StoreOptions options,
                     int num_specs, int records) {
  FunctionRegistry fns;
  auto store = PersistentRepository::Init(dir, options);
  for (int i = 0; i < num_specs; ++i) {
    store.value()
        .AddSpecification(MakeBenchSpec("bench" + std::to_string(i)))
        .value();
  }
  for (int i = 0; i < records; ++i) {
    const int sid = i % num_specs;
    std::string value = "v";
    value += std::to_string(i);
    auto exec =
        Execute(store.value().repo().entry(sid).spec, fns, {{"x", value}});
    store.value().AddExecution(sid, std::move(exec).value()).value();
  }
  store.value().Sync();
}

// E10d acceptance: recovery of a >= 10k-record log, sharded 4 ways and
// recovered with 4 threads, versus the equivalent single-directory
// store. Speedup scales with available cores (shards recover
// independently); `ShardedRepository::Open` clamps its recovery fan-out
// to `hardware_concurrency`, so on a single-core host the threads=4 row
// degenerates to threads=1 instead of oversubscribing. Measured at two
// scales: the small run exposes the per-shard constant cost (manifest +
// lock + snapshot per shard), the 10x run is the design scale where
// sharding is supposed to pay off.
void TableShardedRecoveryAt(int records, BenchJson* json) {
  constexpr int kShards = 4;
  constexpr int kSpecs = 8;
  std::printf(
      "=== E10d: sharded vs single recovery (%d specs, %d records) ===\n"
      "%-20s %-10s %-10s %-12s %-10s\n",
      kSpecs, records, "layout", "shards", "threads", "open-ms",
      "speedup");
  StoreOptions options;
  options.verify_payloads = false;  // ingest path; inputs are known-good

  FunctionRegistry fns;

  // Single-directory baseline.
  const std::string single_dir = FreshDir("e10d_single");
  FillSingleStore(single_dir, options, kSpecs, records);
  // Time Open only (destruction excluded), the same span the sharded
  // rows measure.
  double single_ms = 0;
  {
    Timer timer;
    auto reopened = PersistentRepository::Open(single_dir, options);
    single_ms = timer.ElapsedMillis();
    if (!reopened.ok()) {
      std::printf("E10d single open failed: %s\n",
                  reopened.status().ToString().c_str());
      return;
    }
  }
  std::printf("%-20s %-10d %-10d %-12.1f %-10s\n", "single", 1, 1,
              single_ms, "1.00x");
  json->Add(BenchJson::Row("e10d")
                .Str("layout", "single")
                .Num("threads", 1)
                .Num("records", records)
                .Num("open_ms", single_ms)
                .Num("ms_per_record", single_ms / records));

  // Sharded store with identical contents.
  const std::string sharded_dir = FreshDir("e10d_sharded");
  {
    auto store = ShardedRepository::Init(sharded_dir, kShards, options);
    std::vector<ShardedRepository::SpecRef> refs;
    for (int i = 0; i < kSpecs; ++i) {
      refs.push_back(store.value()
                         .AddSpecification(
                             MakeBenchSpec("bench" + std::to_string(i)))
                         .value());
    }
    for (int i = 0; i < records; ++i) {
      const auto& ref = refs[static_cast<size_t>(i % kSpecs)];
      std::string value = "v";
      value += std::to_string(i);
      auto exec = Execute(
          store.value().shard(ref.shard).repo().entry(ref.id).spec, fns,
          {{"x", value}});
      store.value().AddExecution(ref, std::move(exec).value()).value();
    }
    store.value().Sync();
  }
  for (int threads : {1, kShards}) {
    Timer timer;
    auto reopened = ShardedRepository::Open(sharded_dir, options, threads);
    const double ms = timer.ElapsedMillis();
    if (!reopened.ok()) {
      std::printf("E10d sharded open (threads=%d) failed: %s\n", threads,
                  reopened.status().ToString().c_str());
      continue;
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", single_ms / ms);
    std::printf("%-20s %-10d %-10d %-12.1f %-10s\n", "sharded", kShards,
                threads, ms, speedup);
    json->Add(BenchJson::Row("e10d")
                  .Str("layout", "sharded")
                  .Num("threads", threads)
                  .Num("records", records)
                  .Num("open_ms", ms)
                  .Num("ms_per_record", ms / records)
                  .Num("speedup_vs_single", single_ms / ms));
  }
  fs::remove_all(single_dir);
  fs::remove_all(sharded_dir);
  std::printf("\n");
}

void TableShardedRecovery(int scale, BenchJson* json) {
  // The 0.5x "regression" originally reported for E10d was measured at
  // the small scale only; the 10x row shows the crossover (per-shard
  // constant cost amortizes away and the parallel replay wins when
  // cores are available).
  TableShardedRecoveryAt(10000 / scale, json);
  TableShardedRecoveryAt(100000 / scale, json);
}

// E10f acceptance: concurrent ingest. Two mechanisms are measured:
//
//   wal rows:   T caller threads append raw 1 KB records to ONE
//               group-commit WAL with sync_each_append — concurrent
//               appenders share a single fsync per commit group, so
//               durable throughput scales with callers even on one
//               core (fsync time is I/O wait, not CPU).
//   store rows: the E10d workload ingested into a single-directory
//               store (1 caller thread, the old code path) versus a
//               4-shard store with writer_threads=4 draining per-shard
//               queues fed by AddExecutionAsync. With sync=each the
//               queue drain group-commits durability (one fsync per
//               drained batch).
void TableConcurrentIngest(int scale, BenchJson* json) {
  std::printf("=== E10f: concurrent ingest ===\n");

  // ---- Group-commit WAL, durable appends, 1 vs 4 caller threads ----
  std::printf("%-28s %-10s %-10s %-12s %-10s\n", "mode", "threads",
              "records", "ops/s", "speedup");
  const int wal_records = 800 / scale * 4;
  const std::string payload(1024, 'p');
  double wal_single_ops = 0;
  const uint64_t stage_bytes_before =
      MetricsRegistry::Global()
          .Snapshot()
          .SumCounters("paw_wal_frame_stage_copy_bytes_total");
  for (int threads : {1, 4}) {
    const std::string dir = FreshDir("e10f_wal");
    WalOptions wal_options;
    wal_options.sync_each_append = true;
    auto wal = WriteAheadLog::Create(dir, 0, wal_options);
    const int per_thread = wal_records / threads;
    Timer timer;
    std::vector<std::thread> callers;
    for (int t = 0; t < threads; ++t) {
      callers.emplace_back([&wal, per_thread, &payload] {
        for (int i = 0; i < per_thread; ++i) {
          wal.value().Append(RecordType::kExecutionV2, payload).value();
        }
      });
    }
    for (auto& c : callers) c.join();
    const double secs = timer.ElapsedMicros() / 1e6;
    const double ops = wal_records / secs;
    if (threads == 1) wal_single_ops = ops;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  ops / wal_single_ops);
    std::printf("%-28s %-10d %-10d %-12.0f %-10s\n",
                "wal sync-each (group)", threads, wal_records, ops,
                speedup);
    json->Add(BenchJson::Row("e10f")
                  .Str("mode", "wal-group-commit-sync")
                  .Num("threads", threads)
                  .Num("records", wal_records)
                  .Num("ops_per_sec", ops)
                  .Num("speedup_vs_single", ops / wal_single_ops));
    fs::remove_all(dir);
  }

  // ---- Frame-stage copy cost under the group-commit mutex ----
  // The carried-over question: writer-queue ops are single-allocation,
  // so the remaining per-append cost is `pending += frame` while
  // holding the WAL mutex. The counter says how many bytes that copy
  // moved; a replayed copy loop prices them, bounding the fraction of
  // the commit path the staging copy can possibly account for.
  {
    const uint64_t staged_bytes =
        MetricsRegistry::Global()
            .Snapshot()
            .SumCounters("paw_wal_frame_stage_copy_bytes_total") -
        stage_bytes_before;
    const size_t frame_bytes =
        staged_bytes / static_cast<size_t>(2 * wal_records);
    const std::string frame(frame_bytes > 0 ? frame_bytes : 1, 'f');
    std::string pending;
    Timer copy_timer;
    for (int i = 0; i < 2 * wal_records; ++i) {
      if (pending.size() > (4u << 20)) pending.clear();
      pending += frame;
    }
    benchmark::DoNotOptimize(pending);
    const double copy_secs = copy_timer.ElapsedMicros() / 1e6;
    const double ns_per_append =
        copy_secs * 1e9 / static_cast<double>(2 * wal_records);
    std::printf(
        "wal frame-stage copy: %.1f MiB staged under the group-commit "
        "mutex (%d appends, %zu B/frame); replayed copy cost ~%.0f "
        "ns/append\n",
        static_cast<double>(staged_bytes) / (1u << 20), 2 * wal_records,
        frame_bytes, ns_per_append);
    json->Add(BenchJson::Row("e10f")
                  .Str("mode", "wal-frame-stage-copy")
                  .Num("staged_bytes", static_cast<double>(staged_bytes))
                  .Num("appends", 2 * wal_records)
                  .Num("copy_ns_per_append", ns_per_append));
  }

  // ---- Store-level ingest: single-dir caller thread vs sharded
  //      writer queues, buffered and durable variants ----
  constexpr int kShards = 4;
  constexpr int kSpecs = 8;
  FunctionRegistry fns;
  for (const bool durable : {false, true}) {
    const int records = (durable ? 2000 : 10000) / scale;
    StoreOptions options;
    options.verify_payloads = false;
    options.sync_each_append = durable;

    // Baseline: one caller appending synchronously to one store.
    double single_ops = 0;
    {
      const std::string dir = FreshDir("e10f_single");
      auto store = PersistentRepository::Init(dir, options);
      for (int i = 0; i < kSpecs; ++i) {
        store.value()
            .AddSpecification(MakeBenchSpec("bench" + std::to_string(i)))
            .value();
      }
      std::vector<Execution> execs;
      execs.reserve(static_cast<size_t>(records));
      for (int i = 0; i < records; ++i) {
        execs.push_back(
            Execute(store.value().repo().entry(i % kSpecs).spec, fns,
                    {{"x", "v" + std::to_string(i)}})
                .value());
      }
      Timer timer;
      for (int i = 0; i < records; ++i) {
        store.value()
            .AddExecution(i % kSpecs, std::move(execs[static_cast<size_t>(i)]))
            .value();
      }
      store.value().Sync();
      single_ops = records / (timer.ElapsedMicros() / 1e6);
      fs::remove_all(dir);
    }
    std::printf("%-28s %-10d %-10d %-12.0f %-10s\n",
                durable ? "store single sync-each" : "store single",
                1, records, single_ops, "1.00x");
    json->Add(BenchJson::Row("e10f")
                  .Str("mode", durable ? "store-single-sync"
                                       : "store-single")
                  .Num("threads", 1)
                  .Num("records", records)
                  .Num("ops_per_sec", single_ops)
                  .Num("speedup_vs_single", 1.0));

    // Sharded writer queues fed asynchronously by one caller.
    {
      const std::string dir = FreshDir("e10f_sharded");
      StoreOptions sharded_options = options;
      sharded_options.writer_threads = kShards;
      auto store =
          ShardedRepository::Init(dir, kShards, sharded_options);
      std::vector<ShardedRepository::SpecRef> refs;
      for (int i = 0; i < kSpecs; ++i) {
        refs.push_back(store.value()
                           .AddSpecification(MakeBenchSpec(
                               "bench" + std::to_string(i)))
                           .value());
      }
      std::vector<Execution> execs;
      execs.reserve(static_cast<size_t>(records));
      for (int i = 0; i < records; ++i) {
        const auto& ref = refs[static_cast<size_t>(i % kSpecs)];
        execs.push_back(
            Execute(store.value().shard(ref.shard).repo().entry(ref.id).spec,
                    fns, {{"x", "v" + std::to_string(i)}})
                .value());
      }
      Timer timer;
      std::vector<StoreFuture<ExecutionId>> futures;
      futures.reserve(static_cast<size_t>(records));
      for (int i = 0; i < records; ++i) {
        futures.push_back(store.value().AddExecutionAsync(
            refs[static_cast<size_t>(i % kSpecs)],
            std::move(execs[static_cast<size_t>(i)])));
      }
      store.value().Drain();
      const Status synced = store.value().Sync();
      const double ops = records / (timer.ElapsedMicros() / 1e6);
      if (!synced.ok()) {
        std::printf("E10f sharded sync failed: %s\n",
                    synced.ToString().c_str());
      }
      int failed = 0;
      for (auto& f : futures) {
        if (!f.get().ok()) ++failed;
      }
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", ops / single_ops);
      std::printf("%-28s %-10d %-10d %-12.0f %-10s%s\n",
                  durable ? "store sharded-queues sync"
                          : "store sharded-queues",
                  kShards, records, ops, speedup,
                  failed ? " [FAILURES]" : "");
      json->Add(BenchJson::Row("e10f")
                    .Str("mode", durable ? "store-sharded-queues-sync"
                                         : "store-sharded-queues")
                    .Num("threads", kShards)
                    .Num("records", records)
                    .Num("ops_per_sec", ops)
                    .Num("speedup_vs_single", ops / single_ops));
      fs::remove_all(dir);
    }
  }
  std::printf("\n");
}

// E10g acceptance: ingest must keep flowing while compaction runs.
// Preload a store with `base` disease-spec records (~1 KB payloads, so
// every snapshot rewrite is genuinely expensive), then append more
// with auto-compaction cutting in every `every` records — once with
// inline `Compact()` on the writer (the old behavior: each fold
// freezes ingest for the whole snapshot encode + write) and once with
// `background_compaction` (the cut pins a view and rotates the WAL;
// the snapshot worker folds sealed segments while appends land in the
// fresh active segment — and folds that would overlap coalesce, so
// the writer never queues behind snapshots). Durable (sync-each)
// appends, identical workloads; the per-append latency tail is the
// stall profile — the background p99/max stays at fsync scale while
// the inline tail carries the full snapshot pauses.
void TableBackgroundCompaction(int scale, BenchJson* json) {
  const int base = 10000 / scale;
  const int appends = 2000 / scale;
  const int every = std::max(1, appends / 64);
  std::printf(
      "=== E10g: ingest during compaction, %d-record store + %d appends "
      "(folds every %d) ===\n"
      "%-24s %-10s %-12s %-12s %-12s %-14s %-10s\n",
      base, appends, every, "mode", "records", "ops/s", "p50-us",
      "p99-us", "max-stall-ms", "speedup");
  double inline_ops = 0;
  for (const bool background : {false, true}) {
    const std::string dir =
        FreshDir(background ? "e10g_background" : "e10g_inline");
    StoreOptions options;
    options.verify_payloads = false;
    int spec_id = 0;
    {
      auto fill = PersistentRepository::Init(dir, options);
      spec_id = SeedSpec(&fill.value());
      for (int i = 0; i < base; ++i) {
        fill.value()
            .AddExecution(spec_id, MakeExecution(fill.value(), spec_id))
            .value();
      }
      fill.value().Sync();
    }
    options.sync_each_append = true;
    options.snapshot_every = static_cast<uint64_t>(every);
    options.background_compaction = background;
    auto store = PersistentRepository::Open(dir, options);
    if (!store.ok()) {
      std::printf("E10g open failed: %s\n",
                  store.status().ToString().c_str());
      continue;
    }
    // Pre-build the executions: the timed loop measures appends (and
    // their stalls), not provenance generation.
    std::vector<Execution> execs;
    execs.reserve(static_cast<size_t>(appends));
    for (int i = 0; i < appends; ++i) {
      execs.push_back(MakeExecution(store.value(), spec_id));
    }
    std::vector<double> latencies_us;
    latencies_us.reserve(static_cast<size_t>(appends));
    Timer total;
    for (int i = 0; i < appends; ++i) {
      Timer one;
      store.value()
          .AddExecution(spec_id, std::move(execs[static_cast<size_t>(i)]))
          .value();
      latencies_us.push_back(static_cast<double>(one.ElapsedMicros()));
    }
    store.value().Sync();
    const double secs = total.ElapsedMicros() / 1e6;
    // The worker finishes outside the timed window — ingest never
    // waited for it; the join only checks it succeeded.
    const Status folds = store.value().WaitForCompaction();
    if (!folds.ok()) {
      std::printf("E10g compaction failed: %s\n",
                  folds.ToString().c_str());
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    const double ops = appends / secs;
    const double p50 = latencies_us[latencies_us.size() / 2];
    const double p99 = latencies_us[latencies_us.size() * 99 / 100];
    const double max_ms = latencies_us.back() / 1e3;
    if (!background) inline_ops = ops;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  inline_ops > 0 ? ops / inline_ops : 0.0);
    std::printf("%-24s %-10d %-12.0f %-12.1f %-12.1f %-14.2f %-10s\n",
                background ? "background CompactAsync" : "inline Compact",
                appends, ops, p50, p99, max_ms, speedup);
    json->Add(BenchJson::Row("e10g")
                  .Str("mode", background ? "background" : "inline")
                  .Num("base_records", base)
                  .Num("appends", appends)
                  .Num("snapshot_every", every)
                  .Num("ops_per_sec", ops)
                  .Num("p50_us", p50)
                  .Num("p99_us", p99)
                  .Num("max_stall_ms", max_ms)
                  .Num("speedup_vs_inline",
                       inline_ops > 0 ? ops / inline_ops : 0.0));
    fs::remove_all(dir);
  }
  std::printf("\n");
}

void BM_RecordEncode(benchmark::State& state) {
  const std::string payload(1024, 'p');
  std::string out;
  for (auto _ : state) {
    out.clear();
    AppendRecord(RecordType::kExecutionV2, payload, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_RecordEncode);

void BM_RecordDecode(benchmark::State& state) {
  std::string buf;
  AppendRecord(RecordType::kExecutionV2, std::string(1024, 'p'), &buf);
  for (auto _ : state) {
    RecordReader reader(buf);
    Record record;
    benchmark::DoNotOptimize(reader.Next(&record));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_RecordDecode);

void BM_Crc32(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 16);

void BM_Crc32Bytewise(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Crc32UpdateBytewise(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32Bytewise)->Arg(4096);

void BM_WalAppend(benchmark::State& state) {
  const std::string dir = FreshDir("bm_wal_append");
  auto wal = WriteAheadLog::Create(dir, 0);
  const std::string payload(1024, 'p');
  for (auto _ : state) {
    wal.value().Append(RecordType::kExecutionV2, payload).value();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend);

void BM_StoreAddExecution(benchmark::State& state) {
  const std::string dir = FreshDir("bm_store_add");
  auto store = PersistentRepository::Init(dir);
  int spec_id = SeedSpec(&store.value());
  for (auto _ : state) {
    state.PauseTiming();
    Execution exec = MakeExecution(store.value(), spec_id);
    state.ResumeTiming();
    store.value().AddExecution(spec_id, std::move(exec)).value();
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_StoreAddExecution)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // Smoke mode (tools/check.sh) scales record counts down 5x and skips
  // the google-benchmark micro benches; the JSON is written either way.
  const int scale = smoke ? 5 : 1;
  BenchJson json;
  TableAppendThroughput(scale, &json);
  TableRecoveryVsLogLength(scale, &json);
  TableSnapshotEffect(scale, &json);
  TableShardedRecovery(scale, &json);
  TableConcurrentIngest(scale, &json);
  TableBackgroundCompaction(scale, &json);
  const char* json_path = std::getenv("BENCH_JSON");
  json.Write(json_path != nullptr ? json_path : "BENCH_store.json");
  if (smoke) return 0;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
