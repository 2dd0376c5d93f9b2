// pawctl — command-line front end for the paw library.
//
// Usage:
//   pawctl demo                          write the paper's example spec
//                                        to stdout (text format)
//   pawctl validate <spec.paw>           parse + validate a spec file
//   pawctl show <spec.paw>               print workflows, modules, tau edges
//   pawctl run <spec.paw> [k=v ...]      execute with the given inputs
//                                        (defaults for missing labels),
//                                        print the provenance graph
//   pawctl search <spec.paw> <level> <term> [term ...]
//                                        minimal-view keyword search at an
//                                        access level
//
// Persistent store commands (see tools/README.md, "Store format"). A
// store is a PAWSHARDS manifest plus N shard subdirectories, each a
// "pawstore 2" WAL + snapshot directory:
//   pawctl init <dir> [shards=N]         create an empty store of N shard
//                                        subdirectories (default 1)
//   pawctl open <dir> [threads=N]        recover a store (shards in
//                                        parallel), print its stats
//   pawctl status <dir>                  inspect segment/LSN/manifest
//                                        state from the files alone (no
//                                        recovery, no epoch bump)
//   pawctl ingest <dir> <spec.paw> [runs=N] [threads=N] [sync=each|batch]
//                 [segbytes=N] [every=N] [compact=background|inline]
//                                        add a spec (reused if already
//                                        stored under the same name) and
//                                        run N executions into the store;
//                                        threads>1 drives the sharded
//                                        writer queues, sync=each makes
//                                        every append durable before ack
//                                        (group-committed); segbytes=N
//                                        rotates WAL segments at N bytes,
//                                        every=N auto-compacts each N
//                                        records, compact=background runs
//                                        those folds on the snapshot
//                                        worker while ingest continues
//   pawctl compact <dir> [threads=N] [mode=background|inline]
//                                        snapshot + truncate the log(s);
//                                        mode=background takes the cut
//                                        without blocking appends and
//                                        waits for the snapshot worker
//
// Server commands (see tools/README.md, "pawd server"):
//   pawctl serve <dir> [port=N] [bind=ADDR] [shards=N] [workers=N]
//                [writers=N] [threads=N] [sync=each|batch]
//                [auth=name:level[:group],...] [idle=MS] [admin=N]
//                [viewcache=on|off] [viewcache-mb=N]
//                [follow=HOST:PORT] [follow-principal=NAME]
//                [acks=local|quorum] [quorum-ms=N] [trace-sample=N]
//                                        serve the store over the binary
//                                        wire protocol (pawd); creates the
//                                        store first when <dir> holds none
//                                        (shards=N, default 1). sync=each
//                                        (default) makes every acked write
//                                        durable; auth registers the
//                                        principals AUTH accepts (default
//                                        admin:100); viewcache toggles the
//                                        memoized privacy-view cache (on by
//                                        default, byte budget viewcache-mb
//                                        MiB). follow=HOST:PORT runs a
//                                        read-only follower replicating
//                                        that leader's WAL (authenticating
//                                        as follow-principal, default
//                                        admin); acks=quorum makes a leader
//                                        ack ADD_EXECUTION only after a
//                                        follower confirmed it durable
//                                        (waiting at most quorum-ms,
//                                        default 5000). trace-sample=N
//                                        records every Nth trace in the
//                                        span flight recorder (1 = all;
//                                        slow/error requests always
//                                        record). Runs until SIGINT.
//   pawctl connect <host:port> [user=NAME] [metrics [--raw|--watch=N]]
//                  [trace [--id=HEX|--slow|--errors] [--max=N]]
//                  [audit [--max=N]]
//                  [lineage=SPEC [ordinal=N] [item=N]]
//                                        HELLO + AUTH + STATUS round trip;
//                                        with `metrics`, fetch the METRICS
//                                        snapshot instead and pretty-print
//                                        per-opcode counts, p50/p90/p99
//                                        latencies, and WAL / compaction /
//                                        queue metrics (--raw dumps the
//                                        Prometheus text exposition,
//                                        --watch=N re-polls every N
//                                        seconds and prints changed series
//                                        as deltas/rates); with `trace`,
//                                        fetch the span flight recorder
//                                        (TRACE_DUMP, admin only) and
//                                        render per-trace span trees
//                                        (--slow / --errors keep flagged
//                                        traces, --id=HEX one trace); with
//                                        `audit`, list privacy audit
//                                        events (verdict, principal,
//                                        masked counts); with
//                                        `lineage=SPEC`, run one LINEAGE
//                                        query for run `ordinal`'s item
//                                        `item` rendered through the authed
//                                        principal's privacy view (repeats
//                                        hit the server's view cache)
//   pawctl put <host:port> <spec.paw> [runs=N] [user=NAME] [pipeline=N]
//              [policy=FILE]            remote ingest: store the spec, then
//                                        run N executions through pipelined
//                                        ADD_EXECUTION (window pipeline=N)
//   pawctl query <host:port> <term> [term ...] [user=NAME]
//                                        keyword search as the principal

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/client/paw_client.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/query/keyword_search.h"
#include "src/repo/disease.h"
#include "src/server/server.h"
#include "src/store/lock_file.h"
#include "src/store/persistent_repository.h"
#include "src/store/record.h"
#include "src/store/sharded_repository.h"
#include "src/store/snapshot.h"
#include "src/workflow/hierarchy.h"
#include "src/workflow/serialize.h"
#include "src/workflow/view.h"

using namespace paw;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<Specification> LoadSpec(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseSpecification(buffer.str());
}

int CmdDemo() {
  auto spec = BuildDiseaseSpec();
  if (!spec.ok()) return Fail(spec.status());
  std::fputs(Serialize(spec.value()).c_str(), stdout);
  return 0;
}

int CmdValidate(const char* path) {
  auto spec = LoadSpec(path);
  if (!spec.ok()) return Fail(spec.status());
  std::printf("OK: %s (%d workflows, %d modules)\n",
              spec.value().name().c_str(), spec.value().num_workflows(),
              spec.value().num_modules());
  return 0;
}

int CmdShow(const char* path) {
  auto spec = LoadSpec(path);
  if (!spec.ok()) return Fail(spec.status());
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  std::printf("spec \"%s\"\n", spec.value().name().c_str());
  for (const Workflow& w : spec.value().workflows()) {
    std::printf("%*s%s \"%s\" level=%d\n", 2 * h.Depth(w.id), "",
                w.code.c_str(), w.name.c_str(), w.required_level);
    for (ModuleId mid : w.modules) {
      const Module& m = spec.value().module(mid);
      std::printf("%*s  %-5s %-30s", 2 * h.Depth(w.id), "",
                  m.code.c_str(), m.name.c_str());
      if (m.kind == ModuleKind::kComposite) {
        std::printf(" -> %s",
                    spec.value().workflow(m.expansion).code.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}

// Placeholder bindings "<label><suffix>" for every root-input label.
ValueMap DefaultInputs(const Specification& spec,
                       const std::string& suffix = "") {
  ValueMap inputs;
  for (ModuleId mid : spec.workflow(spec.root()).modules) {
    if (spec.module(mid).kind != ModuleKind::kInput) continue;
    for (const DataflowEdge* e : spec.OutEdges(mid)) {
      for (const std::string& label : e->labels) {
        inputs[label] = "<" + label + suffix + ">";
      }
    }
  }
  return inputs;
}

int CmdRun(const char* path, int argc, char** argv) {
  auto spec = LoadSpec(path);
  if (!spec.ok()) return Fail(spec.status());
  // Inputs: defaults for every root-input label, overridden by k=v args.
  ValueMap inputs = DefaultInputs(spec.value());
  for (int i = 0; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    if (eq == nullptr) {
      std::fprintf(stderr, "error: input must be label=value: %s\n",
                   argv[i]);
      return 1;
    }
    inputs[std::string(argv[i], static_cast<size_t>(eq - argv[i]))] =
        eq + 1;
  }
  FunctionRegistry fns;
  auto exec = Execute(spec.value(), fns, inputs);
  if (!exec.ok()) return Fail(exec.status());
  std::fputs(SerializeExecution(exec.value()).c_str(), stdout);
  return 0;
}

int CmdSearch(const char* path, const char* level_str, int argc,
              char** argv) {
  auto spec = LoadSpec(path);
  if (!spec.ok()) return Fail(spec.status());
  AccessLevel level = std::atoi(level_str);
  std::vector<std::string> terms;
  for (int i = 0; i < argc; ++i) terms.emplace_back(argv[i]);
  ExpansionHierarchy h = ExpansionHierarchy::Build(spec.value());
  auto minimal = MinimalCoveringPrefixes(spec.value(), h, terms, level);
  if (!minimal.ok()) return Fail(minimal.status());
  if (minimal.value().empty()) {
    std::printf("no view at level %d covers the query\n", level);
    return 0;
  }
  for (const Prefix& p : minimal.value()) {
    std::printf("minimal view {");
    for (WorkflowId w : p) {
      std::printf(" %s", spec.value().workflow(w).code.c_str());
    }
    std::printf(" }:\n");
    auto view = ExpandPrefix(spec.value(), h, p);
    if (!view.ok()) return Fail(view.status());
    for (const std::string& term : terms) {
      for (ModuleId m : MatchingModules(spec.value(), view.value(), term)) {
        std::printf("  '%s' matched by %s \"%s\"\n", term.c_str(),
                    spec.value().module(m).code.c_str(),
                    spec.value().module(m).name.c_str());
      }
    }
  }
  return 0;
}

/// Parses a `key=value` string option into `*out`; `*matched` says
/// whether the key was present at all.
bool ParseStrOption(const char* arg, const char* key, std::string* out,
                    bool* matched) {
  const size_t key_len = std::strlen(key);
  *matched = std::strncmp(arg, key, key_len) == 0 && arg[key_len] == '=';
  if (!*matched) return true;
  *out = arg + key_len + 1;
  return true;
}

/// Parses a `key=N` option into `*out`; returns false (with a message)
/// when `arg` has the key but a value outside `[lo, hi]`. `*matched`
/// says whether the key was present at all.
bool ParseIntOption(const char* arg, const char* key, long lo, long hi,
                    long* out, bool* matched) {
  const size_t key_len = std::strlen(key);
  *matched = std::strncmp(arg, key, key_len) == 0 && arg[key_len] == '=';
  if (!*matched) return true;
  char* end = nullptr;
  long parsed = std::strtol(arg + key_len + 1, &end, 10);
  if (end == arg + key_len + 1 || *end != '\0' || parsed < lo ||
      parsed > hi) {
    std::fprintf(stderr, "error: %s must be an integer in [%ld, %ld]: %s\n",
                 key, lo, hi, arg);
    return false;
  }
  *out = parsed;
  return true;
}

void PrintStoreStats(const ShardedRepository& store) {
  const auto& r = store.recovery();
  std::printf("store %s\n", store.dir().c_str());
  std::printf("  shards:      %d\n", store.num_shards());
  std::printf("  epoch:       %llu\n",
              static_cast<unsigned long long>(store.epoch()));
  std::printf("  specs:       %d\n", store.num_specs());
  std::printf("  executions:  %d\n", store.num_executions());
  std::printf("  recovery:    %llu replayed, %llu skipped (%d thread(s))\n",
              static_cast<unsigned long long>(r.records_replayed),
              static_cast<unsigned long long>(r.records_skipped), r.threads);
  if (r.torn_shards > 0) {
    std::printf("  torn tails:  %d shard(s), %llu byte(s) dropped\n",
                r.torn_shards,
                static_cast<unsigned long long>(r.dropped_bytes));
  }
  for (int i = 0; i < store.num_shards(); ++i) {
    const PersistentRepository& shard = store.shard(i);
    std::printf(
        "  %s: %d spec(s), %d execution(s), lsn %llu (global %llu), "
        "%d WAL segment(s)%s\n",
        ShardedRepository::ShardDirName(i).c_str(), shard.repo().num_specs(),
        shard.repo().num_executions(),
        static_cast<unsigned long long>(shard.lsn()),
        static_cast<unsigned long long>(
            ShardedRepository::EpochLsn(store.epoch(), shard.lsn())),
        shard.recovery().wal_segments,
        shard.recovery().torn_tail ? " [torn tail repaired]" : "");
  }
}

int CmdInit(const char* dir, int argc, char** argv) {
  long shards = 1;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    if (!ParseIntOption(argv[i], "shards", 1, ShardedRepository::kMaxShards,
                        &shards, &matched)) {
      return 1;
    }
    if (!matched) {
      std::fprintf(stderr, "error: unknown init option %s\n", argv[i]);
      return 1;
    }
  }
  auto store = ShardedRepository::Init(dir, static_cast<int>(shards));
  if (!store.ok()) return Fail(store.status());
  std::printf("initialized empty store in %s (%ld shard(s))\n", dir, shards);
  return 0;
}

/// Parses the optional `threads=N` argument shared by open/compact.
int ParseThreads(int argc, char** argv, long* threads) {
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    if (!ParseIntOption(argv[i], "threads", 1, 256, threads, &matched)) {
      return 1;
    }
    if (!matched) {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      return 1;
    }
  }
  return 0;
}

int CmdOpen(const char* dir, int argc, char** argv) {
  long threads = 1;
  if (int rc = ParseThreads(argc, argv, &threads); rc != 0) return rc;
  auto store = ShardedRepository::Open(dir, {}, static_cast<int>(threads));
  if (!store.ok()) return Fail(store.status());
  PrintStoreStats(store.value());
  return 0;
}

/// Prints segment/LSN/manifest state of one store directory from the
/// files alone — no recovery, no replay, no manifest mutation, so it
/// is safe to run against a store another process has open (the
/// answer is a snapshot, racing writers may move it).
int PrintDirStatus(const std::string& dir, const char* indent) {
  auto marker = ReadFileToString(dir + "/PAWSTORE");
  if (marker.ok()) {
    std::string m = marker.value();
    while (!m.empty() && m.back() == '\n') m.pop_back();
    std::printf("%sformat:    %s\n", indent, m.c_str());
  }
  auto snapshot = FindLatestSnapshot(dir);
  if (snapshot.ok()) {
    auto bytes = ReadFileToString(snapshot.value().path);
    std::string age;
    struct stat st;
    if (::stat(snapshot.value().path.c_str(), &st) == 0) {
      age = ", age " +
            std::to_string(
                static_cast<long long>(::time(nullptr) - st.st_mtime)) +
            "s";
    }
    std::printf("%ssnapshot:  lsn %llu (%zu bytes%s)\n", indent,
                static_cast<unsigned long long>(snapshot.value().lsn),
                bytes.ok() ? bytes.value().size() : size_t{0}, age.c_str());
  } else {
    std::printf("%ssnapshot:  none\n", indent);
  }
  auto manifest = ReadWalManifest(dir);
  if (manifest.ok()) {
    std::printf("%smanifest:  first=%llu\n", indent,
                static_cast<unsigned long long>(manifest.value()));
  } else {
    std::printf("%smanifest:  %s\n", indent,
                manifest.status().IsNotFound() ? "missing" : "corrupt");
  }
  auto segments = ListWalSegments(dir);
  if (!segments.ok()) return Fail(segments.status());
  uint64_t total_records = 0;
  size_t total_bytes = 0;
  for (size_t i = 0; i < segments.value().size(); ++i) {
    const WalSegmentFile& segment = segments.value()[i];
    // Parse the segment header (base LSN) and count whole records.
    auto contents = ReadFileToString(segment.path);
    if (!contents.ok()) return Fail(contents.status());
    RecordReader reader(contents.value());
    Record record;
    uint64_t base = 0;
    uint64_t records = 0;
    bool header_ok = false;
    if (reader.Next(&record) == ReadOutcome::kRecord &&
        record.type == RecordType::kWalHeader) {
      size_t pos = 0;
      header_ok = GetFixed64(record.payload, &pos, &base);
    }
    while (reader.Next(&record) == ReadOutcome::kRecord) ++records;
    total_records += records;
    total_bytes += contents.value().size();
    std::printf(
        "%swal-%08llu: base %llu, %llu record(s), %zu bytes%s%s%s\n",
        indent, static_cast<unsigned long long>(segment.seq),
        static_cast<unsigned long long>(base),
        static_cast<unsigned long long>(records), contents.value().size(),
        i + 1 == segments.value().size() ? " [active]" : " [sealed]",
        header_ok ? "" : " [bad header]",
        reader.dropped_bytes() > 0 ? " [torn tail]" : "");
  }
  // Disk-metric roll-up: what a monitoring check wants in one line.
  std::printf("%sdisk:      %zu segment(s), %zu WAL bytes, %llu "
              "record(s) past snapshot\n",
              indent, segments.value().size(), total_bytes,
              static_cast<unsigned long long>(total_records));
  return 0;
}

/// Warns when a live process (typically a `pawd`) holds the store-dir
/// lock. Status itself stays read-only-safe, but mutating commands
/// would refuse, and the numbers below are a racing snapshot.
void WarnIfLocked(const char* dir) {
  auto probe = StoreDirLock::Probe(dir);
  if (probe.ok() && probe.value().held) {
    if (probe.value().holder_pid > 0) {
      std::printf(
          "  lock:      HELD by live pid %lld (a pawd or other writer; "
          "read-only snapshot below)\n",
          probe.value().holder_pid);
    } else {
      std::printf("  lock:      HELD by a live process (read-only "
                  "snapshot below)\n");
    }
  }
}

int CmdStatus(const char* dir) {
  auto manifest = ReadShardManifest(dir);
  if (!manifest.ok()) return Fail(manifest.status());
  std::printf("store %s\n", dir);
  WarnIfLocked(dir);
  std::printf("  shards:    %d\n", manifest.value().shards);
  std::printf("  epoch:     %llu\n",
              static_cast<unsigned long long>(manifest.value().epoch));
  for (int i = 0; i < manifest.value().shards; ++i) {
    const std::string shard_dir =
        std::string(dir) + "/" + ShardedRepository::ShardDirName(i);
    std::printf("  %s:\n", ShardedRepository::ShardDirName(i).c_str());
    if (int rc = PrintDirStatus(shard_dir, "    "); rc != 0) return rc;
  }
  return 0;
}

/// Runs `runs` executions of `spec` through `add_exec`. Inputs are
/// varied per run so repeated ingests do not produce identical
/// provenance.
template <typename AddExec>
int RunIngest(const Specification& spec, int runs, AddExec&& add_exec) {
  FunctionRegistry fns;
  for (int i = 0; i < runs; ++i) {
    std::string suffix = "#";
    suffix += std::to_string(i);
    ValueMap inputs = DefaultInputs(spec, suffix);
    auto exec = Execute(spec, fns, inputs);
    if (!exec.ok()) return Fail(exec.status());
    auto eid = add_exec(std::move(exec).value());
    if (!eid.ok()) return Fail(eid.status());
  }
  return 0;
}

int IngestRuns(const char* dir, Specification parsed, int runs,
               long threads, StoreOptions options) {
  // threads > 1 also sizes the writer pool, so appends drain through
  // the per-shard queues instead of blocking the caller thread.
  if (threads > 1) options.writer_threads = static_cast<int>(threads);
  auto store =
      ShardedRepository::Open(dir, options, static_cast<int>(threads));
  if (!store.ok()) return Fail(store.status());
  // Reuse a previously ingested spec of the same name, else store it.
  ShardedRepository::SpecRef ref;
  auto existing = store.value().FindSpec(parsed.name());
  if (existing.ok()) {
    ref = existing.value();
    std::printf("spec \"%s\" already stored as %s id %d\n",
                parsed.name().c_str(),
                ShardedRepository::ShardDirName(ref.shard).c_str(), ref.id);
  } else {
    auto added = store.value().AddSpecification(std::move(parsed));
    if (!added.ok()) return Fail(added.status());
    ref = added.value();
    std::printf("stored spec as %s id %d\n",
                ShardedRepository::ShardDirName(ref.shard).c_str(), ref.id);
  }
  const Specification& spec =
      store.value().shard(ref.shard).repo().entry(ref.id).spec;
  if (threads > 1) {
    // Pipeline through the async writer queues: keep a window of
    // outstanding appends so the drain can batch them (one buffered
    // write + one group fsync per batch under sync=each) while the
    // caller thread generates the next executions. Every future is
    // checked — including the tail drained after the pipeline window
    // closes — so a queued append that fails late (e.g. a poisoned
    // WAL after an I/O error) still turns into a nonzero exit.
    constexpr size_t kMaxWindow = 512;
    FunctionRegistry fns;
    std::deque<StoreFuture<ExecutionId>> window;
    size_t failed = 0;
    Status first_error;
    auto reap_front = [&] {
      Status status = window.front().get().status();
      window.pop_front();
      if (!status.ok()) {
        ++failed;
        if (first_error.ok()) first_error = status;
      }
    };
    for (int i = 0; i < runs && failed == 0; ++i) {
      std::string suffix = "#";
      suffix += std::to_string(i);
      auto exec = Execute(spec, fns, DefaultInputs(spec, suffix));
      if (!exec.ok()) {
        while (!window.empty()) reap_front();
        return Fail(exec.status());
      }
      window.push_back(
          store.value().AddExecutionAsync(ref, std::move(exec).value()));
      if (window.size() >= kMaxWindow) reap_front();
    }
    while (!window.empty()) reap_front();
    if (failed > 0) {
      std::fprintf(
          stderr,
          "error: %zu queued append(s) failed (sticky store error; "
          "first failure: %s)\n",
          failed, first_error.ToString().c_str());
      return 1;
    }
  } else if (int rc = RunIngest(spec, runs, [&](Execution exec) {
               return store.value().AddExecution(ref, std::move(exec));
             });
             rc != 0) {
    return rc;
  }
  auto synced = store.value().Sync();
  if (!synced.ok()) return Fail(synced);
  if (Status s = store.value().WaitForCompaction(); !s.ok()) {
    return Fail(s);
  }
  std::printf(
      "ingested %d execution(s); %s lsn now %llu (epoch %llu, global %llu)\n",
      runs, ShardedRepository::ShardDirName(ref.shard).c_str(),
      static_cast<unsigned long long>(store.value().shard(ref.shard).lsn()),
      static_cast<unsigned long long>(store.value().epoch()),
      static_cast<unsigned long long>(ShardedRepository::EpochLsn(
          store.value().epoch(), store.value().shard(ref.shard).lsn())));
  return 0;
}

int CmdIngest(const char* dir, const char* path, int argc, char** argv) {
  long runs = 1;
  long threads = 1;
  StoreOptions options;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    if (!ParseIntOption(argv[i], "runs", 0, 1000000, &runs, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseIntOption(argv[i], "threads", 1, 256, &threads, &matched)) {
      return 1;
    }
    if (matched) continue;
    std::string sync;
    ParseStrOption(argv[i], "sync", &sync, &matched);
    if (matched) {
      if (sync == "each") {
        options.sync_each_append = true;
      } else if (sync == "batch") {
        options.sync_each_append = false;
      } else {
        std::fprintf(stderr, "error: sync must be each or batch: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    long segbytes = 0;
    if (!ParseIntOption(argv[i], "segbytes", 1, 1L << 30, &segbytes,
                        &matched)) {
      return 1;
    }
    if (matched) {
      options.segment_bytes = static_cast<uint64_t>(segbytes);
      continue;
    }
    long every = 0;
    if (!ParseIntOption(argv[i], "every", 1, 1000000, &every, &matched)) {
      return 1;
    }
    if (matched) {
      options.snapshot_every = static_cast<uint64_t>(every);
      continue;
    }
    std::string compact_mode;
    ParseStrOption(argv[i], "compact", &compact_mode, &matched);
    if (matched) {
      if (compact_mode == "background") {
        options.background_compaction = true;
      } else if (compact_mode == "inline") {
        options.background_compaction = false;
      } else {
        std::fprintf(stderr,
                     "error: compact must be background or inline: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    std::fprintf(stderr, "error: unknown ingest option %s\n", argv[i]);
    return 1;
  }
  auto parsed = LoadSpec(path);
  if (!parsed.ok()) return Fail(parsed.status());
  return IngestRuns(dir, std::move(parsed).value(), static_cast<int>(runs),
                    threads, options);
}

int CmdCompact(const char* dir, int argc, char** argv) {
  long threads = 1;
  bool background = false;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    if (!ParseIntOption(argv[i], "threads", 1, 256, &threads, &matched)) {
      return 1;
    }
    if (matched) continue;
    std::string mode;
    ParseStrOption(argv[i], "mode", &mode, &matched);
    if (matched) {
      if (mode == "background") {
        background = true;
      } else if (mode == "inline") {
        background = false;
      } else {
        std::fprintf(stderr,
                     "error: mode must be background or inline: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    std::fprintf(stderr, "error: unknown compact option %s\n", argv[i]);
    return 1;
  }
  const char* mode_name = background ? "background" : "inline";
  auto store = ShardedRepository::Open(dir, {}, static_cast<int>(threads));
  if (!store.ok()) return Fail(store.status());
  uint64_t before = 0;
  for (int i = 0; i < store.value().num_shards(); ++i) {
    before += store.value().shard(i).records_since_snapshot();
  }
  if (background) {
    // The cut is non-blocking (appends could continue right after
    // CompactAsync returns); the CLI then waits so its exit code
    // reflects the snapshot workers' outcome.
    if (Status s = store.value().CompactAsync(); !s.ok()) return Fail(s);
    if (Status s = store.value().WaitForCompaction(); !s.ok()) {
      return Fail(s);
    }
  } else if (Status s = store.value().Compact(static_cast<int>(threads));
             !s.ok()) {
    return Fail(s);
  }
  std::printf(
      "compacted %s (%s): folded %llu record(s) into %d shard "
      "snapshot(s) (%ld thread(s))\n",
      dir, mode_name, static_cast<unsigned long long>(before),
      store.value().num_shards(), threads);
  return 0;
}

// ---------------------------------------------------------------------------
// Server / client commands
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

/// Parses "name:level[:group]" into a ServerPrincipal.
bool ParsePrincipalSpec(const std::string& text, ServerPrincipal* out) {
  const size_t first = text.find(':');
  if (first == std::string::npos || first == 0) return false;
  out->name = text.substr(0, first);
  const size_t second = text.find(':', first + 1);
  const std::string level_str =
      second == std::string::npos
          ? text.substr(first + 1)
          : text.substr(first + 1, second - first - 1);
  char* end = nullptr;
  const long level = std::strtol(level_str.c_str(), &end, 10);
  if (end == level_str.c_str() || *end != '\0') return false;
  out->level = static_cast<AccessLevel>(level);
  out->group = second == std::string::npos ? "" : text.substr(second + 1);
  return true;
}

bool ParseHostPort(const std::string& text, std::string* host, int* port);

int CmdServe(const char* dir, int argc, char** argv) {
  ServerOptions options;
  options.store.sync_each_append = true;  // acked => durable
  long shards = 0;
  long writers = 4;
  long workers = 4;
  long threads = 4;
  std::vector<ServerPrincipal> principals;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    long port = 0;
    if (!ParseIntOption(argv[i], "port", 0, 65535, &port, &matched)) {
      return 1;
    }
    if (matched) {
      options.port = static_cast<int>(port);
      continue;
    }
    std::string bind;
    ParseStrOption(argv[i], "bind", &bind, &matched);
    if (matched) {
      options.bind_address = bind;
      continue;
    }
    if (!ParseIntOption(argv[i], "shards", 1, ShardedRepository::kMaxShards,
                        &shards, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseIntOption(argv[i], "writers", 0, 256, &writers, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseIntOption(argv[i], "workers", 1, 256, &workers, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseIntOption(argv[i], "threads", 1, 256, &threads, &matched)) {
      return 1;
    }
    if (matched) continue;
    long idle = 0;
    if (!ParseIntOption(argv[i], "idle", 0, 86400000, &idle, &matched)) {
      return 1;
    }
    if (matched) {
      options.idle_timeout_ms = static_cast<int>(idle);
      continue;
    }
    long admin = 0;
    if (!ParseIntOption(argv[i], "admin", 0, 1000000, &admin, &matched)) {
      return 1;
    }
    if (matched) {
      options.admin_level = static_cast<AccessLevel>(admin);
      continue;
    }
    std::string sync;
    ParseStrOption(argv[i], "sync", &sync, &matched);
    if (matched) {
      if (sync == "each") {
        options.store.sync_each_append = true;
      } else if (sync == "batch") {
        options.store.sync_each_append = false;
      } else {
        std::fprintf(stderr, "error: sync must be each or batch: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    std::string auth;
    ParseStrOption(argv[i], "auth", &auth, &matched);
    if (matched) {
      size_t start = 0;
      while (start <= auth.size()) {
        const size_t comma = auth.find(',', start);
        const std::string one =
            auth.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        ServerPrincipal p;
        if (!ParsePrincipalSpec(one, &p)) {
          std::fprintf(stderr,
                       "error: auth entries are name:level[:group]: %s\n",
                       one.c_str());
          return 1;
        }
        principals.push_back(std::move(p));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      continue;
    }
    std::string viewcache;
    ParseStrOption(argv[i], "viewcache", &viewcache, &matched);
    if (matched) {
      if (viewcache == "on") {
        options.enable_view_cache = true;
      } else if (viewcache == "off") {
        options.enable_view_cache = false;
      } else {
        std::fprintf(stderr, "error: viewcache must be on or off: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    long viewcache_mb = 0;
    if (!ParseIntOption(argv[i], "viewcache-mb", 1, 1 << 20,
                        &viewcache_mb, &matched)) {
      return 1;
    }
    if (matched) {
      options.view_cache_bytes =
          static_cast<size_t>(viewcache_mb) << 20;
      continue;
    }
    std::string follow;
    ParseStrOption(argv[i], "follow", &follow, &matched);
    if (matched) {
      if (!ParseHostPort(follow, &options.follow_host,
                         &options.follow_port)) {
        std::fprintf(stderr, "error: follow must be host:port: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    std::string follow_principal;
    ParseStrOption(argv[i], "follow-principal", &follow_principal,
                   &matched);
    if (matched) {
      options.follow_principal = follow_principal;
      continue;
    }
    std::string acks;
    ParseStrOption(argv[i], "acks", &acks, &matched);
    if (matched) {
      if (acks == "local") {
        options.quorum_acks = false;
      } else if (acks == "quorum") {
        options.quorum_acks = true;
      } else {
        std::fprintf(stderr, "error: acks must be local or quorum: %s\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    long quorum_ms = 0;
    if (!ParseIntOption(argv[i], "quorum-ms", 1, 3600000, &quorum_ms,
                        &matched)) {
      return 1;
    }
    if (matched) {
      options.quorum_timeout_ms = static_cast<int>(quorum_ms);
      continue;
    }
    long trace_sample = 0;
    if (!ParseIntOption(argv[i], "trace-sample", 1, 1L << 30,
                        &trace_sample, &matched)) {
      return 1;
    }
    if (matched) {
      options.trace_sample_n = static_cast<uint32_t>(trace_sample);
      continue;
    }
    std::fprintf(stderr, "error: unknown serve option %s\n", argv[i]);
    return 1;
  }
  if (options.quorum_acks && !options.follow_host.empty()) {
    std::fprintf(stderr,
                 "error: acks=quorum is a leader option; a follower "
                 "(follow=...) takes no writes\n");
    return 1;
  }

  // Create the store on first serve of a directory that holds none.
  // For an existing store the on-disk shard count wins: shards=N cannot
  // re-shard, so a mismatch is reported rather than silently ignored. A
  // corrupt manifest falls through to Start, which reports it.
  auto manifest = ReadShardManifest(dir);
  if (manifest.ok() && shards > 0 && manifest.value().shards != shards) {
    std::fprintf(stderr,
                 "warning: %s already holds a %d-shard store; shards=%ld "
                 "ignored (the layout is fixed at init)\n",
                 dir, manifest.value().shards, shards);
  } else if (manifest.status().IsNotFound()) {
    const int n = shards > 0 ? static_cast<int>(shards) : 1;
    auto init = ShardedRepository::Init(dir, n);
    if (!init.ok()) return Fail(init.status());
    std::printf("initialized store in %s (%d shard(s))\n", dir, n);
  }

  options.worker_threads = static_cast<int>(workers);
  options.open_threads = static_cast<int>(threads);
  options.store.writer_threads = static_cast<int>(writers);
  options.principals = std::move(principals);

  const std::string role =
      options.follow_host.empty()
          ? (options.quorum_acks ? "leader, acks=quorum" : "leader")
          : "follower of " + options.follow_host + ":" +
                std::to_string(options.follow_port);
  auto server = PawServer::Start(dir, std::move(options));
  if (!server.ok()) return Fail(server.status());
  std::printf("pawd listening on port %d (store %s, %s)\n",
              server.value()->port(), dir, role.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // Poll the flag rather than pause(): the kernel may deliver the
  // signal to any of the server's threads, in which case pause() on
  // this one would never return.
  while (g_stop_requested == 0) {
    usleep(50 * 1000);
  }
  std::printf("pawd: shutting down\n");
  server.value()->Stop();
  return 0;
}

/// Splits "host:port"; returns false on malformed input.
bool ParseHostPort(const std::string& text, std::string* host, int* port) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = text.substr(0, colon);
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str() + colon + 1, &end, 10);
  if (end == text.c_str() + colon + 1 || *end != '\0' || parsed < 1 ||
      parsed > 65535) {
    return false;
  }
  *port = static_cast<int>(parsed);
  return true;
}

/// Shared tail-arg parse for the client commands: user=NAME plus any
/// command-specific int options the caller already consumed.
Result<PawClient> ConnectAndAuth(const std::string& target,
                                 const std::string& user) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(target, &host, &port)) {
    return Status::InvalidArgument("target must be host:port: " + target);
  }
  auto client = PawClient::Connect(host, port);
  if (!client.ok()) return client.status();
  PAW_RETURN_NOT_OK(client.value().Auth(user));
  return client;
}

/// Pretty-prints a metrics snapshot: one line per metric, histograms
/// with count/sum and client-side p50/p90/p99 (so a shell check can
/// awk a percentile straight out of the output). `raw` dumps the
/// Prometheus text exposition instead.
int PrintMetrics(const MetricsSnapshot& snapshot, bool raw) {
  if (raw) {
    std::fputs(RenderPrometheusText(snapshot).c_str(), stdout);
    return 0;
  }
  for (const MetricSample& s : snapshot.samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::printf("%-56s %llu\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.counter));
        break;
      case MetricSample::Kind::kGauge:
        std::printf("%-56s %lld\n", s.name.c_str(),
                    static_cast<long long>(s.gauge));
        break;
      case MetricSample::Kind::kHistogram:
        std::printf(
            "%-56s count=%llu sum=%.6f p50=%.9g p90=%.9g p99=%.9g\n",
            s.name.c_str(),
            static_cast<unsigned long long>(s.histogram.count),
            s.histogram.sum, s.histogram.Quantile(0.5),
            s.histogram.Quantile(0.9), s.histogram.Quantile(0.99));
        break;
    }
  }
  return 0;
}

/// Renders TRACE_DUMP spans as per-trace trees: spans grouped by trace
/// id (in ring order, oldest trace first), children indented under
/// their parent span, audit events folded in as `audit:<verdict>`
/// leaves. Durations are wall micros from the span itself.
void PrintSpanTrees(const std::vector<Span>& spans, uint64_t dropped) {
  if (spans.empty()) {
    std::printf("no spans matched (tip: serve trace-sample=1 records "
                "every request; slow/error requests always record)\n");
    return;
  }
  std::vector<uint64_t> order;
  std::unordered_map<uint64_t, std::vector<const Span*>> traces;
  for (const Span& s : spans) {
    std::vector<const Span*>& bucket = traces[s.trace_id];
    if (bucket.empty()) order.push_back(s.trace_id);
    bucket.push_back(&s);
  }
  for (const uint64_t trace_id : order) {
    const std::vector<const Span*>& members = traces[trace_id];
    std::printf("trace %s  (%zu span%s)\n", TraceIdHex(trace_id).c_str(),
                members.size(), members.size() == 1 ? "" : "s");
    std::unordered_map<uint64_t, std::vector<const Span*>> children;
    std::unordered_map<uint64_t, const Span*> by_id;
    for (const Span* s : members) by_id[s->span_id] = s;
    std::vector<const Span*> roots;
    for (const Span* s : members) {
      if (s->parent_span_id != 0 &&
          by_id.count(s->parent_span_id) != 0 &&
          s->parent_span_id != s->span_id) {
        children[s->parent_span_id].push_back(s);
      } else {
        roots.push_back(s);
      }
    }
    const auto by_start = [](const Span* a, const Span* b) {
      return a->start_us < b->start_us;
    };
    std::sort(roots.begin(), roots.end(), by_start);
    for (auto& [id, kids] : children) {
      std::sort(kids.begin(), kids.end(), by_start);
    }
    const std::function<void(const Span*, int)> emit =
        [&](const Span* s, int depth) {
          std::string label =
              s->kind == SpanKind::kAudit
                  ? "audit:" + std::string(s->name_view())
                  : std::string(s->name_view());
          const int pad = 26 - depth * 2;
          std::printf("  %*s%-*s %9.3fms", depth * 2, "",
                      pad > 0 ? pad : 0, label.c_str(),
                      static_cast<double>(s->end_us - s->start_us) /
                          1000.0);
          if (s->flags & kSpanFlagSlow) std::printf(" [slow]");
          if (s->flags & kSpanFlagError) std::printf(" [err]");
          if (!s->principal_view().empty()) {
            std::printf(" %s", std::string(s->principal_view()).c_str());
          }
          if (s->result_bytes != 0) std::printf(" %uB", s->result_bytes);
          if (!s->detail_view().empty()) {
            std::printf("  %s", std::string(s->detail_view()).c_str());
          }
          std::printf("\n");
          auto it = children.find(s->span_id);
          if (it == children.end()) return;
          for (const Span* kid : it->second) emit(kid, depth + 1);
        };
    for (const Span* root : roots) emit(root, 0);
  }
  if (dropped > 0) {
    std::printf("(%llu older matching span%s dropped by the cap)\n",
                static_cast<unsigned long long>(dropped),
                dropped == 1 ? "" : "s");
  }
}

/// Renders audit events (the privacy audit channel) as a flat table:
/// verdict, principal, opcode, owning trace, structured detail.
void PrintAuditEvents(const std::vector<Span>& spans, uint64_t dropped) {
  if (spans.empty()) {
    std::printf("no audit events recorded\n");
    return;
  }
  std::printf("%-8s %-16s %-14s %-16s %s\n", "VERDICT", "PRINCIPAL",
              "OPCODE", "TRACE", "DETAIL");
  for (const Span& s : spans) {
    const std::string opcode =
        wire::IsValidOpcode(s.opcode)
            ? std::string(
                  wire::OpcodeName(static_cast<wire::Opcode>(s.opcode)))
            : std::to_string(s.opcode);
    std::printf("%-8s %-16s %-14s %-16s %s\n",
                std::string(s.name_view()).c_str(),
                std::string(s.principal_view()).c_str(), opcode.c_str(),
                s.trace_id != 0 ? TraceIdHex(s.trace_id).c_str() : "-",
                std::string(s.detail_view()).c_str());
  }
  if (dropped > 0) {
    std::printf("(%llu older event%s dropped by the cap)\n",
                static_cast<unsigned long long>(dropped),
                dropped == 1 ? "" : "s");
  }
}

/// `connect ... metrics --watch=N`: re-polls METRICS every N seconds
/// and prints only the series that moved — counters and histogram
/// counts as +delta with a per-second rate, gauges as value (+delta).
/// Runs until SIGINT.
int WatchMetrics(PawClient& client, long interval_s) {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  auto prev = client.Metrics();
  if (!prev.ok()) return Fail(prev.status());
  std::printf("watching metrics every %lds (Ctrl-C to stop); changed "
              "series only, +delta and per-second rates\n",
              interval_s);
  std::fflush(stdout);
  long elapsed = 0;
  while (g_stop_requested == 0) {
    for (long i = 0; i < interval_s * 10 && g_stop_requested == 0; ++i) {
      usleep(100 * 1000);
    }
    if (g_stop_requested != 0) break;
    auto cur = client.Metrics();
    if (!cur.ok()) return Fail(cur.status());
    elapsed += interval_s;
    std::printf("--- +%lds ---\n", elapsed);
    const MetricsSnapshot& before = prev.value().snapshot;
    const double secs = static_cast<double>(interval_s);
    for (const MetricSample& s : cur.value().snapshot.samples) {
      const MetricSample* was = before.Find(s.name);
      switch (s.kind) {
        case MetricSample::Kind::kCounter: {
          const uint64_t old =
              (was != nullptr && was->kind == s.kind) ? was->counter : 0;
          if (s.counter == old) break;
          const uint64_t delta = s.counter - old;
          std::printf("%-56s %llu  +%llu (%.1f/s)\n", s.name.c_str(),
                      static_cast<unsigned long long>(s.counter),
                      static_cast<unsigned long long>(delta),
                      static_cast<double>(delta) / secs);
          break;
        }
        case MetricSample::Kind::kGauge: {
          const bool known = was != nullptr && was->kind == s.kind;
          const int64_t old = known ? was->gauge : 0;
          if (known && s.gauge == old) break;
          std::printf("%-56s %lld  (%+lld)\n", s.name.c_str(),
                      static_cast<long long>(s.gauge),
                      static_cast<long long>(s.gauge - old));
          break;
        }
        case MetricSample::Kind::kHistogram: {
          const uint64_t old_count =
              (was != nullptr && was->kind == s.kind)
                  ? was->histogram.count
                  : 0;
          if (s.histogram.count == old_count) break;
          const uint64_t delta = s.histogram.count - old_count;
          const double old_sum =
              (was != nullptr && was->kind == s.kind) ? was->histogram.sum
                                                      : 0.0;
          std::printf(
              "%-56s count=%llu  +%llu (%.1f/s) interval-mean=%.6f\n",
              s.name.c_str(),
              static_cast<unsigned long long>(s.histogram.count),
              static_cast<unsigned long long>(delta),
              static_cast<double>(delta) / secs,
              (s.histogram.sum - old_sum) / static_cast<double>(delta));
          break;
        }
      }
    }
    std::fflush(stdout);
    prev = std::move(cur);
  }
  return 0;
}

int CmdConnect(const char* target, int argc, char** argv) {
  std::string user = "admin";
  bool metrics = false;
  bool raw = false;
  bool trace = false;
  bool audit = false;
  bool slow = false;
  bool errors = false;
  std::string trace_id_hex;
  long watch = 0;
  long max_spans = 0;
  std::string lineage_spec;
  long ordinal = 0;
  long item = 0;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    ParseStrOption(argv[i], "user", &user, &matched);
    if (matched) continue;
    ParseStrOption(argv[i], "lineage", &lineage_spec, &matched);
    if (matched) continue;
    if (!ParseIntOption(argv[i], "ordinal", 0, 1000000000, &ordinal,
                        &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseIntOption(argv[i], "item", 0, 1000000000, &item,
                        &matched)) {
      return 1;
    }
    if (matched) continue;
    if (std::strcmp(argv[i], "metrics") == 0) {
      metrics = true;
      continue;
    }
    if (std::strcmp(argv[i], "trace") == 0) {
      trace = true;
      continue;
    }
    if (std::strcmp(argv[i], "audit") == 0) {
      audit = true;
      continue;
    }
    if (metrics && std::strcmp(argv[i], "--raw") == 0) {
      raw = true;
      continue;
    }
    if (metrics &&
        !ParseIntOption(argv[i], "--watch", 1, 86400, &watch, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (trace) {
      if (std::strcmp(argv[i], "--slow") == 0) {
        slow = true;
        continue;
      }
      if (std::strcmp(argv[i], "--errors") == 0) {
        errors = true;
        continue;
      }
      ParseStrOption(argv[i], "--id", &trace_id_hex, &matched);
      if (matched) continue;
    }
    if ((trace || audit) &&
        !ParseIntOption(argv[i], "--max", 1, 1000000, &max_spans,
                        &matched)) {
      return 1;
    }
    if (matched) continue;
    std::fprintf(stderr, "error: unknown connect option %s\n", argv[i]);
    return 1;
  }
  auto client = ConnectAndAuth(target, user);
  if (!client.ok()) return Fail(client.status());
  if (metrics) {
    if (watch > 0) return WatchMetrics(client.value(), watch);
    auto snapshot = client.value().Metrics();
    if (!snapshot.ok()) return Fail(snapshot.status());
    return PrintMetrics(snapshot.value().snapshot, raw);
  }
  if (trace || audit) {
    wire::TraceDumpRequest req;
    if (audit) {
      req.mode = wire::TraceDumpMode::kAudit;
    } else if (!trace_id_hex.empty()) {
      char* end = nullptr;
      const unsigned long long id =
          std::strtoull(trace_id_hex.c_str(), &end, 16);
      if (end == trace_id_hex.c_str() || *end != '\0' || id == 0) {
        std::fprintf(stderr, "error: --id must be a hex trace id: %s\n",
                     trace_id_hex.c_str());
        return 1;
      }
      req.mode = wire::TraceDumpMode::kById;
      req.trace_id = id;
    } else if (slow) {
      req.mode = wire::TraceDumpMode::kSlow;
    } else if (errors) {
      req.mode = wire::TraceDumpMode::kErrors;
    }
    req.max_spans = static_cast<uint32_t>(max_spans);
    auto resp = client.value().TraceDump(req);
    if (!resp.ok()) return Fail(resp.status());
    if (audit) {
      PrintAuditEvents(resp.value().spans, resp.value().dropped);
    } else {
      PrintSpanTrees(resp.value().spans, resp.value().dropped);
    }
    return 0;
  }
  if (!lineage_spec.empty()) {
    // One LINEAGE round trip as the authed principal: the answer is
    // rendered through that principal's privacy view, so repeating the
    // command exercises the server's memoized view cache (check the
    // paw_privacy_view_cache_* counters via `metrics`).
    auto answer = client.value().Lineage(
        lineage_spec, static_cast<int>(ordinal), static_cast<int>(item));
    if (!answer.ok()) return Fail(answer.status());
    std::printf("lineage of item %ld in %s run %ld (as %s, %d zoom-out "
                "steps, prefix {",
                item, lineage_spec.c_str(), ordinal, user.c_str(),
                answer.value().zoom_steps);
    for (size_t i = 0; i < answer.value().prefix_codes.size(); ++i) {
      std::printf("%s%s", i > 0 ? "," : "",
                  answer.value().prefix_codes[i].c_str());
    }
    std::printf("}):\n");
    for (const std::string& row : answer.value().rows) {
      std::printf("  %s\n", row.c_str());
    }
    return 0;
  }
  std::printf("connected to %s (protocol v%d) as %s\n",
              client.value().server_name().c_str(),
              client.value().version(), user.c_str());
  auto status = client.value().GetStatus();
  if (!status.ok()) return Fail(status.status());
  std::printf("%s\n", status.value().text.c_str());
  std::printf("principals: %d, connections: %d\n",
              status.value().principals, status.value().connections);
  return 0;
}

int CmdPut(const char* target, const char* path, int argc, char** argv) {
  std::string user = "admin";
  long runs = 1;
  long pipeline = 32;
  std::string policy_path;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    ParseStrOption(argv[i], "user", &user, &matched);
    if (matched) continue;
    if (!ParseIntOption(argv[i], "runs", 0, 1000000, &runs, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseIntOption(argv[i], "pipeline", 1, 4096, &pipeline,
                        &matched)) {
      return 1;
    }
    if (matched) continue;
    ParseStrOption(argv[i], "policy", &policy_path, &matched);
    if (matched) continue;
    std::fprintf(stderr, "error: unknown put option %s\n", argv[i]);
    return 1;
  }
  auto parsed = LoadSpec(path);
  if (!parsed.ok()) return Fail(parsed.status());
  const Specification& spec = parsed.value();

  std::string policy_text;
  if (!policy_path.empty()) {
    auto contents = ReadFileToString(policy_path);
    if (!contents.ok()) return Fail(contents.status());
    policy_text = std::move(contents).value();
  }

  auto client = ConnectAndAuth(target, user);
  if (!client.ok()) return Fail(client.status());

  auto added = client.value().AddSpec(Serialize(spec), policy_text);
  if (added.ok()) {
    std::printf("stored spec \"%s\" as shard %d id %d\n",
                spec.name().c_str(), added.value().shard,
                added.value().spec_id);
  } else if (added.status().IsAlreadyExists()) {
    std::printf("spec \"%s\" already stored\n", spec.name().c_str());
  } else {
    return Fail(added.status());
  }

  // Pipelined remote ingest: keep `pipeline` appends in flight so the
  // server batches them into shared group commits. Every ticket is
  // awaited — an acked run is durable per the server's sync mode.
  FunctionRegistry fns;
  std::deque<PawTicket> window;
  long acked = 0;
  auto reap_front = [&]() -> Status {
    auto ack = client.value().AwaitAddExecution(window.front());
    window.pop_front();
    if (ack.ok()) ++acked;
    return ack.status();
  };
  for (long i = 0; i < runs; ++i) {
    std::string suffix = "#";
    suffix += std::to_string(i);
    auto exec = Execute(spec, fns, DefaultInputs(spec, suffix));
    if (!exec.ok()) return Fail(exec.status());
    auto ticket = client.value().SendAddExecution(
        spec.name(), SerializeExecution(exec.value()));
    if (!ticket.ok()) return Fail(ticket.status());
    window.push_back(ticket.value());
    if (window.size() >= static_cast<size_t>(pipeline)) {
      if (Status s = reap_front(); !s.ok()) return Fail(s);
    }
  }
  while (!window.empty()) {
    if (Status s = reap_front(); !s.ok()) return Fail(s);
  }
  std::printf("acked %ld execution(s) of \"%s\" (pipeline %ld)\n", acked,
              spec.name().c_str(), pipeline);
  return 0;
}

int CmdQuery(const char* target, int argc, char** argv) {
  std::string user = "admin";
  std::vector<std::string> terms;
  for (int i = 0; i < argc; ++i) {
    bool matched = false;
    ParseStrOption(argv[i], "user", &user, &matched);
    if (matched) continue;
    terms.emplace_back(argv[i]);
  }
  if (terms.empty()) {
    std::fprintf(stderr, "error: query needs at least one term\n");
    return 1;
  }
  auto client = ConnectAndAuth(target, user);
  if (!client.ok()) return Fail(client.status());
  auto answers = client.value().Search(terms);
  if (!answers.ok()) return Fail(answers.status());
  if (answers.value().hits.empty()) {
    std::printf("no results for this principal's view\n");
    return 0;
  }
  for (const wire::SearchHit& hit : answers.value().hits) {
    std::printf("%-32s score %.4f view %d modules:", hit.spec_name.c_str(),
                hit.score, hit.view_size);
    for (const std::string& code : hit.matched) {
      std::printf(" %s", code.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pawctl demo\n"
               "       pawctl validate <spec.paw>\n"
               "       pawctl show <spec.paw>\n"
               "       pawctl run <spec.paw> [label=value ...]\n"
               "       pawctl search <spec.paw> <level> <term> ...\n"
               "       pawctl init <dir> [shards=N]\n"
               "       pawctl open <dir> [threads=N]\n"
               "       pawctl status <dir>\n"
               "       pawctl ingest <dir> <spec.paw> [runs=N] [threads=N]"
               " [sync=each|batch] [segbytes=N]"
               " [every=N] [compact=background|inline]\n"
               "       pawctl compact <dir> [threads=N]"
               " [mode=background|inline]\n"
               "       pawctl serve <dir> [port=N] [bind=ADDR] [shards=N]"
               " [workers=N] [writers=N] [threads=N] [sync=each|batch]"
               " [auth=name:level[:group],...] [idle=MS] [admin=N]"
               " [viewcache=on|off] [viewcache-mb=N]"
               " [follow=HOST:PORT] [follow-principal=NAME]"
               " [acks=local|quorum] [quorum-ms=N] [trace-sample=N]\n"
               "       pawctl connect <host:port> [user=NAME]"
               " [metrics [--raw|--watch=N]]"
               " [trace [--id=HEX|--slow|--errors] [--max=N]]"
               " [audit [--max=N]]"
               " [lineage=SPEC [ordinal=N] [item=N]]\n"
               "       pawctl put <host:port> <spec.paw> [runs=N]"
               " [user=NAME] [pipeline=N] [policy=FILE]\n"
               "       pawctl query <host:port> <term> [term ...]"
               " [user=NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "demo") return CmdDemo();
  if (cmd == "validate" && argc >= 3) return CmdValidate(argv[2]);
  if (cmd == "show" && argc >= 3) return CmdShow(argv[2]);
  if (cmd == "run" && argc >= 3) {
    return CmdRun(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "search" && argc >= 5) {
    return CmdSearch(argv[2], argv[3], argc - 4, argv + 4);
  }
  if (cmd == "init" && argc >= 3) {
    return CmdInit(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "open" && argc >= 3) {
    return CmdOpen(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "status" && argc >= 3) {
    return CmdStatus(argv[2]);
  }
  if (cmd == "ingest" && argc >= 4) {
    return CmdIngest(argv[2], argv[3], argc - 4, argv + 4);
  }
  if (cmd == "compact" && argc >= 3) {
    return CmdCompact(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "serve" && argc >= 3) {
    return CmdServe(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "connect" && argc >= 3) {
    return CmdConnect(argv[2], argc - 3, argv + 3);
  }
  if (cmd == "put" && argc >= 4) {
    return CmdPut(argv[2], argv[3], argc - 4, argv + 4);
  }
  if (cmd == "query" && argc >= 4) {
    return CmdQuery(argv[2], argc - 3, argv + 3);
  }
  return Usage();
}
