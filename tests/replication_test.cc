// End-to-end WAL-shipping replication tests: a leader pawd and a
// follower pawd over real sockets. Covers catch-up (the follower
// attaches after ingest, or after a leader restart, and reads the
// backlog from the segment files in linear bytes), catch-up across a
// compaction, live streaming (each group commit wakes the sender),
// privacy-enforced reads on the follower, the read-only write
// rejection, a refused SUBSCRIBE (no pin left behind, and the reason
// in the follower's STATUS), a caught-up follower re-attaching after an
// idle leader's compaction, a failed segment read dropping the
// connection, quorum acks, follower queries running
// concurrently with leader ingest (the TSan target), and promotion:
// restarting the follower's store directory as a new leader.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/client/paw_client.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/privacy/policy_text.h"
#include "src/repo/disease.h"
#include "src/server/wire.h"
#include "src/store/record.h"
#include "src/store/sharded_repository.h"
#include "src/store/wal.h"
#include "src/workflow/serialize.h"
#include "tests/store_test_util.h"

namespace paw {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("paw_repl_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

constexpr int kShards = 2;

ServerOptions LeaderOptions() {
  ServerOptions options;
  options.store.sync_each_append = true;
  options.store.writer_threads = 2;
  options.worker_threads = 4;
  options.principals = {
      {"alice", 0, "lab-a"}, {"bob", 2, "lab-b"}, {"root", 100, ""}};
  return options;
}

ServerOptions FollowerOptions(int leader_port) {
  ServerOptions options = LeaderOptions();
  options.follow_host = "127.0.0.1";
  options.follow_port = leader_port;
  options.follow_principal = "root";
  return options;
}

std::string DiseaseSpecText() {
  auto spec = BuildDiseaseSpec();
  EXPECT_TRUE(spec.ok());
  return Serialize(spec.value());
}

std::string DiseasePolicyText() {
  auto spec = BuildDiseaseSpec();
  EXPECT_TRUE(spec.ok());
  return SerializePolicy(DiseasePolicy());
}

std::string DiseaseExecText(const Specification& spec, int run) {
  FunctionRegistry fns = BuildDiseaseFunctions();
  ValueMap inputs = DiseaseInputs();
  inputs["SNPs"] = "rs" + std::to_string(run);
  auto exec = Execute(spec, fns, inputs);
  EXPECT_TRUE(exec.ok());
  return SerializeExecution(exec.value());
}

uint64_t ReplReadBytes() {
  return MetricsRegistry::Global()
      .GetCounter("paw_repl_read_bytes_total")
      .value();
}

/// Polls `pred` until it returns true or ~20 s elapse (replication is
/// asynchronous; CI machines are slow).
bool WaitFor(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

/// A leader over a fresh sharded store plus helpers to attach
/// followers and clients.
struct ReplFixture {
  std::string leader_dir;
  std::string follower_dir;
  std::unique_ptr<PawServer> leader;
  std::unique_ptr<PawServer> follower;
  Specification spec;

  static ReplFixture Create(const std::string& name,
                            ServerOptions leader_options) {
    ReplFixture f;
    f.leader_dir = TestDir(name + "_leader");
    f.follower_dir = TestDir(name + "_follower");
    EXPECT_TRUE(ShardedRepository::Init(f.leader_dir, kShards).ok());
    EXPECT_TRUE(ShardedRepository::Init(f.follower_dir, kShards).ok());
    auto leader = PawServer::Start(f.leader_dir, std::move(leader_options));
    EXPECT_TRUE(leader.ok()) << leader.status().ToString();
    f.leader = std::move(leader).value();
    auto spec = BuildDiseaseSpec();
    EXPECT_TRUE(spec.ok());
    f.spec = std::move(spec).value();
    return f;
  }

  void StartFollower() {
    auto started = PawServer::Start(follower_dir,
                                    FollowerOptions(leader->port()));
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    follower = std::move(started).value();
  }

  Result<PawClient> Client(PawServer& server, const std::string& user) {
    auto client = PawClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) return client.status();
    PAW_RETURN_NOT_OK(client.value().Auth(user));
    return client;
  }

  void UploadSpec() {
    auto client = Client(*leader, "root");
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto added =
        client.value().AddSpec(DiseaseSpecText(), DiseasePolicyText());
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }

  void IngestExecutions(int first_run, int count) {
    auto client = Client(*leader, "root");
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::vector<PawTicket> tickets;
    for (int i = 0; i < count; ++i) {
      auto ticket = client.value().SendAddExecution(
          spec.name(), DiseaseExecText(spec, first_run + i));
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(ticket.value());
    }
    for (PawTicket ticket : tickets) {
      ASSERT_TRUE(client.value().AwaitAddExecution(ticket).ok());
    }
  }

  /// Stops the leader, appends executions `first_run..first_run +
  /// count - 1` straight into its store (far faster than the wire),
  /// and starts it again: none of that backlog is in its memory.
  void RestartLeaderWithBacklog(int first_run, int count) {
    leader->Stop();
    leader.reset();
    {
      auto store = ShardedRepository::Open(leader_dir);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      auto ref = store.value().FindSpec(spec.name());
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      const Specification& stored = store.value()
                                        .shard(ref.value().shard)
                                        .repo()
                                        .entry(ref.value().id)
                                        .spec;
      FunctionRegistry fns = BuildDiseaseFunctions();
      for (int run = first_run; run < first_run + count; ++run) {
        ValueMap inputs = DiseaseInputs();
        inputs["SNPs"] = "rs" + std::to_string(run);
        auto exec = Execute(stored, fns, inputs);
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        auto added =
            store.value().AddExecution(ref.value(), std::move(exec).value());
        ASSERT_TRUE(added.ok()) << added.status().ToString();
      }
      ASSERT_TRUE(store.value().Sync().ok());
    }
    auto restarted = PawServer::Start(leader_dir, LeaderOptions());
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    leader = std::move(restarted).value();
  }

  std::string LeaderShardDir(int shard) const {
    return leader_dir + "/" + ShardedRepository::ShardDirName(shard);
  }

  /// Polls the follower's STATUS until its text contains `needle`;
  /// `*text` holds the last text read.
  bool WaitForFollowerStatus(const std::string& needle, std::string* text) {
    return WaitFor([&] {
      auto client = Client(*follower, "root");
      if (!client.ok()) return false;
      auto status = client.value().GetStatus();
      if (!status.ok()) return false;
      *text = status.value().text;
      return text->find(needle) != std::string::npos;
    });
  }

  /// Executions currently visible on `server` (-1 on error).
  int CountExecutions(PawServer& server, const std::string& user = "root") {
    auto client = Client(server, user);
    if (!client.ok()) return -1;
    auto status = client.value().GetStatus();
    if (!status.ok()) return -1;
    return status.value().executions;
  }
};

TEST(ReplicationTest, FollowerCatchesUpStreamsLiveAndServesReads) {
  ReplFixture f = ReplFixture::Create("basic", LeaderOptions());
  f.UploadSpec();
  f.IngestExecutions(0, 10);

  // The follower attaches *after* ingest, so it starts behind: its
  // cursors read these records from the active segment files.
  f.StartFollower();
  ASSERT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 10;
  })) << "follower saw " << f.CountExecutions(*f.follower)
      << " executions";

  // Reads on the follower run through the same privacy engine: bob
  // (level 2) finds the spec and reads plain values, alice (level 0)
  // gets masked items.
  auto bob = f.Client(*f.follower, "bob");
  ASSERT_TRUE(bob.ok()) << bob.status().ToString();
  auto hits = bob.value().Search({"omim"});
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits.value().hits.empty());
  EXPECT_EQ(hits.value().hits[0].spec_name, f.spec.name());
  auto bob_exec = bob.value().GetExecution(f.spec.name(), 0);
  ASSERT_TRUE(bob_exec.ok()) << bob_exec.status().ToString();
  EXPECT_EQ(bob_exec.value().num_masked, 0);
  auto alice = f.Client(*f.follower, "alice");
  ASSERT_TRUE(alice.ok());
  auto alice_exec = alice.value().GetExecution(f.spec.name(), 0);
  ASSERT_TRUE(alice_exec.ok()) << alice_exec.status().ToString();
  EXPECT_GT(alice_exec.value().num_masked, 0);

  // The follower is read capacity only: every write opcode is rejected
  // with a redirect-style error naming the leader.
  auto root = f.Client(*f.follower, "root");
  ASSERT_TRUE(root.ok());
  auto write = root.value().AddExecution(f.spec.name(),
                                         DiseaseExecText(f.spec, 99));
  ASSERT_FALSE(write.ok());
  EXPECT_TRUE(write.status().IsFailedPrecondition())
      << write.status().ToString();
  EXPECT_NE(write.status().message().find(
                std::to_string(f.leader->port())),
            std::string::npos)
      << write.status().ToString();
  EXPECT_TRUE(root.value()
                  .AddSpec("spec \"x\"", "")
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(root.value().Compact().IsFailedPrecondition());

  // Live streaming: each new leader commit wakes the sender, which
  // reads the batch just written from the same cursor.
  f.IngestExecutions(10, 5);
  EXPECT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 15;
  })) << "follower saw " << f.CountExecutions(*f.follower);

  // Both sides report their role in STATUS.
  {
    auto leader_client = f.Client(*f.leader, "root");
    ASSERT_TRUE(leader_client.ok());
    auto status = leader_client.value().GetStatus();
    ASSERT_TRUE(status.ok());
    EXPECT_NE(status.value().text.find("1 subscriber(s)"),
              std::string::npos)
        << status.value().text;
  }
  auto follower_status = root.value().GetStatus();
  ASSERT_TRUE(follower_status.ok());
  EXPECT_NE(follower_status.value().text.find("follower of"),
            std::string::npos)
      << follower_status.value().text;
}

TEST(ReplicationTest, QuorumAcksGateOnAFollowerConfirming) {
  ServerOptions options = LeaderOptions();
  options.quorum_acks = true;
  options.quorum_timeout_ms = 300;
  ReplFixture f = ReplFixture::Create("quorum", std::move(options));
  f.UploadSpec();

  // With zero subscribers a quorum ack cannot happen: the ADD fails
  // back to the client — but the write is still durable locally
  // (documented semantics), so the leader's count advances.
  auto root = f.Client(*f.leader, "root");
  ASSERT_TRUE(root.ok());
  auto unacked = root.value().AddExecution(f.spec.name(),
                                           DiseaseExecText(f.spec, 0));
  ASSERT_FALSE(unacked.ok());
  EXPECT_TRUE(unacked.status().IsFailedPrecondition())
      << unacked.status().ToString();
  EXPECT_NE(unacked.status().message().find("quorum"), std::string::npos);
  EXPECT_EQ(f.CountExecutions(*f.leader), 1);

  // Once a follower subscribes and acks, quorum writes succeed.
  f.StartFollower();
  ASSERT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 1;
  }));
  auto acked = root.value().AddExecution(f.spec.name(),
                                         DiseaseExecText(f.spec, 1));
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 2;
  }));
}

// The TSan target: follower queries run while the leader streams live
// group-commit batches into the follower's store. Exercises the apply
// path (lease + ApplyReplicated + engine catch-up) against concurrent
// privacy-enforced reads on the same shards.
TEST(ReplicationTest, FollowerServesQueriesDuringLiveIngest) {
  ReplFixture f = ReplFixture::Create("mixed", LeaderOptions());
  f.UploadSpec();
  f.IngestExecutions(0, 1);  // ordinal 0 exists for every query below
  f.StartFollower();
  ASSERT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 1;
  }));

  constexpr int kWrites = 30;
  constexpr int kQueryThreads = 2;
  std::vector<std::string> texts;
  for (int i = 0; i < kWrites; ++i) {
    texts.push_back(DiseaseExecText(f.spec, 1 + i));
  }

  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto client = f.Client(*f.leader, "root");
    if (!client.ok()) {
      ++failures;
      writer_done = true;
      return;
    }
    std::vector<PawTicket> tickets;
    for (const std::string& text : texts) {
      auto ticket = client.value().SendAddExecution(f.spec.name(), text);
      if (!ticket.ok()) {
        ++failures;
        break;
      }
      tickets.push_back(ticket.value());
    }
    for (PawTicket ticket : tickets) {
      if (!client.value().AwaitAddExecution(ticket).ok()) ++failures;
    }
    writer_done = true;
  });
  for (int q = 0; q < kQueryThreads; ++q) {
    threads.emplace_back([&, q] {
      auto client = f.Client(*f.follower, q % 2 == 0 ? "root" : "bob");
      if (!client.ok()) {
        ++failures;
        return;
      }
      int i = 0;
      while (!writer_done.load() || i < 10) {
        bool ok = false;
        switch (i++ % 4) {
          case 0:
            ok = client.value().Search({"disorder"}).ok();
            break;
          case 1:
            ok = client.value().GetExecution(f.spec.name(), 0).ok();
            break;
          case 2:
            ok = client.value().Lineage(f.spec.name(), 0, 0).ok();
            break;
          default:
            ok = client.value().GetStatus().ok();
            break;
        }
        if (!ok) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 1 + kWrites;
  })) << "follower saw " << f.CountExecutions(*f.follower);
}

// The tracing acceptance drill: a quorum-acked write's trace id —
// stamped by the *client* into the v2 frame trailer — must show up on
// the leader's span tree AND on the follower's apply path. Leader and
// follower run in one process here, so both record into the shared
// flight recorder; span principals/names tell the two sides apart.
TEST(ReplicationTest, QuorumAckedWriteTraceSpansFollowerApply) {
  ServerOptions options = LeaderOptions();
  options.quorum_acks = true;
  options.quorum_timeout_ms = 500;
  options.trace_sample_n = 1;  // record every trace
  ReplFixture f = ReplFixture::Create("trace", std::move(options));
  f.UploadSpec();
  f.StartFollower();

  auto root = f.Client(*f.leader, "root");
  ASSERT_TRUE(root.ok());
  // Nothing to catch up on yet, so probe for the subscription with a
  // write: a quorum ack can only succeed once the follower is attached
  // and confirming (failed probes stay durable locally, which is fine
  // — each uses a distinct run number). The probe's own trace id is no
  // good for the assertion below: it may share a push batch with the
  // catch-up records, and a batch rides the FIRST traced record's
  // context.
  int run = 7;
  ASSERT_TRUE(WaitFor([&] {
    return root.value()
        .AddExecution(f.spec.name(), DiseaseExecText(f.spec, run++))
        .ok();
  }));
  // Everything so far is acked, so this write opens a fresh batch and
  // its context rides the push. The ack implies the leader recorded
  // its spans and the follower confirmed durability — the apply and
  // ack-recv spans are recorded before the ack reaches the client.
  auto acked = root.value().AddExecution(f.spec.name(),
                                         DiseaseExecText(f.spec, run));
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  const uint64_t trace_id = root.value().last_trace_id();
  ASSERT_NE(trace_id, 0u);

#if !defined(PAW_NO_TRACE)
  bool req_found = false;
  bool push_found = false;
  bool apply_found = false;
  bool ack_found = false;
  std::string all;
  for (const Span& s : TraceRecorder::Global().Collect()) {
    all += TraceIdHex(s.trace_id) + " " + std::string(s.name_view()) +
           " " + std::string(s.detail_view()) + "\n";
    if (s.trace_id != trace_id) continue;
    if (s.name_view() == "req.add_execution") req_found = true;
    if (s.name_view() == "repl.push") push_found = true;
    if (s.name_view() == "repl.apply") apply_found = true;
    if (s.name_view() == "repl.ack_recv") ack_found = true;
  }
  EXPECT_TRUE(req_found) << "leader request span missing";
  EXPECT_TRUE(push_found) << "leader push span missing";
  EXPECT_TRUE(apply_found) << "follower apply span missing; trace "
                           << TraceIdHex(trace_id) << "; all spans:\n"
                           << all;
  EXPECT_TRUE(ack_found) << "leader ack-recv span missing";
#endif
  TraceRecorder::Global().set_sample_n(64);  // restore the default
}

TEST(ReplicationTest, PromotedFollowerServesWrites) {
  ReplFixture f = ReplFixture::Create("promote", LeaderOptions());
  f.UploadSpec();
  f.IngestExecutions(0, 5);
  f.StartFollower();
  ASSERT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == 5;
  }));

  // Promotion is just a restart: the follower's WAL chain is
  // byte-identical (deterministic framing), so pointing a leader
  // process at its store directory continues the same log.
  f.follower->Stop();
  f.follower.reset();
  f.leader->Stop();
  f.leader.reset();

  auto promoted = PawServer::Start(f.follower_dir, LeaderOptions());
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  auto client = f.Client(*promoted.value(), "root");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto status = client.value().GetStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().executions, 5);
  // The promoted node takes writes (it is a leader now).
  auto ack = client.value().AddExecution(f.spec.name(),
                                         DiseaseExecText(f.spec, 100));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(f.CountExecutions(*promoted.value()), 6);
  // Its replication manager accepts subscribers of its own:
  // tools/check.sh's failover drill attaches a fresh follower to the
  // promoted leader.
}

TEST(ReplicationTest, RefusedSubscribeReleasesItsRetentionPin) {
  ReplFixture f = ReplFixture::Create("refused", LeaderOptions());
  // The follower's store holds a spec this (empty) leader never
  // logged: it is ahead, and the leader refuses it on every retry.
  {
    auto store = ShardedRepository::Open(f.follower_dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto spec = BuildDiseaseSpec();
    ASSERT_TRUE(spec.ok());
    ASSERT_TRUE(store.value()
                    .AddSpecification(std::move(spec).value(),
                                      DiseasePolicy())
                    .ok());
    ASSERT_TRUE(store.value().Sync().ok());
  }
  f.StartFollower();
  // The follower's STATUS says why it is not connected.
  std::string text;
  EXPECT_TRUE(f.WaitForFollowerStatus("ahead of the leader", &text)) << text;
  EXPECT_NE(text.find("(connecting; last error: "), std::string::npos)
      << text;
  // Stop the retries, so no SUBSCRIBE is mid-validation below.
  f.follower->Stop();
  f.follower.reset();

  // No refused SUBSCRIBE left a retention floor behind...
  for (int s = 0; s < kShards; ++s) {
    auto floor = ReadWalRetainFloor(f.LeaderShardDir(s));
    ASSERT_TRUE(floor.ok()) << floor.status().ToString();
    EXPECT_EQ(floor.value(), WriteAheadLog::kNoRetainFloor) << "shard " << s;
  }
  // ...so compaction reclaims every sealed segment.
  auto root = f.Client(*f.leader, "root");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE(root.value().Compact().ok());
  ASSERT_TRUE(root.value().Compact().ok());
  for (int s = 0; s < kShards; ++s) {
    auto segments = ListWalSegments(f.LeaderShardDir(s));
    ASSERT_TRUE(segments.ok());
    EXPECT_EQ(segments.value().size(), 1u) << "shard " << s;
  }
}

// COMPACT seals and unlinks each shard's segment on an idle leader. A
// caught-up follower that was away meanwhile must still be accepted:
// its next LSN starts the fresh segment.
TEST(ReplicationTest, CaughtUpFollowerReattachesAfterIdleCompaction) {
  ReplFixture f = ReplFixture::Create("idle_compact", LeaderOptions());
  f.UploadSpec();
  f.IngestExecutions(0, 5);
  f.StartFollower();
  ASSERT_TRUE(WaitFor([&] { return f.CountExecutions(*f.follower) == 5; }))
      << "follower saw " << f.CountExecutions(*f.follower);
  f.follower->Stop();
  f.follower.reset();
  // Its retention pins go with its connection...
  ASSERT_TRUE(WaitFor([&] {
    for (int s = 0; s < kShards; ++s) {
      auto floor = ReadWalRetainFloor(f.LeaderShardDir(s));
      if (!floor.ok() || floor.value() != WriteAheadLog::kNoRetainFloor) {
        return false;
      }
    }
    return true;
  }));
  // ...so COMPACT leaves only the fresh segment on every shard.
  auto root = f.Client(*f.leader, "root");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE(root.value().Compact().ok());
  for (int s = 0; s < kShards; ++s) {
    auto segments = ListWalSegments(f.LeaderShardDir(s));
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments.value().size(), 1u) << "shard " << s;
  }

  f.StartFollower();
  std::string text;
  EXPECT_TRUE(f.WaitForFollowerStatus("(connected)", &text)) << text;
  f.IngestExecutions(5, 3);
  EXPECT_TRUE(WaitFor([&] { return f.CountExecutions(*f.follower) == 8; }))
      << "follower saw " << f.CountExecutions(*f.follower);
}

// The committed tail of a segment is cut away under the leader, so the
// sender's read fails. The leader must close the connection rather
// than leave the follower attached with nothing pushed: the follower's
// STATUS then says it is reconnecting, and why.
TEST(ReplicationTest, FailedSegmentReadClosesTheFollowerConnection) {
  ReplFixture f = ReplFixture::Create("failed_read", LeaderOptions());
  f.UploadSpec();
  f.IngestExecutions(0, 10);
  auto segments = ListWalSegments(
      f.LeaderShardDir(ShardedRepository::ShardOf(f.spec.name(), kShards)));
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  const std::string& path = segments.value().back().path;
  fs::resize_file(path, fs::file_size(path) - 7);

  f.StartFollower();
  std::string text;
  EXPECT_TRUE(f.WaitForFollowerStatus("closed by server", &text)) << text;
  EXPECT_EQ(f.CountExecutions(*f.follower), 0);
}

TEST(ReplicationTest, FreshFollowerCatchesUpABacklogInLinearReads) {
  ReplFixture f = ReplFixture::Create("backlog", LeaderOptions());
  f.UploadSpec();
  // Several full pushes (512 records each) on the spec's shard, none
  // of it in the restarted leader's memory.
  constexpr int kBacklog = 2600;
  ASSERT_NO_FATAL_FAILURE(f.RestartLeaderWithBacklog(0, kBacklog));
  const uint64_t read_before = ReplReadBytes();
  f.StartFollower();
  ASSERT_TRUE(WaitFor([&] {
    return f.CountExecutions(*f.follower) == kBacklog;
  })) << "follower saw " << f.CountExecutions(*f.follower);

#if !defined(PAW_NO_METRICS)
  // The sender read each WAL byte about once: payload plus framing,
  // not the segment again for every push.
  uint64_t payload_bytes = 0;
  for (int s = 0; s < kShards; ++s) {
    auto records = WalSegmentRecords(f.LeaderShardDir(s));
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    for (const Record& record : records.value()) {
      payload_bytes += record.payload.size();
    }
  }
  const uint64_t read = ReplReadBytes() - read_before;
  EXPECT_GE(read, payload_bytes);
  EXPECT_LE(read, 2 * payload_bytes)
      << "read " << read << " bytes to ship " << payload_bytes;
#endif
}

// A subscriber that stops acking holds the leader's sender at the
// unacked window, part-way through the backlog in the sealed segment.
// A COMPACT then seals that segment under the cursor, and new writes
// land in the active one: the stream must cross the boundary with
// every record, in LSN order.
TEST(ReplicationTest, CompactionMidCatchUpKeepsRecordsInLsnOrder) {
  ReplFixture f = ReplFixture::Create("compact_mid", LeaderOptions());
  f.UploadSpec();
  // More than the window holds: 8 unacked pushes of at most 512.
  constexpr int kBacklog = 4600;
  ASSERT_NO_FATAL_FAILURE(f.RestartLeaderWithBacklog(0, kBacklog));
  const size_t shard = static_cast<size_t>(
      ShardedRepository::ShardOf(f.spec.name(), kShards));

  auto sub = f.Client(*f.leader, "root");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  wire::SubscribeRequest request;
  request.last_lsns.assign(kShards, 0);
  request.follower_name = "raw";
  ASSERT_TRUE(sub.value().Subscribe(request).ok());

  struct Push {
    uint64_t request_id;
    wire::ReplicateResponse ack;
    TraceContext trace;
  };
  std::vector<Push> unacked;
  std::vector<std::vector<Record>> got(kShards);
  const auto read_push = [&] {
    auto frame = sub.value().ReadPushedFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto batch = wire::DecodeReplicateRequest(frame.value().payload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    std::vector<Record>& records =
        got[static_cast<size_t>(batch.value().shard)];
    ASSERT_EQ(batch.value().base_lsn, records.size() + 1)
        << "pushes out of LSN order";
    for (auto& rec : batch.value().records) {
      records.push_back(
          {static_cast<RecordType>(rec.type), std::move(rec.payload)});
    }
    unacked.push_back({frame.value().request_id,
                       {batch.value().shard, records.size()},
                       frame.value().trace});
  };
  const auto ack_all = [&] {
    for (const Push& push : unacked) {
      std::string payload;
      wire::AppendResponseStatus(Status::OK(), &payload);
      payload += wire::EncodeReplicateResponse(push.ack);
      ASSERT_TRUE(sub.value()
                      .SendRawFrame(wire::Opcode::kReplicate,
                                    push.request_id, std::move(payload),
                                    push.trace)
                      .ok());
    }
    unacked.clear();
  };

  for (int i = 0; i < 8 && !::testing::Test::HasFatalFailure(); ++i) {
    read_push();
  }
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_LT(got[shard].size(), static_cast<size_t>(kBacklog))
      << "the cursor should still be inside the backlog";

  auto root = f.Client(*f.leader, "root");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  ASSERT_TRUE(root.value().Compact().ok());
  // The subscriber's pin kept the sealed segment its cursor reads.
  EXPECT_TRUE(
      fs::exists(f.LeaderShardDir(static_cast<int>(shard)) + "/" +
                 WalSegmentFileName(1)));
  f.IngestExecutions(kBacklog, 20);  // into the new active segment

  const size_t total = 1 + kBacklog + 20;  // spec + executions
  ack_all();
  while (got[shard].size() < total && !::testing::Test::HasFatalFailure()) {
    read_push();
    ack_all();
  }
  for (int s = 0; s < kShards; ++s) {
    auto leader_records = WalSegmentRecords(f.LeaderShardDir(s));
    ASSERT_TRUE(leader_records.ok()) << leader_records.status().ToString();
    const std::vector<Record>& expected = leader_records.value();
    const std::vector<Record>& records = got[static_cast<size_t>(s)];
    ASSERT_EQ(records.size(), expected.size()) << "shard " << s;
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i].type, expected[i].type) << "lsn " << i + 1;
      ASSERT_EQ(records[i].payload, expected[i].payload) << "lsn " << i + 1;
    }
  }
  EXPECT_EQ(got[shard].size(), total);
}

}  // namespace
}  // namespace paw
