// End-to-end pawd server tests: in-process server + PawClient over
// real sockets. Covers session gating (HELLO/AUTH ordering, version
// negotiation), every opcode's AUTH / admin-level / follower gates,
// per-principal privacy filtering of search / lineage / get-spec /
// get-execution, concurrent pipelined ingest from several clients,
// durability of acked writes across a server restart, idle timeouts,
// request stage spans tiling each leased request, and the store-dir
// lock honored while a server runs.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/client/paw_client.h"
#include "src/common/file_io.h"
#include "src/common/metrics.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/privacy/policy_text.h"
#include "src/repo/disease.h"
#include "src/server/wire.h"
#include "src/store/sharded_repository.h"
#include "src/workflow/serialize.h"
#include "tests/store_test_util.h"

namespace paw {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("paw_server_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// alice sees level 0, bob level 2 (the disease spec's deepest level),
/// root level 100 (admin).
ServerOptions TestOptions() {
  ServerOptions options;
  options.store.sync_each_append = true;
  options.store.writer_threads = 2;
  options.worker_threads = 4;
  options.principals = {
      {"alice", 0, "lab-a"}, {"bob", 2, "lab-b"}, {"root", 100, ""}};
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

/// One serialized execution of the disease spec with per-run inputs.
std::string DiseaseExecText(const Specification& spec, int run) {
  FunctionRegistry fns = BuildDiseaseFunctions();
  ValueMap inputs = DiseaseInputs();
  inputs["SNPs"] = "rs" + std::to_string(run);
  auto exec = Execute(spec, fns, inputs);
  EXPECT_TRUE(exec.ok());
  return SerializeExecution(exec.value());
}

/// Starts a server over a fresh 4-shard store and uploads the disease
/// spec + policy as root.
struct Fixture {
  std::string dir;
  std::unique_ptr<PawServer> server;
  Specification spec;

  static Fixture Create(const std::string& name, ServerOptions options,
                        int shards = 4) {
    Fixture f;
    f.dir = TestDir(name);
    {
      auto init = ShardedRepository::Init(f.dir, shards);
      EXPECT_TRUE(init.ok()) << init.status().ToString();
    }
    auto server = PawServer::Start(f.dir, std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    f.server = std::move(server).value();
    auto spec = BuildDiseaseSpec();
    EXPECT_TRUE(spec.ok());
    f.spec = std::move(spec).value();
    return f;
  }

  Result<PawClient> Client(const std::string& user) {
    auto client = PawClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) return client.status();
    PAW_RETURN_NOT_OK(client.value().Auth(user));
    return client;
  }

  void UploadSpec() {
    auto client = Client("root");
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto added =
        client.value().AddSpec(DiseaseSpecText(), DiseasePolicyText());
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }
};

TEST(ServerTest, StartsOnEphemeralPortAndStops) {
  Fixture f = Fixture::Create("start_stop", TestOptions());
  EXPECT_GT(f.server->port(), 0);
  f.server->Stop();
  f.server->Stop();  // idempotent
}

TEST(ServerTest, HelloNegotiatesVersionAndAuthGatesEverything) {
  Fixture f = Fixture::Create("handshake", TestOptions());
  // Connect performs HELLO; server echoes its name + version.
  auto client = PawClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value().version(), wire::kProtocolVersion);
  EXPECT_EQ(client.value().server_name(), "pawd");

  // Any op before AUTH is denied.
  auto status = client.value().GetStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.status().IsPermissionDenied());

  // Unknown principal is denied; a real one binds.
  EXPECT_TRUE(client.value().Auth("mallory").IsPermissionDenied());
  EXPECT_TRUE(client.value().Auth("alice").ok());
  EXPECT_TRUE(client.value().GetStatus().ok());
}

TEST(ServerTest, DisjointVersionRangeIsRejected) {
  Fixture f = Fixture::Create("version", TestOptions());
  PawClientOptions options;
  options.min_version = 200;
  options.max_version = 201;
  auto client =
      PawClient::Connect("127.0.0.1", f.server->port(), options);
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsFailedPrecondition())
      << client.status().ToString();
}

TEST(ServerTest, AddSpecOnceThenDuplicateRejected) {
  Fixture f = Fixture::Create("add_spec", TestOptions());
  auto client = f.Client("root");
  ASSERT_TRUE(client.ok());
  auto added =
      client.value().AddSpec(DiseaseSpecText(), DiseasePolicyText());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_GE(added.value().spec_id, 0);
  auto duplicate = client.value().AddSpec(DiseaseSpecText(), "");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_TRUE(duplicate.status().IsAlreadyExists());
}

TEST(ServerTest, PrivacyFilteringDiffersPerPrincipal) {
  Fixture f = Fixture::Create("privacy", TestOptions());
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  auto ack = root.value().AddExecution(f.spec.name(),
                                       DiseaseExecText(f.spec, 0));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();

  auto alice = f.Client("alice");
  auto bob = f.Client("bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  // Keyword search: "omim" lives below level-0 visibility, so alice
  // gets nothing while bob gets a view.
  auto alice_hits = alice.value().Search({"omim"});
  auto bob_hits = bob.value().Search({"omim"});
  ASSERT_TRUE(alice_hits.ok());
  ASSERT_TRUE(bob_hits.ok());
  EXPECT_TRUE(alice_hits.value().hits.empty());
  ASSERT_FALSE(bob_hits.value().hits.empty());
  EXPECT_EQ(bob_hits.value().hits[0].spec_name, f.spec.name());

  // GetSpec: full text requires the access view to cover everything.
  auto alice_spec = alice.value().GetSpec(f.spec.name());
  ASSERT_FALSE(alice_spec.ok());
  EXPECT_TRUE(alice_spec.status().IsPermissionDenied());
  auto bob_spec = bob.value().GetSpec(f.spec.name());
  ASSERT_TRUE(bob_spec.ok()) << bob_spec.status().ToString();
  EXPECT_NE(bob_spec.value().spec_text.find("disease susceptibility"),
            std::string::npos);
  EXPECT_FALSE(bob_spec.value().policy_text.empty());

  // GetExecution: SNPs requires level 2 — masked for alice, plain for
  // bob.
  auto alice_exec = alice.value().GetExecution(f.spec.name(), 0);
  ASSERT_TRUE(alice_exec.ok()) << alice_exec.status().ToString();
  EXPECT_GT(alice_exec.value().num_masked, 0);
  // The SNPs item itself must carry the mask for alice (derived
  // lower-level items may legitimately embed input text — masking is
  // per item label, exactly the paper's data-privacy model).
  const auto snps_value = [](const std::string& text) -> std::string {
    const size_t label = text.find("label=\"SNPs\"");
    if (label == std::string::npos) return "<no SNPs item>";
    const size_t value = text.find("value=\"", label);
    if (value == std::string::npos) return "<no value field>";
    const size_t start = value + 7;
    const size_t end = text.find('"', start);
    return text.substr(start, end - start);
  };
  EXPECT_EQ(snps_value(alice_exec.value().exec_text), "<masked>");
  auto bob_exec = bob.value().GetExecution(f.spec.name(), 0);
  ASSERT_TRUE(bob_exec.ok());
  EXPECT_EQ(bob_exec.value().num_masked, 0);
  EXPECT_EQ(snps_value(bob_exec.value().exec_text), "rs0");

  // Lineage of the final result: alice's rows mask the sensitive
  // values bob can read.
  auto item = [&](PawClient& c) {
    // The disease pipeline's final item is the last one; lineage of
    // item 0 (the SNPs input) keeps the test independent of pipeline
    // length.
    return c.Lineage(f.spec.name(), 0, 0);
  };
  auto alice_lineage = item(alice.value());
  auto bob_lineage = item(bob.value());
  ASSERT_TRUE(alice_lineage.ok()) << alice_lineage.status().ToString();
  ASSERT_TRUE(bob_lineage.ok()) << bob_lineage.status().ToString();
  const auto joined = [](const wire::LineageResponse& r) {
    std::string all;
    for (const std::string& row : r.rows) all += row + "\n";
    return all;
  };
  EXPECT_NE(joined(alice_lineage.value()).find("<masked>"),
            std::string::npos);
  EXPECT_EQ(joined(bob_lineage.value()).find("<masked>"),
            std::string::npos)
      << joined(bob_lineage.value());
}

// Group invariance over the wire: a principal's response bytes depend on
// its level, never its group. This is what licenses keying every privacy
// memo (keyword results, access views, zoom-outs, masks) by level alone.
TEST(ServerTest, SameLevelPrincipalsInOtherGroupsGetIdenticalBytes) {
  ServerOptions options = TestOptions();
  // carol has bob's level in another group; alice's level differs.
  options.principals.push_back({"carol", 2, "lab-c"});
  Fixture f = Fixture::Create("group_invariance", std::move(options));
  f.UploadSpec();
  {
    auto root = f.Client("root");
    ASSERT_TRUE(root.ok());
    auto ack = root.value().AddExecution(f.spec.name(),
                                         DiseaseExecText(f.spec, 0));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  }
  wire::StructuralRequest structural;
  structural.spec_name = f.spec.name();
  structural.var_terms = {"expand", "omim"};
  structural.edges = {{0, 1, true}};

  // One principal's GET_EXECUTION, LINEAGE, STRUCTURAL_QUERY and
  // KEYWORD_SEARCH bodies, re-encoded with the wire codec (or the error
  // status), plus the trace id of its GET_EXECUTION.
  struct Bodies {
    std::vector<std::string> bodies;
    uint64_t get_execution_trace = 0;
  };
  const auto read_all = [&](const std::string& user) {
    Bodies out;
    auto client = f.Client(user);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!client.ok()) return out;
    PawClient& c = client.value();
    const auto body = [](const auto& result, const auto& encode) {
      return result.ok() ? encode(result.value())
                         : "error: " + result.status().ToString();
    };
    out.bodies.push_back(body(c.GetExecution(f.spec.name(), 0),
                              wire::EncodeGetExecutionResponse));
    out.get_execution_trace = c.last_trace_id();
    out.bodies.push_back(body(c.Lineage(f.spec.name(), 0, 19),
                              wire::EncodeLineageResponse));
    out.bodies.push_back(
        body(c.Structural(structural), wire::EncodeStructuralResponse));
    out.bodies.push_back(
        body(c.Search({"omim"}), wire::EncodeSearchResponse));
    return out;
  };
  const Bodies bob = read_all("bob");
  const Bodies carol = read_all("carol");
  const Bodies alice = read_all("alice");
  const char* const kOps[] = {"GET_EXECUTION", "LINEAGE",
                              "STRUCTURAL_QUERY", "KEYWORD_SEARCH"};
  ASSERT_EQ(bob.bodies.size(), 4u);
  ASSERT_EQ(carol.bodies.size(), 4u);
  ASSERT_EQ(alice.bodies.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bob.bodies[i].rfind("error: ", 0), std::string::npos)
        << kOps[i] << ": " << bob.bodies[i];
    EXPECT_EQ(carol.bodies[i], bob.bodies[i]) << kOps[i];
    EXPECT_NE(alice.bodies[i], bob.bodies[i]) << kOps[i];
  }

#if !defined(PAW_NO_TRACE)
  // bob's GET_EXECUTION computed the level-2 mask; carol's, in another
  // group, was served the memoized one.
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  wire::TraceDumpRequest req;
  req.mode = wire::TraceDumpMode::kAudit;
  auto dump = root.value().TraceDump(req);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  std::string bob_detail;
  std::string carol_detail;
  for (const Span& span : dump.value().spans) {
    if (span.trace_id == bob.get_execution_trace) {
      bob_detail = std::string(span.detail_view());
    } else if (span.trace_id == carol.get_execution_trace) {
      carol_detail = std::string(span.detail_view());
    }
  }
  EXPECT_NE(bob_detail.find("cache=miss"), std::string::npos) << bob_detail;
  EXPECT_NE(carol_detail.find("cache=hit"), std::string::npos)
      << carol_detail;
  EXPECT_NE(carol_detail.find("g=lab-c@2"), std::string::npos)
      << carol_detail;
#endif
}

TEST(ServerTest, StructuralQueryConfinedToPrincipalView) {
  Fixture f = Fixture::Create("structural", TestOptions());
  f.UploadSpec();

  wire::StructuralRequest request;
  request.spec_name = BuildDiseaseSpec().value().name();
  request.var_terms = {"expand", "omim"};
  request.edges = {{0, 1, true}};

  auto bob = f.Client("bob");
  ASSERT_TRUE(bob.ok());
  auto bob_matches = bob.value().Structural(request);
  ASSERT_TRUE(bob_matches.ok()) << bob_matches.status().ToString();
  EXPECT_FALSE(bob_matches.value().matches.empty());

  auto alice = f.Client("alice");
  ASSERT_TRUE(alice.ok());
  auto alice_matches = alice.value().Structural(request);
  // Level 0 cannot see the modules the pattern names: either no match
  // or an explicit error, never bob's bindings.
  if (alice_matches.ok()) {
    EXPECT_TRUE(alice_matches.value().matches.empty());
  }
}

TEST(ServerTest, ConcurrentPipelinedClientsIngestEverything) {
  Fixture f = Fixture::Create("concurrent", TestOptions());
  f.UploadSpec();
  constexpr int kClients = 4;
  constexpr int kPerClient = 20;

  // Pre-serialize executions outside the timed/threaded section.
  std::vector<std::vector<std::string>> texts(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      texts[c].push_back(DiseaseExecText(f.spec, c * kPerClient + i));
    }
  }
  const std::string name = f.spec.name();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = f.Client(c % 2 == 0 ? "root" : "bob");
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::vector<PawTicket> tickets;
      for (const std::string& text : texts[c]) {
        auto ticket = client.value().SendAddExecution(name, text);
        if (!ticket.ok()) {
          ++failures;
          return;
        }
        tickets.push_back(ticket.value());
      }
      for (PawTicket ticket : tickets) {
        auto ack = client.value().AwaitAddExecution(ticket);
        if (!ack.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  auto status = root.value().GetStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().executions, kClients * kPerClient);

  // Acked writes survive a clean server shutdown and reopen.
  f.server->Stop();
  f.server.reset();
  auto reopened = ShardedRepository::Open(f.dir, {}, 4);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().num_executions(), kClients * kPerClient);
}

// The MVCC read-path acceptance test: queries run *while* pipelined
// ingest is in flight, every query succeeds, and the exclusive store
// lease is never taken during the mixed phase (only ADD_SPEC and
// COMPACT take it; both happen before the brackets). Run under TSan by
// tools/check.sh, this is also the data-race check for concurrent
// engine catch-up against repository appends.
TEST(ServerTest, QueriesRunConcurrentlyWithIngestOnSharedLease) {
  Fixture f = Fixture::Create("mvcc_mixed", TestOptions());
  f.UploadSpec();
  const std::string name = f.spec.name();

  // Seed one acked execution so ordinal 0 and its lineage exist for
  // every query issued below, whatever the interleaving.
  {
    auto seed = f.Client("root");
    ASSERT_TRUE(seed.ok());
    auto ack = seed.value().AddExecution(name, DiseaseExecText(f.spec, 0));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  }

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 40;
  constexpr int kQueryThreads = 2;
  constexpr int kQueriesPerThread = 45;
  constexpr int kWindow = 16;

  std::vector<std::vector<std::string>> texts(kWriters);
  for (int c = 0; c < kWriters; ++c) {
    for (int i = 0; i < kPerWriter; ++i) {
      texts[c].push_back(DiseaseExecText(f.spec, 1 + c * kPerWriter + i));
    }
  }

#if !defined(PAW_NO_METRICS)
  MetricsSnapshot pre;
  {
    auto client = f.Client("root");
    ASSERT_TRUE(client.ok());
    auto resp = client.value().Metrics();
    ASSERT_TRUE(resp.ok());
    pre = std::move(resp.value().snapshot);
  }
#endif

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kWriters; ++c) {
    threads.emplace_back([&, c] {
      auto client = f.Client("root");
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::vector<PawTicket> in_flight;
      for (const std::string& text : texts[c]) {
        auto ticket = client.value().SendAddExecution(name, text);
        if (!ticket.ok()) {
          ++failures;
          return;
        }
        in_flight.push_back(ticket.value());
        if (in_flight.size() >= kWindow) {
          if (!client.value().AwaitAddExecution(in_flight.front()).ok()) {
            ++failures;
            return;
          }
          in_flight.erase(in_flight.begin());
        }
      }
      for (PawTicket ticket : in_flight) {
        if (!client.value().AwaitAddExecution(ticket).ok()) ++failures;
      }
    });
  }
  for (int q = 0; q < kQueryThreads; ++q) {
    threads.emplace_back([&, q] {
      auto client = f.Client(q % 2 == 0 ? "root" : "bob");
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kQueriesPerThread; ++i) {
        bool ok = false;
        switch (i % 3) {
          case 0:
            ok = client.value().Search({"disorder"}).ok();
            break;
          case 1:
            ok = client.value().GetExecution(name, 0).ok();
            break;
          default:
            ok = client.value().Lineage(name, 0, 19).ok();
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

  auto post_client = f.Client("root");
  ASSERT_TRUE(post_client.ok());
#if !defined(PAW_NO_METRICS)
  auto post_resp = post_client.value().Metrics();
  ASSERT_TRUE(post_resp.ok());
  const MetricsSnapshot& post = post_resp.value().snapshot;

  // Queries and appends both ride the shared lease; nothing in the
  // mixed phase may have taken the exclusive (writer) lease.
  EXPECT_EQ(post.SumCounters("paw_server_lease_exclusive_total"),
            pre.SumCounters("paw_server_lease_exclusive_total"));
  EXPECT_GT(post.SumCounters("paw_server_lease_shared_total"),
            pre.SumCounters("paw_server_lease_shared_total"));
  // The repeated keyword search stays cached across execution ingest.
  EXPECT_GT(post.SumCounters("paw_query_cache_hits_total"),
            pre.SumCounters("paw_query_cache_hits_total"));
#endif

  // Everything acked landed.
  auto status = post_client.value().GetStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().executions, 1 + kWriters * kPerWriter);
}

/// Sends one raw `opcode` frame with an empty body on `client` and
/// returns the status its response carries.
Status RawCall(PawClient& client, wire::Opcode opcode, uint64_t request_id) {
  PAW_RETURN_NOT_OK(client.SendRawFrame(opcode, request_id, ""));
  auto frame = client.ReadPushedFrame();
  if (!frame.ok()) return frame.status();
  EXPECT_EQ(frame.value().request_id, request_id);
  size_t offset = 0;
  Status status;
  EXPECT_TRUE(wire::ReadResponseStatus(frame.value().payload, &offset,
                                       &status));
  return status;
}

TEST(ServerTest, EveryOpcodeRowGatesAuthAdminLevelAndFollowerWrites) {
  // The gates each opcode must apply, written out independently of the
  // server's own table.
  struct Row {
    wire::Opcode op;
    bool needs_auth;
    bool admin;
    bool write;
  };
  using Op = wire::Opcode;
  const Row rows[] = {
      {Op::kHello, false, false, false},
      {Op::kAuth, false, false, false},
      {Op::kAddSpec, true, false, true},
      {Op::kAddExecution, true, false, true},
      {Op::kGetSpec, true, false, false},
      {Op::kGetExecution, true, false, false},
      {Op::kKeywordSearch, true, false, false},
      {Op::kStructuralQuery, true, false, false},
      {Op::kLineage, true, false, false},
      {Op::kStatus, true, false, false},
      {Op::kCompact, true, true, true},
      {Op::kMetrics, true, false, false},
      {Op::kSubscribe, true, true, true},
      {Op::kReplicate, true, false, false},
      {Op::kTraceDump, true, true, false},
  };
  ASSERT_EQ(std::size(rows), static_cast<size_t>(Op::kTraceDump));

  Fixture f = Fixture::Create("gates", TestOptions());
  const std::string follower_dir = TestDir("gates_follower");
  ASSERT_TRUE(ShardedRepository::Init(follower_dir, 4).ok());
  ServerOptions follower_options = TestOptions();
  follower_options.follow_host = "127.0.0.1";
  follower_options.follow_port = f.server->port();
  follower_options.follow_principal = "root";
  auto follower = PawServer::Start(follower_dir, std::move(follower_options));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  auto anonymous = PawClient::Connect("127.0.0.1", f.server->port());
  auto alice = f.Client("alice");  // level 0
  auto replica = PawClient::Connect("127.0.0.1", follower.value()->port());
  ASSERT_TRUE(anonymous.ok());
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE(replica.value().Auth("root").ok());
  const std::string leader =
      "read-only follower of 127.0.0.1:" + std::to_string(f.server->port());

  uint64_t id = 1000;
  for (const Row& row : rows) {
    const std::string name(wire::OpcodeName(row.op));
    SCOPED_TRACE(name);
    if (row.needs_auth) {
      const Status status = RawCall(anonymous.value(), row.op, ++id);
      EXPECT_TRUE(status.IsPermissionDenied()) << status.ToString();
      EXPECT_EQ(status.message(), name + " requires AUTH");
    }
    // HELLO and AUTH change the session itself; no later gate applies.
    if (!row.needs_auth) continue;
    const Status as_alice = RawCall(alice.value(), row.op, ++id);
    EXPECT_EQ(as_alice.IsPermissionDenied() &&
                  as_alice.message().find(
                      "requires level >= 100 (session level 0)") !=
                      std::string::npos,
              row.admin)
        << as_alice.ToString();
    const Status on_replica = RawCall(replica.value(), row.op, ++id);
    EXPECT_EQ(on_replica.IsFailedPrecondition() &&
                  on_replica.message().find(leader) != std::string::npos,
              row.write)
        << on_replica.ToString();
  }
  // The admin gate admits an admin-level principal.
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root.value().Compact().ok());
}

TEST(ServerTest, OneShardStoreServesRequests) {
  Fixture f = Fixture::Create("one_shard", TestOptions(), /*shards=*/1);
  f.UploadSpec();
  auto client = f.Client("root");
  ASSERT_TRUE(client.ok());
  auto ack = client.value().AddExecution(f.spec.name(),
                                         DiseaseExecText(f.spec, 1));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  auto status = client.value().GetStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().shards, 1);
  EXPECT_EQ(status.value().executions, 1);
}

TEST(ServerTest, DefaultInitStoreIsServable) {
  // `pawctl init <dir>` with no shards= creates this 1-shard store.
  const std::string dir = TestDir("default_init");
  {
    auto init = ShardedRepository::Init(dir, 1);
    ASSERT_TRUE(init.ok());
  }
  auto server = PawServer::Start(dir, TestOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = PawClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().Auth("root").ok());
  auto added = client.value().AddSpec(DiseaseSpecText(), "");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value().shard, 0);
  auto spec = BuildDiseaseSpec();
  auto ack = client.value().AddExecution(
      spec.value().name(), DiseaseExecText(spec.value(), 5));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
}

TEST(ServerTest, StartRefusesBareShardEngineDirUntouched) {
  // A directory holding a lone PersistentRepository (the per-shard
  // engine, no PAWSHARDS manifest) is not a servable store.
  const std::string dir = TestDir("bare_engine");
  {
    auto init = PersistentRepository::Init(dir);
    ASSERT_TRUE(init.ok());
  }
  const auto before = DirImage(dir);
  auto server = PawServer::Start(dir, TestOptions());
  ASSERT_FALSE(server.ok());
  EXPECT_TRUE(server.status().IsFailedPrecondition())
      << server.status().ToString();
  EXPECT_NE(server.status().message().find("pawctl init"), std::string::npos)
      << server.status().ToString();
  EXPECT_EQ(DirImage(dir), before);
}

TEST(ServerTest, ProtocolV1OnlyHelloIsRefused) {
  Fixture f = Fixture::Create("v1_hello", TestOptions());
  PawClientOptions options;
  options.min_version = 1;
  options.max_version = 1;
  auto client = PawClient::Connect("127.0.0.1", f.server->port(), options);
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsFailedPrecondition())
      << client.status().ToString();
}

TEST(ServerTest, IdleConnectionsAreClosed) {
  ServerOptions options = TestOptions();
  options.idle_timeout_ms = 100;
  Fixture f = Fixture::Create("idle", std::move(options));
  auto client = f.Client("root");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().GetStatus().ok());
#if !defined(PAW_NO_METRICS)
  Counter& idle_closed =
      MetricsRegistry::Global().GetCounter("paw_server_idle_closed_total");
  const uint64_t idle_closed_before = idle_closed.value();
#endif
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  // The server dropped us; the next call fails on transport.
  auto status = client.value().GetStatus();
  EXPECT_FALSE(status.ok());
#if !defined(PAW_NO_METRICS)
  EXPECT_GE(idle_closed.value(), idle_closed_before + 1);
#endif
}

TEST(ServerTest, IdleTimeoutSparesAPartiallyReceivedFrame) {
  // Regression: a client mid-upload (half a frame's bytes on the
  // socket, e.g. a pipelined append trickling in) is NOT idle. The
  // old busy check only looked at parsed frames and queued output, so
  // the idle sweep could close the connection and drop the write.
  ServerOptions options = TestOptions();
  options.idle_timeout_ms = 100;
  Fixture f = Fixture::Create("idle_partial", std::move(options));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(f.server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const auto send_all = [&](std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                               0);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  };
  const auto read_response = [&]() -> wire::Frame {
    std::string in;
    char buf[4096];
    for (;;) {
      wire::Frame frame;
      size_t consumed = 0;
      std::string error;
      const wire::ParseResult r =
          wire::ParseFrame(in, &frame, &consumed, &error);
      if (r == wire::ParseResult::kFrame) return frame;
      EXPECT_EQ(r, wire::ParseResult::kNeedMore) << error;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "server closed the connection";
        return frame;
      }
      in.append(buf, static_cast<size_t>(n));
    }
  };

  // Handshake: HELLO, then AUTH as root.
  wire::Frame hello;
  hello.opcode = wire::Opcode::kHello;
  hello.request_id = 1;
  hello.payload = wire::EncodeHelloRequest(
      {wire::kMinProtocolVersion, wire::kProtocolVersion, "slow-client"});
  std::string bytes;
  wire::AppendFrame(hello, &bytes);
  send_all(bytes);
  read_response();
  wire::Frame auth;
  auth.opcode = wire::Opcode::kAuth;
  auth.request_id = 2;
  auth.payload = wire::EncodeAuthRequest({"root"});
  bytes.clear();
  wire::AppendFrame(auth, &bytes);
  send_all(bytes);
  read_response();

  // Send HALF of a STATUS frame, then go quiet for several timeout
  // periods. The half frame sits in the server's input buffer; the
  // idle sweep must not reap the connection under it.
  wire::Frame status;
  status.opcode = wire::Opcode::kStatus;
  status.request_id = 3;
  bytes.clear();
  wire::AppendFrame(status, &bytes);
  send_all(std::string_view(bytes).substr(0, bytes.size() / 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  // Completing the frame must still yield the response.
  send_all(std::string_view(bytes).substr(bytes.size() / 2));
  const wire::Frame resp = read_response();
  EXPECT_EQ(resp.opcode, wire::Opcode::kStatus);
  EXPECT_EQ(resp.request_id, 3u);
  ::close(fd);
}

TEST(ServerTest, PipelinedStashIsBoundedAndPoisonsOnOverflow) {
  // Satellite of the replication PR: the client's out-of-order
  // response stash is bounded. Awaiting only the LAST of many
  // outstanding tickets forces every earlier response into the stash;
  // crossing the bound poisons the connection with a sticky error and
  // every later call fails fast instead of hanging or growing memory.
  Fixture f = Fixture::Create("stash", TestOptions());
  f.UploadSpec();

  PawClientOptions options;
  options.max_stashed_responses = 2;
  auto client =
      PawClient::Connect("127.0.0.1", f.server->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().Auth("root").ok());

  constexpr int kSends = 6;
  std::vector<PawTicket> tickets;
  for (int i = 0; i < kSends; ++i) {
    auto ticket = client.value().SendAddExecution(
        f.spec.name(), DiseaseExecText(f.spec, 200 + i));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.value());
  }
  EXPECT_EQ(client.value().pending(), static_cast<size_t>(kSends));

  // Awaiting the last ticket stashes responses 1..5 on the way — the
  // third stashed response crosses max_stashed_responses=2.
  auto last = client.value().AwaitAddExecution(tickets.back());
  ASSERT_FALSE(last.ok());
  EXPECT_TRUE(last.status().IsFailedPrecondition())
      << last.status().ToString();
  EXPECT_NE(last.status().message().find("stash"), std::string::npos);

  // Sticky: earlier tickets fail fast with the same error, without
  // touching the socket, and the stash was discarded.
  EXPECT_EQ(client.value().stashed(), 0u);
  auto earlier = client.value().AwaitAddExecution(tickets.front());
  ASSERT_FALSE(earlier.ok());
  EXPECT_TRUE(earlier.status().IsFailedPrecondition());

  // The server still applies every sent append (the overflow is a
  // client-side protection, not a lost write). The sends may still be
  // draining through the writer queues, so poll.
  auto check = f.Client("root");
  ASSERT_TRUE(check.ok());
  int applied = 0;
  for (int i = 0; i < 500; ++i) {
    auto status = check.value().GetStatus();
    ASSERT_TRUE(status.ok());
    applied = status.value().executions;
    if (applied >= kSends) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(applied, kSends);
}

TEST(ServerTest, PipelinedOutOfOrderAwaitWorksWithinTheBound) {
  // Out-of-order redemption inside the bound is the supported fast
  // path: await the last ticket first (stashing the others), then
  // drain the stash in any order. Unknown or already-redeemed tickets
  // fail fast instead of blocking on the socket forever.
  Fixture f = Fixture::Create("stash_ok", TestOptions());
  f.UploadSpec();
  auto client = f.Client("root");
  ASSERT_TRUE(client.ok());

  constexpr int kSends = 4;
  std::vector<PawTicket> tickets;
  for (int i = 0; i < kSends; ++i) {
    auto ticket = client.value().SendAddExecution(
        f.spec.name(), DiseaseExecText(f.spec, 300 + i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(ticket.value());
  }
  auto last = client.value().AwaitAddExecution(tickets.back());
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(client.value().stashed(), static_cast<size_t>(kSends - 1));
  for (int i = kSends - 2; i >= 0; --i) {
    auto ack = client.value().AwaitAddExecution(tickets[i]);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  }
  EXPECT_EQ(client.value().stashed(), 0u);
  EXPECT_EQ(client.value().pending(), 0u);

  // Double-redeem and never-issued tickets are client-side errors.
  EXPECT_TRUE(client.value()
                  .AwaitAddExecution(tickets.front())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(client.value()
                  .AwaitAddExecution(PawTicket{999999})
                  .status()
                  .IsInvalidArgument());
  // The connection itself is still healthy.
  EXPECT_TRUE(client.value().GetStatus().ok());
}

TEST(ServerTest, StoreDirLockHeldWhileServing) {
  Fixture f = Fixture::Create("lock", TestOptions());
  // The server holds the store-dir lock: a second read-write open
  // must fail while it runs, and succeed after it stops.
  auto second = ShardedRepository::Open(f.dir);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition());
  f.server->Stop();
  f.server.reset();
  EXPECT_TRUE(ShardedRepository::Open(f.dir).ok());
}

TEST(ServerTest, MetricsOpcodeCountsAdvance) {
  Fixture f = Fixture::Create("metrics", TestOptions());
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());

  // Metrics (like everything else) requires AUTH.
  auto bare = PawClient::Connect("127.0.0.1", f.server->port());
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare.value().Metrics().status().IsPermissionDenied());

  auto before = root.value().Metrics();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Pipelined adds plus queries, then a second snapshot: the deltas
  // must reflect exactly what this test sent (metrics are process-
  // global, so assert on deltas, never absolutes).
  constexpr int kAdds = 5;
  std::vector<PawTicket> tickets;
  for (int i = 0; i < kAdds; ++i) {
    auto ticket = root.value().SendAddExecution(
        f.spec.name(), DiseaseExecText(f.spec, 100 + i));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.value());
  }
  for (PawTicket ticket : tickets) {
    ASSERT_TRUE(root.value().AwaitAddExecution(ticket).ok());
  }
  ASSERT_TRUE(root.value().Search({"omim"}).ok());
  ASSERT_TRUE(root.value().GetStatus().ok());

  auto after = root.value().Metrics();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
#if !defined(PAW_NO_METRICS)
  const MetricsSnapshot& pre = before.value().snapshot;
  const MetricsSnapshot& post = after.value().snapshot;

  const auto delta = [&](const std::string& name) -> uint64_t {
    const MetricSample* b = pre.Find(name);
    const MetricSample* a = post.Find(name);
    EXPECT_NE(a, nullptr) << name;
    if (a == nullptr) return 0;
    return a->counter - (b != nullptr ? b->counter : 0);
  };
  EXPECT_EQ(delta("paw_server_requests_total{opcode=\"add_execution\"}"),
            static_cast<uint64_t>(kAdds));
  EXPECT_EQ(delta("paw_server_requests_total{opcode=\"keyword_search\"}"),
            1u);
  EXPECT_EQ(delta("paw_server_requests_total{opcode=\"status\"}"), 1u);
  // The METRICS request itself is counted (the first snapshot call).
  EXPECT_GE(delta("paw_server_requests_total{opcode=\"metrics\"}"), 1u);
  // Store-layer instrumentation advanced under the adds.
  EXPECT_GE(delta("paw_wal_appends_total"), static_cast<uint64_t>(kAdds));
  const MetricSample* fsync_pre = pre.Find("paw_wal_fsync_seconds");
  const MetricSample* fsync_post = post.Find("paw_wal_fsync_seconds");
  ASSERT_NE(fsync_post, nullptr);
  EXPECT_GT(fsync_post->histogram.count,
            fsync_pre != nullptr ? fsync_pre->histogram.count : 0);

  // Per-opcode latency histograms recorded each request and expose a
  // sane percentile spread.
  const MetricSample* latency =
      post.Find("paw_server_request_seconds{opcode=\"add_execution\"}");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->histogram.count, static_cast<uint64_t>(kAdds));
  EXPECT_GT(latency->histogram.Quantile(0.99), 0.0);
  EXPECT_LE(latency->histogram.Quantile(0.5),
            latency->histogram.Quantile(0.99));

  // Bytes flowed both ways; the connection gauge sees live sessions.
  const MetricSample* bytes_in = post.Find("paw_server_bytes_in_total");
  const MetricSample* bytes_out = post.Find("paw_server_bytes_out_total");
  ASSERT_NE(bytes_in, nullptr);
  ASSERT_NE(bytes_out, nullptr);
  EXPECT_GT(bytes_in->counter, 0u);
  EXPECT_GT(bytes_out->counter, 0u);
  const MetricSample* conns = post.Find("paw_server_connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_GE(conns->gauge, 1);
#endif
}

TEST(ServerTest, SlowQueryLogFiresAtZeroThreshold) {
  ServerOptions options = TestOptions();
  options.slow_query_ms = 0;  // every request with a nonzero span logs
  Fixture f = Fixture::Create("slow_query", std::move(options));
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());

#if !defined(PAW_NO_METRICS)
  Counter& slow =
      MetricsRegistry::Global().GetCounter("paw_server_slow_queries_total");
  const uint64_t slow_before = slow.value();
#endif

  ::testing::internal::CaptureStderr();
  // A synced append takes at least one fsync — comfortably over 0 ms.
  auto ack = root.value().AddExecution(f.spec.name(),
                                       DiseaseExecText(f.spec, 500));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  // Give the worker a beat to flush the warning line.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(log.find("slow request"), std::string::npos) << log;
  EXPECT_NE(log.find("opcode=add_execution"), std::string::npos) << log;
  EXPECT_NE(log.find("principal=root"), std::string::npos) << log;
  EXPECT_NE(log.find("duration_ms="), std::string::npos) << log;
#if !defined(PAW_NO_METRICS)
  EXPECT_GT(slow.value(), slow_before);
#endif
}

TEST(ServerTest, TraceDumpReturnsRequestSpanTreeAndIsAdminGated) {
  ServerOptions options = TestOptions();
  options.trace_sample_n = 1;  // record every trace
  Fixture f = Fixture::Create("trace_dump", std::move(options));
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());

  auto ack = root.value().AddExecution(f.spec.name(),
                                       DiseaseExecText(f.spec, 900));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  // The client stamped its own trace id into the v2 frame trailer;
  // the server's whole span family must land under that id.
  const uint64_t trace_id = root.value().last_trace_id();
  ASSERT_NE(trace_id, 0u);

  // TRACE_DUMP exposes every principal's activity: admin only.
  auto alice = f.Client("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_TRUE(alice.value()
                  .TraceDump(wire::TraceDumpRequest{})
                  .status()
                  .IsPermissionDenied());

  wire::TraceDumpRequest by_id;
  by_id.mode = wire::TraceDumpMode::kById;
  by_id.trace_id = trace_id;
  auto dump = root.value().TraceDump(by_id);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
#if !defined(PAW_NO_TRACE)
  const Span* req_span = nullptr;
  for (const Span& s : dump.value().spans) {
    EXPECT_EQ(s.trace_id, trace_id);
    if (s.name_view() == "req.add_execution") req_span = &s;
  }
  ASSERT_NE(req_span, nullptr);
  EXPECT_EQ(req_span->principal_view(), "root");
  EXPECT_GE(req_span->end_us, req_span->start_us);
  // Milestone children (lease.wait / reply) hang under the root span.
  bool child_found = false;
  for (const Span& s : dump.value().spans) {
    if (s.parent_span_id == req_span->span_id) child_found = true;
  }
  EXPECT_TRUE(child_found);
#endif
}

#if !defined(PAW_NO_TRACE)
/// Fetches `trace_id` and checks that the children of its `req.<op>`
/// root are exactly lease.wait, engine and reply, tiling the root with
/// no gap and no overlap. Returns them in stage order.
std::vector<Span> TiledStages(PawClient& admin, uint64_t trace_id,
                              const std::string& op) {
  wire::TraceDumpRequest by_id;
  by_id.mode = wire::TraceDumpMode::kById;
  by_id.trace_id = trace_id;
  auto dump = admin.TraceDump(by_id);
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
  if (!dump.ok()) return {};
  const std::vector<Span>& spans = dump.value().spans;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.name_view() == "req." + op) root = &s;
  }
  EXPECT_NE(root, nullptr) << op;
  if (root == nullptr) return {};
  const auto is_child = [root](const Span& s) {
    return s.parent_span_id == root->span_id;
  };
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(), is_child), 3) << op;
  std::vector<Span> stages;
  for (const std::string_view name : {"lease.wait", "engine", "reply"}) {
    for (const Span& s : spans) {
      if (is_child(s) && s.name_view() == name) stages.push_back(s);
    }
  }
  EXPECT_EQ(stages.size(), 3u) << op;
  int64_t at = root->start_us;
  for (const Span& s : stages) {
    EXPECT_EQ(s.start_us, at) << op << " " << s.name_view();
    at = s.end_us;
  }
  EXPECT_EQ(at, root->end_us) << op;
  return stages;
}
#endif

TEST(ServerTest, StageSpansTileEveryLeasedRequest) {
  ServerOptions options = TestOptions();
  options.trace_sample_n = 1;  // record every trace
  Fixture f = Fixture::Create("stage_tiling", std::move(options));
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  PawClient& c = root.value();
  wire::StructuralRequest pattern;
  pattern.spec_name = f.spec.name();
  pattern.var_terms = {"expand", "omim"};
  pattern.edges = {{0, 1, true}};
  // Every opcode whose row takes a store lease, issued once each.
  const std::vector<std::pair<std::string, std::function<Status()>>> calls =
      {{"add_spec",
        [&] {
          return c.AddSpec(DiseaseSpecText(), DiseasePolicyText()).status();
        }},
       {"add_execution",
        [&] {
          return c.AddExecution(f.spec.name(), DiseaseExecText(f.spec, 0))
              .status();
        }},
       {"get_execution",
        [&] { return c.GetExecution(f.spec.name(), 0).status(); }},
       {"keyword_search", [&] { return c.Search({"omim"}).status(); }},
       {"structural_query", [&] { return c.Structural(pattern).status(); }},
       {"lineage", [&] { return c.Lineage(f.spec.name(), 0, 0).status(); }},
       {"status", [&] { return c.GetStatus().status(); }},
       {"compact", [&] { return c.Compact(); }}};
  for (const auto& [op, call] : calls) {
    const Status status = call();
    ASSERT_TRUE(status.ok()) << op << ": " << status.ToString();
#if !defined(PAW_NO_TRACE)
    const std::vector<Span> stages = TiledStages(c, c.last_trace_id(), op);
    if (op == "get_execution" && stages.size() == 3) {
      // The mask lookup runs under the lease: billed to engine.
      EXPECT_GT(stages[1].end_us, stages[1].start_us);
    }
#endif
  }
}

TEST(ServerTest, SlowUnsampledRequestStillRecordsItsStages) {
  const uint32_t saved_sample_n = TraceRecorder::Global().sample_n();
  ServerOptions options = TestOptions();
  options.trace_sample_n = 1u << 30;  // head sampling keeps ~nothing
  options.slow_query_ms = 0;          // every nonzero request is slow
  Fixture f = Fixture::Create("slow_unsampled", std::move(options));
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  // A synced append takes at least one fsync.
  auto ack = root.value().AddExecution(f.spec.name(),
                                       DiseaseExecText(f.spec, 1));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  const uint64_t trace_id = root.value().last_trace_id();
  EXPECT_FALSE(TraceRecorder::Global().Sampled(trace_id));
#if !defined(PAW_NO_TRACE)
  TiledStages(root.value(), trace_id, "add_execution");
#endif
  TraceRecorder::Global().set_sample_n(saved_sample_n);
}

TEST(ServerTest, AuditChannelRecordsDeniedAndMaskedAccess) {
  Fixture f = Fixture::Create("audit", TestOptions());
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  auto ack = root.value().AddExecution(f.spec.name(),
                                       DiseaseExecText(f.spec, 901));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();

#if !defined(PAW_NO_METRICS)
  Counter& denied_total = MetricsRegistry::Global().GetCounter(
      "paw_audit_events_total{verdict=\"denied\"}");
  Counter& masked_total = MetricsRegistry::Global().GetCounter(
      "paw_audit_events_total{verdict=\"masked\"}");
  const uint64_t denied_before = denied_total.value();
  const uint64_t masked_before = masked_total.value();
#endif

  auto alice = f.Client("alice");
  ASSERT_TRUE(alice.ok());
  // A refused GET_SPEC is a denied event; a masked GET_EXECUTION is a
  // masked event (SNPs requires level 2, alice has 0).
  EXPECT_TRUE(alice.value()
                  .GetSpec(f.spec.name())
                  .status()
                  .IsPermissionDenied());
  auto exec = alice.value().GetExecution(f.spec.name(), 0);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_GT(exec.value().num_masked, 0);

#if !defined(PAW_NO_METRICS)
  EXPECT_EQ(denied_total.value(), denied_before + 1);
  EXPECT_EQ(masked_total.value(), masked_before + 1);
#endif

#if !defined(PAW_NO_TRACE)
  wire::TraceDumpRequest req;
  req.mode = wire::TraceDumpMode::kAudit;
  auto dump = root.value().TraceDump(req);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  bool denied_found = false;
  bool masked_found = false;
  for (const Span& s : dump.value().spans) {
    EXPECT_EQ(s.kind, SpanKind::kAudit);
    if (s.principal_view() != "alice") continue;
    if (s.name_view() == "denied") denied_found = true;
    if (s.name_view() == "masked") {
      masked_found = true;
      EXPECT_NE(s.detail_view().find("masked="), std::string_view::npos);
      EXPECT_NE(s.detail_view().find("g=lab-a@0"), std::string_view::npos);
    }
  }
  EXPECT_TRUE(denied_found);
  EXPECT_TRUE(masked_found);
#endif
}

TEST(ServerTest, SlowQueryRateLimitIsPerPrincipal) {
  ServerOptions options = TestOptions();
  options.slow_query_ms = 0;  // every request with a nonzero span logs
  Fixture f = Fixture::Create("slow_per_principal", std::move(options));
  f.UploadSpec();
  auto alice = f.Client("alice");
  auto bob = f.Client("bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  ::testing::internal::CaptureStderr();
  // Same opcode back-to-back from two principals: with the old
  // per-opcode limiter the second line would be suppressed; keyed on
  // (opcode, principal) both emit.
  ASSERT_TRUE(alice.value().Search({"omim"}).ok());
  ASSERT_TRUE(bob.value().Search({"omim"}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_NE(log.find("principal=alice"), std::string::npos) << log;
  EXPECT_NE(log.find("principal=bob"), std::string::npos) << log;
  // Slow lines carry the trace id for TRACE_DUMP correlation.
  EXPECT_NE(log.find(" trace="), std::string::npos) << log;
}

TEST(ServerTest, ErrorsForUnknownSpecAndOrdinals) {
  Fixture f = Fixture::Create("errors", TestOptions());
  f.UploadSpec();
  auto root = f.Client("root");
  ASSERT_TRUE(root.ok());
  auto missing = root.value().AddExecution("no such spec", "x");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
  auto exec = root.value().GetExecution(f.spec.name(), 7);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsNotFound());
  auto malformed =
      root.value().AddExecution(f.spec.name(), "not an execution");
  EXPECT_FALSE(malformed.ok());
}

}  // namespace
}  // namespace paw
