#include "src/server/server.h"

#include "src/common/metrics.h"
#include "src/common/timer.h"
#include "src/server/dispatch.h"

namespace paw {
namespace {

Counter& EngineRebuildsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_query_engine_rebuilds_total");
  return c;
}

Histogram& EngineRebuildSeconds() {
  static Histogram& h = MetricsRegistry::Global().GetLatencyHistogram(
      "paw_query_engine_rebuild_seconds");
  return h;
}

}  // namespace

struct PawServer::Impl {
  ServerCore core;
  std::unique_ptr<EventLoop> loop;
  std::atomic<bool> stopped{false};

  ~Impl() { StopInternal(); }

  void StopInternal() {
    if (stopped.exchange(true)) return;
    // Follower first: its apply thread takes the lease and writes the
    // store, so it must be quiet before teardown.
    if (core.follower != nullptr) core.follower->Stop();
    if (loop != nullptr) loop->Stop();
    // The sender thread only appends to (now dead) connections; stop
    // it before the WAL sinks' owner goes away.
    if (core.repl != nullptr) core.repl->Stop();
    // Drain workers (their output goes nowhere now, but queued writer
    // ops must land before the store closes).
    if (loop != nullptr) loop->JoinWorkers();
    if (core.store != nullptr) {
      core.store->Drain();
      (void)core.store->Sync();
    }
  }

  /// Builds the per-shard engines and the spec registry once, at
  /// startup (store quiescent). From then on engines maintain
  /// themselves with view/index deltas; there is no rebuild-on-dirty
  /// path on the serving side.
  void BuildEngines() {
    if (core.options.view_cache_bytes > 0) {
      PrivacyViewCache::Global().set_byte_budget(
          core.options.view_cache_bytes);
    }
    EngineOptions engine_options;
    engine_options.view_cache = core.options.enable_view_cache;
    core.engines.resize(static_cast<size_t>(core.store->num_shards()));
    for (int s = 0; s < core.store->num_shards(); ++s) {
      Timer rebuild_timer;
      core.engines[static_cast<size_t>(s)] =
          std::make_unique<QueryEngine>(core.repo(s), core.acl, engine_options);
      EngineRebuildSeconds().Observe(rebuild_timer.ElapsedMicros() / 1e6);
      EngineRebuildsTotal().Add();
      for (int id = 0; id < core.repo(s).num_specs(); ++id) {
        core.PinSpec({s, id});
      }
    }
  }

  /// Follower apply path: one pushed batch → the store, under the same
  /// lease discipline the leader's own write path uses. Returns the
  /// shard's durable LSN to ack.
  Result<uint64_t> ApplyReplicatedBatch(const wire::ReplicateRequest& req) {
    if (req.shard < 0 || req.shard >= core.store->num_shards()) {
      return Status::InvalidArgument("replicated batch for unknown shard " +
                                     std::to_string(req.shard));
    }
    const uint64_t have = core.ShardLsn(req.shard);
    // A reconnect can replay records the follower already applied (the
    // leader streams from segment boundaries): skip the known prefix.
    size_t skip = 0;
    if (req.base_lsn <= have) {
      skip = static_cast<size_t>(have - req.base_lsn) + 1;
      if (skip >= req.records.size()) return have;
    } else if (req.base_lsn != have + 1) {
      return Status::FailedPrecondition(
          "replication gap: follower at lsn " + std::to_string(have) +
          ", batch starts at lsn " + std::to_string(req.base_lsn));
    }
    for (size_t k = skip; k < req.records.size(); ++k) {
      const auto& rec = req.records[k];
      const RecordType type = static_cast<RecordType>(rec.type);
      // The replication apply thread is the only writer on a follower
      // (write opcodes are rejected), so bypassing the writer queues
      // preserves the per-shard single-writer contract.
      PersistentRepository& shard = core.store->shard(req.shard);
      if (type == RecordType::kSpecV2) {
        // Spec appends pin registry entries from the shard's entry
        // vector — exclusive + drained, exactly like ADD_SPEC.
        StoreLease lease(core, LeaseKind::kExclusive, {});
        PAW_RETURN_NOT_OK(shard.ApplyReplicated(type, rec.payload).status());
        core.PinSpec({req.shard, core.repo(req.shard).num_specs() - 1});
      } else {
        StoreLease lease(core, LeaseKind::kShared, {});
        PAW_RETURN_NOT_OK(shard.ApplyReplicated(type, rec.payload).status());
      }
    }
    // The ack promises durability: force the batch down when the store
    // is not already syncing each append.
    if (!core.options.store.sync_each_append) {
      PAW_RETURN_NOT_OK(core.store->Sync());
    }
    return core.ShardLsn(req.shard);
  }
};

PawServer::PawServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

PawServer::~PawServer() { Stop(); }

void PawServer::Stop() { impl_->StopInternal(); }

int PawServer::port() const { return impl_->loop->port(); }

int PawServer::connections() const { return impl_->loop->connections(); }

Result<std::unique_ptr<PawServer>> PawServer::Start(const std::string& dir,
                                                    ServerOptions options) {
  auto impl = std::make_unique<Impl>();
  ServerCore& core = impl->core;

  // Open (and lock) the store. Refuse a directory without a shard
  // manifest before touching it.
  if (!ShardedRepository::IsShardedStore(dir)) {
    return Status::FailedPrecondition(
        dir + " has no PAWSHARDS manifest; create a store with "
        "`pawctl init " + dir + "`");
  }
  auto store =
      ShardedRepository::Open(dir, options.store, options.open_threads);
  if (!store.ok()) return store.status();
  core.store = std::make_unique<ShardedRepository>(std::move(store).value());

  // Principal registry.
  if (options.principals.empty()) {
    options.principals.push_back(
        ServerPrincipal{"admin", options.admin_level, ""});
  }
  for (const ServerPrincipal& p : options.principals) {
    auto id = core.acl.AddPrincipal(p.name, p.level, p.group);
    if (!id.ok()) return id.status();
  }

  if (options.trace_sample_n > 0) {
    TraceRecorder::Global().set_sample_n(options.trace_sample_n);
  }

  core.options = std::move(options);
  impl->BuildEngines();

  PAW_ASSIGN_OR_RETURN(
      impl->loop,
      EventLoop::Create(core.options.bind_address, core.options.port,
                        core.options.worker_threads,
                        core.options.idle_timeout_ms,
                        [&core](Connection& conn,
                                std::vector<PendingFrame>& batch,
                                std::string* out) {
                          return DispatchBatch(core, conn, batch, out);
                        }));
  core.loop = impl->loop.get();
  Impl* raw = impl.get();

  // Replication role. A leader always runs the stream manager (its
  // commit sinks are cheap with zero subscribers), so followers can
  // attach at any time; a follower starts the connect/apply loop and
  // flips the server read-only.
  core.is_follower = !core.options.follow_host.empty();
  if (core.is_follower) {
    ReplicationFollowerOptions fopts;
    fopts.leader_host = core.options.follow_host;
    fopts.leader_port = core.options.follow_port;
    fopts.principal = core.options.follow_principal;
    fopts.follower_name = core.options.server_name;
    core.follower = std::make_unique<ReplicationFollower>(
        std::move(fopts),
        [raw] {
          std::vector<uint64_t> lsns;
          for (int s = 0; s < raw->core.store->num_shards(); ++s) {
            lsns.push_back(raw->core.ShardLsn(s));
          }
          return lsns;
        },
        [raw](const wire::ReplicateRequest& batch) {
          return raw->ApplyReplicatedBatch(batch);
        });
  } else {
    std::vector<WriteAheadLog*> wals;
    for (int s = 0; s < core.store->num_shards(); ++s) {
      wals.push_back(core.store->shard(s).mutable_wal());
    }
    core.repl = std::make_unique<ReplicationManager>(std::move(wals));
    core.repl->Start();
  }

  impl->loop->Start();
  if (core.follower != nullptr) core.follower->Start();

  return std::unique_ptr<PawServer>(new PawServer(std::move(impl)));
}

}  // namespace paw
