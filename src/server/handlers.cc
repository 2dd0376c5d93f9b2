#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "src/common/metrics.h"
#include "src/privacy/data_privacy.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/server/dispatch.h"
#include "src/workflow/serialize.h"

namespace paw {
namespace {

Counter& AuthSessionsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_auth_sessions_total");
  return c;
}

Counter& AuthFailuresTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_server_auth_failures_total");
  return c;
}

/// The "g=<group>@<level>" attribution every audit event carries.
std::string AuditWho(const Connection& conn) {
  return "g=" + (conn.group.empty() ? std::string("-") : conn.group) + "@" +
         std::to_string(conn.level);
}

/// One parsed ADD_EXECUTION of a pipelined run.
struct Prepared {
  ShardedRepository::SpecRef ref;
  Execution exec;
  StoreFuture<ExecutionId> future;
};

/// Awaits one enqueued append (and, with acks=quorum, a follower's
/// confirmation) and encodes its acknowledgment.
Result<std::string> AwaitAck(ServerCore& s, const Request& req,
                             Prepared& p) {
  PAW_ASSIGN_OR_RETURN(const ExecutionId id, p.future.get());
  const int shard = p.ref.shard;
  if (s.options.quorum_acks && s.repl != nullptr) {
    // acks=quorum: the ack additionally means "a follower has this
    // durable". Waiting on the shard's current tail is conservative
    // (it may cover later writes too) but always covers this one.
    const uint64_t lsn = s.ShardLsn(shard);
    bool quorum_ok;
    {
      ScopedTraceContext tl(req.ctx);
      ScopedSpan qspan("quorum.wait");
      qspan.set_detail("shard=" + std::to_string(shard) +
                       " lsn=" + std::to_string(lsn));
      quorum_ok =
          s.repl->WaitForQuorum(shard, lsn, s.options.quorum_timeout_ms);
    }
    if (!quorum_ok) {
      return Status::FailedPrecondition(
          "quorum ack timeout: the write is durable on the leader, but no "
          "follower confirmed shard " +
          std::to_string(shard) + " lsn " + std::to_string(lsn) +
          " within " + std::to_string(s.options.quorum_timeout_ms) + " ms");
    }
  }
  wire::AddExecutionResponse resp;
  resp.shard = shard;
  resp.exec_id = id.value();
  resp.global_lsn = s.GlobalLsn(shard);
  return EncodeAddExecutionResponse(resp);
}

}  // namespace

Result<ServerCore::SpecInfo> ServerCore::FindSpec(const std::string& name) {
  std::lock_guard<std::mutex> lock(reg_mu);
  auto it = registry.find(name);
  if (it == registry.end()) {
    return Status::NotFound("no spec named \"" + name + "\"");
  }
  return it->second;
}

void ServerCore::PinSpec(ShardedRepository::SpecRef ref) {
  const SpecEntry& entry = repo(ref.shard).entry(ref.id);
  {
    std::lock_guard<std::mutex> lock(reg_mu);
    registry[entry.spec.name()] = SpecInfo{ref, &entry};
  }
  // Epoch-floor discipline: a spec-affecting append drops any memoized
  // views keyed by this spec id (defensive — ids are append-only, so
  // the slot should be empty) while every other spec's views stay hot.
  engines[static_cast<size_t>(ref.shard)]->InvalidateSpecViews(ref.id);
}

Result<Reply> HandleHello(ServerCore& s, Request& req) {
  Connection& conn = req.conn;
  if (conn.hello_done) return Status::FailedPrecondition("duplicate HELLO");
  PAW_ASSIGN_OR_RETURN(const auto hello,
                       wire::DecodeHelloRequest(req.frame.payload));
  const uint8_t lo = std::max(hello.min_version, wire::kMinProtocolVersion);
  const uint8_t hi = std::min(hello.max_version, wire::kProtocolVersion);
  if (lo > hi) {
    return Status::FailedPrecondition(
        "no common protocol version: server speaks [" +
        std::to_string(wire::kMinProtocolVersion) + ", " +
        std::to_string(wire::kProtocolVersion) + "], client offered [" +
        std::to_string(hello.min_version) + ", " +
        std::to_string(hello.max_version) + "]");
  }
  conn.hello_done = true;
  conn.version = hi;
  wire::HelloResponse resp;
  resp.version = hi;
  resp.server_name = s.options.server_name;
  return Reply{EncodeHelloResponse(resp)};
}

Result<Reply> HandleAuth(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto auth,
                       wire::DecodeAuthRequest(req.frame.payload));
  auto principal = s.acl.Find(auth.principal);
  if (!principal.ok()) {
    AuthFailuresTotal().Add();
    return Status::PermissionDenied("unknown principal \"" + auth.principal +
                                    "\"");
  }
  Connection& conn = req.conn;
  conn.authed = true;
  conn.principal = principal.value().id;
  conn.level = principal.value().level;
  conn.principal_name = auth.principal;
  conn.group = principal.value().group;
  AuthSessionsTotal().Add();
  wire::AuthResponse resp;
  resp.principal_id = principal.value().id.value();
  resp.level = principal.value().level;
  return Reply{EncodeAuthResponse(resp)};
}

Result<Reply> HandleAddSpec(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(auto add, wire::DecodeAddSpecRequest(req.frame.payload));
  PAW_ASSIGN_OR_RETURN(Specification spec, ParseSpecification(add.spec_text));
  PolicySet policy;
  if (!add.policy_text.empty()) {
    PAW_ASSIGN_OR_RETURN(policy, ParsePolicy(add.policy_text, spec));
  }
  const std::string name = spec.name();
  // Exclusive: the registry pin indexes the shard's entry vector, which
  // must not race concurrent appends.
  StoreLease lease = req.Lease();
  if (s.FindSpec(name).ok()) {
    return Status::AlreadyExists("spec \"" + name + "\" is already stored");
  }
  PAW_ASSIGN_OR_RETURN(
      const ShardedRepository::SpecRef ref,
      s.store->AddSpecification(std::move(spec), std::move(policy)));
  s.PinSpec(ref);
  wire::AddSpecResponse resp;
  resp.shard = ref.shard;
  resp.spec_id = ref.id;
  resp.global_lsn = s.GlobalLsn(ref.shard);
  return Reply{EncodeAddSpecResponse(resp)};
}

/// Handles a pipelined run of ADD_EXECUTIONs: parse every frame, enqueue
/// every append under one shared lease hold, then await and emit the
/// acknowledgments in request order.
void HandleAddExecutionRun(ServerCore& s, std::span<Request> run) {
  // Parse off-lock: registry entries are address-stable and specs
  // immutable, so execution texts resolve without touching the store's
  // entry vectors.
  const auto prepare = [&s](const Request& req) -> Result<Prepared> {
    PAW_ASSIGN_OR_RETURN(auto add,
                         wire::DecodeAddExecutionRequest(req.frame.payload));
    PAW_ASSIGN_OR_RETURN(const ServerCore::SpecInfo info,
                         s.FindSpec(add.spec_name));
    PAW_ASSIGN_OR_RETURN(Execution exec,
                         ParseExecution(add.exec_text, info.entry->spec));
    return Prepared{info.ref, std::move(exec), {}};
  };
  std::vector<Result<Prepared>> prepared;
  prepared.reserve(run.size());
  for (const Request& req : run) prepared.push_back(prepare(req));
  {
    StoreLease lease(s, LeaseKind::kShared, run);
    for (size_t k = 0; k < run.size(); ++k) {
      if (!prepared[k].ok()) continue;
      Prepared& p = prepared[k].value();
      // The writer queue captures the thread-local context at enqueue,
      // so the shard's commit (and the replication stream behind it)
      // carries this frame's trace id.
      ScopedTraceContext op_ctx(run[k].ctx);
      p.future = s.store->AddExecutionAsync(p.ref, std::move(p.exec));
    }
  }
  for (size_t k = 0; k < run.size(); ++k) {
    const Result<std::string> body =
        prepared[k].ok() ? AwaitAck(s, run[k], prepared[k].value())
                         : Result<std::string>(prepared[k].status());
    Respond(run[k], body.status(),
            body.ok() ? std::string_view(body.value()) : "", run[k].out);
  }
}

Result<Reply> HandleGetSpec(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto get,
                       wire::DecodeGetSpecRequest(req.frame.payload));
  PAW_ASSIGN_OR_RETURN(const ServerCore::SpecInfo info,
                       s.FindSpec(get.spec_name));
  const SpecEntry& entry = *info.entry;
  // A spec's full text reveals every level of the hierarchy, so it is
  // only served to principals whose access view covers all of it.
  PAW_ASSIGN_OR_RETURN(
      const auto view,
      s.acl.AccessViewFor(req.conn.principal, entry.spec, entry.hierarchy));
  if (view != entry.hierarchy.FullPrefix()) {
    return Status::PermissionDenied(
        "access view at level " + std::to_string(req.conn.level) +
        " does not cover the full specification");
  }
  wire::GetSpecResponse resp;
  resp.spec_text = Serialize(entry.spec);
  resp.policy_text = SerializePolicy(entry.policy);
  return Reply{EncodeGetSpecResponse(resp), AuditVerdict::kServed,
               "spec=" + get.spec_name + " " + AuditWho(req.conn) +
                   " view=full"};
}

Result<Reply> HandleGetExecution(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto get,
                       wire::DecodeGetExecutionRequest(req.frame.payload));
  PAW_ASSIGN_OR_RETURN(const ServerCore::SpecInfo info,
                       s.FindSpec(get.spec_name));
  QueryEngine* engine = s.engines[static_cast<size_t>(info.ref.shard)].get();
  const ExecutionEntry* found = nullptr;
  std::shared_ptr<const MaskingReport> mask;
  bool cache_hit = false;
  {
    // Shared lease: the lookup runs on the engine's pinned cut, and the
    // returned entry is immutable/address-stable, so the lease drops as
    // soon as the pointer and its mask are in hand.
    StoreLease lease = req.Lease();
    auto by_ordinal = engine->ExecutionByOrdinal(info.ref.id, get.ordinal);
    if (!by_ordinal.ok()) {
      return Status(by_ordinal.status().code(),
                    "spec \"" + get.spec_name + "\" " +
                        by_ordinal.status().message());
    }
    found = by_ordinal.value();
    // Per-item visibility from the privacy-view cache: the mask set
    // depends only on the immutable execution entry and the principal's
    // level, so every principal at that level shares it and repeated
    // GET_EXECUTIONs skip ComputeMasking.
    PAW_ASSIGN_OR_RETURN(mask, engine->ExecutionMask(req.conn.principal,
                                                     found->id, &cache_hit));
  }
  // Render the stored execution with every item value the principal may
  // not see replaced by the mask — identity and structure stay
  // queryable, contents stay hidden (data privacy, paper Sec. 3).
  const MaskingReport& report = *mask;
  wire::GetExecutionResponse resp;
  resp.exec_text =
      SerializeExecution(found->exec, report.visible, kMaskedValue);
  resp.num_masked = report.num_masked;
  return Reply{EncodeGetExecutionResponse(resp),
               report.num_masked > 0 ? AuditVerdict::kMasked
                                     : AuditVerdict::kServed,
               // Verdict-relevant fields first: the detail buffer is
               // capped, and a long spec name must not push `masked=`
               // off the end.
               "masked=" + std::to_string(report.num_masked) +
                   (cache_hit ? " cache=hit " : " cache=miss ") +
                   AuditWho(req.conn) + " exec=" + get.spec_name + "#" +
                   std::to_string(get.ordinal)};
}

Result<Reply> HandleSearch(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto search,
                       wire::DecodeSearchRequest(req.frame.payload));
  std::vector<wire::SearchHit> hits;
  {
    // Shared lease: each shard's engine serves from its pinned cut and
    // catches up to the current epoch itself — searches run
    // concurrently with pipelined ingest and with each other.
    StoreLease lease = req.Lease();
    for (const std::unique_ptr<QueryEngine>& engine : s.engines) {
      PAW_ASSIGN_OR_RETURN(const auto answers,
                           engine->Search(req.conn.principal, search.terms));
      for (const KeywordAnswer& answer : answers) {
        // Answers come from the engine's cut, so the entry is always
        // within it; render via the cut, never the live vectors.
        const SpecEntry* entry = engine->SpecEntryAt(answer.spec_id);
        if (entry == nullptr) continue;
        wire::SearchHit hit;
        const Specification& spec = entry->spec;
        hit.spec_name = spec.name();
        hit.score = answer.score;
        hit.view_size = answer.view_size;
        for (ModuleId m : answer.matched) {
          hit.matched.push_back(spec.module(m).code);
        }
        hits.push_back(std::move(hit));
      }
    }
  }
  // Merge across shards: scores share one TF-IDF scale per shard, so
  // the cross-shard order is approximate; ties break toward smaller
  // views exactly as the per-shard ranking does.
  std::stable_sort(hits.begin(), hits.end(),
                   [](const wire::SearchHit& a, const wire::SearchHit& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.view_size < b.view_size;
                   });
  wire::SearchResponse resp;
  resp.hits = std::move(hits);
  // Searches are confined to the principal's access views by
  // construction — served, never masked.
  return Reply{EncodeSearchResponse(resp), AuditVerdict::kServed,
               "terms=" + std::to_string(search.terms.size()) +
                   " hits=" + std::to_string(resp.hits.size()) + " " +
                   AuditWho(req.conn)};
}

Result<Reply> HandleStructural(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto query,
                       wire::DecodeStructuralRequest(req.frame.payload));
  PAW_ASSIGN_OR_RETURN(const ServerCore::SpecInfo info,
                       s.FindSpec(query.spec_name));
  StructuralPattern pattern;
  for (const std::string& term : query.var_terms) {
    pattern.vars.push_back(NodePredicate{term});
  }
  const int n_vars = static_cast<int>(pattern.vars.size());
  for (const wire::StructuralRequest::Edge& edge : query.edges) {
    if (edge.from >= n_vars || edge.to >= n_vars) {
      return Status::InvalidArgument(
          "pattern edge references an unknown variable");
    }
    pattern.edges.push_back(PatternEdge{edge.from, edge.to, edge.transitive});
  }
  std::vector<PatternMatch> matches;
  {
    StoreLease lease = req.Lease();
    PAW_ASSIGN_OR_RETURN(
        matches, s.engines[static_cast<size_t>(info.ref.shard)]->Structural(
                     req.conn.principal, info.ref.id, pattern));
  }
  wire::StructuralResponse resp;
  const Specification& spec = info.entry->spec;
  for (const PatternMatch& match : matches) {
    std::vector<std::string> codes;
    for (ModuleId m : match.binding) codes.push_back(spec.module(m).code);
    resp.matches.push_back(std::move(codes));
  }
  return Reply{EncodeStructuralResponse(resp), AuditVerdict::kServed,
               "spec=" + query.spec_name +
                   " matches=" + std::to_string(resp.matches.size()) + " " +
                   AuditWho(req.conn)};
}

Result<Reply> HandleLineage(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto query,
                       wire::DecodeLineageRequest(req.frame.payload));
  PAW_ASSIGN_OR_RETURN(const ServerCore::SpecInfo info,
                       s.FindSpec(query.spec_name));
  QueryEngine* engine = s.engines[static_cast<size_t>(info.ref.shard)].get();
  LineageAnswer answer;
  {
    StoreLease lease = req.Lease();
    auto found = engine->ExecutionByOrdinal(info.ref.id, query.ordinal);
    if (!found.ok()) {
      return Status::NotFound("no execution #" +
                              std::to_string(query.ordinal) + " of \"" +
                              query.spec_name + "\"");
    }
    PAW_ASSIGN_OR_RETURN(answer,
                         engine->Lineage(req.conn.principal, found.value()->id,
                                         DataItemId(query.item)));
  }
  wire::LineageResponse resp;
  resp.zoom_steps = answer.zoom_steps;
  const Specification& spec = info.entry->spec;
  for (WorkflowId w : answer.prefix) {
    resp.prefix_codes.push_back(spec.workflow(w).code);
  }
  resp.rows = std::move(answer.rows);
  // A zoomed-out lineage is the structural analogue of masking: the
  // principal got an answer coarsened to their level.
  return Reply{EncodeLineageResponse(resp),
               resp.zoom_steps > 0 ? AuditVerdict::kMasked
                                   : AuditVerdict::kServed,
               // Verdict-relevant fields first: the detail buffer is
               // capped, and a long spec name must not push `zoom=` off
               // the end.
               "zoom=" + std::to_string(resp.zoom_steps) +
                   " rows=" + std::to_string(resp.rows.size()) + " " +
                   AuditWho(req.conn) + " exec=" + query.spec_name + "#" +
                   std::to_string(query.ordinal) +
                   " item=" + std::to_string(query.item)};
}

Result<Reply> HandleStatus(ServerCore& s, Request& req) {
  // Shared lease; counts are atomic reads. Ops still queued behind the
  // writers are not counted yet — acked appends always are.
  StoreLease lease = req.Lease();
  wire::StatusResponse resp;
  resp.shards = s.store->num_shards();
  for (int shard = 0; shard < resp.shards; ++shard) {
    resp.specs += s.repo(shard).num_specs();
    resp.executions += s.repo(shard).num_executions();
  }
  resp.principals = s.acl.size();
  resp.connections = s.loop->connections();
  std::string text = s.options.server_name + ": " +
                     std::to_string(resp.shards) + " shard(s), " +
                     std::to_string(resp.specs) + " spec(s), " +
                     std::to_string(resp.executions) + " execution(s)";
  for (int shard = 0; shard < resp.shards; ++shard) {
    text += "\nshard " + std::to_string(shard) + ": lsn " +
            std::to_string(s.GlobalLsn(shard));
  }
  if (s.is_follower) {
    text += "\nfollower of " + s.options.follow_host + ":" +
            std::to_string(s.options.follow_port) +
            (s.follower != nullptr && s.follower->connected()
                 ? " (connected)"
                 : " (connecting)");
  } else if (s.repl != nullptr) {
    text += "\nreplication: " + std::to_string(s.repl->num_subscribers()) +
            " subscriber(s)" +
            (s.options.quorum_acks ? ", acks=quorum" : ", acks=local");
  }
  resp.text = std::move(text);
  return Reply{EncodeStatusResponse(resp)};
}

Result<Reply> HandleCompact(ServerCore& s, Request& req) {
  // Exclusive: compaction folds store files and must not run under
  // concurrent readers or writers.
  StoreLease lease = req.Lease();
  PAW_RETURN_NOT_OK(s.store->CompactAsync());
  PAW_RETURN_NOT_OK(s.store->WaitForCompaction());
  return Reply{};
}

/// METRICS: a registry snapshot. Reads only relaxed atomics, so it
/// deliberately skips the lease — observability must stay cheap and
/// must work while the store is busy.
Result<Reply> HandleMetrics(ServerCore&, Request&) {
  wire::MetricsResponse resp;
  resp.snapshot = MetricsRegistry::Global().Snapshot();
  return Reply{EncodeMetricsResponse(resp)};
}

/// SUBSCRIBE: registers the connection as a replication follower. The
/// subscriber starts paused in the manager; the response is queued on
/// the wire *before* activation, so the first REPLICATE push can never
/// overtake the SUBSCRIBE response.
Result<Reply> HandleSubscribe(ServerCore& s, Request& req) {
  PAW_ASSIGN_OR_RETURN(auto sub,
                       wire::DecodeSubscribeRequest(req.frame.payload));
  Connection& conn = req.conn;
  std::weak_ptr<Connection> weak = conn.shared_from_this();
  EventLoop* loop = s.loop;
  PAW_ASSIGN_OR_RETURN(
      const auto resp,
      s.repl->AddSubscriber(
          conn.id, sub.follower_name, std::move(sub.last_lsns),
          [loop, weak](wire::Frame&& frame) {
            std::shared_ptr<Connection> c = weak.lock();
            if (c == nullptr) return false;
            frame.version = c->version;
            std::string bytes;
            AppendFrame(frame, &bytes);
            return loop->Send(*c, bytes);
          }));
  conn.subscriber.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.on_close = [repl = s.repl.get(), id = conn.id] {
      repl->RemoveSubscriber(id);
    };
  }
  // Flush this batch's earlier responses plus ours straight to the
  // connection, preserving order, then activate — from that point the
  // sender thread may append pushes behind them.
  std::string bytes = std::move(*req.out);
  req.out->clear();
  Respond(req, Status::OK(), EncodeSubscribeResponse(resp), &bytes);
  loop->Send(conn, bytes);
  s.repl->ActivateSubscriber(conn.id);
  return Reply{};
}

/// REPLICATE is a request only on the follower side; on a leader it is
/// valid solely as an ack on a subscribed connection (routed before
/// the table).
Result<Reply> HandleReplicate(ServerCore&, Request&) {
  return Status::FailedPrecondition(
      "REPLICATE is only valid on a connection that SUBSCRIBEd as a "
      "replication follower");
}

void HandleReplicateAck(ServerCore& s, Connection& conn,
                        const wire::Frame& frame) {
  size_t offset = 0;
  Status status;
  if (!wire::ReadResponseStatus(frame.payload, &offset, &status) ||
      !status.ok()) {
    return;  // follower failed the batch; it will drop and resubscribe
  }
  auto ack = wire::DecodeReplicateResponse(frame.payload, offset);
  if (!ack.ok() || s.repl == nullptr) return;
  {
    // The follower echoed the pushed batch's trace context on its ack
    // (installed as the thread-local by the dispatcher), so this span
    // lands in the same trace as the client write it acknowledges. A
    // point event, recorded BEFORE the ack is routed: HandleAck may
    // wake a quorum-blocked client, and an acked client must already
    // find the whole span family in the flight recorder.
    ScopedSpan span("repl.ack_recv");
    span.set_detail("shard=" + std::to_string(ack.value().shard) +
                    " lsn=" + std::to_string(ack.value().durable_lsn));
  }
  s.repl->HandleAck(conn.id, ack.value());
}

/// TRACE_DUMP: a flight-recorder snapshot. Lease-free like METRICS (the
/// ring is safe under any store state); admin only, because spans and
/// audit events expose other principals' activity.
Result<Reply> HandleTraceDump(ServerCore&, Request& req) {
  PAW_ASSIGN_OR_RETURN(const auto q,
                       wire::DecodeTraceDumpRequest(req.frame.payload));
  const std::vector<Span> all = TraceRecorder::Global().Collect();
  // Slow/error dumps keep every span of a flagged trace (the whole
  // tree, not just roots), so the flagged ids are found first.
  const uint8_t flag = q.mode == wire::TraceDumpMode::kSlow ? kSpanFlagSlow
                       : q.mode == wire::TraceDumpMode::kErrors
                           ? kSpanFlagError
                           : 0;
  std::unordered_set<uint64_t> flagged;
  for (const Span& span : all) {
    if ((span.flags & flag) != 0) flagged.insert(span.trace_id);
  }
  const auto keep = [&](const Span& span) {
    switch (q.mode) {
      case wire::TraceDumpMode::kAll:
        return span.kind == SpanKind::kSpan;
      case wire::TraceDumpMode::kAudit:
        return span.kind == SpanKind::kAudit;
      case wire::TraceDumpMode::kById:
        // By id, everything of the trace rides along — spans from any
        // layer plus the audit events it triggered.
        return span.trace_id == q.trace_id;
      default:
        return flagged.count(span.trace_id) != 0;
    }
  };
  std::vector<Span> matched;
  std::copy_if(all.begin(), all.end(), std::back_inserter(matched), keep);
  wire::TraceDumpResponse resp;
  const size_t cap = q.max_spans != 0 ? q.max_spans : 4096;
  if (matched.size() > cap) {
    // Keep the newest spans — a flight recorder's tail is the part that
    // explains what just happened.
    resp.dropped = static_cast<uint32_t>(matched.size() - cap);
    matched.erase(matched.begin(),
                  matched.end() - static_cast<ptrdiff_t>(cap));
  }
  resp.spans = std::move(matched);
  return Reply{EncodeTraceDumpResponse(resp)};
}

}  // namespace paw
