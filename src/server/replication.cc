#include "src/server/replication.h"

#include <algorithm>
#include <chrono>

#include "src/client/paw_client.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/store/record.h"

namespace paw {
namespace {

Counter& ReplBatchesSent() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_batches_sent_total");
  return c;
}
Counter& ReplRecordsSent() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_records_sent_total");
  return c;
}
/// Bytes the sender read from WAL segment files (cursor opens and
/// pushes): catch-up is linear when this stays near the bytes shipped.
Counter& ReplReadBytes() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_read_bytes_total");
  return c;
}
Counter& ReplAcks() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("paw_repl_acks_total");
  return c;
}
Counter& ReplQuorumTimeouts() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_quorum_timeouts_total");
  return c;
}
Gauge& ReplSubscribers() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge("paw_repl_subscribers");
  return g;
}
/// Commit-to-follower-durable latency, observed on the leader as the
/// fastest subscriber's ack passes each commit batch.
Histogram& ReplLagSeconds() {
  static Histogram& h = MetricsRegistry::Global().GetLatencyHistogram(
      "paw_repl_lag_seconds");
  return h;
}
/// Per-subscriber replication lag, in committed-but-unacked records.
/// Name-keyed (not a function-local static): one gauge per follower,
/// registered on its first ack and *unregistered* when the subscriber
/// drops, so a departed follower cannot leave a stale series behind
/// (the aggregate `paw_repl_lag_seconds` histogram had exactly that
/// bug — it kept reporting the last observation forever).
std::string SubscriberLagMetricName(const std::string& follower) {
  std::string label;
  label.reserve(follower.size());
  for (const char c : follower) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '.' || c == ':';
    label.push_back(safe ? c : '_');
  }
  return "paw_repl_subscriber_lag_records{follower=\"" + label + "\"}";
}

Counter& ReplBatchesApplied() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_batches_applied_total");
  return c;
}
Counter& ReplRecordsApplied() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_records_applied_total");
  return c;
}
Counter& ReplReconnects() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_repl_reconnects_total");
  return c;
}

using Clock = std::chrono::steady_clock;

/// Caps on one REPLICATE push: records, and payload bytes.
constexpr size_t kMaxBatchRecords = 512;
constexpr size_t kMaxBatchBytes = 2u << 20;
/// Pushed-but-unacked batches per subscriber and shard; the sender
/// stalls that subscriber (not the others) when it is reached.
constexpr size_t kMaxUnackedBatches = 8;
/// Committed batches a shard remembers while no ack passes them.
constexpr size_t kMaxTrackedBatches = 4096;

/// Opens one cursor per shard at the LSN after the follower's last,
/// refusing a follower ahead of the committed log or behind the
/// oldest segment on disk.
Result<std::vector<WalTailReader>> OpenCursors(
    const std::vector<std::string>& dirs,
    const std::vector<uint64_t>& last_lsns,
    const std::vector<WalPosition>& committed) {
  std::vector<WalTailReader> cursors;
  for (size_t i = 0; i < dirs.size(); ++i) {
    const std::string shard = std::to_string(i);
    Result<WalTailReader> cursor =
        WalTailReader::Open(dirs[i], last_lsns[i] + 1, committed[i]);
    if (cursor.status().IsInvalidArgument()) {
      return Status::InvalidArgument(
          "follower is ahead of the leader on shard " + shard +
          " (follower " + std::to_string(last_lsns[i]) + ", leader " +
          std::to_string(committed[i].lsn) + "); refusing to diverge");
    }
    if (cursor.status().IsOutOfRange()) {
      return Status::FailedPrecondition(
          "follower too far behind on shard " + shard + " (" +
          cursor.status().message() +
          "); re-seed from a copy of the leader store");
    }
    PAW_RETURN_NOT_OK(cursor.status());
    ReplReadBytes().Add(cursor.value().bytes_read());
    cursors.push_back(std::move(cursor).value());
  }
  return cursors;
}

}  // namespace

// ---- ReplicationManager -----------------------------------------------------

struct ReplicationManager::Subscriber {
  uint64_t token = 0;
  std::string name;
  SendFn send;
  CloseFn close;
  /// Set when a read or push fails, or on removal; the sender skips a
  /// failed subscriber.
  bool failed = false;
  /// False until ActivateSubscriber: the SUBSCRIBE response must hit
  /// the connection's output queue before the first push does.
  bool active = false;
  /// Per shard: the read cursor, whose next LSN is the next to push.
  /// Set under the rep mutex once the SUBSCRIBE is validated; from
  /// then on only the sender thread reads through it.
  std::vector<WalTailReader> cursors;
  /// Per shard: highest LSN the follower acked durable.
  std::vector<uint64_t> acked;
  /// Per shard: pushed-but-unacked batches (the window), each with the
  /// segment its cursor read on from.
  struct Pushed {
    uint64_t end = 0;
    uint64_t seq = 0;
  };
  std::vector<std::deque<Pushed>> inflight;
  /// Per shard: segment seq this subscriber pins (retention floor
  /// contribution): the one holding the LSN after its last acked push.
  std::vector<uint64_t> pin;
};

struct ReplicationManager::Shard {
  WriteAheadLog* wal = nullptr;
  /// Where the last batch the commit sink reported ends; no cursor
  /// reads past it.
  WalPosition committed;
  /// Committed batches, oldest first, until every subscriber acked
  /// them: the commit instant feeds the lag histogram, and the first
  /// traced record's context is stamped onto the push that ships the
  /// batch, so follower apply/ack spans join the write's trace.
  struct Batch {
    uint64_t end = 0;
    Clock::time_point at;
    TraceContext trace;
  };
  std::deque<Batch> batches;
  /// Highest LSN any subscriber acked (quorum waits watch this).
  uint64_t max_acked = 0;
};

struct ReplicationManager::Rep {
  std::vector<Shard> shards;

  mutable std::mutex mu;
  /// Wakes the sender (new commits, acks freeing window, new subs).
  std::condition_variable work_cv;
  /// Wakes quorum waiters (max_acked advanced).
  std::condition_variable quorum_cv;
  /// Shared with the sender, which holds a subscriber across the
  /// unlocked read and send of a push.
  std::unordered_map<uint64_t, std::shared_ptr<Subscriber>> subscribers;
  uint64_t next_push_id = 1;
  bool started = false;
  bool stop = false;
  std::thread sender;
};

ReplicationManager::ReplicationManager(std::vector<WriteAheadLog*> wals)
    : rep_(std::make_unique<Rep>()) {
  rep_->shards.resize(wals.size());
  for (size_t i = 0; i < wals.size(); ++i) {
    rep_->shards[i].wal = wals[i];
    rep_->shards[i].committed = wals[i]->committed();
  }
}

ReplicationManager::~ReplicationManager() { Stop(); }

void ReplicationManager::Start() {
  Rep* r = rep_.get();
  {
    std::lock_guard<std::mutex> lock(r->mu);
    if (r->started) return;
    r->started = true;
    r->stop = false;
  }
  for (size_t i = 0; i < r->shards.size(); ++i) {
    r->shards[i].wal->SetCommitSink(
        [r, i](const WalPosition& end, const TraceContext& trace) {
          const Clock::time_point now = Clock::now();
          {
            std::lock_guard<std::mutex> lock(r->mu);
            Shard& sh = r->shards[i];
            // A rotation moves the position without committing records.
            if (end.lsn > sh.committed.lsn) {
              sh.batches.push_back({end.lsn, now, trace});
              if (sh.batches.size() > kMaxTrackedBatches) {
                sh.batches.pop_front();
              }
            }
            sh.committed = end;
          }
          r->work_cv.notify_all();
        });
  }
  r->sender = std::thread([this] { SenderLoop(); });
}

void ReplicationManager::Stop() {
  Rep* r = rep_.get();
  {
    std::lock_guard<std::mutex> lock(r->mu);
    if (!r->started) return;
    r->stop = true;
  }
  for (Shard& sh : r->shards) sh.wal->SetCommitSink(nullptr);
  r->work_cv.notify_all();
  r->quorum_cv.notify_all();
  if (r->sender.joinable()) r->sender.join();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(r->mu);
    for (const auto& [token, sub] : r->subscribers) {
      names.push_back(sub->name);
    }
    r->subscribers.clear();
    r->started = false;
  }
  for (const std::string& name : names) {
    MetricsRegistry::Global().Remove(SubscriberLagMetricName(name));
  }
  ReplSubscribers().Set(0);
}

Result<wire::SubscribeResponse> ReplicationManager::AddSubscriber(
    uint64_t token, const std::string& name,
    std::vector<uint64_t> last_lsns, SendFn send, CloseFn close) {
  Rep* r = rep_.get();
  const size_t num_shards = r->shards.size();
  if (last_lsns.size() != num_shards) {
    return Status::InvalidArgument(
        "subscriber reports " + std::to_string(last_lsns.size()) +
        " shards, leader has " + std::to_string(num_shards));
  }

  // Register the subscriber (paused) pinning each shard's oldest
  // segment *before* validating its cursor, so compaction cannot
  // unlink the segments this stream needs between the check and the
  // first push. Acks release the pin as the follower catches up.
  auto sub = std::make_shared<Subscriber>();
  sub->token = token;
  sub->name = name;
  sub->send = std::move(send);
  sub->close = std::move(close);
  sub->acked = last_lsns;
  sub->inflight.resize(num_shards);
  std::vector<std::string> dirs;
  for (size_t i = 0; i < num_shards; ++i) {
    dirs.push_back(r->shards[i].wal->dir());
    PAW_ASSIGN_OR_RETURN(const auto segments, ListWalSegments(dirs[i]));
    if (segments.empty()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " has no WAL segments");
    }
    sub->pin.push_back(segments.front().seq);
  }
  std::vector<WalPosition> committed;
  {
    std::lock_guard<std::mutex> lock(r->mu);
    if (r->stop) return Status::FailedPrecondition("server stopping");
    r->subscribers[token] = sub;
    UpdateFloorsLocked();
    for (const Shard& sh : r->shards) committed.push_back(sh.committed);
  }

  // Validate off-lock: opening a cursor reads segment files.
  Result<std::vector<WalTailReader>> cursors =
      OpenCursors(dirs, last_lsns, committed);
  std::lock_guard<std::mutex> lock(r->mu);
  if (!cursors.ok()) {
    // A refusal must not leave its pin behind.
    r->subscribers.erase(token);
    UpdateFloorsLocked();
    return cursors.status();
  }
  wire::SubscribeResponse resp;
  sub->cursors = std::move(cursors).value();
  for (size_t i = 0; i < num_shards; ++i) {
    sub->pin[i] = sub->cursors[i].seq();
    resp.leader_lsns.push_back(committed[i].lsn);
  }
  UpdateFloorsLocked();
  return resp;
}

void ReplicationManager::ActivateSubscriber(uint64_t token) {
  Rep* r = rep_.get();
  {
    std::lock_guard<std::mutex> lock(r->mu);
    auto it = r->subscribers.find(token);
    if (it == r->subscribers.end()) return;
    it->second->active = true;
  }
  ReplSubscribers().Set(static_cast<int64_t>(num_subscribers()));
  r->work_cv.notify_all();
}

void ReplicationManager::RemoveSubscriber(uint64_t token) {
  Rep* r = rep_.get();
  std::string name;
  {
    std::lock_guard<std::mutex> lock(r->mu);
    auto it = r->subscribers.find(token);
    if (it == r->subscribers.end()) return;
    name = it->second->name;
    it->second->failed = true;  // the sender may still hold it
    r->subscribers.erase(it);
    UpdateFloorsLocked();
  }
  // Drop the per-subscriber series: a gone follower must not keep
  // exporting its last lag value forever.
  MetricsRegistry::Global().Remove(SubscriberLagMetricName(name));
  ReplSubscribers().Set(static_cast<int64_t>(num_subscribers()));
}

void ReplicationManager::HandleAck(uint64_t token,
                                   const wire::ReplicateResponse& ack) {
  Rep* r = rep_.get();
  const Clock::time_point now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(r->mu);
    auto it = r->subscribers.find(token);
    if (it == r->subscribers.end()) return;
    Subscriber& sub = *it->second;
    if (ack.shard < 0 || static_cast<size_t>(ack.shard) >= r->shards.size()) {
      return;
    }
    const size_t si = static_cast<size_t>(ack.shard);
    Shard& sh = r->shards[si];
    sub.acked[si] = std::max(sub.acked[si], ack.durable_lsn);
    // The follower needs nothing below the segment its cursor read on
    // from after the last push this ack covers.
    std::deque<Subscriber::Pushed>& window = sub.inflight[si];
    while (!window.empty() && window.front().end <= ack.durable_lsn) {
      sub.pin[si] = window.front().seq;
      window.pop_front();
    }
    // Refresh this follower's own lag series (committed records it
    // has not yet acked, across every shard). The registry mutex is a
    // leaf lock, so taking it under `mu` is safe.
    uint64_t behind = 0;
    for (size_t i = 0; i < r->shards.size(); ++i) {
      const uint64_t committed = r->shards[i].committed.lsn;
      if (committed > sub.acked[i]) behind += committed - sub.acked[i];
    }
    MetricsRegistry::Global()
        .GetGauge(SubscriberLagMetricName(sub.name))
        .Set(static_cast<int64_t>(behind));
    if (ack.durable_lsn > sh.max_acked) {
      auto batch = std::partition_point(
          sh.batches.begin(), sh.batches.end(),
          [&](const Shard::Batch& b) { return b.end <= sh.max_acked; });
      for (; batch != sh.batches.end() && batch->end <= ack.durable_lsn;
           ++batch) {
        ReplLagSeconds().Observe(
            std::chrono::duration<double>(now - batch->at).count());
      }
      sh.max_acked = ack.durable_lsn;
    }
    // Forget the batches every subscriber has acked.
    uint64_t min_acked = UINT64_MAX;
    for (const auto& [t, s] : r->subscribers) {
      min_acked = std::min(min_acked, s->acked[si]);
    }
    while (!sh.batches.empty() && sh.batches.front().end <= min_acked) {
      sh.batches.pop_front();
    }
    UpdateFloorsLocked();
  }
  ReplAcks().Add();
  r->quorum_cv.notify_all();
  r->work_cv.notify_all();
}

bool ReplicationManager::WaitForQuorum(int shard, uint64_t lsn,
                                       int timeout_ms) {
  Rep* r = rep_.get();
  if (shard < 0 || static_cast<size_t>(shard) >= r->shards.size()) {
    return false;
  }
  std::unique_lock<std::mutex> lock(r->mu);
  const bool ok = r->quorum_cv.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        return r->stop ||
               r->shards[static_cast<size_t>(shard)].max_acked >= lsn;
      });
  const bool reached =
      ok && r->shards[static_cast<size_t>(shard)].max_acked >= lsn;
  if (!reached) ReplQuorumTimeouts().Add();
  return reached;
}

size_t ReplicationManager::num_subscribers() const {
  std::lock_guard<std::mutex> lock(rep_->mu);
  return static_cast<size_t>(std::count_if(
      rep_->subscribers.begin(), rep_->subscribers.end(),
      [](const auto& entry) { return entry.second->active; }));
}

void ReplicationManager::UpdateFloorsLocked() {
  Rep* r = rep_.get();
  for (size_t i = 0; i < r->shards.size(); ++i) {
    uint64_t floor = WriteAheadLog::kNoRetainFloor;
    for (const auto& [token, sub] : r->subscribers) {
      if (sub->failed) continue;
      floor = std::min(floor, sub->pin[i]);
    }
    WriteAheadLog* wal = r->shards[i].wal;
    if (wal->retain_floor() != floor) {
      // Floor moves are advisory for liveness, not correctness: a
      // failed write just retains segments longer.
      (void)wal->SetRetainFloor(floor);
    }
  }
}

bool ReplicationManager::MaybeSendLocked(std::unique_lock<std::mutex>& lock,
                                         Subscriber& sub, size_t shard) {
  Rep* r = rep_.get();
  Shard& sh = r->shards[shard];
  if (sub.failed || !sub.active) return false;
  if (sub.inflight[shard].size() >= kMaxUnackedBatches) return false;
  WalTailReader& cursor = sub.cursors[shard];
  if (cursor.next_lsn() > sh.committed.lsn) return false;  // caught up
  const WalPosition committed = sh.committed;

  // Read and encode off-lock: only this thread uses the cursor.
  lock.unlock();
  const uint64_t read_before = cursor.bytes_read();
  std::vector<Record> records;
  const Status read =
      cursor.Read(committed, kMaxBatchRecords, kMaxBatchBytes, &records);
  ReplReadBytes().Add(cursor.bytes_read() - read_before);
  if (!read.ok()) {
    // Drop the connection, not just the stream: the follower then
    // reconnects and reopens its cursors by position.
    PAW_LOG(kWarning) << "pawd: replication to " << sub.name
                      << " failed, closing its connection: "
                      << read.ToString();
    sub.close();
    lock.lock();
    sub.failed = true;
    return false;
  }
  wire::ReplicateRequest req;
  req.shard = static_cast<int>(shard);
  req.base_lsn = cursor.next_lsn() - records.size();
  for (Record& record : records) {
    req.records.push_back(
        {static_cast<uint8_t>(record.type), std::move(record.payload)});
  }
  wire::Frame frame;
  frame.version = wire::kProtocolVersion;
  frame.opcode = wire::Opcode::kReplicate;
  frame.payload = wire::EncodeReplicateRequest(req);
  lock.lock();
  if (sub.failed || r->stop) return false;

  const uint64_t end = cursor.next_lsn() - 1;
  // The push carries the context of the first traced commit batch
  // among those it ships.
  auto batch = std::partition_point(
      sh.batches.begin(), sh.batches.end(),
      [&](const Shard::Batch& b) { return b.end < req.base_lsn; });
  for (; batch != sh.batches.end(); ++batch) {
    if (batch->trace.valid()) {
      frame.trace = batch->trace;
      break;
    }
    if (batch->end >= end) break;
  }
  frame.request_id = r->next_push_id++;
  sub.inflight[shard].push_back({end, cursor.seq()});
  const TraceContext push_trace = frame.trace;
  SendFn send = sub.send;

  lock.unlock();
  bool delivered;
  {
    // Joins the originating write's trace when the batch has one and
    // that trace is sampled; otherwise records nothing.
    ScopedTraceContext push_tl(push_trace);
    ScopedSpan span("repl.push");
    span.set_detail("shard=" + std::to_string(shard) + " base=" +
                    std::to_string(req.base_lsn) + " n=" +
                    std::to_string(req.records.size()) + " to=" + sub.name);
    delivered = send(std::move(frame));
  }
  lock.lock();
  if (delivered) {
    ReplBatchesSent().Add();
    ReplRecordsSent().Add(req.records.size());
  } else {
    sub.failed = true;
  }
  return delivered;
}

void ReplicationManager::SenderLoop() {
  Rep* r = rep_.get();
  std::unique_lock<std::mutex> lock(r->mu);
  std::vector<std::shared_ptr<Subscriber>> subs;
  for (;;) {
    if (r->stop) return;
    // A snapshot: pushes unlock, and the registry may change meanwhile.
    subs.clear();
    for (const auto& [token, sub] : r->subscribers) subs.push_back(sub);
    bool sent = false;
    // Round-robin one batch per (subscriber, shard) per pass, so a
    // catching-up follower cannot starve a live one.
    for (const auto& sub : subs) {
      for (size_t i = 0; i < r->shards.size(); ++i) {
        if (r->stop) return;
        sent |= MaybeSendLocked(lock, *sub, i);
      }
    }
    if (!sent) {
      // Idle or window-stalled: sleep until a commit or ack wakes us.
      // The timeout bounds the wait against lost wakeups.
      r->work_cv.wait_for(lock, std::chrono::milliseconds(50));
    }
  }
}

// ---- ReplicationFollower ----------------------------------------------------

struct ReplicationFollower::Rep {
  ReplicationFollowerOptions options;
  LsnsFn lsns;
  ApplyFn apply;

  mutable std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  bool connected = false;
  std::string last_error;
  PawClient* live_client = nullptr;  // for Stop() to shut down
  std::thread thread;
};

ReplicationFollower::ReplicationFollower(
    ReplicationFollowerOptions options, LsnsFn lsns, ApplyFn apply)
    : rep_(std::make_unique<Rep>()) {
  rep_->options = std::move(options);
  rep_->lsns = std::move(lsns);
  rep_->apply = std::move(apply);
}

ReplicationFollower::~ReplicationFollower() { Stop(); }

void ReplicationFollower::Start() {
  rep_->thread = std::thread([this] { Loop(); });
}

void ReplicationFollower::Stop() {
  Rep* r = rep_.get();
  {
    std::lock_guard<std::mutex> lock(r->mu);
    r->stop = true;
    if (r->live_client != nullptr) {
      // Unblocks the reader; the loop exits on the resulting error.
      r->live_client->Shutdown();
    }
  }
  r->cv.notify_all();
  if (r->thread.joinable()) r->thread.join();
}

bool ReplicationFollower::connected() const {
  std::lock_guard<std::mutex> lock(rep_->mu);
  return rep_->connected;
}

std::string ReplicationFollower::last_error() const {
  std::lock_guard<std::mutex> lock(rep_->mu);
  return rep_->last_error;
}

void ReplicationFollower::Loop() {
  Rep* r = rep_.get();
  bool first = true;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(r->mu);
      if (r->stop) return;
      if (!first) {
        r->cv.wait_for(lock,
                       std::chrono::milliseconds(r->options.retry_ms),
                       [&] { return r->stop; });
        if (r->stop) return;
      }
    }
    if (!first) ReplReconnects().Add();
    first = false;
    const Status status = RunOnce();
    {
      std::lock_guard<std::mutex> lock(r->mu);
      r->connected = false;
      if (r->stop) return;
      // A refused follower retries forever; say why once, not on
      // every retry.
      if (!status.ok() && status.message() != r->last_error) {
        PAW_LOG(kWarning) << "pawd: follower of " << r->options.leader_host
                          << ":" << r->options.leader_port << ": "
                          << status.ToString();
        r->last_error = status.message();
      }
    }
  }
}

Status ReplicationFollower::RunOnce() {
  Rep* r = rep_.get();
  PawClientOptions copts;
  copts.client_name = r->options.follower_name;
  PAW_ASSIGN_OR_RETURN(
      PawClient client,
      PawClient::Connect(r->options.leader_host, r->options.leader_port,
                         copts));
  PAW_RETURN_NOT_OK(client.Auth(r->options.principal));

  wire::SubscribeRequest sub;
  sub.last_lsns = r->lsns();
  sub.follower_name = r->options.follower_name;
  PAW_RETURN_NOT_OK(client.Subscribe(sub).status());

  {
    std::lock_guard<std::mutex> lock(r->mu);
    if (r->stop) return Status::OK();
    r->connected = true;
    r->last_error.clear();
    r->live_client = &client;
  }
  // From here the connection is inverted: read leader pushes, apply,
  // ack. Any error drops the stream; the outer loop reconnects and
  // re-subscribes from the follower's own durable cursor.
  Status status = Status::OK();
  for (;;) {
    Result<wire::Frame> pushed = client.ReadPushedFrame();
    if (!pushed.ok()) {
      status = pushed.status();
      break;
    }
    if (pushed.value().opcode != wire::Opcode::kReplicate) {
      status = Status::Internal(
          "unexpected push opcode " +
          std::string(wire::OpcodeName(pushed.value().opcode)));
      break;
    }
    Result<wire::ReplicateRequest> batch =
        wire::DecodeReplicateRequest(pushed.value().payload);
    if (!batch.ok()) {
      status = batch.status();
      break;
    }
    // Adopt the leader's trace for the whole apply+ack step: the
    // follower samples by the shared trace id, so a sampled write on
    // the leader yields "repl.apply" spans here under the same id.
    const TraceContext push_trace = pushed.value().trace;
    ScopedTraceContext push_tl(push_trace);
    Result<uint64_t> durable = Status::Internal("apply did not run");
    {
      ScopedSpan span("repl.apply");
      span.set_detail(
          "shard=" + std::to_string(batch.value().shard) + " base=" +
          std::to_string(batch.value().base_lsn) + " n=" +
          std::to_string(batch.value().records.size()));
      durable = r->apply(batch.value());
      if (!durable.ok()) span.set_error();
    }
    if (!durable.ok()) {
      status = durable.status();
      break;
    }
    ReplBatchesApplied().Add();
    ReplRecordsApplied().Add(batch.value().records.size());
    wire::ReplicateResponse ack;
    ack.shard = batch.value().shard;
    ack.durable_lsn = durable.value();
    std::string payload;
    wire::AppendResponseStatus(Status::OK(), &payload);
    payload += wire::EncodeReplicateResponse(ack);
    // Echo the context on the ack so the leader's ack handling (and
    // its "repl.ack_recv" span) joins the same trace.
    status = client.SendRawFrame(wire::Opcode::kReplicate,
                                 pushed.value().request_id,
                                 std::move(payload), push_trace);
    if (!status.ok()) break;
    {
      std::lock_guard<std::mutex> lock(r->mu);
      if (r->stop) break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(r->mu);
    r->live_client = nullptr;
    r->connected = false;
  }
  return status;
}

}  // namespace paw
