#include "src/common/trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <type_traits>

#include "src/common/metrics.h"
#include "src/store/record.h"

namespace paw {

namespace {

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed span payload: " +
                                 std::string(what));
}

}  // namespace

void AppendTraceContext(const TraceContext& ctx, std::string* out) {
  PutFixed64(out, ctx.trace_id);
  PutFixed64(out, ctx.span_id);
}

bool ParseTraceContext(std::string_view buf, TraceContext* out) {
  size_t offset = 0;
  return GetFixed64(buf, &offset, &out->trace_id) &&
         GetFixed64(buf, &offset, &out->span_id);
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

int64_t TraceNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- TraceRecorder ----------------------------------------------------------

static_assert(sizeof(Span) % 8 == 0, "Span must be a whole word count");
static_assert(std::is_trivially_copyable_v<Span>,
              "Span is copied word-by-word through the seqlock");

/// A ring slot: the span payload plus a seqlock word. Even seq =
/// stable, odd = mid-write; a writer bumps to odd, fills the payload,
/// then stores the even successor with release. Readers load seq
/// before and after copying and discard on any change. The payload is
/// held as relaxed atomic words (not a plain Span) so a racy
/// copy-while-writing is a discarded value, not undefined behavior —
/// the Boehm seqlock recipe, and what keeps TSan quiet.
struct TraceRecorder::Slot {
  static constexpr size_t kWords = sizeof(Span) / 8;
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> words[kWords];
};

TraceRecorder::TraceRecorder(size_t slots)
    : slots_(slots == 0 ? 1 : slots), ring_(new Slot[slots == 0 ? 1 : slots]) {
  // Seed the id space from the system entropy source once per
  // recorder, so ids from concurrent processes (leader + follower on
  // one box) land in different ranges.
  std::random_device rd;
  id_base_ = (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

uint64_t TraceRecorder::NewTraceId() {
  uint64_t id = 0;
  while (id == 0) {
    // Mix the counter through a splitmix64 step so consecutive ids are
    // spread across the modulo classes `Sampled` partitions by —
    // otherwise `% n` would sample in phase with request order.
    uint64_t x =
        id_base_ + id_counter_.fetch_add(1, std::memory_order_relaxed);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    id = x ^ (x >> 31);
  }
  return id;
}

uint64_t TraceRecorder::NewSpanId() { return NewTraceId(); }

#if !defined(PAW_NO_TRACE)
void TraceRecorder::Record(const Span& span) {
  static Counter& recorded =
      MetricsRegistry::Global().GetCounter("paw_trace_spans_recorded_total");
  recorded.Add();
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[ticket % slots_];
  uint64_t words[Slot::kWords];
  std::memcpy(words, &span, sizeof(span));
  // Claim the slot by moving its seq from even to odd. Writers that lap
  // each other on a full ring can race for one slot; the loser drops
  // its span rather than interleave words with the winner, since two
  // writers finishing at the same even seq would let a reader accept a
  // torn span.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_relaxed)) {
    static Counter& dropped = MetricsRegistry::Global().GetCounter(
        "paw_trace_spans_dropped_total");
    dropped.Add();
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < Slot::kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
}
#endif

std::vector<Span> TraceRecorder::Collect() const {
  std::vector<Span> out;
#if !defined(PAW_NO_TRACE)
  const uint64_t head = next_.load(std::memory_order_acquire);
  const uint64_t live = head < slots_ ? head : slots_;
  const uint64_t first = head - live;
  out.reserve(live);
  for (uint64_t ticket = first; ticket < head; ++ticket) {
    const Slot& slot = ring_[ticket % slots_];
    for (int attempt = 0; attempt < 3; ++attempt) {
      const uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) break;  // empty or mid-write
      uint64_t words[Slot::kWords];
      for (size_t i = 0; i < Slot::kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == before) {
        Span copy;
        std::memcpy(&copy, words, sizeof(copy));
        out.push_back(copy);
        break;
      }
    }
  }
#endif
  return out;
}

void TraceRecorder::ResetForTesting() {
#if !defined(PAW_NO_TRACE)
  const uint64_t n = slots_;
  for (uint64_t i = 0; i < n; ++i) {
    ring_[i].seq.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_release);
#endif
}

// ---- Thread-local context ---------------------------------------------------

namespace {
thread_local TraceContext g_current_ctx;
}  // namespace

TraceContext CurrentTraceContext() { return g_current_ctx; }

TraceContext SetCurrentTraceContext(TraceContext ctx) {
  TraceContext prev = g_current_ctx;
  g_current_ctx = ctx;
  return prev;
}

ScopedSpan::~ScopedSpan() {
#if !defined(PAW_NO_TRACE)
  if (!live_) return;
  Span span;
  span.trace_id = ctx_.trace_id;
  span.span_id = TraceRecorder::Global().NewSpanId();
  span.parent_span_id = ctx_.span_id;
  span.start_us = start_us_;
  span.end_us = TraceNowMicros();
  span.set_name(name_);
  span.flags = flags_;
  if (!detail_.empty()) span.set_detail(detail_);
  TraceRecorder::Global().Record(span);
#endif
}

// ---- Audit channel ----------------------------------------------------------

std::string_view AuditVerdictName(AuditVerdict verdict) {
  switch (verdict) {
    case AuditVerdict::kServed:
      return "served";
    case AuditVerdict::kMasked:
      return "masked";
    case AuditVerdict::kDenied:
      return "denied";
  }
  return "unknown";
}

void RecordAuditEvent(AuditVerdict verdict, std::string_view principal,
                      uint8_t opcode, std::string_view detail) {
  {
    // The counters exist in every build (metrics has its own
    // compile-out), so dashboards see audit volume even when the ring
    // is compiled away.
    static Counter& served = MetricsRegistry::Global().GetCounter(
        "paw_audit_events_total{verdict=\"served\"}");
    static Counter& masked = MetricsRegistry::Global().GetCounter(
        "paw_audit_events_total{verdict=\"masked\"}");
    static Counter& denied = MetricsRegistry::Global().GetCounter(
        "paw_audit_events_total{verdict=\"denied\"}");
    switch (verdict) {
      case AuditVerdict::kServed:
        served.Add();
        break;
      case AuditVerdict::kMasked:
        masked.Add();
        break;
      case AuditVerdict::kDenied:
        denied.Add();
        break;
    }
  }
#if !defined(PAW_NO_TRACE)
  const int64_t now = TraceNowMicros();
  Span span;
  // Audit events join the surrounding trace when one is set, but are
  // recorded regardless of sampling: the audit log must be complete,
  // not statistical.
  const TraceContext ctx = CurrentTraceContext();
  span.trace_id = ctx.trace_id;
  span.span_id = TraceRecorder::Global().NewSpanId();
  span.parent_span_id = ctx.span_id;
  span.start_us = now;
  span.end_us = now;
  span.opcode = opcode;
  span.status_code = static_cast<uint8_t>(verdict);
  span.kind = SpanKind::kAudit;
  span.set_name(AuditVerdictName(verdict));
  span.set_principal(principal);
  span.set_detail(detail);
  TraceRecorder::Global().Record(span);
#else
  (void)principal;
  (void)opcode;
  (void)detail;
#endif
}

// ---- Span codec -------------------------------------------------------------

std::string EncodeSpans(const std::vector<Span>& spans) {
  std::string out;
  PutVarint64(&out, spans.size());
  for (const Span& s : spans) {
    PutFixed64(&out, s.trace_id);
    PutFixed64(&out, s.span_id);
    PutFixed64(&out, s.parent_span_id);
    PutVarint64(&out, ZigZag64(s.start_us));
    PutVarint64(&out, ZigZag64(s.end_us - s.start_us));
    PutVarint32(&out, s.result_bytes);
    out.push_back(static_cast<char>(s.opcode));
    out.push_back(static_cast<char>(s.status_code));
    out.push_back(static_cast<char>(s.kind));
    out.push_back(static_cast<char>(s.flags));
    PutLengthPrefixed(&out, s.name_view());
    PutLengthPrefixed(&out, s.principal_view());
    PutLengthPrefixed(&out, s.detail_view());
  }
  return out;
}

Result<std::vector<Span>> DecodeSpans(std::string_view payload,
                                      size_t* offset) {
  uint64_t n = 0;
  if (!GetVarint64(payload, offset, &n)) return Malformed("span count");
  if (n > payload.size()) return Malformed("implausible span count");
  std::vector<Span> spans;
  spans.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Span s;
    uint64_t start_zz = 0, dur_zz = 0;
    std::string_view bytes4;
    std::string_view name, principal, detail;
    if (!GetFixed64(payload, offset, &s.trace_id) ||
        !GetFixed64(payload, offset, &s.span_id) ||
        !GetFixed64(payload, offset, &s.parent_span_id) ||
        !GetVarint64(payload, offset, &start_zz) ||
        !GetVarint64(payload, offset, &dur_zz) ||
        !GetVarint32(payload, offset, &s.result_bytes) ||
        !GetBytes(payload, offset, 4, &bytes4) ||
        !GetLengthPrefixed(payload, offset, &name) ||
        !GetLengthPrefixed(payload, offset, &principal) ||
        !GetLengthPrefixed(payload, offset, &detail)) {
      return Malformed("span fields");
    }
    s.start_us = UnZigZag64(start_zz);
    s.end_us = s.start_us + UnZigZag64(dur_zz);
    s.opcode = static_cast<uint8_t>(bytes4[0]);
    s.status_code = static_cast<uint8_t>(bytes4[1]);
    const uint8_t kind = static_cast<uint8_t>(bytes4[2]);
    if (kind > static_cast<uint8_t>(SpanKind::kAudit)) {
      return Malformed("span kind");
    }
    s.kind = static_cast<SpanKind>(kind);
    s.flags = static_cast<uint8_t>(bytes4[3]);
    s.set_name(name);
    s.set_principal(principal);
    s.set_detail(detail);
    spans.push_back(s);
  }
  return spans;
}

}  // namespace paw
