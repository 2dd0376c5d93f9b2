#ifndef PAW_COMMON_TRACE_H_
#define PAW_COMMON_TRACE_H_

/// \file trace.h
/// \brief Process-wide lock-free span flight recorder + trace context.
///
/// One user request now crosses client → leader → group commit →
/// replication stream → follower; this file holds the pieces that let
/// a single trace id follow it the whole way:
///
/// - `TraceContext`: the 16-byte context (trace id + parent span id)
///   carried as a frame trailer on every non-HELLO frame (see
///   src/server/wire.h) and through WAL commit batches into the
///   replication stream.
/// - `TraceRecorder`: a fixed-size ring of structured `Span` records.
///   The hot path is one relaxed `fetch_add` to reserve a slot plus a
///   per-slot seqlock publish — no mutex, no allocation; concurrent
///   readers (`Collect`) retry slots that change under them. A writer
///   that finds its slot claimed by another (writers lapping each other
///   on a full ring) drops its span: spans may be lost, never torn.
/// - Head-sampling: `set_sample_n(n)` records 1-in-n traces,
///   deterministically by `trace_id % n`, so every node of a cluster
///   independently agrees on whether a given trace is sampled without
///   extra wire bits. Slow/error requests are recorded regardless at
///   the server's Respond step (the coarse request-family spans; the
///   full sub-layer detail exists only for head-sampled traces, which
///   cannot retroactively know a request will turn out slow).
/// - The privacy **audit channel**: one structured event per
///   privacy-enforced access, written into the same ring with
///   `kind == kAudit` (never sampled away) and counted by
///   `paw_audit_events_total{verdict=...}`.
///
/// Everything here compiles out under `PAW_NO_TRACE` in the
/// `PAW_NO_METRICS` style: recording becomes an empty inline, but the
/// context plumbing, the codec, and `Collect` (returning nothing)
/// remain, so the wire format and every caller are identical across
/// builds.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace paw {

/// \brief The wire-propagated trace context: which trace a request
/// belongs to and the sender-side span the receiver should parent its
/// spans under. `trace_id == 0` means "no context" (e.g. a background
/// operation).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

/// \brief Encoded size of a TraceContext frame trailer: two fixed64s.
inline constexpr size_t kTraceContextBytes = 16;

/// \brief Appends the 16-byte trailer encoding of `ctx` to `out`.
void AppendTraceContext(const TraceContext& ctx, std::string* out);

/// \brief Decodes a 16-byte trailer; false when `buf` is short.
bool ParseTraceContext(std::string_view buf, TraceContext* out);

/// \brief Canonical rendering of a trace id: 16 lowercase hex digits
/// (used by slow-log `trace=` attributes and pawctl; `pawctl connect
/// trace --id=` parses the same form).
std::string TraceIdHex(uint64_t trace_id);

/// \brief What a ring entry records.
enum class SpanKind : uint8_t {
  kSpan = 0,   ///< a timed operation
  kAudit = 1,  ///< a privacy-enforcement audit event (point-in-time)
};

/// \brief Span flag bits.
enum SpanFlags : uint8_t {
  kSpanFlagSlow = 1,   ///< root of a request over the slow threshold
  kSpanFlagError = 2,  ///< root of a request that failed
};

/// \brief One recorded span (or audit event). Fixed-size POD so ring
/// slots never allocate; names/principals/details are truncated to
/// their fields.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  int64_t start_us = 0;  ///< CLOCK_MONOTONIC-based microseconds
  int64_t end_us = 0;
  uint32_t result_bytes = 0;
  uint8_t opcode = 0;       ///< wire opcode, 0 when not request-bound
  uint8_t status_code = 0;  ///< StatusCode of the outcome, 0 = OK
  SpanKind kind = SpanKind::kSpan;
  uint8_t flags = 0;
  char name[24] = {};       ///< "server.add_execution", "wal.fsync", ...
  char principal[16] = {};  ///< authed principal, empty when none
  char detail[56] = {};     ///< free-form "k=v k=v" attributes

  void set_name(std::string_view v) { CopyTo(v, name, sizeof(name)); }
  void set_principal(std::string_view v) {
    CopyTo(v, principal, sizeof(principal));
  }
  void set_detail(std::string_view v) { CopyTo(v, detail, sizeof(detail)); }
  std::string_view name_view() const { return View(name, sizeof(name)); }
  std::string_view principal_view() const {
    return View(principal, sizeof(principal));
  }
  std::string_view detail_view() const {
    return View(detail, sizeof(detail));
  }

 private:
  static void CopyTo(std::string_view v, char* dst, size_t cap) {
    const size_t n = v.size() < cap ? v.size() : cap;
    std::memcpy(dst, v.data(), n);
    if (n < cap) std::memset(dst + n, 0, cap - n);
  }
  static std::string_view View(const char* src, size_t cap) {
    size_t n = 0;
    while (n < cap && src[n] != '\0') ++n;
    return {src, n};
  }
};

/// \brief Monotonic microseconds (the clock every span timestamp
/// uses). Monotonic so spans order correctly across threads of one
/// process; timestamps are not comparable across nodes.
int64_t TraceNowMicros();

/// \brief The process-wide span ring.
///
/// Thread-safe for any mix of writers and readers. Writers reserve a
/// slot with one relaxed `fetch_add` and publish through a per-slot
/// sequence word (odd = being written); readers copy a slot and retry
/// if its sequence moved. A reader racing a wrapped writer therefore
/// skips (never tears) the slot.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultSlots = 8192;

  explicit TraceRecorder(size_t slots = kDefaultSlots);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// \brief The process-wide recorder every layer records into.
  static TraceRecorder& Global();

  /// \brief Head-sampling knob: record 1-in-n traces (by
  /// `trace_id % n == 0`); 0 and 1 both mean "record every trace".
  void set_sample_n(uint32_t n) {
    sample_n_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_n() const {
    return sample_n_.load(std::memory_order_relaxed);
  }

  /// \brief True iff spans of `trace_id` should be recorded under the
  /// current sampling knob. Deterministic in the id, so every node
  /// agrees without coordination. False for the null trace id.
  bool Sampled(uint64_t trace_id) const {
    if (trace_id == 0) return false;
    const uint32_t n = sample_n_.load(std::memory_order_relaxed);
    return n <= 1 || trace_id % n == 0;
  }

  /// \brief A fresh nonzero trace id (process-random base + counter,
  /// so concurrent processes do not collide in practice).
  uint64_t NewTraceId();

  /// \brief A fresh nonzero span id.
  uint64_t NewSpanId();

#if defined(PAW_NO_TRACE)
  void Record(const Span&) {}
#else
  /// \brief Writes `span` into the ring (unconditionally — sampling is
  /// the caller's decision, via `Sampled` or a force bit). Dropped when
  /// another writer still holds the slot (see file comment).
  void Record(const Span& span);
#endif

  /// \brief Snapshot of every live slot, oldest first. Spans of one
  /// trace may interleave with others; callers group by trace id.
  std::vector<Span> Collect() const;

  /// \brief Total slots ever reserved by `Record` (monotonic; ring
  /// overwrites and lapped drops do not decrement).
  uint64_t recorded_total() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// \brief Empties the ring (tests).
  void ResetForTesting();

  size_t capacity() const { return slots_; }

 private:
  struct Slot;
  const size_t slots_;
  std::unique_ptr<Slot[]> ring_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint32_t> sample_n_{64};
  std::atomic<uint64_t> id_counter_{0};
  uint64_t id_base_ = 0;  ///< random per-process id prefix
};

// ---- Thread-local current context ------------------------------------------
//
// The request's context rides a thread-local so layers with no
// signature room for it (writer-queue drains, WAL group commit, the
// query engine's catch-up) can still parent their spans correctly.

/// \brief The calling thread's current trace context (null when the
/// thread is not serving a traced request).
TraceContext CurrentTraceContext();

/// \brief Sets the calling thread's context; returns the previous one.
TraceContext SetCurrentTraceContext(TraceContext ctx);

/// \brief RAII: installs `ctx` for the scope, restores on exit.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx)
      : prev_(SetCurrentTraceContext(ctx)) {}
  ~ScopedTraceContext() { SetCurrentTraceContext(prev_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// \brief RAII convenience for sub-layer spans: starts a clock at
/// construction and, if the thread's current trace is sampled, records
/// a span `[ctor, dtor]` named `name`, parented under the current
/// context. Cost when the trace is unsampled (the common case): one
/// thread-local read and one integer compare.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
#if defined(PAW_NO_TRACE)
  {
    (void)name;
  }
#else
      : ctx_(CurrentTraceContext()),
        live_(ctx_.valid() && TraceRecorder::Global().Sampled(ctx_.trace_id)),
        start_us_(live_ ? TraceNowMicros() : 0),
        name_(name) {
  }
#endif
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// \brief Attaches a detail string reported with the span.
  void set_detail(std::string detail) {
#if defined(PAW_NO_TRACE)
    (void)detail;
#else
    if (live_) detail_ = std::move(detail);
#endif
  }

  /// \brief Marks the span failed (sets kSpanFlagError when recorded).
  void set_error() {
#if !defined(PAW_NO_TRACE)
    flags_ |= kSpanFlagError;
#endif
  }

 private:
#if !defined(PAW_NO_TRACE)
  TraceContext ctx_;
  bool live_ = false;
  int64_t start_us_ = 0;
  std::string_view name_;
  std::string detail_;
  uint8_t flags_ = 0;
#endif
};

// ---- Audit channel ----------------------------------------------------------

/// \brief Verdict of one privacy-enforced access.
enum class AuditVerdict : uint8_t {
  kServed = 0,  ///< answered, nothing withheld for this principal
  kMasked = 1,  ///< answered with values masked / structure zoomed out
  kDenied = 2,  ///< refused outright
};

std::string_view AuditVerdictName(AuditVerdict verdict);

/// \brief Records one privacy audit event into the ring (joined to the
/// thread's current trace when one is set — audit events are recorded
/// even for unsampled traces) and bumps
/// `paw_audit_events_total{verdict=...}`. `detail` is the structured
/// "spec=.. group=g@2 masked=N zoom=D cache=hit" payload.
void RecordAuditEvent(AuditVerdict verdict, std::string_view principal,
                      uint8_t opcode, std::string_view detail);

// ---- Span snapshot codec ----------------------------------------------------
//
// The TRACE_DUMP payload: `varint n | n x span`, each span a fixed
// field group. Shared by server and pawctl; wire_test fuzzes it.

std::string EncodeSpans(const std::vector<Span>& spans);
Result<std::vector<Span>> DecodeSpans(std::string_view payload,
                                      size_t* offset);

}  // namespace paw

#endif  // PAW_COMMON_TRACE_H_
