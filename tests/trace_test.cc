#include "src/common/trace.h"

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/metrics.h"

namespace paw {
namespace {

Span MakeSpan(uint64_t trace_id, uint64_t span_id, uint64_t parent,
              std::string_view name) {
  Span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_span_id = parent;
  s.start_us = 1000;
  s.end_us = 1500;
  s.set_name(name);
  return s;
}

TEST(TraceContextTest, TrailerRoundTrips) {
  TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefULL;
  ctx.span_id = 0xfedcba9876543210ULL;
  std::string buf;
  AppendTraceContext(ctx, &buf);
  ASSERT_EQ(buf.size(), kTraceContextBytes);

  TraceContext out;
  ASSERT_TRUE(ParseTraceContext(buf, &out));
  EXPECT_EQ(out, ctx);
}

TEST(TraceContextTest, ParseRejectsShortBuffer) {
  std::string buf(kTraceContextBytes - 1, '\0');
  TraceContext out;
  EXPECT_FALSE(ParseTraceContext(buf, &out));
}

TEST(TraceContextTest, NullContextIsInvalid) {
  TraceContext ctx;
  EXPECT_FALSE(ctx.valid());
  ctx.trace_id = 1;
  EXPECT_TRUE(ctx.valid());
}

TEST(TraceIdHexTest, SixteenLowercaseZeroPaddedDigits) {
  EXPECT_EQ(TraceIdHex(0x1), "0000000000000001");
  EXPECT_EQ(TraceIdHex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(TraceIdHex(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
  // pawctl parses the same rendering back with strtoull base 16.
  const uint64_t id = 0x0123456789abcdefULL;
  EXPECT_EQ(std::strtoull(TraceIdHex(id).c_str(), nullptr, 16), id);
}

TEST(TraceRecorderTest, SamplingIsDeterministicInTheId) {
  TraceRecorder recorder(16);
  recorder.set_sample_n(4);
  for (uint64_t id = 1; id < 100; ++id) {
    EXPECT_EQ(recorder.Sampled(id), id % 4 == 0) << id;
  }
  // The null id is never sampled; 0 and 1 both mean "everything".
  EXPECT_FALSE(recorder.Sampled(0));
  recorder.set_sample_n(0);
  EXPECT_TRUE(recorder.Sampled(7));
  EXPECT_FALSE(recorder.Sampled(0));
  recorder.set_sample_n(1);
  EXPECT_TRUE(recorder.Sampled(7));
}

TEST(TraceRecorderTest, FreshIdsAreNonzeroAndDistinct) {
  TraceRecorder recorder(16);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t trace = recorder.NewTraceId();
    const uint64_t span = recorder.NewSpanId();
    EXPECT_NE(trace, 0u);
    EXPECT_NE(span, 0u);
    seen.insert(trace);
    seen.insert(span);
  }
  EXPECT_EQ(seen.size(), 2000u);
}

#if !defined(PAW_NO_TRACE)

TEST(TraceRecorderTest, CollectReturnsRecordedSpansOldestFirst) {
  TraceRecorder recorder(8);
  for (uint64_t i = 1; i <= 3; ++i) {
    recorder.Record(MakeSpan(i, i * 10, 0, "t.span"));
  }
  const std::vector<Span> got = recorder.Collect();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].trace_id, 1u);
  EXPECT_EQ(got[1].trace_id, 2u);
  EXPECT_EQ(got[2].trace_id, 3u);
  EXPECT_EQ(got[0].name_view(), "t.span");
  EXPECT_EQ(recorder.recorded_total(), 3u);
}

TEST(TraceRecorderTest, RingWrapsKeepingTheNewest) {
  TraceRecorder recorder(8);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (uint64_t i = 1; i <= 13; ++i) {
    recorder.Record(MakeSpan(i, i, 0, "t.wrap"));
  }
  const std::vector<Span> got = recorder.Collect();
  ASSERT_EQ(got.size(), 8u);
  // Oldest five were overwritten; the survivors stay in order.
  EXPECT_EQ(got.front().trace_id, 6u);
  EXPECT_EQ(got.back().trace_id, 13u);
  EXPECT_EQ(recorder.recorded_total(), 13u);

  recorder.ResetForTesting();
  EXPECT_TRUE(recorder.Collect().empty());
}

TEST(TraceRecorderTest, TruncatesLongStringsIntoFixedFields) {
  TraceRecorder recorder(4);
  Span span = MakeSpan(1, 2, 0, "");
  const std::string long_name(100, 'n');
  const std::string long_principal(100, 'p');
  const std::string long_detail(100, 'd');
  span.set_name(long_name);
  span.set_principal(long_principal);
  span.set_detail(long_detail);
  recorder.Record(span);
  const std::vector<Span> got = recorder.Collect();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].name_view(), long_name.substr(0, sizeof(Span{}.name)));
  EXPECT_EQ(got[0].principal_view(),
            long_principal.substr(0, sizeof(Span{}.principal)));
  EXPECT_EQ(got[0].detail_view(),
            long_detail.substr(0, sizeof(Span{}.detail)));
}

// Concurrency hammer for the seqlock: racy reads must skip or return
// intact spans, never torn ones. Every written span satisfies
// end_us == start_us + 1 and span_id == trace_id ^ kMark; a torn copy
// breaks one of the invariants. Writers may drop spans when they lap
// each other on a slot, so only the reserved-ticket total is exact.
void HammerRecorder(size_t slots, int num_writers, uint64_t per_writer) {
  constexpr uint64_t kMark = 0x5a5a5a5a5a5a5a5aULL;
  TraceRecorder recorder(slots);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Span& s : recorder.Collect()) {
        if (s.end_us != s.start_us + 1 ||
            s.span_id != (s.trace_id ^ kMark)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < num_writers; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 1; i <= per_writer; ++i) {
        const uint64_t id = (static_cast<uint64_t>(w) << 32) | i;
        Span s;
        s.trace_id = id;
        s.span_id = id ^ kMark;
        s.start_us = static_cast<int64_t>(i);
        s.end_us = static_cast<int64_t>(i) + 1;
        s.set_name("t.hammer");
        recorder.Record(s);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(recorder.recorded_total(), num_writers * per_writer);
  const std::vector<Span> final_spans = recorder.Collect();
  EXPECT_EQ(final_spans.size(), slots);
  for (const Span& s : final_spans) {
    EXPECT_EQ(s.end_us, s.start_us + 1);
    EXPECT_EQ(s.span_id, s.trace_id ^ kMark);
  }
}

TEST(TraceRecorderTest, ConcurrentRecordAndCollectNeverTear) {
  HammerRecorder(/*slots=*/64, /*num_writers=*/4, /*per_writer=*/20000);
}

// More writers than slots: writers lap each other on every slot all
// the time, the case where two writers used to both publish one seq.
TEST(TraceRecorderTest, WritersLappingOnEverySlotNeverTear) {
  HammerRecorder(/*slots=*/2, /*num_writers=*/8, /*per_writer=*/50000);
}

TEST(ScopedSpanTest, RecordsUnderTheCurrentContextWhenSampled) {
  TraceRecorder& global = TraceRecorder::Global();
  const uint32_t old_n = global.sample_n();
  global.ResetForTesting();
  global.set_sample_n(1);

  TraceContext ctx;
  ctx.trace_id = 777;
  ctx.span_id = 42;
  {
    ScopedTraceContext scoped(ctx);
    ScopedSpan span("test.scoped");
    span.set_detail("k=v");
  }
  bool found = false;
  for (const Span& s : global.Collect()) {
    if (s.name_view() == "test.scoped") {
      found = true;
      EXPECT_EQ(s.trace_id, 777u);
      EXPECT_EQ(s.parent_span_id, 42u);
      EXPECT_NE(s.span_id, 0u);
      EXPECT_EQ(s.detail_view(), "k=v");
      EXPECT_GE(s.end_us, s.start_us);
    }
  }
  EXPECT_TRUE(found);
  global.set_sample_n(old_n);
  global.ResetForTesting();
}

TEST(ScopedSpanTest, SkipsUnsampledAndContextlessThreads) {
  TraceRecorder& global = TraceRecorder::Global();
  const uint32_t old_n = global.sample_n();
  global.ResetForTesting();

  // No context installed: nothing recorded.
  const uint64_t before = global.recorded_total();
  { ScopedSpan span("test.nocontext"); }
  EXPECT_EQ(global.recorded_total(), before);

  // Context present but the trace is sampled out.
  global.set_sample_n(1000000000);
  TraceContext ctx;
  ctx.trace_id = 3;  // 3 % 1e9 != 0
  {
    ScopedTraceContext scoped(ctx);
    ScopedSpan span("test.unsampled");
  }
  EXPECT_EQ(global.recorded_total(), before);
  global.set_sample_n(old_n);
  global.ResetForTesting();
}

TEST(AuditTest, EventsRecordRegardlessOfSampling) {
  TraceRecorder& global = TraceRecorder::Global();
  const uint32_t old_n = global.sample_n();
  global.ResetForTesting();
  global.set_sample_n(1000000000);  // samples (almost) nothing

  const uint64_t masked_before =
      MetricsRegistry::Global()
          .GetCounter("paw_audit_events_total{verdict=\"masked\"}")
          .value();
  TraceContext ctx;
  ctx.trace_id = 3;
  ctx.span_id = 9;
  {
    ScopedTraceContext scoped(ctx);
    RecordAuditEvent(AuditVerdict::kMasked, "alice", 7, "masked=2");
  }
  bool found = false;
  for (const Span& s : global.Collect()) {
    if (s.kind != SpanKind::kAudit) continue;
    found = true;
    EXPECT_EQ(s.name_view(), "masked");
    EXPECT_EQ(s.principal_view(), "alice");
    EXPECT_EQ(s.detail_view(), "masked=2");
    EXPECT_EQ(s.opcode, 7u);
    EXPECT_EQ(s.trace_id, 3u);      // joined the surrounding trace
    EXPECT_EQ(s.parent_span_id, 9u);
    EXPECT_EQ(s.start_us, s.end_us);  // point-in-time
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("paw_audit_events_total{verdict=\"masked\"}")
                .value(),
            masked_before + 1);
  global.set_sample_n(old_n);
  global.ResetForTesting();
}

#endif  // !PAW_NO_TRACE

TEST(SpanCodecTest, RoundTripsSpanList) {
  std::vector<Span> spans;
  Span a = MakeSpan(1, 2, 0, "req.add_execution");
  a.opcode = 5;
  a.status_code = 3;
  a.flags = kSpanFlagSlow | kSpanFlagError;
  a.result_bytes = 4096;
  a.set_principal("alice");
  a.set_detail("shard=1 lsn=9");
  spans.push_back(a);
  Span b = MakeSpan(1, 3, 2, "wal.fsync");
  b.start_us = -5;  // zigzag path: negative monotonic bases survive
  b.end_us = 10;
  spans.push_back(b);
  Span c;
  c.kind = SpanKind::kAudit;
  c.set_name("denied");
  spans.push_back(c);

  const std::string encoded = EncodeSpans(spans);
  size_t offset = 0;
  Result<std::vector<Span>> decoded = DecodeSpans(encoded, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(offset, encoded.size());
  ASSERT_EQ(decoded.value().size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& want = spans[i];
    const Span& got = decoded.value()[i];
    EXPECT_EQ(got.trace_id, want.trace_id);
    EXPECT_EQ(got.span_id, want.span_id);
    EXPECT_EQ(got.parent_span_id, want.parent_span_id);
    EXPECT_EQ(got.start_us, want.start_us);
    EXPECT_EQ(got.end_us, want.end_us);
    EXPECT_EQ(got.result_bytes, want.result_bytes);
    EXPECT_EQ(got.opcode, want.opcode);
    EXPECT_EQ(got.status_code, want.status_code);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.flags, want.flags);
    EXPECT_EQ(got.name_view(), want.name_view());
    EXPECT_EQ(got.principal_view(), want.principal_view());
    EXPECT_EQ(got.detail_view(), want.detail_view());
  }
}

TEST(SpanCodecTest, RejectsEveryTruncation) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(7, 8, 0, "t.codec"));
  const std::string encoded = EncodeSpans(spans);
  for (size_t len = 0; len < encoded.size(); ++len) {
    size_t offset = 0;
    EXPECT_FALSE(DecodeSpans(encoded.substr(0, len), &offset).ok())
        << "prefix length " << len;
  }
}

}  // namespace
}  // namespace paw
