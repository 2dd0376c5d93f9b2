// Tests for the store record format and CRC32, including seeded-random
// round-trip properties over arbitrary binary payloads.

#include "src/store/record.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"

namespace paw {
namespace {

TEST(Crc32Test, KnownCheckValue) {
  // The standard CRC-32/ISO-HDLC check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (char c : data) crc = Crc32Update(crc, &c, 1);
  EXPECT_EQ(crc, Crc32(data));
  // Chunked at an unaligned boundary too.
  uint32_t chunked = Crc32Update(0, data.data(), 7);
  chunked = Crc32Update(chunked, data.data() + 7, data.size() - 7);
  EXPECT_EQ(chunked, Crc32(data));
}

TEST(RecordTest, FixedWidthRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  size_t pos = 0;
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(GetFixed32(buf, &pos, &v32));
  ASSERT_TRUE(GetFixed64(buf, &pos, &v64));
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_EQ(pos, buf.size());
  EXPECT_FALSE(GetFixed32(buf, &pos, &v32));
}

TEST(RecordTest, RoundTripMultipleRecords) {
  std::string buf;
  AppendRecord(RecordType::kSpecV2, "first payload", &buf);
  AppendRecord(RecordType::kExecutionV2, "", &buf);
  AppendRecord(RecordType::kSpecV2, std::string(10000, 'x'), &buf);

  RecordReader reader(buf);
  Record r;
  ASSERT_EQ(reader.Next(&r), ReadOutcome::kRecord);
  EXPECT_EQ(r.type, RecordType::kSpecV2);
  EXPECT_EQ(r.payload, "first payload");
  ASSERT_EQ(reader.Next(&r), ReadOutcome::kRecord);
  EXPECT_EQ(r.type, RecordType::kExecutionV2);
  EXPECT_EQ(r.payload, "");
  ASSERT_EQ(reader.Next(&r), ReadOutcome::kRecord);
  EXPECT_EQ(r.payload.size(), 10000u);
  EXPECT_EQ(reader.Next(&r), ReadOutcome::kEndOfData);
  EXPECT_EQ(reader.valid_bytes(), buf.size());
  EXPECT_EQ(reader.dropped_bytes(), 0u);
  // The outcome is sticky.
  EXPECT_EQ(reader.Next(&r), ReadOutcome::kEndOfData);
}

TEST(RecordTest, TornTailDetectedAtEveryCut) {
  std::string buf;
  AppendRecord(RecordType::kSpecV2, "intact record", &buf);
  const size_t first = buf.size();
  AppendRecord(RecordType::kExecutionV2, "the record a crash tears", &buf);

  // Any cut strictly inside the second record leaves a torn tail; the
  // valid prefix is exactly the first record.
  for (size_t cut = first + 1; cut < buf.size(); ++cut) {
    RecordReader reader(std::string_view(buf).substr(0, cut));
    Record r;
    ASSERT_EQ(reader.Next(&r), ReadOutcome::kRecord) << "cut=" << cut;
    EXPECT_EQ(reader.Next(&r), ReadOutcome::kTornTail) << "cut=" << cut;
    EXPECT_EQ(reader.valid_bytes(), first) << "cut=" << cut;
    EXPECT_EQ(reader.dropped_bytes(), cut - first) << "cut=" << cut;
    EXPECT_FALSE(reader.tail_error().empty());
  }
}

TEST(RecordTest, BitFlipFailsChecksum) {
  std::string buf;
  AppendRecord(RecordType::kSpecV2, "payload under test", &buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    std::string damaged = buf;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    RecordReader reader(damaged);
    Record r;
    // A flip anywhere in the frame must not yield a valid record with
    // the wrong bytes; either the checksum or the framing catches it.
    if (reader.Next(&r) == ReadOutcome::kRecord) {
      EXPECT_EQ(r.payload, "payload under test") << "flip at " << i;
      FAIL() << "corrupt frame decoded as valid at byte " << i;
    }
  }
}

TEST(RecordTest, ImplausibleLengthIsTornNotAllocated) {
  std::string buf;
  PutFixed32(&buf, 0xFFFFFFFFu);  // 4 GiB payload claim
  PutFixed32(&buf, 0);
  buf.push_back(static_cast<char>(RecordType::kSpecV2));
  buf += "tiny";
  RecordReader reader(buf);
  Record r;
  EXPECT_EQ(reader.Next(&r), ReadOutcome::kTornTail);
  EXPECT_NE(reader.tail_error().find("implausible"), std::string::npos);
}

TEST(RecordTest, EmptyBufferIsCleanEnd) {
  RecordReader reader("");
  Record r;
  EXPECT_EQ(reader.Next(&r), ReadOutcome::kEndOfData);
}

/// Random binary payload: every byte value, including '\0', '\n', and
/// the frame-header bytes themselves.
std::string RandomPayload(Rng* rng, size_t max_len) {
  std::string out;
  const size_t len = static_cast<size_t>(rng->Uniform(max_len + 1));
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return out;
}

// Property: any sequence of arbitrary binary payloads round-trips
// through the frame format byte-for-byte, in order.
TEST(RecordFuzzTest, RandomStreamsRoundTrip) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    std::vector<Record> written;
    std::string buf;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      Record r;
      r.type = rng.Bernoulli(0.5) ? RecordType::kSpecV2
                                  : RecordType::kExecutionV2;
      r.payload = RandomPayload(&rng, 2000);
      AppendRecord(r.type, r.payload, &buf);
      written.push_back(std::move(r));
    }
    RecordReader reader(buf);
    Record got;
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(reader.Next(&got), ReadOutcome::kRecord)
          << "seed=" << seed << " i=" << i;
      EXPECT_EQ(got.type, written[static_cast<size_t>(i)].type);
      EXPECT_EQ(got.payload, written[static_cast<size_t>(i)].payload)
          << "seed=" << seed << " i=" << i;
    }
    EXPECT_EQ(reader.Next(&got), ReadOutcome::kEndOfData);
    EXPECT_EQ(reader.valid_bytes(), buf.size());
  }
}

// Property: cutting a random stream at any random offset yields a
// whole-record prefix — the reader never returns a record that crosses
// the cut and always reports a boundary-aligned valid prefix.
TEST(RecordFuzzTest, RandomCutsYieldWholeRecordPrefixes) {
  Rng rng(99);
  std::string buf;
  std::vector<size_t> boundaries;  // end offset of each record
  for (int i = 0; i < 20; ++i) {
    AppendRecord(RecordType::kSpecV2, RandomPayload(&rng, 300), &buf);
    boundaries.push_back(buf.size());
  }
  for (int trial = 0; trial < 500; ++trial) {
    const size_t cut = static_cast<size_t>(rng.Uniform(buf.size() + 1));
    size_t whole = 0;
    bool on_boundary = cut == 0;
    for (size_t b : boundaries) {
      if (b <= cut) ++whole;
      if (b == cut) on_boundary = true;
    }
    RecordReader reader(std::string_view(buf).substr(0, cut));
    Record r;
    size_t got = 0;
    while (reader.Next(&r) == ReadOutcome::kRecord) ++got;
    EXPECT_EQ(got, whole) << "cut=" << cut;
    EXPECT_EQ(reader.valid_bytes(), whole == 0 ? 0 : boundaries[whole - 1])
        << "cut=" << cut;
    if (on_boundary) {
      EXPECT_EQ(reader.dropped_bytes(), 0u) << "cut=" << cut;
    } else {
      EXPECT_GT(reader.dropped_bytes(), 0u) << "cut=" << cut;
      EXPECT_FALSE(reader.tail_error().empty()) << "cut=" << cut;
    }
  }
}

// Property: fixed-width integers round-trip at arbitrary offsets in
// mixed streams.
TEST(RecordFuzzTest, FixedWidthFuzzRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string buf;
    std::vector<uint32_t> v32;
    std::vector<uint64_t> v64;
    const int n = static_cast<int>(rng.UniformInt(1, 16));
    for (int i = 0; i < n; ++i) {
      v32.push_back(static_cast<uint32_t>(rng.Next()));
      v64.push_back(rng.Next());
      PutFixed32(&buf, v32.back());
      PutFixed64(&buf, v64.back());
    }
    size_t pos = 0;
    for (int i = 0; i < n; ++i) {
      uint32_t a = 0;
      uint64_t b = 0;
      ASSERT_TRUE(GetFixed32(buf, &pos, &a));
      ASSERT_TRUE(GetFixed64(buf, &pos, &b));
      EXPECT_EQ(a, v32[static_cast<size_t>(i)]);
      EXPECT_EQ(b, v64[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(pos, buf.size());
  }
}

}  // namespace
}  // namespace paw
