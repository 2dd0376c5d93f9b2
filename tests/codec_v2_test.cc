// Tests for the binary payload codec: varint primitives, exact round
// trips for fuzzed specs / policies / executions, hostile string
// content (raw newlines, semicolons, NULs), payload-truncation sweeps
// (every prefix must fail cleanly, never crash or fabricate state),
// and ApplyRecord, including its refusal of retired v1 text records.

#include "src/store/codec.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/privacy/policy_text.h"
#include "src/provenance/serialize.h"
#include "src/repo/workload.h"
#include "src/store/record.h"
#include "src/workflow/builder.h"
#include "src/workflow/serialize.h"

namespace paw {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
        uint64_t{16383}, uint64_t{16384}, uint64_t{0xFFFFFFFFull},
        uint64_t{0x100000000ull},
        std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
  for (uint32_t v : {0u, 127u, 128u, 300u, 0xFFFFFFFFu}) {
    std::string buf;
    PutVarint32(&buf, v);
    size_t pos = 0;
    uint32_t decoded = 0;
    ASSERT_TRUE(GetVarint32(buf, &pos, &decoded)) << v;
    EXPECT_EQ(decoded, v);
  }
}

TEST(VarintTest, RejectsOverrunAndOverflow) {
  std::string buf;
  PutVarint64(&buf, std::numeric_limits<uint64_t>::max());
  // Every strict prefix of a varint is an overrun.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(
        GetVarint64(std::string_view(buf).substr(0, cut), &pos, &v))
        << cut;
  }
  // A value wider than 32 bits must not decode as a varint32.
  std::string wide;
  PutVarint64(&wide, uint64_t{1} << 32);
  size_t pos = 0;
  uint32_t v32 = 0;
  EXPECT_FALSE(GetVarint32(wide, &pos, &v32));
  // An 11-byte continuation chain overflows varint64.
  std::string runaway(11, static_cast<char>(0x80));
  pos = 0;
  uint64_t v64 = 0;
  EXPECT_FALSE(GetVarint64(runaway, &pos, &v64));
}

TEST(VarintTest, ZigZagRoundTrip) {
  for (int32_t v : {0, -1, 1, -2, 2, 1 << 20, -(1 << 20),
                    std::numeric_limits<int32_t>::min(),
                    std::numeric_limits<int32_t>::max()}) {
    EXPECT_EQ(UnZigZag32(ZigZag32(v)), v) << v;
  }
  EXPECT_EQ(ZigZag32(-1), 1u);
  EXPECT_EQ(ZigZag32(1), 2u);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(UnZigZag64(ZigZag64(v)), v) << v;
  }
}

/// A policy that exercises every section with hostile strings.
PolicySet HostilePolicy(const Specification& spec) {
  PolicySet policy;
  policy.data.default_level = 1;
  policy.data.label_level["line1\nline2"] = 2;
  policy.data.label_level["semi;colon"] = 3;
  policy.data.label_level[std::string("nul\0byte", 8)] = 1;
  policy.data.label_level["quote\"backslash\\"] = 2;
  for (const Module& m : spec.modules()) {
    if (m.kind == ModuleKind::kAtomic) {
      policy.module_reqs.push_back({m.code, 4, 2});
      break;
    }
  }
  return policy;
}

// Property: seeded-random specs with hostile policies round-trip
// through the v2 codec byte-for-byte, and the decoded spec re-renders
// to identical text.
TEST(CodecV2Test, SpecPayloadsRoundTripExactly) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed);
    auto spec = GenerateSpec(WorkloadParams{}, &rng,
                             "fuzzbin" + std::to_string(seed));
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const PolicySet policy = HostilePolicy(spec.value());
    const std::string payload = EncodeSpecPayloadV2(spec.value(), policy);
    auto decoded = DecodeSpecPayloadV2(payload);
    ASSERT_TRUE(decoded.ok())
        << "seed=" << seed << ": " << decoded.status().ToString();
    EXPECT_EQ(EncodeSpecPayloadV2(decoded.value().spec,
                                  decoded.value().policy),
              payload)
        << "seed=" << seed;
    EXPECT_EQ(Serialize(decoded.value().spec), Serialize(spec.value()));
    EXPECT_EQ(SerializePolicy(decoded.value().policy),
              SerializePolicy(policy));
  }
}

// Property: seeded-random executions round-trip through the v2 codec
// byte-for-byte.
TEST(CodecV2Test, ExecutionPayloadsRoundTripExactly) {
  Rng rng(4242);
  auto spec = GenerateSpec(WorkloadParams{}, &rng, "fuzzbin-exec");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  for (int trial = 0; trial < 20; ++trial) {
    auto exec = GenerateExecution(spec.value(), &rng);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    const int spec_id = static_cast<int>(rng.Uniform(1000));
    const std::string payload =
        EncodeExecutionPayloadV2(spec_id, exec.value());
    auto spec_id_peek =
        DecodeExecutionSpecId(payload);
    ASSERT_TRUE(spec_id_peek.ok());
    EXPECT_EQ(spec_id_peek.value(), spec_id);
    auto replayed = DecodeExecutionPayloadV2(payload, spec.value());
    ASSERT_TRUE(replayed.ok())
        << "trial=" << trial << ": " << replayed.status().ToString();
    EXPECT_EQ(EncodeExecutionPayloadV2(spec_id, replayed.value()), payload)
        << "trial=" << trial;
    EXPECT_EQ(SerializeExecution(replayed.value()),
              SerializeExecution(exec.value()))
        << "trial=" << trial;
  }
}

// Robustness: every strict prefix of a valid payload fails with a
// Status — never a crash, never a partially applied result.
TEST(CodecV2Test, TruncatedSpecPayloadsFailCleanly) {
  Rng rng(5);
  auto spec = GenerateSpec(WorkloadParams{}, &rng, "trunc");
  ASSERT_TRUE(spec.ok());
  const std::string payload =
      EncodeSpecPayloadV2(spec.value(), HostilePolicy(spec.value()));
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded =
        DecodeSpecPayloadV2(std::string_view(payload).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
  // Trailing junk is rejected too (payloads are exact-length).
  auto decoded = DecodeSpecPayloadV2(payload + "x");
  EXPECT_FALSE(decoded.ok());
}

TEST(CodecV2Test, TruncatedExecutionPayloadsFailCleanly) {
  Rng rng(6);
  auto spec = GenerateSpec(WorkloadParams{}, &rng, "trunc-exec");
  ASSERT_TRUE(spec.ok());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  const std::string payload = EncodeExecutionPayloadV2(3, exec.value());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeExecutionPayloadV2(
        std::string_view(payload).substr(0, cut), spec.value());
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
  auto decoded = DecodeExecutionPayloadV2(payload + "x", spec.value());
  EXPECT_FALSE(decoded.ok());
}

// Single-byte corruptions that survive framing must still never
// produce an out-of-range reference (indices are validated during
// decode). Flip each byte and require either a clean error or a
// decodable execution — never a crash.
TEST(CodecV2Test, ByteFlippedExecutionPayloadsNeverCrash) {
  Rng rng(7);
  auto spec = GenerateSpec(WorkloadParams{}, &rng, "flip-exec");
  ASSERT_TRUE(spec.ok());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  const std::string payload = EncodeExecutionPayloadV2(0, exec.value());
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string corrupt = payload;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    auto decoded = DecodeExecutionPayloadV2(corrupt, spec.value());
    // Either outcome is fine; evaluating it must be safe.
    (void)decoded.ok();
  }
}

TEST(CodecV2Test, ApplyRecordReplaysV2Records) {
  Rng rng(11);
  auto spec = GenerateSpec(WorkloadParams{}, &rng, "apply");
  ASSERT_TRUE(spec.ok());
  auto exec = GenerateExecution(spec.value(), &rng);
  ASSERT_TRUE(exec.ok());
  const std::string exec_text = SerializeExecution(exec.value());

  Repository repo;
  Record record;
  record.type = RecordType::kSpecV2;
  record.payload = EncodeSpecPayloadV2(spec.value(), {});
  ASSERT_TRUE(ApplyRecord(record, &repo).ok());
  ASSERT_EQ(repo.num_specs(), 1);

  record.type = RecordType::kExecutionV2;
  record.payload = EncodeExecutionPayloadV2(0, exec.value());
  ASSERT_TRUE(ApplyRecord(record, &repo).ok());
  ASSERT_EQ(repo.num_executions(), 1);
  EXPECT_EQ(SerializeExecution(repo.execution(ExecutionId(0)).exec),
            exec_text);

  // An execution referencing a spec the repository does not hold is
  // rejected, as is one referencing an overflowing id.
  record.payload = EncodeExecutionPayloadV2(7, exec.value());
  EXPECT_FALSE(ApplyRecord(record, &repo).ok());
}

// Types 2 and 3 carried v1 text payloads. Meeting one on replay is a
// clear FailedPrecondition, never an attempt to decode it as binary.
TEST(CodecV2Test, ApplyRecordRefusesRetiredTextRecords) {
  Repository repo;
  for (uint8_t type : {uint8_t{2}, uint8_t{3}}) {
    Record record;
    record.type = static_cast<RecordType>(type);
    record.payload = "name demo\n";
    const Status status = ApplyRecord(record, &repo);
    EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
    EXPECT_NE(status.message().find("v1 text record"), std::string::npos);
  }
  EXPECT_EQ(repo.num_specs(), 0);
}

}  // namespace
}  // namespace paw
