// Wire-protocol tests: frame round trips (including incremental,
// byte-at-a-time delivery), truncation and bit-flip sweeps in the
// style of crash_injection_test.cc, oversized/malformed rejection, and
// fuzzed round trips of every message body codec.

#include "src/server/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/store/record.h"

namespace paw {
namespace wire {
namespace {

Frame MakeFrame(Opcode op, uint64_t id, std::string payload) {
  Frame frame;
  frame.opcode = op;
  frame.request_id = id;
  frame.payload = std::move(payload);
  return frame;
}

std::string Encode(const Frame& frame) {
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

TEST(WireFrameTest, RoundTripsSimpleFrame) {
  const Frame frame =
      MakeFrame(Opcode::kAddExecution, 42, "hello payload");
  const std::string bytes = Encode(frame);
  // Every non-HELLO frame carries the 16-byte trace trailer.
  ASSERT_EQ(bytes.size(),
            kFrameHeaderSize + frame.payload.size() + kTraceContextBytes);

  Frame decoded;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kFrame)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.opcode, Opcode::kAddExecution);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.payload, "hello payload");
  EXPECT_EQ(decoded.trace, TraceContext{});
}

TEST(WireFrameTest, TraceTrailerRoundTrips) {
  Frame frame = MakeFrame(Opcode::kLineage, 7, "body bytes");
  frame.trace = TraceContext{0xDEADBEEFCAFEF00Dull, 0x1122334455667788ull};
  const std::string bytes = Encode(frame);
  Frame decoded;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kFrame)
      << error;
  EXPECT_EQ(decoded.payload, "body bytes");
  EXPECT_EQ(decoded.trace.trace_id, frame.trace.trace_id);
  EXPECT_EQ(decoded.trace.span_id, frame.trace.span_id);
}

TEST(WireFrameTest, HelloFramesCarryNoTrailer) {
  // HELLO travels before the version is agreed, so it is exempt —
  // that is what lets negotiation reject any offered range cleanly.
  Frame frame = MakeFrame(Opcode::kHello, 1, "hello body");
  frame.trace = TraceContext{9, 9};
  const std::string bytes = Encode(frame);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + frame.payload.size());
  Frame decoded;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kFrame)
      << error;
  EXPECT_EQ(decoded.payload, "hello body");
  EXPECT_EQ(decoded.trace, TraceContext{});
}

TEST(WireFrameTest, FrameTooShortForTrailerIsBad) {
  // Hand-build a non-HELLO frame whose payload is under 16 bytes:
  // framing-valid (CRC passes) but trailer-invalid.
  Frame frame = MakeFrame(Opcode::kHello, 1, "short");  // no trailer ...
  std::string bytes;
  AppendFrame(frame, &bytes);
  bytes[13] = static_cast<char>(Opcode::kStatus);  // ... retag, re-CRC
  std::string covered = bytes.substr(12);
  std::string crc;
  PutFixed32(&crc, Crc32(covered));
  bytes.replace(8, 4, crc);
  Frame decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kBad);
  EXPECT_NE(error.find("trailer"), std::string::npos);
}

TEST(WireFrameTest, RoundTripsEmptyAndBinaryPayloads) {
  std::string nasty;
  for (int i = 0; i < 256; ++i) nasty.push_back(static_cast<char>(i));
  for (const std::string& payload :
       {std::string(), nasty, std::string("line1\nline2\0tail", 16)}) {
    const Frame frame = MakeFrame(Opcode::kStatus, 7, payload);
    const std::string bytes = Encode(frame);
    Frame decoded;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
              ParseResult::kFrame)
        << error;
    EXPECT_EQ(decoded.payload, payload);
  }
}

TEST(WireFrameTest, FuzzRoundTripRandomFrames) {
  Rng rng(20260729);
  for (int iter = 0; iter < 500; ++iter) {
    Frame frame;
    frame.opcode = static_cast<Opcode>(1 + rng.Uniform(11));
    frame.request_id =
        (static_cast<uint64_t>(rng.Uniform(1 << 30)) << 32) |
        static_cast<uint64_t>(rng.Uniform(1 << 30));
    const int len = rng.Uniform(600);
    std::string payload;
    for (int i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    frame.payload = payload;

    const std::string bytes = Encode(frame);
    Frame decoded;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
              ParseResult::kFrame)
        << error;
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded.opcode, frame.opcode);
    EXPECT_EQ(decoded.request_id, frame.request_id);
    EXPECT_EQ(decoded.payload, frame.payload);
  }
}

TEST(WireFrameTest, ParsesTwoFramesBackToBack) {
  std::string bytes = Encode(MakeFrame(Opcode::kAuth, 1, "alice"));
  const size_t first_size = bytes.size();
  AppendFrame(MakeFrame(Opcode::kStatus, 2, ""), &bytes);

  Frame decoded;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kFrame);
  EXPECT_EQ(consumed, first_size);
  EXPECT_EQ(decoded.opcode, Opcode::kAuth);
  ASSERT_EQ(ParseFrame(std::string_view(bytes).substr(consumed), &decoded,
                       &consumed, &error),
            ParseResult::kFrame);
  EXPECT_EQ(decoded.opcode, Opcode::kStatus);
  EXPECT_EQ(decoded.request_id, 2u);
}

TEST(WireFrameTest, TruncationSweepNeverYieldsAFrame) {
  // Every strict prefix must request more bytes (the stream is merely
  // incomplete, never corrupt) — this is what lets the server read
  // frames that arrive one byte at a time.
  const std::string bytes =
      Encode(MakeFrame(Opcode::kKeywordSearch, 99, "search terms here"));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame decoded;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ParseFrame(std::string_view(bytes).substr(0, cut), &decoded,
                         &consumed, &error),
              ParseResult::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(WireFrameTest, BitFlipSweepNeverYieldsThisFrame) {
  // A single flipped bit anywhere in the frame must never produce a
  // successfully parsed copy of the frame: the CRC covers
  // version..payload, the magic covers the prefix, and a flip inside
  // the length field either breaks the CRC window or asks for more
  // bytes — it cannot silently deliver altered contents.
  const Frame original =
      MakeFrame(Opcode::kAddSpec, 1234567, "spec text; policy text");
  const std::string bytes = Encode(original);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Frame decoded;
      size_t consumed = 0;
      std::string error;
      const ParseResult result =
          ParseFrame(flipped, &decoded, &consumed, &error);
      ASSERT_NE(result, ParseResult::kFrame)
          << "flip at byte " << byte << " bit " << bit
          << " parsed as a frame";
    }
  }
}

TEST(WireFrameTest, RejectsOversizedPayloadLengthWithoutAllocating) {
  // Craft a header claiming a payload over the cap; the parser must
  // classify it as corruption immediately instead of waiting for (or
  // allocating) 4 GiB.
  Frame frame = MakeFrame(Opcode::kStatus, 1, "x");
  std::string bytes = Encode(frame);
  // payload_len lives at bytes [4, 8).
  bytes[4] = static_cast<char>(0xFF);
  bytes[5] = static_cast<char>(0xFF);
  bytes[6] = static_cast<char>(0xFF);
  bytes[7] = static_cast<char>(0x7F);
  Frame decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kBad);
  EXPECT_NE(error.find("cap"), std::string::npos);
}

TEST(WireFrameTest, RejectsBadMagicImmediately) {
  std::string bytes = Encode(MakeFrame(Opcode::kStatus, 1, ""));
  bytes[0] = 'X';
  Frame decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kBad);
  // Even a one-byte wrong prefix is rejected without waiting for the
  // full header — garbage streams die fast.
  EXPECT_EQ(ParseFrame(std::string_view(bytes).substr(0, 1), &decoded,
                       &consumed, &error),
            ParseResult::kBad);
}

TEST(WireFrameTest, RejectsUnknownOpcode) {
  Frame frame = MakeFrame(Opcode::kStatus, 5, "payload");
  frame.opcode = static_cast<Opcode>(200);
  const std::string bytes = Encode(frame);
  Frame decoded;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseFrame(bytes, &decoded, &consumed, &error),
            ParseResult::kBad);
  EXPECT_NE(error.find("opcode"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Message body codecs
// ---------------------------------------------------------------------------

TEST(WireBodyTest, ResponseStatusRoundTrips) {
  for (const Status& status :
       {Status::OK(), Status::NotFound("no spec named \"x\""),
        Status::PermissionDenied("level 0 < 2"),
        Status::InvalidArgument(std::string("nul \0 inside", 12))}) {
    std::string payload;
    AppendResponseStatus(status, &payload);
    payload += "body";
    size_t offset = 0;
    Status decoded;
    ASSERT_TRUE(ReadResponseStatus(payload, &offset, &decoded));
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
    EXPECT_EQ(payload.substr(offset), "body");
  }
}

TEST(WireBodyTest, ResponseStatusRejectsTruncation) {
  std::string payload;
  AppendResponseStatus(Status::Internal("some failure message"), &payload);
  for (size_t cut = 0; cut + 1 < payload.size(); ++cut) {
    size_t offset = 0;
    Status decoded;
    EXPECT_FALSE(ReadResponseStatus(payload.substr(0, cut), &offset,
                                    &decoded))
        << cut;
  }
}

TEST(WireBodyTest, HelloRoundTrips) {
  HelloRequest req;
  req.min_version = 1;
  req.max_version = 3;
  req.client_name = "bench\nclient";
  auto decoded = DecodeHelloRequest(EncodeHelloRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().min_version, 1);
  EXPECT_EQ(decoded.value().max_version, 3);
  EXPECT_EQ(decoded.value().client_name, "bench\nclient");

  HelloResponse resp;
  resp.version = 2;
  resp.server_name = "pawd";
  auto decoded_resp = DecodeHelloResponse(EncodeHelloResponse(resp), 0);
  ASSERT_TRUE(decoded_resp.ok());
  EXPECT_EQ(decoded_resp.value().version, 2);
  EXPECT_EQ(decoded_resp.value().server_name, "pawd");
}

TEST(WireBodyTest, AddSpecAndExecutionRoundTrip) {
  AddSpecRequest spec_req{"spec \"name\"\nworkflow W1 ...",
                          "policy default_level=1\n"};
  auto spec_decoded = DecodeAddSpecRequest(EncodeAddSpecRequest(spec_req));
  ASSERT_TRUE(spec_decoded.ok());
  EXPECT_EQ(spec_decoded.value().spec_text, spec_req.spec_text);
  EXPECT_EQ(spec_decoded.value().policy_text, spec_req.policy_text);

  AddSpecResponse spec_resp{3, 17, (uint64_t{5} << 40) | 123};
  auto r = DecodeAddSpecResponse(EncodeAddSpecResponse(spec_resp), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().shard, 3);
  EXPECT_EQ(r.value().spec_id, 17);
  EXPECT_EQ(r.value().global_lsn, spec_resp.global_lsn);

  AddExecutionRequest exec_req{"disease susceptibility",
                               "execution spec=\"x\"\nnode 0 ..."};
  auto e = DecodeAddExecutionRequest(EncodeAddExecutionRequest(exec_req));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value().spec_name, exec_req.spec_name);
  EXPECT_EQ(e.value().exec_text, exec_req.exec_text);
}

TEST(WireBodyTest, SearchRoundTrips) {
  SearchRequest req{{"genetic", "omim", ""}};
  auto decoded = DecodeSearchRequest(EncodeSearchRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().terms, req.terms);

  SearchResponse resp;
  resp.hits.push_back(SearchHit{"spec a", 0.75, 4, {"M1", "M2"}});
  resp.hits.push_back(SearchHit{"spec b", -1.5, 9, {}});
  auto hits = DecodeSearchResponse(EncodeSearchResponse(resp), 0);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().hits.size(), 2u);
  EXPECT_EQ(hits.value().hits[0].spec_name, "spec a");
  EXPECT_DOUBLE_EQ(hits.value().hits[0].score, 0.75);
  EXPECT_EQ(hits.value().hits[0].view_size, 4);
  EXPECT_EQ(hits.value().hits[0].matched,
            (std::vector<std::string>{"M1", "M2"}));
  EXPECT_DOUBLE_EQ(hits.value().hits[1].score, -1.5);
}

TEST(WireBodyTest, StructuralRoundTrips) {
  StructuralRequest req;
  req.spec_name = "disease susceptibility";
  req.var_terms = {"expand", "omim"};
  req.edges = {{0, 1, true}, {1, 0, false}};
  auto decoded = DecodeStructuralRequest(EncodeStructuralRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().spec_name, req.spec_name);
  EXPECT_EQ(decoded.value().var_terms, req.var_terms);
  ASSERT_EQ(decoded.value().edges.size(), 2u);
  EXPECT_TRUE(decoded.value().edges[0].transitive);
  EXPECT_FALSE(decoded.value().edges[1].transitive);

  StructuralResponse resp;
  resp.matches = {{"M3", "M6"}, {"M3", "M7"}};
  auto matches =
      DecodeStructuralResponse(EncodeStructuralResponse(resp), 0);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches.value().matches, resp.matches);
}

TEST(WireBodyTest, LineageAndStatusRoundTrip) {
  LineageRequest req{"spec", 3, 12};
  auto decoded = DecodeLineageRequest(EncodeLineageRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().ordinal, 3);
  EXPECT_EQ(decoded.value().item, 12);

  LineageResponse resp;
  resp.zoom_steps = 2;
  resp.prefix_codes = {"W1", "W2"};
  resp.rows = {"I -> M1 [SNPs=<masked>]", "M1 -> O [d=v]"};
  auto lr = DecodeLineageResponse(EncodeLineageResponse(resp), 0);
  ASSERT_TRUE(lr.ok());
  EXPECT_EQ(lr.value().zoom_steps, 2);
  EXPECT_EQ(lr.value().prefix_codes, resp.prefix_codes);
  EXPECT_EQ(lr.value().rows, resp.rows);

  StatusResponse status;
  status.shards = 4;
  status.specs = 2;
  status.executions = 100;
  status.principals = 3;
  status.connections = 8;
  status.text = "pawd: all good";
  auto sr = DecodeStatusResponse(EncodeStatusResponse(status), 0);
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr.value().shards, 4);
  EXPECT_EQ(sr.value().executions, 100);
  EXPECT_EQ(sr.value().text, status.text);
}

TEST(WireBodyTest, BodyDecodersRejectTruncationAndJunk) {
  // Sweep truncations of a representative body of every codec: no
  // prefix may decode successfully (each decoder demands exact
  // consumption), and none may crash.
  const std::string bodies[] = {
      EncodeHelloRequest({1, 1, "client"}),
      EncodeAuthRequest({"alice"}),
      EncodeAddSpecRequest({"spec text", "policy"}),
      EncodeAddExecutionRequest({"spec", "exec"}),
      EncodeGetSpecRequest({"spec"}),
      EncodeGetExecutionRequest({"spec", 3}),
      EncodeSearchRequest({{"a", "b"}}),
      EncodeStructuralRequest(
          {"spec", {"x", "y"}, {{0, 1, true}}}),
      EncodeLineageRequest({"spec", 1, 2}),
  };
  for (const std::string& body : bodies) {
    for (size_t cut = 0; cut < body.size(); ++cut) {
      const std::string prefix = body.substr(0, cut);
      EXPECT_FALSE(DecodeHelloRequest(prefix).ok() &&
                   prefix.size() == body.size());
      (void)DecodeAuthRequest(prefix);
      (void)DecodeAddSpecRequest(prefix);
      (void)DecodeAddExecutionRequest(prefix);
      (void)DecodeGetSpecRequest(prefix);
      (void)DecodeGetExecutionRequest(prefix);
      (void)DecodeSearchRequest(prefix);
      (void)DecodeStructuralRequest(prefix);
      (void)DecodeLineageRequest(prefix);
    }
  }
  // Truncating a specific codec's own body must fail that codec.
  const std::string search = EncodeSearchRequest({{"term1", "term2"}});
  for (size_t cut = 0; cut < search.size(); ++cut) {
    EXPECT_FALSE(DecodeSearchRequest(search.substr(0, cut)).ok()) << cut;
  }
  const std::string structural = EncodeStructuralRequest(
      {"spec", {"x"}, {{0, 0, false}}});
  for (size_t cut = 0; cut < structural.size(); ++cut) {
    EXPECT_FALSE(DecodeStructuralRequest(structural.substr(0, cut)).ok())
        << cut;
  }
}

// ---------------------------------------------------------------------------
// Replication codecs (SUBSCRIBE / REPLICATE)
// ---------------------------------------------------------------------------

TEST(WireReplicationTest, SubscribeRoundTrips) {
  SubscribeRequest req;
  req.last_lsns = {0, 17, uint64_t{1} << 50};
  req.follower_name = "replica\n#2";
  auto decoded = DecodeSubscribeRequest(EncodeSubscribeRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().last_lsns, req.last_lsns);
  EXPECT_EQ(decoded.value().follower_name, req.follower_name);

  SubscribeResponse resp;
  resp.leader_lsns = {123, 0, uint64_t{7} << 33};
  auto r = DecodeSubscribeResponse(EncodeSubscribeResponse(resp), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().leader_lsns, resp.leader_lsns);
}

TEST(WireReplicationTest, ReplicateRoundTrips) {
  ReplicateRequest req;
  req.shard = 3;
  req.base_lsn = (uint64_t{1} << 41) + 5;
  req.records.push_back({2, "spec payload"});
  req.records.push_back({6, std::string("binary \0 exec", 13)});
  req.records.push_back({3, ""});
  auto decoded = DecodeReplicateRequest(EncodeReplicateRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().shard, 3);
  EXPECT_EQ(decoded.value().base_lsn, req.base_lsn);
  ASSERT_EQ(decoded.value().records.size(), 3u);
  EXPECT_EQ(decoded.value().records[0].type, 2);
  EXPECT_EQ(decoded.value().records[0].payload, "spec payload");
  EXPECT_EQ(decoded.value().records[1].payload,
            std::string("binary \0 exec", 13));
  EXPECT_EQ(decoded.value().records[2].payload, "");

  ReplicateResponse resp{5, uint64_t{9} << 30};
  auto ack = DecodeReplicateResponse(EncodeReplicateResponse(resp), 0);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().shard, 5);
  EXPECT_EQ(ack.value().durable_lsn, resp.durable_lsn);
}

TEST(WireReplicationTest, FuzzRoundTripRandomBatches) {
  Rng rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    ReplicateRequest req;
    req.shard = static_cast<int>(rng.Uniform(16));
    req.base_lsn = (static_cast<uint64_t>(rng.Uniform(1 << 20)) << 20) |
                   rng.Uniform(1 << 20);
    const int n = rng.Uniform(8);
    for (int i = 0; i < n; ++i) {
      ReplicateRequest::Rec rec;
      rec.type = static_cast<uint8_t>(rng.Uniform(256));
      const int len = rng.Uniform(200);
      for (int b = 0; b < len; ++b) {
        rec.payload.push_back(static_cast<char>(rng.Uniform(256)));
      }
      req.records.push_back(std::move(rec));
    }
    auto decoded = DecodeReplicateRequest(EncodeReplicateRequest(req));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().shard, req.shard);
    EXPECT_EQ(decoded.value().base_lsn, req.base_lsn);
    ASSERT_EQ(decoded.value().records.size(), req.records.size());
    for (size_t i = 0; i < req.records.size(); ++i) {
      EXPECT_EQ(decoded.value().records[i].type, req.records[i].type);
      EXPECT_EQ(decoded.value().records[i].payload,
                req.records[i].payload);
    }

    SubscribeRequest sub;
    const int shards = rng.Uniform(8);
    for (int s = 0; s < shards; ++s) {
      sub.last_lsns.push_back(rng.Uniform(1 << 30));
    }
    auto sub_decoded = DecodeSubscribeRequest(EncodeSubscribeRequest(sub));
    ASSERT_TRUE(sub_decoded.ok());
    EXPECT_EQ(sub_decoded.value().last_lsns, sub.last_lsns);
  }
}

TEST(WireReplicationTest, TruncationSweepsFailCleanly) {
  ReplicateRequest req;
  req.shard = 1;
  req.base_lsn = 1000;
  req.records.push_back({2, "abc"});
  req.records.push_back({3, "defgh"});
  const std::string body = EncodeReplicateRequest(req);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeReplicateRequest(body.substr(0, cut)).ok()) << cut;
  }
  const std::string sub =
      EncodeSubscribeRequest({{1, 2, 3}, "follower"});
  for (size_t cut = 0; cut < sub.size(); ++cut) {
    EXPECT_FALSE(DecodeSubscribeRequest(sub.substr(0, cut)).ok()) << cut;
  }
  const std::string sub_resp = EncodeSubscribeResponse({{9, 8}});
  for (size_t cut = 0; cut < sub_resp.size(); ++cut) {
    EXPECT_FALSE(DecodeSubscribeResponse(sub_resp.substr(0, cut), 0).ok())
        << cut;
  }
  const std::string ack = EncodeReplicateResponse({2, 777});
  for (size_t cut = 0; cut < ack.size(); ++cut) {
    EXPECT_FALSE(DecodeReplicateResponse(ack.substr(0, cut), 0).ok())
        << cut;
  }
}

TEST(WireReplicationTest, ReplicateFrameSurvivesBitFlipSweep) {
  // A replication push travels inside the same CRC'd frame as every
  // other message: any single-bit corruption must fail the frame
  // parse, never deliver an altered batch to the follower's WAL.
  ReplicateRequest req;
  req.shard = 0;
  req.base_lsn = 42;
  req.records.push_back({6, "execution record payload"});
  const Frame frame =
      MakeFrame(Opcode::kReplicate, 9, EncodeReplicateRequest(req));
  const std::string bytes = Encode(frame);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Frame decoded;
      size_t consumed = 0;
      std::string error;
      ASSERT_NE(ParseFrame(flipped, &decoded, &consumed, &error),
                ParseResult::kFrame)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(WireReplicationTest, FuzzDecodersOnRandomBytes) {
  Rng rng(555777);
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = rng.Uniform(150);
    std::string bytes;
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)DecodeSubscribeRequest(bytes);
    (void)DecodeSubscribeResponse(bytes, 0);
    (void)DecodeReplicateRequest(bytes);
    (void)DecodeReplicateResponse(bytes, 0);
  }
}

// ---------------------------------------------------------------------------
// TraceDump codecs
// ---------------------------------------------------------------------------

TEST(WireTraceTest, TraceDumpRequestRoundTrips) {
  for (const TraceDumpRequest req :
       {TraceDumpRequest{TraceDumpMode::kAll, 0, 0},
        TraceDumpRequest{TraceDumpMode::kSlow, 0, 100},
        TraceDumpRequest{TraceDumpMode::kById, 0xABCDEF0123456789ull, 7},
        TraceDumpRequest{TraceDumpMode::kAudit, 0, 5000}}) {
    auto decoded = DecodeTraceDumpRequest(EncodeTraceDumpRequest(req));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().mode, req.mode);
    EXPECT_EQ(decoded.value().trace_id, req.trace_id);
    EXPECT_EQ(decoded.value().max_spans, req.max_spans);
  }
}

TEST(WireTraceTest, TraceDumpRequestRejectsBadMode) {
  std::string body = EncodeTraceDumpRequest({TraceDumpMode::kAll, 0, 0});
  body[0] = 9;
  EXPECT_FALSE(DecodeTraceDumpRequest(body).ok());
}

TEST(WireTraceTest, TraceDumpResponseRoundTrips) {
  TraceDumpResponse resp;
  resp.dropped = 42;
  Span root;
  root.trace_id = 0x1111;
  root.span_id = 0x2222;
  root.start_us = 1000;
  root.end_us = 6400;
  root.result_bytes = 512;
  root.opcode = 4;
  root.status_code = 0;
  root.flags = kSpanFlagSlow;
  root.set_name("server.add_execution");
  root.set_principal("alice");
  root.set_detail("lease_ms=1.2 engine_ms=3");
  Span audit;
  audit.trace_id = 0x1111;
  audit.span_id = 0x3333;
  audit.parent_span_id = 0x2222;
  audit.start_us = 2000;
  audit.end_us = 2000;
  audit.kind = SpanKind::kAudit;
  audit.status_code = 1;
  audit.set_name("masked");
  audit.set_principal("alice");
  audit.set_detail("spec=dna group=g@2 masked=3");
  resp.spans = {root, audit};
  auto decoded = DecodeTraceDumpResponse(EncodeTraceDumpResponse(resp), 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().dropped, 42u);
  ASSERT_EQ(decoded.value().spans.size(), 2u);
  const Span& r = decoded.value().spans[0];
  EXPECT_EQ(r.trace_id, root.trace_id);
  EXPECT_EQ(r.span_id, root.span_id);
  EXPECT_EQ(r.start_us, root.start_us);
  EXPECT_EQ(r.end_us, root.end_us);
  EXPECT_EQ(r.result_bytes, root.result_bytes);
  EXPECT_EQ(r.flags, kSpanFlagSlow);
  EXPECT_EQ(r.name_view(), "server.add_execution");
  EXPECT_EQ(r.principal_view(), "alice");
  EXPECT_EQ(r.detail_view(), "lease_ms=1.2 engine_ms=3");
  const Span& a = decoded.value().spans[1];
  EXPECT_EQ(a.kind, SpanKind::kAudit);
  EXPECT_EQ(a.parent_span_id, root.span_id);
  EXPECT_EQ(a.detail_view(), "spec=dna group=g@2 masked=3");
}

TEST(WireTraceTest, SpanCodecTruncatesLongStringsToFieldWidth) {
  Span s;
  s.trace_id = 1;
  s.span_id = 2;
  s.set_name(std::string(100, 'n'));
  s.set_principal(std::string(100, 'p'));
  s.set_detail(std::string(100, 'd'));
  EXPECT_EQ(s.name_view().size(), sizeof(s.name));
  EXPECT_EQ(s.principal_view().size(), sizeof(s.principal));
  EXPECT_EQ(s.detail_view().size(), sizeof(s.detail));
  TraceDumpResponse resp;
  resp.spans = {s};
  auto decoded = DecodeTraceDumpResponse(EncodeTraceDumpResponse(resp), 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().spans[0].name_view(), s.name_view());
}

TEST(WireTraceTest, TraceDumpTruncationAndFuzz) {
  TraceDumpResponse resp;
  resp.dropped = 3;
  Span s;
  s.trace_id = 5;
  s.span_id = 6;
  s.set_name("wal.fsync");
  resp.spans = {s, s};
  const std::string body = EncodeTraceDumpResponse(resp);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeTraceDumpResponse(body.substr(0, cut), 0).ok())
        << cut;
  }
  const std::string req_body =
      EncodeTraceDumpRequest({TraceDumpMode::kById, 77, 10});
  for (size_t cut = 0; cut < req_body.size(); ++cut) {
    EXPECT_FALSE(DecodeTraceDumpRequest(req_body.substr(0, cut)).ok())
        << cut;
  }
  Rng rng(424242);
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = rng.Uniform(150);
    std::string bytes;
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)DecodeTraceDumpRequest(bytes);
    (void)DecodeTraceDumpResponse(bytes, 0);
  }
}

TEST(WireBodyTest, FuzzBodyDecodersOnRandomBytes) {
  // Random byte soup must never crash a decoder (success is allowed —
  // short random strings can be valid encodings — but is rare).
  Rng rng(987654);
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = rng.Uniform(120);
    std::string bytes;
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)DecodeHelloRequest(bytes);
    (void)DecodeAuthRequest(bytes);
    (void)DecodeAddSpecRequest(bytes);
    (void)DecodeAddExecutionRequest(bytes);
    (void)DecodeSearchRequest(bytes);
    (void)DecodeStructuralRequest(bytes);
    (void)DecodeLineageRequest(bytes);
    (void)DecodeSearchResponse(bytes, 0);
    (void)DecodeStructuralResponse(bytes, 0);
    (void)DecodeLineageResponse(bytes, 0);
    (void)DecodeStatusResponse(bytes, 0);
    size_t offset = 0;
    Status status;
    (void)ReadResponseStatus(bytes, &offset, &status);
  }
}

}  // namespace
}  // namespace wire
}  // namespace paw
