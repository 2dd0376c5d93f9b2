// Tests for the thread-safe group-commit WAL: concurrent appenders
// get unique, dense LSNs; the file replays every record in LSN order;
// a record's payload matches the LSN its appender was handed; and the
// single-threaded path still behaves exactly as before.

#include "src/store/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/store/record.h"

namespace paw {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("paw_wal_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TEST(WalGroupCommitTest, AppendReturnsMonotonicLsnsSingleThread) {
  const std::string dir = TestDir("single");
  auto wal = WriteAheadLog::Create(dir, /*base_lsn=*/5);
  ASSERT_TRUE(wal.ok());
  for (uint64_t i = 1; i <= 10; ++i) {
    auto lsn = wal.value().Append(RecordType::kExecutionV2,
                                  "p" + std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), 5 + i);
  }
  EXPECT_EQ(wal.value().last_lsn(), 15u);
  ASSERT_TRUE(wal.value().Sync().ok());

  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(replay.base_lsn, 5u);
  ASSERT_EQ(replay.records.size(), 10u);
  for (size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].payload, "p" + std::to_string(i + 1));
  }
}

TEST(WalGroupCommitTest, ConcurrentAppendersGetUniqueLsnsInFileOrder) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  const std::string dir = TestDir("concurrent");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());

  // Every appender records the LSN it was handed for each payload.
  std::vector<std::map<uint64_t, std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + ":" + std::to_string(i);
        auto lsn = wal.value().Append(RecordType::kExecutionV2, payload);
        if (!lsn.ok()) {
          ++failures;
          return;
        }
        seen[static_cast<size_t>(t)][lsn.value()] = payload;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(wal.value().Sync().ok());
  EXPECT_EQ(wal.value().last_lsn(),
            static_cast<uint64_t>(kThreads) * kPerThread);

  // Merge the per-thread views; LSNs must be globally unique.
  std::map<uint64_t, std::string> by_lsn;
  for (const auto& m : seen) {
    for (const auto& [lsn, payload] : m) {
      ASSERT_EQ(by_lsn.count(lsn), 0u) << "duplicate LSN " << lsn;
      by_lsn[lsn] = payload;
    }
  }
  ASSERT_EQ(by_lsn.size(), static_cast<size_t>(kThreads) * kPerThread);

  // Replay: record i carries LSN i+1, and its payload must be exactly
  // what the appender holding that LSN wrote.
  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(replay.records.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < replay.records.size(); ++i) {
    const uint64_t lsn = i + 1;
    ASSERT_TRUE(by_lsn.count(lsn));
    EXPECT_EQ(replay.records[i].payload, by_lsn[lsn]) << "lsn=" << lsn;
  }
}

TEST(WalGroupCommitTest, ConcurrentDurableAppendersSurviveReplay) {
  // sync_each_append with concurrent callers: every acked append must
  // be present after reopen (the group fsync must cover the whole
  // batch before followers return).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  const std::string dir = TestDir("durable");
  WalOptions options;
  options.sync_each_append = true;
  auto wal = WriteAheadLog::Create(dir, 0, options);
  ASSERT_TRUE(wal.ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = wal.value().Append(
            RecordType::kSpecV2,
            "d" + std::to_string(t) + ":" + std::to_string(i));
        if (!lsn.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(replay.records.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_FALSE(replay.torn_tail);
}

TEST(WalGroupCommitTest, RepeatedSyncIsIdempotent) {
  const std::string dir = TestDir("sync");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "x").ok());
  ASSERT_TRUE(wal.value().Sync().ok());
  // Sync on an already-flushed log is a no-op that succeeds, and
  // appends keep working afterwards.
  ASSERT_TRUE(wal.value().Sync().ok());
  auto lsn = wal.value().Append(RecordType::kSpecV2, "y");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 2u);
}

TEST(WalSegmentTest, ExplicitRotateChainsSegments) {
  const std::string dir = TestDir("rotate");
  auto wal = WriteAheadLog::Create(dir, /*base_lsn=*/0);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value().active_seq(), 1u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "a").ok());
  }
  auto rotation = wal.value().Rotate();
  ASSERT_TRUE(rotation.ok()) << rotation.status().ToString();
  EXPECT_EQ(rotation.value().sealed_seq, 1u);
  EXPECT_EQ(rotation.value().active_seq, 2u);
  EXPECT_EQ(rotation.value().end_lsn, 3u);
  EXPECT_EQ(wal.value().active_seq(), 2u);
  EXPECT_EQ(wal.value().base_lsn(), 3u);
  // LSNs keep counting across the rotation.
  auto lsn = wal.value().Append(RecordType::kSpecV2, "b");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 4u);
  ASSERT_TRUE(wal.value().Sync().ok());

  // Both segment files exist; replay walks the chain in order.
  EXPECT_TRUE(fs::exists(dir + "/" + WalSegmentFileName(1)));
  EXPECT_TRUE(fs::exists(dir + "/" + WalSegmentFileName(2)));
  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replay.segments, 2);
  EXPECT_EQ(replay.base_lsn, 0u);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.records[3].payload, "b");
  EXPECT_EQ(reopened.value().last_lsn(), 4u);
  EXPECT_EQ(reopened.value().active_seq(), 2u);
}

TEST(WalSegmentTest, SizeThresholdRotatesAutomatically) {
  const std::string dir = TestDir("auto_rotate");
  WalOptions options;
  options.segment_bytes = 256;
  auto wal = WriteAheadLog::Create(dir, 0, options);
  ASSERT_TRUE(wal.ok());
  const std::string payload(100, 'p');
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(wal.value().Append(RecordType::kExecutionV2, payload).ok());
  }
  ASSERT_TRUE(wal.value().Sync().ok());
  EXPECT_GT(wal.value().active_seq(), 2u);
  // Every record survives across all segments, in LSN order.
  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replay.records.size(), 12u);
  EXPECT_EQ(replay.segments, static_cast<int>(wal.value().active_seq()));
  EXPECT_EQ(reopened.value().last_lsn(), 12u);
}

TEST(WalSegmentTest, ConcurrentAppendersSurviveRotations) {
  // Appenders race while segments seal under them (tiny threshold plus
  // explicit rotations): every acked LSN must replay with its payload,
  // in order, across the whole chain.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  const std::string dir = TestDir("concurrent_rotate");
  WalOptions options;
  options.segment_bytes = 1024;
  auto wal = WriteAheadLog::Create(dir, 0, options);
  ASSERT_TRUE(wal.ok());
  std::vector<std::map<uint64_t, std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            "r" + std::to_string(t) + ":" + std::to_string(i) +
            std::string(32, '.');
        auto lsn = wal.value().Append(RecordType::kExecutionV2, payload);
        if (!lsn.ok()) {
          ++failures;
          return;
        }
        seen[static_cast<size_t>(t)][lsn.value()] = payload;
      }
    });
  }
  // An explicit rotation racing the appenders (the background
  // compaction cut) must not lose or reorder anything either.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.value().Rotate().ok());
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(wal.value().Sync().ok());

  std::map<uint64_t, std::string> by_lsn;
  for (const auto& m : seen) {
    for (const auto& [lsn, payload] : m) {
      ASSERT_EQ(by_lsn.count(lsn), 0u) << "duplicate LSN " << lsn;
      by_lsn[lsn] = payload;
    }
  }
  ASSERT_EQ(by_lsn.size(), static_cast<size_t>(kThreads) * kPerThread);

  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(replay.segments, 1);
  ASSERT_EQ(replay.records.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 0; i < replay.records.size(); ++i) {
    const uint64_t lsn = i + 1;
    ASSERT_TRUE(by_lsn.count(lsn));
    EXPECT_EQ(replay.records[i].payload, by_lsn[lsn]) << "lsn=" << lsn;
  }
}

TEST(WalSegmentTest, ListingAcceptsSeqsWiderThanThePadding) {
  // Filenames zero-pad to 8 digits but widen past 99,999,999; the
  // parser must not make such segments invisible to recovery.
  const std::string dir = TestDir("wide_seq");
  ASSERT_TRUE(AtomicWriteFile(dir + "/" + WalSegmentFileName(7), "x").ok());
  ASSERT_TRUE(
      AtomicWriteFile(dir + "/" + WalSegmentFileName(100000000), "x").ok());
  EXPECT_EQ(WalSegmentFileName(100000000), "wal-100000000.log");
  ASSERT_TRUE(AtomicWriteFile(dir + "/wal-junk.log", "x").ok());
  ASSERT_TRUE(AtomicWriteFile(dir + "/wal-00000000.log", "x").ok());  // seq 0
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments.value().size(), 2u);
  EXPECT_EQ(segments.value()[0].seq, 7u);
  EXPECT_EQ(segments.value()[1].seq, 100000000u);
}

TEST(WalSegmentTest, ManifestBumpReclaimsStaleSegments) {
  // Crash window of a compaction: the manifest names a newer first
  // segment but the unlinks never ran. Open must reclaim the stale
  // files and replay only from `first`.
  const std::string dir = TestDir("stale");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "old").ok());
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "new").ok());
  ASSERT_TRUE(wal.value().Sync().ok());
  ASSERT_TRUE(WriteWalManifest(dir, 2).ok());

  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replay.stale_segments_removed, 1);
  EXPECT_EQ(replay.first_seq, 2u);
  // Only the live segment's record replays; its LSN is preserved.
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "new");
  EXPECT_EQ(replay.base_lsn, 1u);
  EXPECT_FALSE(fs::exists(dir + "/" + WalSegmentFileName(1)));
}

TEST(WalSegmentTest, MissingLiveSegmentIsCorruption) {
  const std::string dir = TestDir("hole");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "a").ok());
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "b").ok());
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_TRUE(wal.value().Sync().ok());
  // Deleting a *live* middle segment (no manifest bump) is a hole the
  // chain check must refuse — silently skipping it would resurrect
  // later records with wrong LSNs.
  ASSERT_TRUE(RemoveFileIfExists(dir + "/" + WalSegmentFileName(2)).ok());
  WalReplay replay;
  EXPECT_FALSE(WriteAheadLog::Open(dir, &replay).ok());
}

TEST(WalReplicationTest, CommitSinkSeesEveryBatchInLsnOrder) {
  // The commit sink is the leader-side replication tap: concurrent
  // appenders ride shared group commits, and the sink must still see a
  // gapless, ordered LSN stream whose frames re-parse to the payloads
  // the appenders wrote.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  const std::string dir = TestDir("sink");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());

  std::mutex mu;
  uint64_t next_expected = 1;
  std::map<uint64_t, std::string> streamed;
  wal.value().SetCommitSink([&](uint64_t first_lsn, uint64_t num_records,
                                std::string_view frames,
                                const std::vector<TraceContext>& traces) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(first_lsn, next_expected) << "gap in the sink stream";
    // One captured trace context per record, always (null ones for
    // appenders with no current trace, like these).
    EXPECT_EQ(traces.size(), num_records);
    RecordReader reader(frames);
    Record record;
    uint64_t lsn = first_lsn;
    while (reader.Next(&record) == ReadOutcome::kRecord) {
      streamed[lsn++] = std::string(record.payload);
    }
    EXPECT_EQ(lsn, first_lsn + num_records);
    next_expected = lsn;
  });

  std::vector<std::map<uint64_t, std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload =
            "s" + std::to_string(t) + ":" + std::to_string(i);
        auto lsn = wal.value().Append(RecordType::kExecutionV2, payload);
        if (!lsn.ok()) {
          ++failures;
          return;
        }
        seen[static_cast<size_t>(t)][lsn.value()] = payload;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(wal.value().Sync().ok());
  wal.value().SetCommitSink(nullptr);

  // The sink saw exactly the records the appenders were acked for —
  // same LSNs, same payloads (disk content never lags the sink: the
  // batch is written and flushed before the sink fires).
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(streamed.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (const auto& m : seen) {
    for (const auto& [lsn, payload] : m) {
      ASSERT_TRUE(streamed.count(lsn)) << "lsn " << lsn << " not streamed";
      EXPECT_EQ(streamed[lsn], payload) << "lsn=" << lsn;
    }
  }
}

TEST(WalReplicationTest, RetainFloorBlocksReclaimUntilReleased) {
  // A subscriber checkpoint pins sealed segments: the manifest may
  // move past them, but neither open-time reclaim nor compaction
  // cleanup may unlink a pinned segment — a lagging follower still
  // needs to stream it.
  const std::string dir = TestDir("floor");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "old").ok());
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "new").ok());
  ASSERT_TRUE(wal.value().Sync().ok());
  ASSERT_TRUE(wal.value().SetRetainFloor(1).ok());
  EXPECT_EQ(wal.value().retain_floor(), 1u);
  // The pin is durable on its own (PAWREPL), independent of the log.
  auto floor = ReadWalRetainFloor(dir);
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(floor.value(), 1u);

  // Compaction commit point: manifest says first=2, but segment 1 is
  // pinned. Open must keep the file, skip its records, and report it.
  ASSERT_TRUE(WriteWalManifest(dir, 2).ok());
  {
    WalReplay replay;
    auto reopened = WriteAheadLog::Open(dir, &replay);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(replay.stale_segments_removed, 0);
    EXPECT_EQ(replay.retained_segments, 1);
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(replay.records[0].payload, "new");
    EXPECT_TRUE(fs::exists(dir + "/" + WalSegmentFileName(1)));
    // The reopened log carries the persisted floor.
    EXPECT_EQ(reopened.value().retain_floor(), 1u);

    // Releasing the pin makes the next open reclaim the segment.
    ASSERT_TRUE(
        reopened.value().SetRetainFloor(WriteAheadLog::kNoRetainFloor)
            .ok());
  }
  WalReplay replay;
  auto reopened = WriteAheadLog::Open(dir, &replay);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replay.stale_segments_removed, 1);
  EXPECT_EQ(replay.retained_segments, 0);
  EXPECT_FALSE(fs::exists(dir + "/" + WalSegmentFileName(1)));
}

}  // namespace
}  // namespace paw
