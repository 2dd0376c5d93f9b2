// Tests for the thread-safe group-commit WAL: concurrent appenders
// get unique, dense LSNs; the file replays every record in LSN order;
// a record's payload matches the LSN its appender was handed; the
// single-threaded path still behaves exactly as before; and a tail
// reader returns committed records by position, across segments.

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
#include "tests/store_test_util.h"

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
  // The commit sink is the leader-side replication wake-up: concurrent
  // appenders ride shared group commits, and the sink must still see a
  // gapless, ordered stream of batch ends. Replication reads each batch
  // back from the file, so the file must already hold the batch, up to
  // the reported offset, when the sink fires.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  const std::string dir = TestDir("sink");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());

  std::mutex mu;
  WalPosition last;
  std::map<uint64_t, std::string> streamed;
  wal.value().SetCommitSink(
      [&](const WalPosition& end, const TraceContext& trace) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_GT(end.lsn, last.lsn) << "sink stream out of order";
        EXPECT_FALSE(trace.valid());  // these appenders trace nothing
        last = end;
        auto contents =
            ReadFileToString(dir + "/" + WalSegmentFileName(end.seq));
        ASSERT_TRUE(contents.ok());
        ASSERT_GE(contents.value().size(), end.offset);
        // The reported prefix of the file parses into whole records
        // ending exactly at the batch's last LSN.
        RecordReader reader(
            std::string_view(contents.value()).substr(0, end.offset));
        Record record;
        uint64_t lsn = 0;
        while (reader.Next(&record) == ReadOutcome::kRecord) {
          if (record.type == RecordType::kWalHeader) continue;
          streamed[++lsn] = record.payload;
        }
        EXPECT_EQ(reader.dropped_bytes(), 0u);
        EXPECT_EQ(lsn, end.lsn) << "file lags the sink";
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

  // The sink reported every record the appenders were acked for, and
  // the file held each one, with its payload, when it did.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(last.lsn, static_cast<uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(streamed.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (const auto& m : seen) {
    for (const auto& [lsn, payload] : m) {
      ASSERT_TRUE(streamed.count(lsn)) << "lsn " << lsn << " not streamed";
      EXPECT_EQ(streamed[lsn], payload) << "lsn=" << lsn;
    }
  }
  // The log's committed position is the sink's last report.
  const WalPosition committed = wal.value().committed();
  EXPECT_EQ(committed.lsn, last.lsn);
  EXPECT_EQ(committed.seq, last.seq);
  EXPECT_EQ(committed.offset, last.offset);
}

TEST(WalReplicationTest, RotationMovesTheCommittedPosition) {
  // A rotation reports the new segment's start through the sink. A
  // reader bounded by that report opens in the new segment even once
  // the sealed one is gone, as compaction leaves an idle log.
  const std::string dir = TestDir("sink_rotate");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  std::vector<WalPosition> reports;
  wal.value().SetCommitSink(
      [&](const WalPosition& end, const TraceContext&) {
        reports.push_back(end);
      });
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "a").ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "b").ok());
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_EQ(reports.size(), 3u);
  const WalPosition rotated = reports.back();
  EXPECT_EQ(rotated.lsn, 2u);
  EXPECT_EQ(rotated.seq, 2u);
  EXPECT_EQ(rotated.offset,
            fs::file_size(dir + "/" + WalSegmentFileName(2)));
  const WalPosition committed = wal.value().committed();
  EXPECT_EQ(committed.lsn, rotated.lsn);
  EXPECT_EQ(committed.seq, rotated.seq);
  EXPECT_EQ(committed.offset, rotated.offset);

  ASSERT_TRUE(RemoveFileIfExists(dir + "/" + WalSegmentFileName(1)).ok());
  auto reader = WalTailReader::Open(dir, 3, rotated);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "c").ok());
  std::vector<Record> records;
  ASSERT_TRUE(
      reader.value().Read(reports.back(), 100, 1 << 20, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "c");
  wal.value().SetCommitSink(nullptr);
}

TEST(WalTailReaderTest, StopsAtTheCommittedPosition) {
  // Whole frames past the committed position are in the file (a group
  // commit writes its batch before the fsync returns); a reader bounded
  // by the committed position must return none of them, and must not
  // even read their bytes.
  const std::string dir = TestDir("tail_bound");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        wal.value().Append(RecordType::kSpecV2, "c" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(wal.value().Sync().ok());
  const WalPosition committed = wal.value().committed();
  EXPECT_EQ(committed.lsn, 5u);
  for (int i = 6; i <= 8; ++i) {
    ASSERT_TRUE(
        wal.value().Append(RecordType::kSpecV2, "u" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(wal.value().Sync().ok());
  ASSERT_EQ(WalSegmentRecords(dir).value().size(), 8u);

  auto reader = WalTailReader::Open(dir, 1, committed);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<Record> records;
  ASSERT_TRUE(reader.value().Read(committed, 100, 1 << 20, &records).ok());
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].payload, "c" + std::to_string(i + 1));
  }
  EXPECT_EQ(reader.value().next_lsn(), 6u);
  EXPECT_EQ(reader.value().bytes_read(), committed.offset);
  // At the bound, a further read returns nothing.
  ASSERT_TRUE(reader.value().Read(committed, 100, 1 << 20, &records).ok());
  EXPECT_EQ(records.size(), 5u);
  // The LSN bounds a read on its own, too.
  WalPosition by_lsn = wal.value().committed();
  by_lsn.lsn = 6;
  ASSERT_TRUE(reader.value().Read(by_lsn, 100, 1 << 20, &records).ok());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[5].payload, "u6");
}

TEST(WalTailReaderTest, ReadsAcrossSealedSegmentsOnce) {
  // Rotations (one of them leaving a header-only segment) split the
  // log; a reader crosses each sealed→active boundary, returns every
  // record in LSN order within its caps, and reads each byte once.
  const std::string dir = TestDir("tail_rotate");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  int n = 0;
  const auto append = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(wal.value()
                      .Append(RecordType::kExecutionV2,
                              "r" + std::to_string(++n) + std::string(40, '.'))
                      .ok());
    }
    ASSERT_TRUE(wal.value().Sync().ok());
  };
  append(7);
  auto reader = WalTailReader::Open(dir, 1, wal.value().committed());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<Record> records;
  ASSERT_TRUE(reader.value()
                  .Read(wal.value().committed(), 3, 1 << 20, &records)
                  .ok());
  EXPECT_EQ(records.size(), 3u);  // the record cap
  ASSERT_TRUE(wal.value().Rotate().ok());
  append(5);
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_TRUE(wal.value().Rotate().ok());  // header-only segment
  append(4);
  // A byte cap stops the read once it is reached: three 42-byte
  // payloads pass 100 bytes.
  ASSERT_TRUE(reader.value()
                  .Read(wal.value().committed(), 100, 100, &records)
                  .ok());
  EXPECT_EQ(records.size(), 6u);
  while (reader.value().next_lsn() <= wal.value().committed().lsn) {
    ASSERT_TRUE(reader.value()
                    .Read(wal.value().committed(), 4, 1 << 20, &records)
                    .ok());
  }
  auto expected_records = WalSegmentRecords(dir);
  ASSERT_TRUE(expected_records.ok());
  const std::vector<Record>& expected = expected_records.value();
  ASSERT_EQ(records.size(), 16u);
  ASSERT_EQ(expected.size(), 16u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].payload, expected[i].payload) << "lsn=" << i + 1;
  }
  EXPECT_EQ(reader.value().seq(), wal.value().active_seq());
  uint64_t disk_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") disk_bytes += entry.file_size();
  }
  EXPECT_EQ(reader.value().bytes_read(), disk_bytes);

  // Opening mid-log positions on the containing segment.
  auto mid = WalTailReader::Open(dir, 10, wal.value().committed());
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  std::vector<Record> tail;
  ASSERT_TRUE(
      mid.value().Read(wal.value().committed(), 100, 1 << 20, &tail).ok());
  ASSERT_EQ(tail.size(), 7u);
  EXPECT_EQ(tail[0].payload, expected[9].payload);
}

TEST(WalTailReaderTest, RefusesGoneHistoryAndChainBreaks) {
  const std::string dir = TestDir("tail_gone");
  auto wal = WriteAheadLog::Create(dir, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "a").ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "b").ok());
  ASSERT_TRUE(wal.value().Rotate().ok());
  ASSERT_TRUE(wal.value().Append(RecordType::kSpecV2, "c").ok());
  ASSERT_TRUE(wal.value().Sync().ok());
  const WalPosition committed = wal.value().committed();
  // Past the committed end: nothing to position on.
  EXPECT_TRUE(WalTailReader::Open(dir, 5, committed)
                  .status()
                  .IsInvalidArgument());

  // A reader in the sealed segment, then the next segment's header is
  // rewritten with a base that does not continue the chain.
  auto reader = WalTailReader::Open(dir, 1, committed);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::string header_payload;
  PutFixed64(&header_payload, 7);
  std::string header;
  AppendRecord(RecordType::kWalHeader, header_payload, &header);
  ASSERT_TRUE(
      AtomicWriteFile(dir + "/" + WalSegmentFileName(2), header).ok());
  std::vector<Record> records;
  WalPosition broken = committed;
  broken.offset = header.size();
  const Status status = reader.value().Read(broken, 100, 1 << 20, &records);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_NE(status.message().find("chain"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(records.size(), 2u);  // the sealed segment's records

  // Records only a snapshot holds: the oldest segment on disk starts
  // after them.
  ASSERT_TRUE(RemoveFileIfExists(dir + "/" + WalSegmentFileName(1)).ok());
  const Status gone = WalTailReader::Open(dir, 1, committed).status();
  EXPECT_TRUE(gone.IsOutOfRange()) << gone.ToString();
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
