#include "monitor/load_archive.h"

#include <fstream>

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace autoglobe::monitor {
namespace {

SimTime Min(int m) { return SimTime::Start() + Duration::Minutes(m); }

TEST(LoadArchiveTest, AppendAndLatest) {
  LoadArchive archive;
  EXPECT_FALSE(archive.Latest("server/x").ok());
  ASSERT_TRUE(archive.Append("server/x", Min(1), 0.5).ok());
  ASSERT_TRUE(archive.Append("server/x", Min(2), 0.7).ok());
  EXPECT_DOUBLE_EQ(*archive.Latest("server/x"), 0.7);
}

TEST(LoadArchiveTest, RejectsOutOfOrderSamples) {
  LoadArchive archive;
  ASSERT_TRUE(archive.Append("k", Min(5), 0.5).ok());
  EXPECT_FALSE(archive.Append("k", Min(4), 0.5).ok());
  // Equal timestamps are tolerated.
  EXPECT_TRUE(archive.Append("k", Min(5), 0.6).ok());
}

TEST(LoadArchiveTest, AverageOverWindow) {
  LoadArchive archive;
  for (int m = 1; m <= 20; ++m) {
    ASSERT_TRUE(archive.Append("k", Min(m), m <= 10 ? 0.2 : 0.8).ok());
  }
  // Last 10 minutes: all 0.8 (the watchTime average of §2).
  EXPECT_NEAR(*archive.Average("k", Duration::Minutes(10), Min(20)), 0.8,
              1e-12);
  // Last 20 minutes: half/half.
  EXPECT_NEAR(*archive.Average("k", Duration::Minutes(20), Min(20)), 0.5,
              1e-12);
  // Empty window errors.
  EXPECT_FALSE(
      archive.Average("k", Duration::Minutes(5), Min(100)).ok());
  EXPECT_FALSE(archive.Average("ghost", Duration::Minutes(5), Min(5)).ok());
}

TEST(LoadArchiveTest, HandleBypassesKeyLookup) {
  LoadArchive archive;
  LoadArchive::Handle handle = archive.Acquire("server/x");
  ASSERT_TRUE(handle);
  // Acquire is idempotent: the same key resolves to the same series.
  ASSERT_TRUE(archive.Append(handle, Min(1), 0.4).ok());
  ASSERT_TRUE(archive.Append(archive.Acquire("server/x"), Min(2), 0.6).ok());
  EXPECT_DOUBLE_EQ(*archive.Latest(handle), 0.6);
  EXPECT_DOUBLE_EQ(*archive.Latest("server/x"), 0.6);
  EXPECT_NEAR(*archive.Average(handle, Duration::Minutes(10), Min(2)), 0.5,
              1e-12);
  // Handle and name lookups agree bit-for-bit.
  EXPECT_EQ(*archive.Average(handle, Duration::Minutes(10), Min(2)),
            *archive.Average("server/x", Duration::Minutes(10), Min(2)));
  // Error paths keep reporting the series key.
  LoadArchive::Handle empty = archive.Acquire("server/empty");
  auto missing = archive.Latest(empty);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("server/empty"),
            std::string::npos);
}

TEST(LoadArchiveTest, RawBetweenIsHalfOpen) {
  LoadArchive archive;
  for (int m = 1; m <= 5; ++m) {
    ASSERT_TRUE(archive.Append("k", Min(m), m).ok());
  }
  auto samples = archive.RawBetween("k", Min(1), Min(4));
  ASSERT_EQ(samples.size(), 3u);  // (1, 4]: minutes 2, 3, 4
  EXPECT_DOUBLE_EQ(samples.front().value, 2);
  EXPECT_DOUBLE_EQ(samples.back().value, 4);
  EXPECT_TRUE(archive.RawBetween("ghost", Min(0), Min(10)).empty());
}

TEST(LoadArchiveTest, RawRetentionEvicts) {
  LoadArchive archive(Duration::Hours(1), Duration::Minutes(15));
  ASSERT_TRUE(archive.Append("k", Min(0), 1.0).ok());
  ASSERT_TRUE(archive.Append("k", Min(90), 2.0).ok());
  // The 0-minute sample fell out of the 1-hour raw window.
  EXPECT_TRUE(archive.RawBetween("k", Min(0) - Duration::Minutes(1), Min(30))
                  .empty());
  EXPECT_DOUBLE_EQ(*archive.Latest("k"), 2.0);
}

TEST(LoadArchiveTest, AggregationFoldsBuckets) {
  LoadArchive archive(Duration::Hours(48), Duration::Minutes(15));
  // Two full buckets of constant values plus one open bucket.
  for (int m = 0; m < 15; ++m) {
    ASSERT_TRUE(archive.Append("k", Min(m), 0.2).ok());
  }
  for (int m = 15; m < 30; ++m) {
    ASSERT_TRUE(archive.Append("k", Min(m), 0.6).ok());
  }
  ASSERT_TRUE(archive.Append("k", Min(30), 1.0).ok());
  auto aggregated = archive.Aggregated("k");
  ASSERT_EQ(aggregated.size(), 3u);
  EXPECT_NEAR(aggregated[0].value, 0.2, 1e-12);
  EXPECT_EQ(aggregated[0].at, Min(0));
  EXPECT_NEAR(aggregated[1].value, 0.6, 1e-12);
  EXPECT_EQ(aggregated[1].at, Min(15));
  EXPECT_NEAR(aggregated[2].value, 1.0, 1e-12);
}

TEST(LoadArchiveTest, AggregatesSurviveRawEviction) {
  // "The load archive stores a persistent aggregated view of historic
  //  load data" — aggregates outlive the raw retention window.
  LoadArchive archive(Duration::Hours(1), Duration::Minutes(15));
  for (int m = 0; m <= 48 * 60; m += 5) {
    ASSERT_TRUE(archive.Append("k", Min(m), 0.5).ok());
  }
  auto aggregated = archive.Aggregated("k");
  EXPECT_GT(aggregated.size(), 150u);  // ~4 buckets/hour * 48 h
  EXPECT_EQ(aggregated.front().at, Min(0));
}

TEST(LoadArchiveTest, ConstantSeriesHoldsNoHeapStorage) {
  // Two days of one value at the paper's 48 h retention: the raw
  // window is one run and the aggregates one run, both inline, so the
  // series reserves nothing however long the window.
  LoadArchive archive(Duration::Hours(48), Duration::Minutes(15));
  archive.set_capacity_hints(48 * 60 + 2, 200);
  LoadArchive::Handle handle = archive.Acquire("server/x");
  for (int m = 0; m < 2 * 24 * 60; ++m) {
    ASSERT_TRUE(archive.Append(handle, Min(m), 0.4).ok());
  }
  // A carried-forward stretch appended in one call extends the run.
  ASSERT_TRUE(archive
                  .AppendRun(handle, Min(2 * 24 * 60), Duration::Minutes(1),
                             600, 0.4)
                  .ok());
  EXPECT_EQ(archive.StorageBytes(), 0u);
  EXPECT_EQ(archive.RawBetween("server/x", Min(0), Min(5000)).size(),
            48u * 60 + 1);
  EXPECT_DOUBLE_EQ(
      *archive.Average(handle, Duration::Minutes(20), Min(3479)), 0.4);
}

TEST(LoadArchiveTest, RunPastTheWindowReplacesHeldRunsInline) {
  // Two runs held inline, then a carried-forward run longer than the
  // window: eviction empties the window before the run is stored, so
  // the series never holds three runs and never spills.
  LoadArchive archive(Duration::Hours(1), Duration::Minutes(15));
  archive.set_capacity_hints(62, 20);
  LoadArchive::Handle handle = archive.Acquire("server/x");
  ASSERT_TRUE(archive.Append(handle, Min(0), 0.1).ok());
  ASSERT_TRUE(archive.Append(handle, Min(1), 0.2).ok());
  ASSERT_TRUE(
      archive.AppendRun(handle, Min(5), Duration::Minutes(1), 120, 0.3).ok());
  EXPECT_EQ(archive.StorageBytes(), 0u);
  auto raw = archive.RawBetween("server/x", Min(0), Min(200));
  ASSERT_EQ(raw.size(), 61u);
  EXPECT_EQ(raw.front().at, Min(64));
  EXPECT_EQ(raw.back().at, Min(124));
}

TEST(LoadArchiveTest, VaryingSeriesReservesExactlyOneSpill) {
  // Every sample differs: the raw runs spill once, at the hint's exact
  // size, and never grow while the window slides; so do the aggregate
  // runs, whose bucket means all differ. A run is 24 bytes.
  constexpr size_t kRawHint = 48 * 60 + 2;
  constexpr size_t kAggregateHint = 200;
  LoadArchive archive(Duration::Hours(48), Duration::Minutes(15));
  archive.set_capacity_hints(kRawHint, kAggregateHint);
  LoadArchive::Handle handle = archive.Acquire("server/x");
  for (int m = 0; m < 2 * 24 * 60; ++m) {
    ASSERT_TRUE(archive.Append(handle, Min(m), 0.001 * (m % 997)).ok());
    if (m == 2) {
      EXPECT_EQ(archive.StorageBytes(), kRawHint * 24);
    }
  }
  const size_t spilled = (kRawHint + kAggregateHint) * 24;
  EXPECT_EQ(archive.StorageBytes(), spilled);
  // Past the retention window eviction frees the runs it reuses.
  for (int m = 2 * 24 * 60; m < 3 * 24 * 60; ++m) {
    ASSERT_TRUE(archive.Append(handle, Min(m), 0.001 * (m % 991)).ok());
  }
  EXPECT_EQ(archive.StorageBytes(), spilled + kAggregateHint * 24)
      << "aggregates outgrew their 200-bucket hint once";
  EXPECT_EQ(archive.RawBetween("server/x", Min(0), Min(5000)).size(),
            48u * 60 + 1);
  archive.ClearSamples();
  EXPECT_EQ(archive.StorageBytes(), spilled + kAggregateHint * 24)
      << "cleared series keep their runs";
}

TEST(LoadArchiveTest, KeysLists) {
  LoadArchive archive;
  ASSERT_TRUE(archive.Append("server/a", Min(1), 1).ok());
  ASSERT_TRUE(archive.Append("service/b", Min(1), 1).ok());
  auto keys = archive.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "server/a");
  EXPECT_EQ(keys[1], "service/b");
}

TEST(LoadArchiveTest, SaveAndLoadRoundTrip) {
  LoadArchive archive(Duration::Hours(48), Duration::Minutes(15));
  for (int m = 0; m < 60; ++m) {
    ASSERT_TRUE(archive.Append("server/x", Min(m), 0.25).ok());
    ASSERT_TRUE(archive.Append("service/y", Min(m), 0.75).ok());
  }
  std::string path = testing::TempDir() + "/ag_archive_test.txt";
  ASSERT_TRUE(archive.Save(path).ok());
  auto loaded = LoadArchive::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Keys().size(), 2u);
  auto aggregated = loaded->Aggregated("server/x");
  ASSERT_FALSE(aggregated.empty());
  EXPECT_NEAR(aggregated[0].value, 0.25, 1e-9);
  EXPECT_FALSE(LoadArchive::Load("/nonexistent/nope").ok());
}

TEST(LoadArchiveTest, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/ag_archive_garbage.txt";
  {
    std::ofstream out(path);
    out << "not an archive\n";
  }
  EXPECT_FALSE(LoadArchive::Load(path).ok());
}

TEST(LoadArchiveTest, RestoreRejectsACountTheImageCannotHold) {
  // One series with no raw samples, 2^61 aggregated buckets and the
  // open-bucket fields: the bucket count cannot fit in what is left.
  ByteWriter w;
  w.U64(1);
  w.Str("server/Blade1/cpu");
  w.U64(0);
  w.U64(uint64_t{1} << 61);
  w.I64(0);
  w.F64(0.0);
  w.I64(0);
  LoadArchive archive;
  ByteReader r(w.data());
  Status status = archive.RestoreState(&r);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
}

}  // namespace
}  // namespace autoglobe::monitor
