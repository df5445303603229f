// Equivalence of the three ways a series reaches its state: a loop of
// Append (the reference), LoadArchive::AppendRun, and a SaveState ->
// RestoreState round trip of the reference. All three must agree on
// statuses, Aggregated() and SaveState bytes.

#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "monitor/load_archive.h"

namespace autoglobe::monitor {
namespace {

SimTime Min(int m) { return SimTime::Start() + Duration::Minutes(m); }

std::string ArchiveBytes(const LoadArchive& archive) {
  ByteWriter w;
  archive.SaveState(&w);
  return w.Take();
}

void ExpectSameAggregates(const LoadArchive& a, const LoadArchive& b,
                          const char* what) {
  const std::vector<LoadSample> x = a.Aggregated("server/s");
  const std::vector<LoadSample> y = b.Aggregated("server/s");
  ASSERT_EQ(x.size(), y.size()) << what;
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].at, y[i].at) << what << " bucket " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(x[i].value),
              std::bit_cast<uint64_t>(y[i].value))
        << what << " bucket " << i;
  }
}

/// Two archives with one series each: `bulk` takes AppendRun, `loop`
/// the equivalent Append calls.
class AppendRunTest : public ::testing::Test {
 protected:
  void Make(Duration retention, Duration bucket, size_t raw_hint,
            size_t aggregate_hint = 0) {
    retention_ = retention;
    bucket_ = bucket;
    raw_hint_ = raw_hint;
    aggregate_hint_ = aggregate_hint;
    bulk_ = std::make_unique<LoadArchive>(retention, bucket);
    loop_ = std::make_unique<LoadArchive>(retention, bucket);
    bulk_->set_capacity_hints(raw_hint, aggregate_hint);
    loop_->set_capacity_hints(raw_hint, aggregate_hint);
    bulk_handle_ = bulk_->Acquire("server/s");
    loop_handle_ = loop_->Acquire("server/s");
  }

  void Sample(SimTime at, double value) {
    ASSERT_TRUE(bulk_->Append(bulk_handle_, at, value).ok());
    ASSERT_TRUE(loop_->Append(loop_handle_, at, value).ok());
  }

  /// Appends the run both ways; the statuses must agree too.
  void Run(SimTime first, Duration interval, int64_t count, double value) {
    Status bulk =
        bulk_->AppendRun(bulk_handle_, first, interval, count, value);
    Status loop = Status::OK();
    for (int64_t i = 0; i < count && loop.ok(); ++i) {
      loop = loop_->Append(loop_handle_, first + interval * i, value);
    }
    EXPECT_EQ(bulk.ok(), loop.ok());
    EXPECT_EQ(bulk.ToString(), loop.ToString());
  }

  /// Bulk, loop and a restore of the loop's image hold the same state.
  void ExpectSameState() {
    const std::string image = ArchiveBytes(*loop_);
    EXPECT_EQ(ArchiveBytes(*bulk_), image);
    ExpectSameAggregates(*bulk_, *loop_, "AppendRun");
    LoadArchive restored(retention_, bucket_);
    restored.set_capacity_hints(raw_hint_, aggregate_hint_);
    ByteReader r(image);
    Status status = restored.RestoreState(&r);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(ArchiveBytes(restored), image);
    ExpectSameAggregates(restored, *loop_, "restore");
  }

  Duration retention_;
  Duration bucket_;
  size_t raw_hint_ = 0;
  size_t aggregate_hint_ = 0;
  std::unique_ptr<LoadArchive> bulk_;
  std::unique_ptr<LoadArchive> loop_;
  LoadArchive::Handle bulk_handle_;
  LoadArchive::Handle loop_handle_;
};

TEST_F(AppendRunTest, CrossesAggregateBucketBoundaries) {
  Make(Duration::Hours(48), Duration::Minutes(15), 64);
  // Minute 7 to minute 106: six 15-min bucket boundaries inside.
  Run(Min(7), Duration::Minutes(1), 100, 0.37);
  ExpectSameState();
  // An interval that does not divide the bucket width.
  Run(Min(110), Duration::Seconds(420), 40, 0.81);
  ExpectSameState();
}

TEST_F(AppendRunTest, RunLongerThanRetention) {
  Make(Duration::Hours(1), Duration::Minutes(15), 60);
  for (int m = 0; m < 30; ++m) Sample(Min(m), 0.1 + 0.01 * m);
  Run(Min(30), Duration::Minutes(1), 500, 0.6);
  ExpectSameState();
  // And one that evicts every earlier sample but keeps part of itself.
  Run(Min(1000), Duration::Minutes(2), 45, 0.4);
  ExpectSameState();
}

TEST_F(AppendRunTest, UnhintedEmptySeriesGrowsItsRing) {
  Make(Duration::Hours(48), Duration::Minutes(15), 0);
  Run(Min(1), Duration::Minutes(1), 1000, 0.55);
  ExpectSameState();
  Run(Min(1001), Duration::Minutes(1), 3000, 0.45);
  ExpectSameState();
}

TEST_F(AppendRunTest, RunAfterOrdinarySamples) {
  Make(Duration::Hours(2), Duration::Minutes(15), 120);
  for (int m = 0; m < 50; ++m) Sample(Min(m), 0.2 + 0.003 * m);
  Run(Min(50), Duration::Minutes(1), 20, 0.5);
  Sample(Min(70), 0.9);
  Run(Min(71), Duration::Minutes(1), 20, 0.9);
  ExpectSameState();
}

TEST_F(AppendRunTest, SingleSampleRunAndDegenerateShapes) {
  Make(Duration::Hours(1), Duration::Minutes(15), 60);
  Run(Min(3), Duration::Minutes(1), 1, 0.25);
  ExpectSameState();
  Run(Min(3), Duration::Zero(), 7, 0.3);  // equal timestamps
  ExpectSameState();
  Run(Min(4), Duration::Minutes(1), 0, 0.9);  // no-op
  ExpectSameState();
  // A negative interval goes out of order at its second sample.
  Run(Min(20), Duration::Minutes(-1), 3, 0.7);
  ExpectSameState();
}

TEST_F(AppendRunTest, OutOfOrderRunIsRejectedLikeAppend) {
  Make(Duration::Hours(1), Duration::Minutes(15), 60);
  Sample(Min(10), 0.5);
  Run(Min(5), Duration::Minutes(1), 10, 0.5);
  EXPECT_FALSE(
      bulk_->AppendRun(bulk_handle_, Min(9), Duration::Minutes(1), 3, 0.1)
          .ok());
  ExpectSameState();
}

TEST_F(AppendRunTest, SeededRunsMatchTheAppendLoop) {
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    auto uniform = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Duration retention = Duration::Minutes(uniform(5, 180));
    Duration bucket = Duration::Minutes(uniform(1, 30));
    int hint = uniform(0, 1) == 0 ? 0 : uniform(1, 200);
    Make(retention, bucket, static_cast<size_t>(hint));
    int64_t t = uniform(0, 600);
    for (int step = 0; step < 30; ++step) {
      double value = std::uniform_real_distribution<double>(0, 1)(rng);
      if (uniform(0, 2) == 0) {
        Sample(SimTime::FromSeconds(t), value);
      } else {
        int64_t seconds = uniform(0, 3) * 60;
        if (uniform(0, 1) == 1) seconds += uniform(1, 59);
        Duration interval = Duration::Seconds(seconds);
        int64_t count = uniform(1, 400);
        Run(SimTime::FromSeconds(t), interval, count, value);
        t += interval.seconds() * (count - 1);
      }
      t += uniform(0, 300);
      ASSERT_EQ(ArchiveBytes(*bulk_), ArchiveBytes(*loop_)) << step;
    }
    ExpectSameState();
  }
}

TEST_F(AppendRunTest, ConstantSeriesStaysRuns) {
  // Two days of one value: the partial first bucket's mean is the
  // only other run, so the image is a few runs, not 2,880 samples.
  Make(Duration::Hours(48), Duration::Minutes(15), 2882, 200);
  Run(Min(7), Duration::Minutes(1), 48 * 60, 0.1);
  ExpectSameState();
  EXPECT_EQ(loop_->Aggregated("server/s").size(), 48u * 4 + 1);
  EXPECT_LT(ArchiveBytes(*loop_).size(), 200u);
  // Runs continue across later appends of the same value.
  Run(Min(7 + 48 * 60), Duration::Minutes(1), 90, 0.1);
  ExpectSameState();
  EXPECT_LT(ArchiveBytes(*loop_).size(), 200u);
}

TEST_F(AppendRunTest, AlternatingBucketsSpillPastTheInlineRuns) {
  // Every bucket's mean differs from its neighbour's: one run per
  // bucket, far more than the two inline ones, and a raw window with
  // no repeats falls back to plain samples.
  Make(Duration::Hours(2), Duration::Minutes(15), 128, 16);
  for (int b = 0; b < 40; ++b) {
    Run(Min(15 * b), Duration::Minutes(1), 15, b % 2 == 0 ? 0.25 : 0.75);
    ExpectSameState();
  }
  for (int m = 0; m < 130; ++m) Sample(Min(600 + m), 0.001 * m);
  ExpectSameState();
  EXPECT_EQ(loop_->Aggregated("server/s").size(), 49u);
}

TEST_F(AppendRunTest, BucketCrossingRunsMergeLikeSamples) {
  // Runs that start and end inside buckets: a bucket shared by two
  // values ends one aggregate run, and the next full bucket of the new
  // value starts another.
  Make(Duration::Hours(1), Duration::Minutes(15), 0);
  Run(Min(4), Duration::Minutes(1), 50, 0.4);
  Run(Min(54), Duration::Minutes(1), 50, 0.6);
  Run(Min(104), Duration::Seconds(90), 33, 0.6);
  Sample(Min(154), 0.6);
  Run(Min(155), Duration::Minutes(1), 100, 0.4);
  ExpectSameState();
  // A gap of empty buckets splits a run of equal means.
  Run(Min(400), Duration::Minutes(1), 60, 0.4);
  ExpectSameState();
}

TEST_F(AppendRunTest, EvictionKeepsTheGreedySplitInTheImage) {
  // One value at minutes 0, 1, 3, 4, ..., 8 with a 7-minute window:
  // memory holds (0, 1 min, 2) and (3, 1 min, 6) until minute 8
  // evicts minute 0 and trims the first run to (1, -, 1). A fresh
  // greedy split of minutes 1, 3, 4, ..., 8 is (1, 2 min, 2) and
  // (4, 1 min, 5), and that is what the image must hold.
  Make(Duration::Minutes(7), Duration::Minutes(15), 9);
  for (int m : {0, 1, 3, 4, 5, 6, 7, 8}) Sample(Min(m), 0.3);
  ExpectSameState();
  const std::string image = ArchiveBytes(*loop_);
  ByteReader r(image);
  EXPECT_EQ(*r.U64(), 1u);
  EXPECT_EQ(*r.Str(), "server/s");
  EXPECT_EQ(*r.U8() & 1, 1) << "two runs are smaller than seven samples";
  ASSERT_EQ(*r.U64(), 2u);
  const int64_t runs[2][3] = {{60, 120, 2}, {240, 60, 5}};
  for (const auto& run : runs) {
    EXPECT_EQ(*r.I64(), run[0]);
    EXPECT_EQ(*r.I64(), run[1]);
    EXPECT_EQ(*r.U64(), static_cast<uint64_t>(run[2]));
    EXPECT_EQ(*r.F64(), 0.3);
  }
  // A restore holds the image's split; appending to it and to the
  // original, whose runs differ, still gives equal images.
  LoadArchive restored(retention_, bucket_);
  restored.set_capacity_hints(raw_hint_, aggregate_hint_);
  ByteReader image_reader(image);
  ASSERT_TRUE(restored.RestoreState(&image_reader).ok());
  for (int m : {9, 10, 12}) {
    Sample(Min(m), 0.3);
    ASSERT_TRUE(restored.Append(restored.Acquire("server/s"), Min(m), 0.3)
                    .ok());
    EXPECT_EQ(ArchiveBytes(restored), ArchiveBytes(*loop_)) << m;
  }
}

}  // namespace
}  // namespace autoglobe::monitor
