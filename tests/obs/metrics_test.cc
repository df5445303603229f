#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace autoglobe::obs {
namespace {

TEST(CounterTest, DefaultConstructedHandleIsInert) {
  Counter counter;
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 0u);

  Gauge gauge;
  gauge.Set(3.5);
  EXPECT_EQ(gauge.value(), 0.0);

  Histogram histogram;
  histogram.Observe(1.0);  // must not crash
}

TEST(CounterTest, IncrementsAndSnapshots) {
  MetricsRegistry registry;
  Counter counter = registry.AddCounter("triggers_fired");
  counter.Increment();
  counter.Increment(2);
  EXPECT_EQ(counter.value(), 3u);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "triggers_fired");
  EXPECT_EQ(snapshot.counters[0].second, 3u);
}

TEST(CounterTest, RegistrationIsIdempotentPerName) {
  MetricsRegistry registry;
  Counter a = registry.AddCounter("shared");
  Counter b = registry.AddCounter("shared");
  a.Increment();
  b.Increment();
  // Both handles point at the same slot.
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

TEST(GaugeTest, KeepsLastWrittenValue) {
  MetricsRegistry registry;
  Gauge gauge = registry.AddGauge("pool_size");
  gauge.Set(4.0);
  gauge.Set(7.5);
  EXPECT_EQ(gauge.value(), 7.5);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 7.5);
}

TEST(HistogramTest, LeBucketBoundaries) {
  MetricsRegistry registry;
  Histogram histogram = registry.AddHistogram("latency", {1.0, 2.0, 4.0});
  // `le` semantics: a sample lands in the first bucket whose bound is
  // >= the value; values above the last bound go to overflow.
  histogram.Observe(0.5);  // <= 1.0
  histogram.Observe(1.0);  // <= 1.0 (boundary is inclusive)
  histogram.Observe(1.5);  // <= 2.0
  histogram.Observe(2.0);  // <= 2.0
  histogram.Observe(3.0);  // <= 4.0
  histogram.Observe(4.0);  // <= 4.0
  histogram.Observe(5.0);  // overflow

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& h = snapshot.histograms[0];
  EXPECT_EQ(h.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(h.counts, (std::vector<uint64_t>{2, 2, 2, 1}));
  EXPECT_EQ(h.count, 7u);
  EXPECT_DOUBLE_EQ(h.sum, 17.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 17.0 / 7.0);
}

TEST(HistogramTest, BoundsAreSortedAndDeduplicated) {
  MetricsRegistry registry;
  registry.AddHistogram("h", {4.0, 1.0, 2.0, 2.0});
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].bounds,
            (std::vector<double>{1.0, 2.0, 4.0}));
  // Re-registering under the same name keeps the existing bounds.
  registry.AddHistogram("h", {100.0});
  EXPECT_EQ(registry.Snapshot().histograms[0].bounds,
            (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST(HistogramTest, EmptyBoundsGetADefaultBucket) {
  MetricsRegistry registry;
  registry.AddHistogram("h", {});
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].bounds, (std::vector<double>{1.0}));
  EXPECT_EQ(snapshot.histograms[0].counts.size(), 2u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram histogram = registry.AddHistogram("h", {10.0});
  for (int i = 0; i < 100; ++i) histogram.Observe(5.0);
  HistogramSnapshot h = registry.Snapshot().histograms[0];
  // All 100 samples sit in [0, 10]; the median interpolates to the
  // middle of the bucket, the max to its upper bound.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.1);  // rank clamps to 1
}

TEST(HistogramTest, QuantileAcrossBuckets) {
  MetricsRegistry registry;
  Histogram histogram = registry.AddHistogram("h", {1.0, 2.0, 4.0});
  // 10 samples per bucket -> cumulative 10/20/30.
  for (int i = 0; i < 10; ++i) histogram.Observe(0.5);
  for (int i = 0; i < 10; ++i) histogram.Observe(1.5);
  for (int i = 0; i < 10; ++i) histogram.Observe(3.0);
  HistogramSnapshot h = registry.Snapshot().histograms[0];
  // p50 -> rank 15, second bucket [1, 2], 5 of its 10 samples in.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  // p90 -> rank 27, third bucket [2, 4], 7 of its 10 samples in.
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 2.0 + 2.0 * 0.7);
}

TEST(HistogramTest, OverflowSamplesReportLastBound) {
  MetricsRegistry registry;
  Histogram histogram = registry.AddHistogram("h", {10.0});
  for (int i = 0; i < 4; ++i) histogram.Observe(25.0);
  HistogramSnapshot h = registry.Snapshot().histograms[0];
  EXPECT_EQ(h.counts, (std::vector<uint64_t>{0, 4}));
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 10.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  MetricsRegistry registry;
  registry.AddHistogram("h", {10.0});
  HistogramSnapshot h = registry.Snapshot().histograms[0];
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndBuckets) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.AddCounter("shared").Increment(3);
  a.AddCounter("only_a").Increment(1);
  b.AddCounter("shared").Increment(4);
  a.AddGauge("g").Set(1.0);
  b.AddGauge("g").Set(2.0);
  Histogram ha = a.AddHistogram("h", {1.0, 2.0});
  Histogram hb = b.AddHistogram("h", {1.0, 2.0});
  ha.Observe(0.5);
  hb.Observe(1.5);
  hb.Observe(9.0);

  MetricsSnapshot merged =
      MetricsSnapshot::Merge({a.Snapshot(), b.Snapshot()});
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].first, "shared");
  EXPECT_EQ(merged.counters[0].second, 7u);
  EXPECT_EQ(merged.counters[1].second, 1u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].second, 2.0);  // last value wins
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(merged.histograms[0].sum, 11.0);
  EXPECT_EQ(merged.histograms[0].counts,
            (std::vector<uint64_t>{1, 1, 1}));
}

TEST(MetricsSnapshotTest, MergeKeepsFirstBucketsOnBoundMismatch) {
  MetricsRegistry a;
  MetricsRegistry b;
  Histogram ha = a.AddHistogram("h", {1.0});
  Histogram hb = b.AddHistogram("h", {5.0, 6.0});
  ha.Observe(0.5);
  hb.Observe(5.5);

  MetricsSnapshot merged =
      MetricsSnapshot::Merge({a.Snapshot(), b.Snapshot()});
  ASSERT_EQ(merged.histograms.size(), 1u);
  // count/sum aggregate; the incompatible buckets are not summed.
  EXPECT_EQ(merged.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(merged.histograms[0].sum, 6.0);
  EXPECT_EQ(merged.histograms[0].bounds, (std::vector<double>{1.0}));
  EXPECT_EQ(merged.histograms[0].counts, (std::vector<uint64_t>{1, 0}));
}

TEST(MetricsSnapshotTest, ToJsonIsStable) {
  MetricsRegistry registry;
  registry.AddCounter("triggers_fired").Increment(3);
  registry.AddGauge("load").Set(0.25);
  Histogram histogram = registry.AddHistogram("h", {1.0, 2.0, 4.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);

  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"triggers_fired\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"load\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [1, 2, 4]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [1, 1, 0, 0]"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(MetricsSnapshotTest, EmptyRegistryJsonHasAllSections) {
  MetricsRegistry registry;
  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": []"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreLossless) {
  // The threading contract: one registry per thread, snapshots merged
  // afterwards. The merged totals equal one sequential registry fed
  // the same updates.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  auto feed = [](MetricsRegistry* registry) {
    Counter counter = registry->AddCounter("hits");
    Histogram histogram = registry->AddHistogram("h", {0.5});
    for (int i = 0; i < kPerThread; ++i) {
      counter.Increment();
      histogram.Observe(i % 2 == 0 ? 0.25 : 1.0);
    }
  };
  std::vector<MetricsRegistry> registries(kThreads);
  std::vector<MetricsSnapshot> parts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&feed, &registries, &parts, t] {
      feed(&registries[t]);
      parts[t] = registries[t].Snapshot();
    });
  }
  for (std::thread& thread : threads) thread.join();

  MetricsRegistry sequential;
  for (int t = 0; t < kThreads; ++t) feed(&sequential);
  MetricsSnapshot expected = sequential.Snapshot();
  MetricsSnapshot merged = MetricsSnapshot::Merge(parts);

  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].second,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(merged.counters, expected.counters);
  ASSERT_EQ(merged.histograms.size(), 1u);
  const HistogramSnapshot& h = merged.histograms[0];
  EXPECT_EQ(h.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.counts, expected.histograms[0].counts);
  EXPECT_EQ(h.counts[0] + h.counts[1], h.count);
  EXPECT_EQ(h.sum, expected.histograms[0].sum);
}

TEST(MetricsRegistryTest, HandlesSurviveLaterRegistrations) {
  MetricsRegistry registry;
  Counter first = registry.AddCounter("first");
  // Force many more slots; deque storage keeps `first` stable.
  for (int i = 0; i < 100; ++i) {
    registry.AddCounter("extra_" + std::to_string(i)).Increment();
  }
  first.Increment(5);
  EXPECT_EQ(registry.Snapshot().counters[0].second, 5u);
}

}  // namespace
}  // namespace autoglobe::obs
