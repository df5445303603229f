#include "faults/availability.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace autoglobe::faults {
namespace {

SimTime Min(int m) { return SimTime::Start() + Duration::Minutes(m); }

TEST(AvailabilityTrackerTest, EpisodeLifecycleAndMttrMath) {
  AvailabilityTracker tracker;
  tracker.OnFaultInjected(FaultKind::kInstanceCrash, Min(10));
  tracker.OnInstanceDown(1, "CRM", Min(10));
  EXPECT_TRUE(tracker.IsOpen(1));
  tracker.OnFailureDetected(1, Min(13));
  tracker.OnRecovered(1, Min(20));
  EXPECT_FALSE(tracker.IsOpen(1));

  AvailabilityReport report = tracker.Report(Min(60));
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.instance_crashes, 1);
  EXPECT_EQ(report.episodes, 1);
  EXPECT_EQ(report.detected, 1);
  EXPECT_EQ(report.recovered, 1);
  EXPECT_DOUBLE_EQ(report.mttd_minutes_mean, 3.0);
  EXPECT_DOUBLE_EQ(report.mttr_minutes_mean, 10.0);
  EXPECT_DOUBLE_EQ(report.mttr_minutes_max, 10.0);
  EXPECT_DOUBLE_EQ(report.unavailability_instance_minutes, 10.0);
  EXPECT_DOUBLE_EQ(report.objective_satisfaction, 1.0);
}

TEST(AvailabilityTrackerTest, ReCrashKeepsOriginalDownTime) {
  AvailabilityTracker tracker;
  tracker.OnInstanceDown(1, "CRM", Min(10));
  tracker.OnFailureDetected(1, Min(12));
  // The restarted instance crashes again before recovery closes.
  tracker.OnInstanceDown(1, "CRM", Min(14));
  tracker.OnRecovered(1, Min(30));
  AvailabilityReport report = tracker.Report(Min(60));
  EXPECT_EQ(report.episodes, 1);
  EXPECT_DOUBLE_EQ(report.mttr_minutes_mean, 20.0);  // from minute 10
}

TEST(AvailabilityTrackerTest, AbandonedAndOpenAccrueToRunEnd) {
  AvailabilityConfig config;
  config.recovery_objective = Duration::Minutes(15);
  AvailabilityTracker tracker(config);
  tracker.OnInstanceDown(1, "CRM", Min(0));
  tracker.OnFailureDetected(1, Min(3));
  tracker.OnAbandoned(1, Min(5));
  EXPECT_FALSE(tracker.IsOpen(1));
  tracker.OnInstanceDown(2, "ERP", Min(30));  // never closed
  EXPECT_TRUE(tracker.IsOpen(2));
  // Recovery / abandonment after closing are ignored.
  tracker.OnRecovered(1, Min(7));

  AvailabilityReport report = tracker.Report(Min(60));
  EXPECT_EQ(report.episodes, 2);
  EXPECT_EQ(report.abandoned, 1);
  EXPECT_EQ(report.open, 1);
  EXPECT_EQ(report.recovered, 0);
  // Abandoned: 0..60 lost; open: 30..60 lost.
  EXPECT_DOUBLE_EQ(report.unavailability_instance_minutes, 90.0);
  EXPECT_DOUBLE_EQ(report.objective_satisfaction, 0.0);
}

TEST(AvailabilityTrackerTest, ObjectiveSatisfactionCountsOnTimeOnly) {
  AvailabilityConfig config;
  config.recovery_objective = Duration::Minutes(15);
  AvailabilityTracker tracker(config);
  tracker.OnInstanceDown(1, "CRM", Min(0));
  tracker.OnRecovered(1, Min(10));  // within objective
  tracker.OnInstanceDown(2, "CRM", Min(0));
  tracker.OnRecovered(2, Min(40));  // too slow
  AvailabilityReport report = tracker.Report(Min(60));
  EXPECT_EQ(report.recovered, 2);
  EXPECT_DOUBLE_EQ(report.objective_satisfaction, 0.5);
  EXPECT_DOUBLE_EQ(report.mttr_minutes_mean, 25.0);
  EXPECT_DOUBLE_EQ(report.mttr_minutes_max, 40.0);
}

TEST(AvailabilityTrackerTest, UnknownTokensAreIgnored) {
  AvailabilityTracker tracker;
  tracker.OnFailureDetected(99, Min(1));
  tracker.OnRecovered(99, Min(2));
  tracker.OnAbandoned(99, Min(3));
  EXPECT_FALSE(tracker.IsOpen(99));
  EXPECT_EQ(tracker.Report(Min(10)).episodes, 0);
}

TEST(AvailabilityReportTest, RenderMentionsTheHeadlines) {
  AvailabilityTracker tracker;
  tracker.OnFaultInjected(FaultKind::kServerFailure, Min(0));
  tracker.OnInstanceDown(1, "CRM", Min(0));
  tracker.OnFailureDetected(1, Min(2));
  tracker.OnRecovered(1, Min(5));
  std::string text = RenderAvailabilityReport(tracker.Report(Min(10)));
  EXPECT_NE(text.find("MTTR"), std::string::npos);
  EXPECT_NE(text.find("MTTD"), std::string::npos);
  EXPECT_NE(text.find("unavailability"), std::string::npos);
  EXPECT_NE(text.find("server failures 1"), std::string::npos);
}

TEST(AvailabilityTrackerTest, RestoreRejectsACountTheImageCannotHold) {
  ByteWriter w;
  w.U64(0);                  // open episodes
  w.U64(uint64_t{1} << 61);  // closed episodes, none behind the count
  AvailabilityTracker tracker;
  ByteReader r(w.data());
  Status status = tracker.RestoreState(&r);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
}

}  // namespace
}  // namespace autoglobe::faults
