// Property tests of the fault subsystem end to end (satellite of the
// robustness PR): whatever a randomly generated, seeded fault schedule
// throws at the paper landscape, the cluster invariants hold after
// recovery, the availability accounting stays consistent, and the
// whole scenario is bit-identical at any parallelism.

#include <gtest/gtest.h>

#include "autoglobe/availability.h"
#include "common/bytes.h"
#include "faults/plan.h"

namespace autoglobe {
namespace {

AvailabilityOptions ChaosOptions(uint64_t seed, int repetitions) {
  AvailabilityOptions options;
  options.scenario = Scenario::kFullMobility;
  options.duration = Duration::Hours(6);
  options.seed = seed;
  options.repetitions = repetitions;
  options.parallelism = 1;
  // Well above the bench rates: the point is stress, not realism.
  options.fault_spec.instance_crashes_per_hour = 2.0;
  options.fault_spec.server_failures_per_day = 4.0;
  options.fault_spec.server_recovery = Duration::Hours(1);
  options.fault_spec.action_failure_windows_per_day = 4.0;
  options.fault_spec.action_failure_duration = Duration::Minutes(5);
  options.fault_spec.monitor_dropouts_per_day = 4.0;
  options.fault_spec.monitor_dropout_duration = Duration::Minutes(5);
  return options;
}

void ExpectConsistent(const AvailabilityRun& run) {
  SCOPED_TRACE("seed " + std::to_string(run.seed));
  EXPECT_TRUE(run.invariants_ok) << run.invariants_error;
  const faults::AvailabilityReport& report = run.report;
  // Every episode is in exactly one terminal bucket.
  EXPECT_EQ(report.episodes,
            report.recovered + report.abandoned + report.open);
  EXPECT_LE(report.detected, report.episodes);
  EXPECT_GE(report.mttd_minutes_mean, 0.0);
  EXPECT_GE(report.mttr_minutes_max, report.mttr_minutes_mean);
  EXPECT_GE(report.unavailability_instance_minutes, 0.0);
  EXPECT_GE(report.objective_satisfaction, 0.0);
  EXPECT_LE(report.objective_satisfaction, 1.0);
  // Injection happened (the spec's rates make an empty 6 h schedule
  // astronomically unlikely) and recovery did real work.
  EXPECT_GT(report.faults_injected, 0);
  EXPECT_EQ(report.faults_injected,
            report.instance_crashes + report.server_failures +
                report.action_failure_windows + report.monitor_dropouts);
  const faults::RecoveryStats& recovery = run.recovery;
  EXPECT_LE(recovery.restarts_succeeded, recovery.restarts_attempted);
  EXPECT_EQ(recovery.recovered + recovery.abandoned,
            report.recovered + report.abandoned);
}

TEST(ChaosPropertyTest, InvariantsHoldAcrossRandomFaultSchedules) {
  auto result = RunAvailabilityScenario(ChaosOptions(7, 3));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->runs.size(), 3u);
  for (const AvailabilityRun& run : result->runs) ExpectConsistent(run);

  // The three repetitions saw different schedules (seed + i each).
  EXPECT_FALSE(result->runs[0].report.faults_injected ==
                   result->runs[1].report.faults_injected &&
               result->runs[1].report.faults_injected ==
                   result->runs[2].report.faults_injected &&
               result->runs[0].report.unavailability_instance_minutes ==
                   result->runs[1].report.unavailability_instance_minutes);
}

TEST(ChaosPropertyTest, BitIdenticalAcrossParallelism) {
  AvailabilityOptions sequential = ChaosOptions(21, 3);
  AvailabilityOptions parallel = ChaosOptions(21, 3);
  parallel.parallelism = 4;
  auto a = RunAvailabilityScenario(sequential);
  auto b = RunAvailabilityScenario(parallel);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(RenderAvailabilityResult(*a), RenderAvailabilityResult(*b));
  ASSERT_EQ(a->runs.size(), b->runs.size());
  for (size_t i = 0; i < a->runs.size(); ++i) {
    EXPECT_EQ(a->runs[i].report.unavailability_instance_minutes,
              b->runs[i].report.unavailability_instance_minutes) << i;
    EXPECT_EQ(a->runs[i].recovery.restarts_attempted,
              b->runs[i].recovery.restarts_attempted) << i;
    EXPECT_EQ(a->runs[i].injector.instances_crashed,
              b->runs[i].injector.instances_crashed) << i;
  }
}

TEST(ChaosPropertyTest, ExplicitPlanInjectsExactlyWhatItSays) {
  AvailabilityOptions options = ChaosOptions(42, 1);
  options.fault_spec = {};  // plan below wins
  faults::FaultPlan plan;
  plan.events.push_back({SimTime::FromSeconds(3600),
                         faults::FaultKind::kInstanceCrash, "",
                         Duration::Zero()});
  plan.events.push_back({SimTime::FromSeconds(7200),
                         faults::FaultKind::kServerFailure, "Blade3",
                         Duration::Hours(1)});
  options.plan = plan;

  auto result = RunAvailabilityScenario(options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->runs.size(), 1u);
  const AvailabilityRun& run = result->runs[0];
  ExpectConsistent(run);
  EXPECT_EQ(run.report.instance_crashes, 1);
  EXPECT_EQ(run.report.server_failures, 1);
  EXPECT_EQ(run.report.action_failure_windows, 0);
  EXPECT_EQ(run.injector.servers_failed, 1);
  EXPECT_EQ(run.injector.servers_repaired, 1);
  EXPECT_GE(run.report.episodes, 1);
}

TEST(ChaosPropertyTest, HeartbeatDetectionOrderIsPinned) {
  // Paper FM for 48 h under a generated plan with instance crashes,
  // server failures and monitor dropouts: every DETECT line, and so
  // the order in which heartbeat watches fire, lands in the message
  // log. Its FNV-1a plus the rendered availability report pin that
  // order; a change to how watches are kept must leave both alone.
  AvailabilityOptions options;
  options.scenario = Scenario::kFullMobility;
  options.duration = Duration::Hours(48);
  options.fault_spec.instance_crashes_per_hour = 1.0;
  options.fault_spec.server_failures_per_day = 6.0;
  options.fault_spec.server_recovery = Duration::Hours(1);
  options.fault_spec.monitor_dropouts_per_day = 6.0;
  options.fault_spec.monitor_dropout_duration = Duration::Minutes(5);
  auto config = MakeAvailabilityConfig(options, 42);
  ASSERT_TRUE(config.ok()) << config.status();
  auto runner = SimulationRunner::Create(
      MakePaperLandscape(Scenario::kFullMobility), *config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());

  std::string log;
  int detections = 0;
  for (const std::string& message : (*runner)->messages()) {
    log.append(message).push_back('\n');
    if (message.find("DETECT") != std::string::npos) ++detections;
  }
  log += faults::RenderAvailabilityReport((*runner)->availability_report());
  EXPECT_GT(detections, 0);
  EXPECT_EQ(Fnv1a64(log), 0xa8545c0b2a4338d7ull) << detections << " detections";
}

TEST(ChaosPropertyTest, AggregatePoolsCountsAndMeans) {
  std::vector<AvailabilityRun> runs(2);
  runs[0].report.episodes = 2;
  runs[0].report.detected = 2;
  runs[0].report.recovered = 2;
  runs[0].report.mttd_minutes_mean = 2.0;
  runs[0].report.mttr_minutes_mean = 4.0;
  runs[0].report.mttr_minutes_max = 6.0;
  runs[0].report.unavailability_instance_minutes = 8.0;
  runs[0].report.objective_satisfaction = 1.0;
  runs[1].report.episodes = 2;
  runs[1].report.detected = 1;
  runs[1].report.recovered = 1;
  runs[1].report.mttd_minutes_mean = 5.0;
  runs[1].report.mttr_minutes_mean = 10.0;
  runs[1].report.mttr_minutes_max = 10.0;
  runs[1].report.unavailability_instance_minutes = 12.0;
  runs[1].report.objective_satisfaction = 0.5;

  faults::AvailabilityReport pooled = AggregateReports(runs);
  EXPECT_EQ(pooled.episodes, 4);
  EXPECT_EQ(pooled.detected, 3);
  EXPECT_EQ(pooled.recovered, 3);
  EXPECT_DOUBLE_EQ(pooled.mttd_minutes_mean, 3.0);   // (2*2 + 5) / 3
  EXPECT_DOUBLE_EQ(pooled.mttr_minutes_mean, 6.0);   // (2*4 + 10) / 3
  EXPECT_DOUBLE_EQ(pooled.mttr_minutes_max, 10.0);
  EXPECT_DOUBLE_EQ(pooled.unavailability_instance_minutes, 20.0);
  EXPECT_DOUBLE_EQ(pooled.objective_satisfaction, 0.75);  // (2 + 1) / 4
}

}  // namespace
}  // namespace autoglobe
