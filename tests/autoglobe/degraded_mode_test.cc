// Runner-level degraded mode: a monitor-dropout storm flips the
// control loop to the urgent-only posture, speculative rebalancing is
// suppressed (and audited), recovery/SLA paths stay live, and the
// posture exits after the hysteresis window of healthy ticks.

#include <gtest/gtest.h>

#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "persist/runner_checkpoint.h"

namespace autoglobe {
namespace {

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      std::string_view name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " not registered";
  return 0;
}

bool AnyMessageContains(const SimulationRunner& runner,
                        std::string_view needle) {
  for (const std::string& message : runner.messages()) {
    if (message.find(needle) != std::string::npos) return true;
  }
  return false;
}

RunnerConfig StormConfig(uint64_t seed) {
  // Overloaded full-mobility run so load triggers keep firing, plus a
  // simultaneous monitor dropout on three servers at hour 2 — the
  // storm the watchdog is built to notice.
  RunnerConfig config =
      MakeScenarioConfig(Scenario::kFullMobility, 1.3, seed);
  config.duration = Duration::Hours(6);
  config.degraded.enabled = true;
  config.degraded.dropout_storm_threshold = 3;
  config.degraded.exit_healthy_ticks = 5;
  faults::FaultPlan plan;
  for (const char* server : {"Blade1", "Blade2", "Blade3"}) {
    plan.events.push_back({SimTime::Start() + Duration::Hours(2),
                           faults::FaultKind::kMonitorDropout, server,
                           Duration::Minutes(45)});
  }
  config.fault_plan = plan;
  return config;
}

TEST(DegradedModeRunnerTest, DropoutStormFlipsPostureAndRecovers) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  auto runner = SimulationRunner::Create(landscape, StormConfig(42));
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());

  const auto& watchdog = (*runner)->degraded_mode();
  EXPECT_GE(watchdog.entries(), 1);
  EXPECT_GT(watchdog.degraded_ticks(), 0);
  EXPECT_FALSE(watchdog.degraded()) << "storm ended hours before the end";

  obs::MetricsSnapshot snapshot = (*runner)->metrics_snapshot();
  EXPECT_EQ(CounterValue(snapshot, "degraded_mode_entries"),
            static_cast<uint64_t>(watchdog.entries()));
  EXPECT_EQ(CounterValue(snapshot, "degraded_mode_ticks"),
            static_cast<uint64_t>(watchdog.degraded_ticks()));
  EXPECT_EQ(CounterValue(snapshot, "degraded_mode_suppressed_triggers"),
            static_cast<uint64_t>(watchdog.suppressed_triggers()));

  EXPECT_TRUE(AnyMessageContains(**runner, "ENTER degraded mode"));
  EXPECT_TRUE(AnyMessageContains(**runner, "EXIT degraded mode"));
}

TEST(DegradedModeRunnerTest, SuppressesOnlyNonUrgentTriggers) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = StormConfig(42);
  // Make the posture sticky for the whole dropout window so at least
  // one load trigger lands inside it.
  config.degraded.exit_healthy_ticks = 10;
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());
  const auto& watchdog = (*runner)->degraded_mode();
  EXPECT_GT(watchdog.suppressed_triggers(), 0);
  EXPECT_TRUE(AnyMessageContains(**runner, "SUPPRESS"));
  // Failure detection and recovery ran through the storm: the dropout
  // fires heartbeat-based detections, and those are never suppressed.
  EXPECT_GT((*runner)->metrics().triggers, 0);
}

TEST(DegradedModeRunnerTest, AuditRecordsPostureChanges) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = StormConfig(42);
  config.observability.enable_audit = true;
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());
  ASSERT_NE((*runner)->audit_log(), nullptr);
  int posture_changes = 0;
  for (const obs::DecisionAudit& record :
       (*runner)->audit_log()->records()) {
    if (record.trigger_kind != "degraded-mode") continue;
    ++posture_changes;
    EXPECT_EQ(record.subject, "control-plane");
    EXPECT_NE(record.verdict.find("degraded mode"), std::string::npos);
  }
  EXPECT_GE(posture_changes, 2) << "expected an enter and an exit record";
}

TEST(DegradedModeRunnerTest, PostureSurvivesCheckpointRestore) {
  // Kill the process in the middle of the storm: the restored run must
  // carry the degraded posture, its healthy-streak hysteresis, and the
  // counters — final state byte-identical to the uninterrupted run.
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = StormConfig(42);
  auto uninterrupted = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  ASSERT_TRUE((*uninterrupted)->Run().ok());

  persist::CrashPlan plan;
  plan.crash_at = {SimTime::Start() + Duration::Hours(2) +
                   Duration::Minutes(10)};
  auto survived = persist::RunWithCrashes(landscape, config, plan);
  ASSERT_TRUE(survived.ok()) << survived.status();

  std::vector<std::pair<std::string, std::string>> a, b;
  ASSERT_TRUE((*uninterrupted)->SaveStateSections(&a).ok());
  ASSERT_TRUE((*survived)->SaveStateSections(&b).ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ((*uninterrupted)->degraded_mode().entries(),
            (*survived)->degraded_mode().entries());
  EXPECT_EQ((*uninterrupted)->degraded_mode().suppressed_triggers(),
            (*survived)->degraded_mode().suppressed_triggers());
}

}  // namespace
}  // namespace autoglobe
