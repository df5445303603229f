// The tentpole property of the checkpoint subsystem: checkpoint at
// tick T, kill the process, restore, run to the end — and the final
// state is *bit-identical* to an uninterrupted run. Verified here by
// serializing the final state of both runs and comparing every
// section byte for byte, across the three paper scenarios, both rng
// planes, with and without a fault plan.

#include <gtest/gtest.h>

#include <algorithm>

#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "autoglobe/landscape_gen.h"
#include "common/thread_pool.h"
#include "faults/plan.h"
#include "persist/runner_checkpoint.h"
#include "persist/snapshot.h"

namespace autoglobe {
namespace {

using Sections = std::vector<std::pair<std::string, std::string>>;

Sections SectionsOf(const SimulationRunner& runner) {
  Sections sections;
  Status status = runner.SaveStateSections(&sections);
  EXPECT_TRUE(status.ok()) << status;
  return sections;
}

void ExpectSectionsEqual(const Sections& uninterrupted,
                         const Sections& restored) {
  // Guard against a vacuous pass: a failed SaveStateSections yields an
  // empty list, and empty == empty proves nothing.
  ASSERT_GE(uninterrupted.size(), 11u);
  ASSERT_EQ(uninterrupted.size(), restored.size());
  for (size_t i = 0; i < uninterrupted.size(); ++i) {
    EXPECT_EQ(uninterrupted[i].first, restored[i].first) << "section " << i;
    if (uninterrupted[i].second == restored[i].second) continue;
    const std::string& a = uninterrupted[i].second;
    const std::string& b = restored[i].second;
    size_t first_diff = 0;
    while (first_diff < std::min(a.size(), b.size()) &&
           a[first_diff] == b[first_diff]) {
      ++first_diff;
    }
    ADD_FAILURE() << "section \"" << uninterrupted[i].first
                  << "\" differs: sizes " << a.size() << " vs " << b.size()
                  << ", first differing byte at offset " << first_diff;
  }
}

RunnerConfig ParityConfig(Scenario scenario, RngKind rng, bool faults,
                          uint64_t seed) {
  RunnerConfig config = MakeScenarioConfig(scenario, 1.15, seed);
  config.duration = Duration::Hours(4);
  config.rng_kind = rng;
  if (faults) {
    Landscape landscape = MakePaperLandscape(scenario);
    std::vector<std::string> servers;
    std::vector<std::string> services;
    for (const infra::ServerSpec& server : landscape.servers) {
      servers.push_back(server.name);
    }
    for (const infra::ServiceSpec& service : landscape.services) {
      services.push_back(service.name);
    }
    std::sort(servers.begin(), servers.end());
    std::sort(services.begin(), services.end());
    faults::RandomFaultSpec spec;
    spec.instance_crashes_per_hour = 1.0;
    spec.server_failures_per_day = 6.0;
    spec.server_recovery = Duration::Hours(1);
    spec.action_failure_windows_per_day = 6.0;
    spec.action_failure_duration = Duration::Minutes(5);
    spec.monitor_dropouts_per_day = 6.0;
    spec.monitor_dropout_duration = Duration::Minutes(5);
    config.fault_plan = faults::FaultPlan::Generate(
        spec, config.duration, seed, servers, services);
  }
  return config;
}

/// Runs the scenario twice — once uninterrupted, once killed and
/// restored at every crash point — and requires byte-identical final
/// state.
void CheckParity(Scenario scenario, RngKind rng, bool faults,
                 uint64_t seed) {
  SCOPED_TRACE(std::string(ScenarioName(scenario)) + "/" +
               std::string(RngKindName(rng)) +
               (faults ? "/faults" : "/clean") + "/seed " +
               std::to_string(seed));
  Landscape landscape = MakePaperLandscape(scenario);
  RunnerConfig config = ParityConfig(scenario, rng, faults, seed);

  auto uninterrupted = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  ASSERT_TRUE((*uninterrupted)->Run().ok());

  persist::CrashPlan plan;
  plan.crash_at = {SimTime::Start() + Duration::Minutes(90),
                   SimTime::Start() + Duration::Minutes(165)};
  auto survived = persist::RunWithCrashes(landscape, config, plan);
  ASSERT_TRUE(survived.ok()) << survived.status();

  ExpectSectionsEqual(SectionsOf(**uninterrupted), SectionsOf(**survived));
  EXPECT_EQ((*uninterrupted)->metrics().triggers,
            (*survived)->metrics().triggers);
  EXPECT_EQ((*uninterrupted)->metrics().actions_executed,
            (*survived)->metrics().actions_executed);
  EXPECT_EQ((*uninterrupted)->messages(), (*survived)->messages());
}

TEST(CheckpointParityTest, StaticScenario) {
  CheckParity(Scenario::kStatic, RngKind::kXoshiro, false, 42);
  CheckParity(Scenario::kStatic, RngKind::kPhilox, false, 42);
  CheckParity(Scenario::kStatic, RngKind::kXoshiro, true, 42);
  CheckParity(Scenario::kStatic, RngKind::kPhilox, true, 42);
}

TEST(CheckpointParityTest, ConstrainedMobilityScenario) {
  CheckParity(Scenario::kConstrainedMobility, RngKind::kXoshiro, false, 7);
  CheckParity(Scenario::kConstrainedMobility, RngKind::kPhilox, false, 7);
  CheckParity(Scenario::kConstrainedMobility, RngKind::kXoshiro, true, 7);
  CheckParity(Scenario::kConstrainedMobility, RngKind::kPhilox, true, 7);
}

TEST(CheckpointParityTest, FullMobilityScenario) {
  CheckParity(Scenario::kFullMobility, RngKind::kXoshiro, false, 21);
  CheckParity(Scenario::kFullMobility, RngKind::kPhilox, false, 21);
  CheckParity(Scenario::kFullMobility, RngKind::kXoshiro, true, 21);
  CheckParity(Scenario::kFullMobility, RngKind::kPhilox, true, 21);
}

TEST(CheckpointParityTest, ParityHoldsUnderParallelExecution) {
  // Four parity checks at once: checkpointing owns no global state, so
  // runs in a worker pool behave exactly like sequential ones.
  ThreadPool pool(4);
  const uint64_t seeds[] = {101, 102, 103, 104};
  pool.ParallelFor(4, [&seeds](size_t i) {
    CheckParity(Scenario::kFullMobility, RngKind::kPhilox, true, seeds[i]);
  });
}

TEST(CheckpointParityTest, LearnerStateSurvivesRestore) {
  // The fuzzy Q-learner carries RNG, pending decisions, eligibility
  // traces, and baselines — all mid-run state SaveWeights does not
  // cover. Parity across a crash proves the full picture round-trips.
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config =
      ParityConfig(Scenario::kFullMobility, RngKind::kXoshiro, false, 11);
  config.strategy.kind = strategy::StrategyKind::kFuzzyQLearning;

  auto uninterrupted = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  ASSERT_TRUE((*uninterrupted)->Run().ok());

  persist::CrashPlan plan;
  plan.crash_at = {SimTime::Start() + Duration::Minutes(100)};
  auto survived = persist::RunWithCrashes(landscape, config, plan);
  ASSERT_TRUE(survived.ok()) << survived.status();
  ExpectSectionsEqual(SectionsOf(**uninterrupted), SectionsOf(**survived));
  EXPECT_EQ((*uninterrupted)->metrics().strategy_weight_updates,
            (*survived)->metrics().strategy_weight_updates);
}

TEST(CheckpointParityTest, CrashDuringInFlightRecoveryEscalation) {
  // Chaos extension: a server fails at 2 h; recovery runs its backoff
  // timers and boot watchdogs right after. Killing the process in the
  // middle of that escalation must neither lose nor double-count the
  // episode — the restored run finishes with balanced accounting and
  // the exact state of an uninterrupted one.
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config =
      ParityConfig(Scenario::kFullMobility, RngKind::kXoshiro, false, 33);
  faults::FaultPlan fault_plan;
  fault_plan.events.push_back({SimTime::Start() + Duration::Hours(2),
                               faults::FaultKind::kServerFailure, "Blade3",
                               Duration::Hours(1)});
  config.fault_plan = fault_plan;

  auto uninterrupted = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  ASSERT_TRUE((*uninterrupted)->Run().ok());

  persist::CrashPlan plan;
  plan.crash_at = {SimTime::Start() + Duration::Hours(2) +
                   Duration::Minutes(2)};
  auto survived = persist::RunWithCrashes(landscape, config, plan);
  ASSERT_TRUE(survived.ok()) << survived.status();

  ExpectSectionsEqual(SectionsOf(**uninterrupted), SectionsOf(**survived));
  faults::AvailabilityReport report = (*survived)->availability_report();
  EXPECT_EQ(report.episodes,
            report.recovered + report.abandoned + report.open);
  EXPECT_GT(report.episodes, 0);
  EXPECT_EQ(report.episodes, (*uninterrupted)->availability_report().episodes);
}

void ExpectSameRunMetrics(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.overload_server_minutes, b.overload_server_minutes);
  EXPECT_EQ(a.max_overload_streak_minutes, b.max_overload_streak_minutes);
  EXPECT_EQ(a.overload_fraction, b.overload_fraction);
  EXPECT_EQ(a.lost_work_wu, b.lost_work_wu);
  EXPECT_EQ(a.average_cpu_load, b.average_cpu_load);
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.actions_executed, b.actions_executed);
  EXPECT_EQ(a.actions_failed, b.actions_failed);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.failures_remedied, b.failures_remedied);
  EXPECT_EQ(a.sla_violation_minutes, b.sla_violation_minutes);
  EXPECT_EQ(a.oscillations, b.oscillations);
  EXPECT_EQ(a.strategy_reward_updates, b.strategy_reward_updates);
  EXPECT_EQ(a.strategy_weight_updates, b.strategy_weight_updates);
}

TEST(CheckpointParityTest, ThousandServerFleetRestoresBitIdentical) {
  // A 1,000-server fleet under the scale_sweep configuration, where
  // almost every archive series is constant and saved as runs. The
  // restore goes through the full container codec and must give back
  // the fingerprint, the run metrics and every section byte, then stay
  // in lockstep with the original to the end of the run.
  auto landscape = GenerateLandscape(MakeScaleSpec(1000));
  ASSERT_TRUE(landscape.ok()) << landscape.status();
  RunnerConfig config;
  config.tick = Duration::Minutes(1);
  config.duration = Duration::Hours(3);
  config.seed = 42;
  config.user_scale = 1.5;
  config.fluctuation_per_minute = 0.0;
  config.archive_retention = Duration::Hours(1);
  config.archive_bucket = Duration::Minutes(15);
  config.controller.pool_prescreen = true;
  auto original = SimulationRunner::Create(*landscape, config);
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_TRUE(
      (*original)->RunUntil(SimTime::Start() + Duration::Minutes(100)).ok());

  const Sections sections = SectionsOf(**original);
  auto snapshot = persist::DecodeSnapshot(
      persist::EncodeSnapshot((*original)->StateFingerprint(), sections));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto restored = persist::RestoreRunner(*landscape, config, *snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->StateFingerprint(), (*original)->StateFingerprint());
  ExpectSameRunMetrics((*restored)->metrics(), (*original)->metrics());
  ExpectSectionsEqual(sections, SectionsOf(**restored));

  ASSERT_TRUE((*original)->Run().ok());
  ASSERT_TRUE((*restored)->Run().ok());
  ExpectSameRunMetrics((*restored)->metrics(), (*original)->metrics());
  ExpectSectionsEqual(SectionsOf(**original), SectionsOf(**restored));
}

}  // namespace
}  // namespace autoglobe
