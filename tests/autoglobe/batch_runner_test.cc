#include "autoglobe/batch_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "autoglobe/capacity.h"
#include "autoglobe/runner.h"

namespace autoglobe {
namespace {

/// The whole point of the batch path is that it is NOT an
/// approximation: every comparison in this file is exact (EXPECT_EQ on
/// doubles), against a real SimulationRunner ticking the full stack.
void ExpectSameMetrics(const RunMetrics& batch, const RunMetrics& scalar,
                       const char* what) {
  EXPECT_EQ(batch.overload_server_minutes, scalar.overload_server_minutes)
      << what;
  EXPECT_EQ(batch.max_overload_streak_minutes,
            scalar.max_overload_streak_minutes)
      << what;
  EXPECT_EQ(batch.overload_fraction, scalar.overload_fraction) << what;
  EXPECT_EQ(batch.lost_work_wu, scalar.lost_work_wu) << what;
  EXPECT_EQ(batch.average_cpu_load, scalar.average_cpu_load) << what;
  EXPECT_EQ(batch.triggers, scalar.triggers) << what;
  EXPECT_EQ(batch.actions_executed, scalar.actions_executed) << what;
  EXPECT_EQ(batch.actions_failed, scalar.actions_failed) << what;
  EXPECT_EQ(batch.alerts, scalar.alerts) << what;
  EXPECT_EQ(batch.failures_injected, scalar.failures_injected) << what;
  EXPECT_EQ(batch.sla_violation_minutes, scalar.sla_violation_minutes)
      << what;
}

RunMetrics ScalarRun(const RunnerConfig& base, uint64_t seed,
                     double user_scale) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  RunnerConfig config = base;
  config.seed = seed;
  config.user_scale = user_scale;
  auto runner = SimulationRunner::Create(landscape, config);
  EXPECT_TRUE(runner.ok()) << runner.status();
  EXPECT_TRUE((*runner)->Run().ok());
  return (*runner)->metrics();
}

RunnerConfig BaseConfig(Duration duration, Duration warmup,
                        workload::UserDistribution distribution) {
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
  config.duration = duration;
  config.metrics_warmup = warmup;
  config.distribution = distribution;
  return config;
}

struct ParityCase {
  workload::UserDistribution distribution;
  Duration warmup;
  const char* name;
};

// Prints the case name instead of the struct's raw bytes (padding and a
// pointer), so the listed test names are the same in every build.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << c.name; }

class BatchRunnerParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(BatchRunnerParityTest, LanesMatchScalarRunsBitForBit) {
  const ParityCase& c = GetParam();
  // 20h crosses the morning ramp and the batch-window peak; the 1.15
  // and 1.40 scales push lanes over the overload threshold so trigger
  // and streak replication is actually exercised.
  RunnerConfig config =
      BaseConfig(Duration::Hours(20), c.warmup, c.distribution);
  std::vector<BatchLane> lanes = {
      {42, 1.0}, {7, 1.15}, {2026, 1.40}, {42, 1.40}};
  auto batch = BatchRunner::Create(MakePaperLandscape(Scenario::kStatic),
                                   config, lanes);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE((*batch)->Run().ok());
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    RunMetrics scalar =
        ScalarRun(config, lanes[lane].seed, lanes[lane].user_scale);
    SCOPED_TRACE(::testing::Message() << c.name << " lane " << lane);
    ExpectSameMetrics((*batch)->metrics(lane), scalar, c.name);
    // Sanity that the comparison is not vacuous: the hot lanes must
    // have produced real signal.
    if (lanes[lane].user_scale >= 1.40) {
      EXPECT_GT(scalar.overload_server_minutes, 0.0);
      EXPECT_GT(scalar.triggers, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BatchRunnerParityTest,
    ::testing::Values(
        ParityCase{workload::UserDistribution::kStickySessions,
                   Duration::Zero(), "sticky"},
        ParityCase{workload::UserDistribution::kDynamicRedistribution,
                   Duration::Zero(), "dynamic"},
        // Warmup on the tick grid (k >= 2: reset fires before that
        // tick) and off the grid both have to match the kernel's event
        // order.
        ParityCase{workload::UserDistribution::kStickySessions,
                   Duration::Hours(6), "sticky-warmup"},
        ParityCase{workload::UserDistribution::kDynamicRedistribution,
                   Duration::Hours(6) + Duration::Seconds(30),
                   "dynamic-warmup-offgrid"}));

TEST(BatchRunnerTest, WarmupOnFirstTickMatchesEventOrder) {
  // warmup == tick is the one spot where the kernel runs the tick
  // BEFORE the reset (the periodic event holds the lower sequence
  // number); a replica that always resets first diverges here.
  RunnerConfig config =
      BaseConfig(Duration::Hours(8), Duration::Minutes(1),
                 workload::UserDistribution::kStickySessions);
  auto batch = BatchRunner::Create(MakePaperLandscape(Scenario::kStatic),
                                   config, {{42, 1.35}});
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE((*batch)->Run().ok());
  ExpectSameMetrics((*batch)->metrics(0), ScalarRun(config, 42, 1.35),
                    "warmup==tick");
}

TEST(BatchRunnerTest, RerunMatchesFreshBatch) {
  RunnerConfig config =
      BaseConfig(Duration::Hours(12), Duration::Hours(2),
                 workload::UserDistribution::kStickySessions);
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  auto batch = BatchRunner::Create(landscape, config, {{1, 1.0}, {2, 1.2}});
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE((*batch)->Run().ok());
  // Second batch with different lanes, then back to the first: the
  // rerun must be indistinguishable from a fresh engine.
  ASSERT_TRUE((*batch)->Rerun({{3, 1.3}, {4, 1.1}}).ok());
  ASSERT_TRUE((*batch)->Run().ok());
  ExpectSameMetrics((*batch)->metrics(0), ScalarRun(config, 3, 1.3),
                    "rerun lane 0");
  ExpectSameMetrics((*batch)->metrics(1), ScalarRun(config, 4, 1.1),
                    "rerun lane 1");
  EXPECT_FALSE((*batch)->Rerun({{5, 1.0}}).ok()) << "width must be fixed";
}

TEST(BatchRunnerTest, IneligibleConfigsAreRejected) {
  RunnerConfig config = MakeScenarioConfig(Scenario::kFullMobility, 1.0);
  EXPECT_FALSE(BatchRunner::CheckEligibility(config).ok())
      << "controller runs must use SimulationRunner";
  config = MakeScenarioConfig(Scenario::kStatic, 1.0);
  config.use_forecast = true;
  EXPECT_FALSE(BatchRunner::CheckEligibility(config).ok());
  config = MakeScenarioConfig(Scenario::kStatic, 1.0);
  config.slas.push_back(SlaSpec{});
  EXPECT_FALSE(BatchRunner::CheckEligibility(config).ok());
  EXPECT_TRUE(
      BatchRunner::CheckEligibility(MakeScenarioConfig(Scenario::kStatic, 1.0))
          .ok());
}

TEST(BatchRunnerTest, NonPositiveTicksAreInvalidArguments) {
  // The smoothing window is sized in ticks: a zero or negative tick
  // must be refused by both runners before anything divides by it.
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  for (Duration tick : {Duration::Zero(), Duration::Seconds(-60)}) {
    RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
    config.duration = Duration::Hours(1);
    config.tick = tick;
    auto scalar = SimulationRunner::Create(landscape, config);
    ASSERT_FALSE(scalar.ok());
    EXPECT_EQ(scalar.status().code(), StatusCode::kInvalidArgument)
        << scalar.status();
    auto batch = BatchRunner::Create(landscape, config, {{42, 1.0}});
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument)
        << batch.status();
  }
}

TEST(BatchRunnerTest, UnrunnableConfigsAreInvalidArguments) {
  // Both runners refuse what RunnerConfig::Validate refuses, with the
  // same message; the batch also checks each lane's own user scale.
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  auto with = [](auto edit) {
    RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
    config.duration = Duration::Hours(1);
    edit(&config);
    return config;
  };
  const RunnerConfig refused[] = {
      with([](RunnerConfig* c) { c->duration = Duration::Zero(); }),
      with([](RunnerConfig* c) { c->duration = Duration::Hours(-1); }),
      with([](RunnerConfig* c) { c->duration = Duration::Hours(99999999999); }),
      with([](RunnerConfig* c) { c->user_scale = -3.0; }),
      with([](RunnerConfig* c) { c->user_scale = std::nan(""); }),
      with([](RunnerConfig* c) { c->archive_bucket = Duration::Zero(); }),
      with([](RunnerConfig* c) {
        c->archive_retention = Duration::Minutes(-1);
      }),
  };
  for (const RunnerConfig& config : refused) {
    const Status validated = config.Validate();
    ASSERT_FALSE(validated.ok());
    EXPECT_EQ(validated.code(), StatusCode::kInvalidArgument) << validated;
    auto scalar = SimulationRunner::Create(landscape, config);
    ASSERT_FALSE(scalar.ok());
    EXPECT_EQ(scalar.status().ToString(), validated.ToString());
    auto batch = BatchRunner::Create(landscape, config, {{42, 1.0}});
    ASSERT_FALSE(batch.ok()) << validated;
    EXPECT_EQ(batch.status().ToString(), validated.ToString());
  }

  const RunnerConfig config = with([](RunnerConfig*) {});
  ASSERT_TRUE(config.Validate().ok());
  for (double scale : {-3.0, std::nan(""), HUGE_VAL}) {
    auto batch =
        BatchRunner::Create(landscape, config, {{1, 1.0}, {2, scale}});
    ASSERT_FALSE(batch.ok()) << scale;
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(batch.status().message().find("lane 1"), std::string::npos)
        << batch.status();
  }
  // Zero users is a valid (idle) lane; a rerun checks its lanes too.
  auto batch = BatchRunner::Create(landscape, config, {{1, 0.0}, {2, 1.0}});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ((*batch)->Rerun({{1, 1.0}, {2, -3.0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE((*batch)->Rerun({{1, 1.0}, {2, 0.5}}).ok());
}

}  // namespace
}  // namespace autoglobe
