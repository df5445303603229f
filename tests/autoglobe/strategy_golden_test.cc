// Golden guard for the strategy subsystem: with the default
// strategy (static fuzzy) every existing run must stay byte-identical
// to the pre-strategy engine — same trigger/action counts, same
// message stream, same metrics to the last bit. The fingerprints
// below were captured from the engine immediately before the strategy
// subsystem landed; if one changes, the strategy layer leaked into
// the default path.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "autoglobe/capacity.h"
#include "autoglobe/runner.h"

namespace autoglobe {
namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FingerprintMessages(const SimulationRunner& runner) {
  uint64_t hash = kFnvBasis;
  for (const std::string& message : runner.messages()) {
    for (char c : message) {
      hash ^= static_cast<unsigned char>(c);
      hash *= kFnvPrime;
    }
  }
  return hash;
}

struct Golden {
  Scenario scenario;
  double scale;
  int64_t triggers;
  int64_t actions;
  int64_t failed;
  int64_t alerts;
  double overload_minutes;
  double max_streak;
  double average_load;
  double lost_work;
  size_t messages;
  uint64_t hash;
};

std::string CaseName(const Golden& golden) {
  return golden.scenario == Scenario::kStatic                ? "static"
         : golden.scenario == Scenario::kConstrainedMobility ? "cm"
                                                             : "fm";
}

// Prints the case name instead of the struct's raw bytes (padding
// included), so the listed test names are the same in every build.
void PrintTo(const Golden& golden, std::ostream* os) {
  *os << CaseName(golden);
}

class StrategyGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(StrategyGoldenTest, DefaultStrategyIsBitIdenticalToSeedEngine) {
  const Golden& golden = GetParam();
  Landscape landscape = MakePaperLandscape(golden.scenario);
  RunnerConfig config =
      MakeScenarioConfig(golden.scenario, golden.scale, /*seed=*/42);
  config.duration = Duration::Hours(12);
  ASSERT_EQ(config.strategy.kind, strategy::StrategyKind::kStaticFuzzy)
      << "static fuzzy must stay the default strategy";
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());

  const RunMetrics& m = (*runner)->metrics();
  EXPECT_EQ(m.triggers, golden.triggers);
  EXPECT_EQ(m.actions_executed, golden.actions);
  EXPECT_EQ(m.actions_failed, golden.failed);
  EXPECT_EQ(m.alerts, golden.alerts);
  EXPECT_EQ(m.overload_server_minutes, golden.overload_minutes);
  EXPECT_EQ(m.max_overload_streak_minutes, golden.max_streak);
  EXPECT_EQ(m.average_cpu_load, golden.average_load);
  EXPECT_EQ(m.lost_work_wu, golden.lost_work);
  EXPECT_EQ((*runner)->messages().size(), golden.messages);
  EXPECT_EQ(FingerprintMessages(**runner), golden.hash);
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, StrategyGoldenTest,
    ::testing::Values(
        Golden{Scenario::kConstrainedMobility, 1.25, 792, 9, 0, 132,
               484.0, 313.0, 0.22726212453045386, 0.0, 141,
               7031032071606073426ULL},
        Golden{Scenario::kFullMobility, 1.2, 656, 12, 0, 23, 82.0, 30.0,
               0.22717535025022603, 1.2831625681436485, 35,
               7546936579777058040ULL},
        Golden{Scenario::kStatic, 1.3, 1143, 0, 0, 0, 3290.0, 325.0,
               0.30721287897615907, 0.0, 0, 1469598103934665603ULL}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace autoglobe
