// The checkpoint's `metrics` section: the runner publishes every
// counter from its one book (RunMetrics, the SLA tracker, the recovery
// stats, the degraded-mode watchdog, or the registry), and the section
// and its JSON stay byte-for-byte what they have always been. A
// restore hands the registry back its own instruments and rejects a
// section whose copied counter disagrees with its owner.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "common/bytes.h"
#include "faults/plan.h"
#include "persist/runner_checkpoint.h"
#include "persist/snapshot.h"

namespace autoglobe {
namespace {

using Sections = std::vector<std::pair<std::string, std::string>>;

/// One full-mobility run that moves all 15 counters by 24 h: an
/// overload deep enough for alerts, a day-long oscillation window, a
/// tight SLA, the fuzzy Q-learner, executor retries, instance crashes
/// inside a long action-failure window (failed actions, recoveries and
/// abandoned recoveries), and a monitor-dropout storm that trips the
/// degraded-mode watchdog.
RunnerConfig EveryCounterConfig() {
  RunnerConfig config =
      MakeScenarioConfig(Scenario::kFullMobility, 1.5, 42);
  config.duration = Duration::Hours(30);
  config.oscillation_window = Duration::Hours(24);
  config.strategy.kind = strategy::StrategyKind::kFuzzyQLearning;
  config.executor.max_retries = 1;
  config.slas.push_back({"FI", 0.999, Duration::Minutes(30)});
  config.degraded.enabled = true;
  config.degraded.dropout_storm_threshold = 3;
  config.degraded.exit_healthy_ticks = 10;
  faults::FaultPlan plan;
  const SimTime start = SimTime::Start();
  plan.events.push_back({start + Duration::Minutes(70),
                         faults::FaultKind::kInstanceCrash, "FI",
                         Duration::Zero()});
  for (const char* server : {"Blade1", "Blade2", "Blade3"}) {
    plan.events.push_back({start + Duration::Hours(2),
                           faults::FaultKind::kMonitorDropout, server,
                           Duration::Minutes(45)});
  }
  plan.events.push_back({start + Duration::Hours(4),
                         faults::FaultKind::kActionFailure, "",
                         Duration::Minutes(90)});
  for (int minute : {250, 260, 270}) {
    plan.events.push_back({start + Duration::Minutes(minute),
                           faults::FaultKind::kInstanceCrash, "",
                           Duration::Zero()});
  }
  config.fault_plan = plan;
  return config;
}

std::string MetricsSection(const SimulationRunner& runner) {
  Sections sections;
  Status status = runner.SaveStateSections(&sections);
  EXPECT_TRUE(status.ok()) << status;
  for (const auto& [name, payload] : sections) {
    if (name == "metrics") return payload;
  }
  ADD_FAILURE() << "no metrics section";
  return "";
}

struct Pins {
  uint64_t section;
  uint64_t json;
};

void ExpectPinned(const SimulationRunner& runner, Pins pins,
                  const char* where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(Fnv1a64(MetricsSection(runner)), pins.section);
  EXPECT_EQ(Fnv1a64(runner.metrics_snapshot().ToJson()), pins.json);
}

SimTime At(int hours) { return SimTime::Start() + Duration::Hours(hours); }

// FNV-1a of the metrics section and of its JSON at two mid-run points,
// recorded when the registry still kept its own copy of every counter.
constexpr Pins kAt12h = {0x1fddf36ab99eeb09ULL, 0xd73f3a06e12068caULL};
constexpr Pins kAt24h = {0xe283e4802bb80e17ULL, 0xa3257f263ad360dbULL};

TEST(RunnerCheckpointTest, MetricsSectionBytesArePinned) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = EveryCounterConfig();
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();

  ASSERT_TRUE((*runner)->RunUntil(At(12)).ok());
  ExpectPinned(**runner, kAt12h, "12 h");
  Sections sections;
  ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
  const uint64_t fingerprint = (*runner)->StateFingerprint();

  ASSERT_TRUE((*runner)->RunUntil(At(24)).ok());
  ExpectPinned(**runner, kAt24h, "24 h");
  for (const auto& [name, value] :
       (*runner)->metrics_snapshot().counters) {
    EXPECT_GT(value, 0u) << name << " never moved";
  }

  // Restored at 12 h through the full container codec, then run on.
  auto snapshot = persist::DecodeSnapshot(
      persist::EncodeSnapshot(fingerprint, std::move(sections)));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto restored = persist::RestoreRunner(landscape, config, *snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectPinned(**restored, kAt12h, "restored at 12 h");
  ASSERT_TRUE((*restored)->RunUntil(At(24)).ok());
  ExpectPinned(**restored, kAt24h, "restored, run on to 24 h");
}

TEST(RunnerCheckpointTest, MetricsCounterDisagreeingWithOwnerIsParseError) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = EveryCounterConfig();
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->RunUntil(At(24)).ok());
  Sections sections;
  ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());

  // Bump recoveries_total in the metrics section (a u32-prefixed name,
  // then the little-endian u64 value) so it no longer matches the
  // faults section.
  bool bumped = false;
  for (auto& [name, payload] : sections) {
    if (name != "metrics") continue;
    const std::string counter = "recoveries_total";
    size_t at = payload.find(counter);
    ASSERT_NE(at, std::string::npos);
    at += counter.size();
    uint64_t value = 0;
    std::memcpy(&value, payload.data() + at, sizeof(value));
    ASSERT_GT(value, 0u);
    ++value;
    std::memcpy(payload.data() + at, &value, sizeof(value));
    bumped = true;
  }
  ASSERT_TRUE(bumped);

  auto snapshot = persist::DecodeSnapshot(persist::EncodeSnapshot(
      (*runner)->StateFingerprint(), std::move(sections)));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto restored = persist::RestoreRunner(landscape, config, *snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("recoveries_total"),
            std::string::npos)
      << restored.status();
}

}  // namespace
}  // namespace autoglobe
