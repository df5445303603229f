// Golden guard for host selection at scale: a 1,000-server generated
// fleet under the scale_sweep configuration with the pool prescreen
// on, so every decision ranks a few hundred candidate hosts pool by
// pool. The paper-landscape goldens never take that path (19 servers,
// prescreen off). The pinned counts and fingerprints must not move
// when the decision path is optimized: same candidate order, same
// scores, same rejection precedence and text.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "autoglobe/landscape_gen.h"
#include "autoglobe/runner.h"
#include "common/logging.h"
#include "obs/audit.h"

namespace autoglobe {
namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fnv(std::string_view text, uint64_t* hash) {
  for (char c : text) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= kFnvPrime;
  }
}

struct ScaleRun {
  RunMetrics metrics;
  int64_t executed = 0;
  uint64_t exec_hash = kFnvBasis;
  size_t decisions = 0;
  uint64_t explain_hash = kFnvBasis;
};

ScaleRun RunFleet(bool audit) {
  auto landscape = GenerateLandscape(MakeScaleSpec(1000));
  AG_CHECK_OK(landscape.status());
  RunnerConfig config;
  config.tick = Duration::Minutes(1);
  config.duration = Duration::Hours(3);
  config.seed = 42;
  config.user_scale = 1.5;
  config.fluctuation_per_minute = 0.0;
  config.archive_retention = Duration::Hours(1);
  config.archive_bucket = Duration::Minutes(15);
  config.controller.pool_prescreen = true;
  config.observability.enable_audit = audit;
  config.observability.audit_capacity = 4096;
  auto runner = SimulationRunner::Create(*landscape, config);
  AG_CHECK_OK(runner.status());
  AG_CHECK_OK((*runner)->Run());

  ScaleRun run;
  run.metrics = (*runner)->metrics();
  for (const std::string& message : (*runner)->messages()) {
    if (message.find("  EXEC ") == std::string::npos) continue;
    ++run.executed;
    Fnv(message, &run.exec_hash);
  }
  if (const obs::AuditLog* log = (*runner)->audit_log(); log != nullptr) {
    run.decisions = log->records().size();
    for (const obs::DecisionAudit& decision : log->records()) {
      Fnv(obs::RenderExplain(decision), &run.explain_hash);
    }
  }
  return run;
}

void ExpectPinnedDecisions(const ScaleRun& run) {
  EXPECT_EQ(run.metrics.triggers, 68);
  EXPECT_EQ(run.metrics.actions_executed, 18);
  EXPECT_EQ(run.metrics.actions_failed, 0);
  EXPECT_EQ(run.metrics.alerts, 18);
  EXPECT_EQ(run.metrics.oscillations, 0);
  EXPECT_EQ(run.executed, 18);
  EXPECT_EQ(run.exec_hash, 7373052063892365690ULL);
}

TEST(ScaleGoldenTest, PrescreenedFleetDecisionsArePinned) {
  ExpectPinnedDecisions(RunFleet(/*audit=*/false));
}

// The audit trail records every candidate's fuzzified inputs and
// score, every rejection reason, and the final host ranking, so its
// rendered text pins the whole host-selection computation.
TEST(ScaleGoldenTest, PrescreenedFleetAuditTrailIsPinned) {
  ScaleRun run = RunFleet(/*audit=*/true);
  ExpectPinnedDecisions(run);
  EXPECT_EQ(run.decisions, 68u);
  EXPECT_EQ(run.explain_hash, 2749336614930615096ULL);
}

}  // namespace
}  // namespace autoglobe
