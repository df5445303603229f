#ifndef AUTOGLOBE_AUTOGLOBE_AVAILABILITY_H_
#define AUTOGLOBE_AUTOGLOBE_AVAILABILITY_H_

#include <optional>
#include <string>
#include <vector>

#include "autoglobe/capacity.h"
#include "autoglobe/runner.h"
#include "faults/availability.h"
#include "faults/plan.h"

namespace autoglobe {

/// Options of the availability scenario: the capacity harness's
/// fault-enabled sibling. One paper scenario runs `repetitions` times
/// under a fault schedule (an explicit plan, or one generated from
/// `fault_spec` per repetition seed) and the availability scorecards
/// are aggregated.
struct AvailabilityOptions {
  Scenario scenario = Scenario::kFullMobility;
  double user_scale = 1.0;
  Duration duration = Duration::Hours(24);
  uint64_t seed = 42;
  /// Repetition i runs with seed `seed + i`; its fault schedule is
  /// generated from that seed too, so repetitions see different but
  /// reproducible fault sequences.
  int repetitions = 1;
  /// Worker threads (0 = one per hardware thread). Results are
  /// ordered by repetition index — bit-identical at any parallelism.
  int parallelism = 1;
  /// Repetitions per pool task: consecutive reps are grouped so one
  /// worker runs a whole batch of them back to back (amortizing pool
  /// dispatch and keeping each worker's caches warm on the fault
  /// stack). Fault runs cannot fuse into BatchRunner lanes — the
  /// injector mutates the topology per rep — so rep-grouping is the
  /// batching granule here. Grouping never changes any result bit;
  /// values < 1 behave like 1.
  int reps_per_task = 1;

  /// Explicit schedule; set => used verbatim for every repetition.
  std::optional<faults::FaultPlan> plan;
  /// Otherwise a plan is generated from these rates per repetition.
  faults::RandomFaultSpec fault_spec;

  faults::RecoveryConfig recovery;
  faults::AvailabilityConfig availability;
};

/// Outcome of one fault-injected repetition.
struct AvailabilityRun {
  uint64_t seed = 0;
  faults::AvailabilityReport report;
  faults::RecoveryStats recovery;
  faults::InjectorStats injector;
  RunMetrics metrics;
  /// VerifyClusterInvariants at the end of the run (the chaos suite's
  /// bottom line: whatever was injected, the landscape is consistent).
  bool invariants_ok = false;
  std::string invariants_error;
  /// Services left with no active instance at the end of the run.
  int extinct_services = 0;
};

/// The whole scenario: per-repetition runs plus the pooled scorecard.
struct AvailabilityResult {
  Scenario scenario = Scenario::kFullMobility;
  std::vector<AvailabilityRun> runs;
  /// Counts summed, means pooled (weighted by episode counts) across
  /// repetitions.
  faults::AvailabilityReport aggregate;
};

/// Pools per-run reports: counts add up; MTTD/MTTR means weight by
/// detected/recovered episode counts; objective satisfaction weights
/// by episodes.
faults::AvailabilityReport AggregateReports(
    const std::vector<AvailabilityRun>& runs);

/// Builds the RunnerConfig of one repetition (scenario config + fault
/// plan + recovery policy), exposed for tests and the CLI.
Result<RunnerConfig> MakeAvailabilityConfig(
    const AvailabilityOptions& options, uint64_t seed);

/// Runs the availability scenario. Each repetition is an independent
/// single-threaded simulation; parallelism fans repetitions out over
/// a worker pool without changing any result bit.
Result<AvailabilityResult> RunAvailabilityScenario(
    const AvailabilityOptions& options);

/// Renders the result as a console block (per-run rows + aggregate).
std::string RenderAvailabilityResult(const AvailabilityResult& result);

}  // namespace autoglobe

#endif  // AUTOGLOBE_AUTOGLOBE_AVAILABILITY_H_
