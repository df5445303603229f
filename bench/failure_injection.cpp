// Self-healing experiment (paper §2: "Failure situations like a
// program crash are remedied for example with a restart"): inject
// instance crashes at increasing rates into the FM scenario and
// measure how completely the fault subsystem absorbs them — heartbeat
// detection, then restart with backoff, else relocation to another
// host. Detection latency is part of the answer (MTTD), so a crash is
// only healed once the monitor has noticed it.

#include <cstdio>

#include "autoglobe/availability.h"
#include "bench_util.h"

using namespace autoglobe;
using namespace autoglobe::bench;

int main() {
  std::printf("# Failure injection: random instance crashes, FM "
              "scenario at 100%% users (80 h)\n");
  std::printf("%-18s %9s %9s %9s %7s %7s %10s %9s\n", "crash rate",
              "injected", "recovered", "abandoned", "mttd", "mttr",
              "ovl-min", "lost-wu");
  // Rates are per instance-hour; the fault plan takes landscape-wide
  // rates, so scale by the initial running-instance count.
  const double instances = static_cast<double>(
      MakePaperLandscape(Scenario::kFullMobility).initial_allocation.size());
  for (double per_hour : {0.0, 0.005, 0.02, 0.05, 0.2}) {
    AvailabilityOptions options;
    options.scenario = Scenario::kFullMobility;
    options.duration = Duration::Hours(80);
    options.fault_spec.instance_crashes_per_hour = per_hour * instances;
    auto result = RunAvailabilityScenario(options);
    AG_CHECK_OK(result.status());
    const AvailabilityRun& run = result->runs.front();
    AG_CHECK(run.invariants_ok);
    const RunMetrics& m = run.metrics;
    std::printf("%9.3f /inst-h %9lld %9lld %9lld %7.1f %7.1f %10.0f %9.1f\n",
                per_hour, static_cast<long long>(m.failures_injected),
                static_cast<long long>(m.failures_remedied),
                static_cast<long long>(run.report.abandoned),
                run.report.mttd_minutes_mean, run.report.mttr_minutes_mean,
                m.overload_server_minutes, m.lost_work_wu);
    // Sanity: no service may be extinct at the end.
    AG_CHECK(run.extinct_services == 0);
  }
  std::printf("\n# (mttd/mttr in minutes from injection; a crash is "
              "healed once heartbeats detect it\n#  and the restart "
              "clears its boot delay, else the instance moves host)\n");
  return 0;
}
