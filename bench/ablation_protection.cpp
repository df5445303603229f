// Ablation A2 — the protection time (paper §4): after a rearrangement
// the involved services and servers are excluded from further actions
// "to prevent the system from oscillation, e.g., moving services back
// and forth". No protection lets the controller thrash; an overlong
// protection freezes reaction capacity. The paper uses 30 minutes.

#include "bench_util.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

int main() {
  std::printf("# Ablation A2: protection-time sweep "
              "(FM scenario, users +25%%)\n");
  PrintMetricsHeader("protection");
  for (int minutes : {0, 5, 15, 30, 60, 120}) {
    RunMetrics metrics = RunWithConfig(
        Scenario::kFullMobility, 1.25, [minutes](RunnerConfig* config) {
          config->executor.protection_time = Duration::Minutes(minutes);
        });
    PrintMetricsRow(StrFormat("%d min%s", minutes,
                              minutes == 30 ? " *" : "")
                        .c_str(),
                    metrics);
  }
  std::printf("# (* = paper value. The shipped rule bases are already "
              "conservative, so disabling\n#  protection mostly shows up "
              "as extra churn; an overlong protection visibly delays\n"
              "#  reactions to the daily ramps.)\n");
  return 0;
}
