// Ablation A1 — the watchTime (paper §2/§5.1): a threshold crossing
// only arms an observation window; the controller reacts when the
// average over the watch time confirms a real overload. Too short a
// watch over-reacts to noise bursts (more actions); too long a watch
// reacts late (longer overload streaks). The paper uses 10 minutes.

#include "bench_util.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

int main() {
  std::printf("# Ablation A1: overload watchTime sweep "
              "(FM scenario, users +25%%)\n");
  PrintMetricsHeader("watchTime");
  for (int minutes : {1, 2, 5, 10, 20, 40}) {
    RunMetrics metrics = RunWithConfig(
        Scenario::kFullMobility, 1.25, [minutes](RunnerConfig* config) {
          config->monitor.overload_watch_time = Duration::Minutes(minutes);
        });
    PrintMetricsRow(StrFormat("%d min%s", minutes,
                              minutes == 10 ? " *" : "")
                        .c_str(),
                    metrics);
  }
  std::printf("# (* = paper value; expected: very short watch -> more "
              "actions/alerts from noise,\n#  very long watch -> later "
              "reaction, longer overload streaks)\n");
  return 0;
}
