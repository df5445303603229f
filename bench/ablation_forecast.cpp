// Ablation A5 — reactive vs proactive control (paper §7 future work /
// companion paper [8]): feeding the controller short-term forecasts
// from the load archive instead of trailing watch-time means lets it
// "react proactively on imminent overload situations". With strongly
// periodic enterprise load, the forecaster sees the daily ramps
// coming.

#include "bench_util.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

int main() {
  std::printf("# Ablation A5: reactive vs forecast-driven proactive "
              "control (FM scenario)\n");
  PrintMetricsHeader("controller");
  for (double scale : {1.35, 1.40}) {
    RunMetrics reactive = RunWithConfig(Scenario::kFullMobility, scale,
                                        nullptr);
    PrintMetricsRow(
        StrFormat("reactive %3.0f%%", scale * 100).c_str(), reactive);
    RunMetrics proactive = RunWithConfig(
        Scenario::kFullMobility, scale, [](RunnerConfig* config) {
          config->use_forecast = true;
          config->forecast.horizon = Duration::Minutes(20);
        });
    PrintMetricsRow(
        StrFormat("forecast %3.0f%%", scale * 100).c_str(), proactive);
  }
  std::printf("# (shape: at loads beyond the reactive capacity limit "
              "(~135%%), arming the watch\n#  from predicted loads cuts "
              "the overload time substantially; below the limit the\n"
              "#  reactive controller is already sufficient and "
              "proactivity only adds eagerness)\n");
  return 0;
}
