// Ablation A3 — the overload trigger threshold (paper §5.1 sets 70 %
// "to prevent the system from reacting too late", with the overload
// *verdict* at 80 %). A low threshold acts early but on weak
// evidence; a threshold at/above the verdict line reacts only once
// the damage is already measurable.

#include "bench_util.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

int main() {
  std::printf("# Ablation A3: overload trigger threshold sweep "
              "(FM scenario, users +25%%)\n");
  PrintMetricsHeader("threshold");
  for (double threshold : {0.50, 0.60, 0.70, 0.80, 0.90}) {
    RunMetrics metrics = RunWithConfig(
        Scenario::kFullMobility, 1.25, [threshold](RunnerConfig* config) {
          config->monitor.overload_threshold = threshold;
        });
    PrintMetricsRow(StrFormat("%.0f%%%s", threshold * 100.0,
                              threshold == 0.70 ? " *" : "")
                        .c_str(),
                    metrics);
  }
  std::printf("# (* = paper value; expected: high thresholds react too "
              "late -> long overload streaks)\n");
  return 0;
}
