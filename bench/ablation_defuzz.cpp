// Ablation A4 — the defuzzification method. The paper uses the
// leftmost maximum (§3); centroid and mean-of-max are the common
// alternatives. First the worked Figure 5 example under each method,
// then a full FM scenario run to show the end-to-end effect.

#include <cstdio>

#include "bench_util.h"
#include "fuzzy/inference.h"

using namespace autoglobe;
using namespace autoglobe::bench;
using fuzzy::AggregatedSet;
using fuzzy::Defuzzifier;
using fuzzy::MembershipFunction;

int main() {
  std::printf("# Ablation A4: defuzzification methods\n\n");

  // Figure 5's clipped output set under all three methods.
  AggregatedSet set(0.0, 1.0);
  set.AddClipped(MembershipFunction::RampUp(0.0, 1.0).value(), 0.6);
  std::printf("# Figure 5 set (identity ramp clipped at 0.6):\n");
  for (Defuzzifier method : {Defuzzifier::kLeftmostMax,
                             Defuzzifier::kMeanOfMax,
                             Defuzzifier::kCentroid}) {
    std::printf("#   %-13s -> crisp %.3f%s\n",
                std::string(DefuzzifierName(method)).c_str(),
                set.Defuzzify(method),
                method == Defuzzifier::kLeftmostMax ? "  (paper: 0.6)"
                                                    : "");
  }

  std::printf("\n# Full FM run (users +25%%) per defuzzifier:\n");
  PrintMetricsHeader("defuzzifier");
  for (Defuzzifier method : {Defuzzifier::kLeftmostMax,
                             Defuzzifier::kMeanOfMax,
                             Defuzzifier::kCentroid}) {
    RunMetrics metrics = RunWithConfig(
        Scenario::kFullMobility, 1.25, [method](RunnerConfig* config) {
          config->controller.defuzzifier = method;
        });
    PrintMetricsRow(std::string(fuzzy::DefuzzifierName(method)).c_str(),
                    metrics);
  }
  std::printf("# (leftmost-max = paper's method)\n");
  return 0;
}
