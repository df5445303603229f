// Reproduces Table 7, the paper's headline result: "the maximum
// numbers of users that can be handled by the existing hardware in
// the different scenarios relative to the number of users stated in
// Table 4" — static 100 %, constrained mobility 115 %, full mobility
// 135 %. The sweep follows the paper's protocol: 80-hour simulation
// runs, increasing the number of users by 5 % until the system
// becomes overloaded (sustained > 80 % CPU).
//
// The sweeps of all three scenarios fan out over one worker pool
// (FindCapacityAll); results are bit-identical to the sequential
// sweep at any thread count. Usage: table7_capacity [parallelism]
// (default 0 = one worker per hardware thread; pass 1 to measure the
// sequential baseline).

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "autoglobe/capacity.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

using namespace autoglobe;

int main(int argc, char** argv) {
  CapacityOptions options;  // 80 h runs, +5 % steps, paper thresholds
  options.parallelism = argc > 1 ? std::atoi(argv[1]) : 0;
  size_t workers =
      options.parallelism == 0
          ? ThreadPool::DefaultThreadCount()
          : static_cast<size_t>(std::max(1, options.parallelism));

  std::printf("# Table 7: maximum possible, relative number of users\n");
  std::printf("# sweep parallelism: %zu worker(s)\n\n", workers);

  bench::WallTimer timer;
  auto all = FindCapacityAll(options);
  AG_CHECK_OK(all.status());
  double wall_seconds = timer.Seconds();

  struct RowSpec {
    Scenario scenario;
    int paper_percent;
  };
  const RowSpec rows[] = {
      {Scenario::kStatic, 100},
      {Scenario::kConstrainedMobility, 115},
      {Scenario::kFullMobility, 135},
  };

  // One sweep per scenario, computed exactly once: the summary table
  // and the per-step details below reuse the same results.
  std::printf("%-22s %12s %12s\n", "Scenario", "Measured", "Paper");
  size_t steps_total = 0;
  for (size_t i = 0; i < 3; ++i) {
    const CapacityResult& result = (*all)[i];
    steps_total += result.steps.size();
    std::printf("%-22s %11.0f%% %11d%%\n",
                std::string(ScenarioName(rows[i].scenario)).c_str(),
                result.max_scale * 100.0, rows[i].paper_percent);
  }

  std::printf("\n# Sweep details (per 5%% step):\n");
  for (size_t i = 0; i < 3; ++i) {
    for (const CapacityStep& step : (*all)[i].steps) {
      std::printf(
          "# %-22s %3.0f%%: %s (overload %.0f server-min, %.2f%% of "
          "samples, max streak %.0f min, %lld actions)\n",
          std::string(ScenarioName(rows[i].scenario)).c_str(),
          step.scale * 100.0, step.passed ? "ok        " : "OVERLOADED",
          step.metrics.overload_server_minutes,
          step.metrics.overload_fraction * 100.0,
          step.metrics.max_overload_streak_minutes,
          static_cast<long long>(step.metrics.actions_executed));
    }
  }

  std::printf("\n# wall-clock: %.2f s for %zu sweep steps (%.2f steps/s)\n",
              wall_seconds, steps_total,
              wall_seconds > 0 ? steps_total / wall_seconds : 0.0);

  // Registry-backed metrics: each sweep step ran with its own
  // MetricsRegistry (one per worker-thread simulation); merge the
  // snapshots into one aggregate view of the whole sweep.
  std::vector<obs::MetricsSnapshot> snapshots;
  snapshots.reserve(steps_total);
  for (size_t i = 0; i < 3; ++i) {
    for (const CapacityStep& step : (*all)[i].steps) {
      snapshots.push_back(step.observed);
    }
  }
  obs::MetricsSnapshot merged = obs::MetricsSnapshot::Merge(snapshots);
  if (merged.WriteJson("BENCH_capacity_metrics.json").ok()) {
    std::printf("# wrote BENCH_capacity_metrics.json (%zu step "
                "registries merged)\n",
                snapshots.size());
  }

  bench::BenchRecord record;
  record.name = "table7_capacity/sweep_all_scenarios";
  record.wall_seconds = wall_seconds;
  record.items_per_second =
      wall_seconds > 0 ? steps_total / wall_seconds : 0.0;
  record.extra = {{"parallelism", static_cast<double>(workers)},
                  {"steps", static_cast<double>(steps_total)},
                  {"static_max_scale", (*all)[0].max_scale},
                  {"cm_max_scale", (*all)[1].max_scale},
                  {"fm_max_scale", (*all)[2].max_scale}};
  for (const auto& [name, value] : merged.counters) {
    record.extra["total_" + name] = static_cast<double>(value);
  }
  bench::WriteBenchJson("BENCH_capacity.json", {record});

  bool ordering = (*all)[0].max_scale < (*all)[1].max_scale &&
                  (*all)[1].max_scale < (*all)[2].max_scale;
  std::printf("\n# Shape check: static < CM < FM ... %s\n",
              ordering ? "HOLDS" : "VIOLATED");
  return ordering ? 0 : 1;
}
