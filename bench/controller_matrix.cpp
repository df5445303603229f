// Head-to-head controller harness: fans the full
// (strategy x scenario x fault-plan x seed) matrix over a worker pool
// and writes BENCH_controllers.json — one record per cell plus the
// seed-mean rows — so "does the fuzzy Q-learner beat the paper's
// static rule base" is a diffable table across PRs.
//
// Usage: controller_matrix [parallelism] [seeds] [hours] [fault_plan.xml]
//                          [strategies] [scenarios]
//   parallelism  worker threads, 0 = hardware threads (default 0)
//   seeds        replication seeds per cell, >= 1 (default 3)
//   hours        simulated hours per cell (default 24)
//   fault_plan   fault battery for the faulted half of the matrix
//                (default data/fault_plan_flash.xml next to the repo
//                root; pass "" to skip fault cells)
//   strategies   comma-separated subset, e.g. "static,qlearn"
//                (default all three)
//   scenarios    comma-separated subset of static,cm,fm
//                (default all three)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "autoglobe/strategy_matrix.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/strings.h"

using namespace autoglobe;

namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) parts.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  StrategyMatrixOptions options;
  options.parallelism = argc > 1 ? std::atoi(argv[1]) : 0;
  int seeds = argc > 2 ? std::atoi(argv[2]) : 3;
  options.seeds.clear();
  for (int i = 0; i < std::max(1, seeds); ++i) {
    options.seeds.push_back(42 + static_cast<uint64_t>(i));
  }
  int hours = argc > 3 ? std::atoi(argv[3]) : 24;
  options.run_duration = Duration::Hours(std::max(1, hours));
  options.warmup = Duration::Hours(std::min(4, std::max(1, hours) / 2));

  std::string plan_path =
      argc > 4 ? argv[4] : std::string("data/fault_plan_flash.xml");
  if (!plan_path.empty()) {
    auto plan = faults::FaultPlan::LoadFile(plan_path);
    if (!plan.ok()) {
      // Benches run from the build tree too; try the repo-root layout.
      plan = faults::FaultPlan::LoadFile("../" + plan_path);
    }
    if (plan.ok()) {
      options.fault_plan = *std::move(plan);
    } else {
      std::fprintf(stderr,
                   "WARNING: no fault plan at %s (%s); matrix runs "
                   "without fault cells\n",
                   plan_path.c_str(),
                   std::string(plan.status().message()).c_str());
    }
  }

  if (argc > 5 && argv[5][0] != '\0') {
    options.strategies.clear();
    for (const std::string& name : SplitCsv(argv[5])) {
      auto kind = strategy::ParseStrategyKind(name);
      AG_CHECK_OK(kind.status());
      options.strategies.push_back(*kind);
    }
  }
  if (argc > 6 && argv[6][0] != '\0') {
    options.scenarios.clear();
    for (const std::string& name : SplitCsv(argv[6])) {
      auto scenario = ParseScenario(name);
      AG_CHECK_OK(scenario.status());
      options.scenarios.push_back(*scenario);
    }
  }

  std::printf("# Controller head-to-head: %zu strategies x %zu scenarios x "
              "%s x %zu seeds, %d h per cell\n\n",
              options.strategies.size(), options.scenarios.size(),
              options.fault_plan.has_value() ? "{none, flash-faults}"
                                             : "{none}",
              options.seeds.size(), std::max(1, hours));

  bench::WallTimer timer;
  auto result = RunStrategyMatrix(options);
  AG_CHECK_OK(result.status());
  double wall_seconds = timer.Seconds();

  std::printf("%s\n", RenderStrategyMatrix(*result).c_str());
  std::printf("# %zu cells in %.1f s wall\n", result->cells.size(),
              wall_seconds);

  std::vector<bench::BenchRecord> records;
  for (const StrategyMatrixCell& cell : result->cells) {
    bench::BenchRecord record;
    record.name = StrFormat(
        "cell/%s/%s/%s/seed%llu",
        std::string(strategy::StrategyKindName(cell.strategy)).c_str(),
        std::string(ScenarioName(cell.scenario)).c_str(),
        cell.faulted ? "faults" : "none",
        static_cast<unsigned long long>(cell.seed));
    record.wall_seconds = wall_seconds;
    record.extra["sla_violation_minutes"] = cell.metrics.sla_violation_minutes;
    record.extra["sla_violation_episodes"] =
        static_cast<double>(cell.sla_violation_episodes);
    record.extra["overload_server_minutes"] =
        cell.metrics.overload_server_minutes;
    record.extra["max_overload_streak_minutes"] =
        cell.metrics.max_overload_streak_minutes;
    record.extra["oscillations"] =
        static_cast<double>(cell.metrics.oscillations);
    record.extra["actions_executed"] =
        static_cast<double>(cell.metrics.actions_executed);
    record.extra["average_cpu_load"] = cell.metrics.average_cpu_load;
    record.extra["lost_work_wu"] = cell.metrics.lost_work_wu;
    record.extra["mttr_minutes_mean"] = cell.mttr_minutes_mean;
    record.extra["availability"] = cell.availability;
    record.extra["batched"] = cell.batched ? 1.0 : 0.0;
    record.extra["reward_updates"] =
        static_cast<double>(cell.metrics.strategy_reward_updates);
    record.extra["weight_updates"] =
        static_cast<double>(cell.metrics.strategy_weight_updates);
    records.push_back(std::move(record));
  }
  for (const StrategyMatrixRow& row : result->rows) {
    bench::BenchRecord record;
    record.name = StrFormat(
        "row/%s/%s/%s",
        std::string(strategy::StrategyKindName(row.strategy)).c_str(),
        std::string(ScenarioName(row.scenario)).c_str(),
        row.faulted ? "faults" : "none");
    record.wall_seconds = wall_seconds;
    record.extra["seeds"] = static_cast<double>(row.seeds);
    record.extra["sla_violation_minutes"] = row.sla_violation_minutes;
    record.extra["sla_violation_episodes"] = row.sla_violation_episodes;
    record.extra["overload_server_minutes"] = row.overload_server_minutes;
    record.extra["max_overload_streak_minutes"] =
        row.max_overload_streak_minutes;
    record.extra["oscillations"] = row.oscillations;
    record.extra["actions_executed"] = row.actions_executed;
    record.extra["average_cpu_load"] = row.average_cpu_load;
    record.extra["lost_work_wu"] = row.lost_work_wu;
    record.extra["mttr_minutes_mean"] = row.mttr_minutes_mean;
    record.extra["availability"] = row.availability;
    records.push_back(std::move(record));
  }
  bench::WriteBenchJson("BENCH_controllers.json", records);
  return 0;
}
