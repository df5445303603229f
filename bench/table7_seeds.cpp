// Seed-robustness companion to table7_capacity: the Table 7 sweep
// repeated under different random seeds (demand noise and failure
// streams). The paper's qualitative claim — static < CM < FM with
// roughly +15 % / +35 % — must not hinge on one lucky noise
// trajectory; measured capacities may wobble by one 5 % sweep step.
//
// All seed x scenario sweeps run concurrently on one worker pool;
// each sweep itself stays sequential at the step level, but
// static-eligible sweeps additionally fan their steps over a
// 64-lane BatchRunner (options.batch_lanes), so the static column is
// measured on the batched engine — bit-identical to the scalar sweep
// by BatchRunner's parity contract. Emits BENCH_seeds.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <vector>

#include "autoglobe/capacity.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/rng_kind.h"
#include "common/strings.h"
#include "common/thread_pool.h"

using namespace autoglobe;

int main(int argc, char** argv) {
  // Optional draw discipline and seed range:
  // `table7_seeds [xoshiro|philox] [first_seed last_seed]`. Philox runs
  // the same protocol on the counter-based plane (DESIGN.md §16); the
  // default keeps the legacy stream and its pinned numbers, and the
  // default seeds are 42, 7 and 2026. A range reports the per-seed
  // distribution of each cell (EXPERIMENTS.md).
  RngKind rng_kind = RngKind::kXoshiro;
  std::vector<uint64_t> seeds = {42, 7, 2026};
  bool usage_ok = argc == 1 || argc == 2 || argc == 4;
  if (usage_ok && argc > 1) usage_ok = ParseRngKind(argv[1], &rng_kind);
  if (usage_ok && argc == 4) {
    char* end_first = nullptr;
    char* end_last = nullptr;
    unsigned long long first = std::strtoull(argv[2], &end_first, 10);
    unsigned long long last = std::strtoull(argv[3], &end_last, 10);
    usage_ok = *end_first == '\0' && *end_last == '\0' && first <= last &&
               last - first < 4096;
    seeds.clear();
    for (unsigned long long seed = first; usage_ok && seed <= last; ++seed) {
      seeds.push_back(seed);
    }
  }
  if (!usage_ok) {
    std::fprintf(stderr,
                 "usage: table7_seeds [xoshiro|philox] [first_seed "
                 "last_seed]\n");
    return 2;
  }
  const Scenario scenarios[] = {Scenario::kStatic,
                                Scenario::kConstrainedMobility,
                                Scenario::kFullMobility};
  const char* scenario_names[] = {"static", "cm", "fm"};

  std::printf("# Table 7 across random seeds (paper: 100 / 115 / 135), "
              "rng=%s\n\n",
              std::string(RngKindName(rng_kind)).c_str());

  bench::WallTimer timer;
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  auto results = pool.ParallelMap(
      std::size(seeds) * std::size(scenarios), [&](size_t task) {
        CapacityOptions options;
        options.seed = seeds[task / std::size(scenarios)];
        options.rng_kind = rng_kind;
        options.parallelism = 1;  // sweeps are the unit of parallelism
        // Static-eligible sweeps step their scale points in lockstep
        // lanes; ineligible scenarios silently fall back to scalar.
        options.batch_lanes = 64;
        auto result =
            FindCapacity(scenarios[task % std::size(scenarios)], options);
        AG_CHECK_OK(result.status());
        return result->max_scale;
      });
  double wall_seconds = timer.Seconds();
  const size_t num_sweeps = std::size(seeds) * std::size(scenarios);
  const double seeds_per_sec =
      static_cast<double>(num_sweeps) / wall_seconds;

  std::printf("%-8s %8s %6s %6s   ordering\n", "seed", "static", "CM",
              "FM");
  bool all_ordered = true;
  std::vector<bench::BenchRecord> records;
  for (size_t s = 0; s < std::size(seeds); ++s) {
    const double* capacity = &results[s * std::size(scenarios)];
    bool ordered = capacity[0] < capacity[1] && capacity[1] < capacity[2];
    all_ordered = all_ordered && ordered;
    std::printf("%-8llu %7.0f%% %5.0f%% %5.0f%%   %s\n",
                static_cast<unsigned long long>(seeds[s]),
                capacity[0] * 100, capacity[1] * 100, capacity[2] * 100,
                ordered ? "holds" : "VIOLATED");
    for (size_t c = 0; c < std::size(scenarios); ++c) {
      bench::BenchRecord record;
      record.name =
          StrFormat("seeds/%s/seed%llu", scenario_names[c],
                    static_cast<unsigned long long>(seeds[s]));
      record.extra["capacity"] = capacity[c];
      record.extra["ordered"] = ordered ? 1.0 : 0.0;
      records.push_back(std::move(record));
    }
  }
  // Per-cell distribution: how many seeds measured each capacity.
  std::printf("\n");
  size_t violated = 0;
  for (size_t c = 0; c < std::size(scenarios); ++c) {
    std::map<int, int, std::greater<int>> counts;  // capacity % -> seeds
    for (size_t s = 0; s < std::size(seeds); ++s) {
      double capacity = results[s * std::size(scenarios) + c];
      ++counts[static_cast<int>(std::lround(capacity * 100))];
    }
    std::printf("# %-6s", scenario_names[c]);
    for (const auto& [percent, count] : counts) {
      std::printf(" %d%% x%d", percent, count);
    }
    std::printf("\n");
  }
  for (size_t s = 0; s < std::size(seeds); ++s) {
    const double* capacity = &results[s * std::size(scenarios)];
    if (!(capacity[0] < capacity[1] && capacity[1] < capacity[2])) {
      ++violated;
    }
  }
  std::printf("# ordering violated in %zu/%zu seeds\n", violated,
              std::size(seeds));
  std::printf("\n# wall-clock: %.2f s for %zu sweeps on %zu worker(s) "
              "(%.2f sweeps/s)\n",
              wall_seconds, num_sweeps, pool.thread_count(),
              seeds_per_sec);
  std::printf("# static < CM < FM across all seeds: %s\n",
              all_ordered ? "HOLDS" : "VIOLATED");

  bench::BenchRecord perf;
  perf.name = "seeds/perf";
  perf.wall_seconds = wall_seconds;
  perf.items_per_second = seeds_per_sec;
  perf.extra["seeds_per_sec"] = seeds_per_sec;
  perf.extra["sweeps"] = static_cast<double>(num_sweeps);
  perf.extra["workers"] = static_cast<double>(pool.thread_count());
  perf.extra["batch_lanes"] = 64.0;
  perf.extra["philox"] = rng_kind == RngKind::kPhilox ? 1.0 : 0.0;
  perf.extra["all_ordered"] = all_ordered ? 1.0 : 0.0;
  records.push_back(std::move(perf));
  bench::WriteBenchJson("BENCH_seeds.json", records);
  return all_ordered ? 0 : 1;
}
