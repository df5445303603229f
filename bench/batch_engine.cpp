// Batched multi-seed execution bench: the throughput case for
// BatchRunner. Two ways to run the same 64 static-scenario seeds over
// the paper landscape:
//
//   scalar_fresh — one SimulationRunner constructed per seed (the
//                  pre-batching product path),
//   batched      — one BatchRunner stepping all 64 lanes in lockstep.
//
// Every batched lane is checked bit-identical to its scalar run
// before any timing is reported — a fast wrong number is worthless.
//
// The same comparison then repeats under rng=philox (the
// counter-based draw plane of DESIGN.md §16, SIMD noise kernels on
// the batched path): scalar_fresh_philox vs batched_philox, again
// with all 64 lanes parity-checked against scalar philox runs.
//
// Emits BENCH_batch.json; CI gates allocs_per_tick == 0 on both
// batched steady states, batched >= 4x scalar_fresh seeds/sec on the
// legacy row, and batched_philox >= 8x scalar_fresh_philox.

#include <atomic>
#include <cstdio>
#include <vector>

#include "alloc_counter.h"
#include "autoglobe/batch_runner.h"
#include "autoglobe/capacity.h"
#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/logging.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

namespace {

constexpr size_t kLanes = 64;
constexpr int64_t kHours = 24;

RunnerConfig BenchConfig() {
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
  config.duration = Duration::Hours(kHours);
  config.metrics_warmup = Duration::Hours(4);
  return config;
}

std::vector<BatchLane> BenchLanes() {
  std::vector<BatchLane> lanes;
  lanes.reserve(kLanes);
  for (size_t i = 0; i < kLanes; ++i) {
    // Seeds and scales both vary so no two lanes follow the same
    // trajectory; the scale band 1.0..1.4 mixes calm and overloaded
    // lanes (divergent trigger state machines).
    lanes.push_back(BatchLane{42 + 17 * static_cast<uint64_t>(i),
                              1.0 + 0.05 * static_cast<double>(i % 9)});
  }
  return lanes;
}

bool SameMetrics(const RunMetrics& a, const RunMetrics& b) {
  return a.overload_server_minutes == b.overload_server_minutes &&
         a.max_overload_streak_minutes == b.max_overload_streak_minutes &&
         a.overload_fraction == b.overload_fraction &&
         a.lost_work_wu == b.lost_work_wu &&
         a.average_cpu_load == b.average_cpu_load &&
         a.triggers == b.triggers;
}

}  // namespace

int main() {
  const RunnerConfig config = BenchConfig();
  const std::vector<BatchLane> lanes = BenchLanes();
  const int64_t ticks_per_run =
      config.duration.seconds() / config.tick.seconds();

  std::printf("# Batched multi-seed execution: %zu static runs of %lld h "
              "each (%lld ticks/run)\n\n",
              kLanes, static_cast<long long>(kHours),
              static_cast<long long>(ticks_per_run));

  // Every mode is timed kReps times and reports its fastest pass: the
  // ratio of two minima is far more stable under machine noise than a
  // single-shot quotient, and CI gates on that ratio.
  constexpr int kReps = 5;

  // --- scalar_fresh: one runner per seed --------------------------------
  std::vector<RunMetrics> scalar_metrics(kLanes);
  double fresh_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer fresh_timer;
    for (size_t i = 0; i < kLanes; ++i) {
      Landscape landscape = MakePaperLandscape(Scenario::kStatic);
      RunnerConfig run_config = config;
      run_config.seed = lanes[i].seed;
      run_config.user_scale = lanes[i].user_scale;
      auto runner = SimulationRunner::Create(landscape, run_config);
      AG_CHECK_OK(runner.status());
      AG_CHECK_OK((*runner)->Run());
      scalar_metrics[i] = (*runner)->metrics();
    }
    double s = fresh_timer.Seconds();
    if (rep == 0 || s < fresh_seconds) fresh_seconds = s;
  }

  // --- batched: all seeds in lockstep -----------------------------------
  auto batch = BatchRunner::Create(MakePaperLandscape(Scenario::kStatic),
                                   config, lanes);
  AG_CHECK_OK(batch.status());
  WallTimer batch_timer;
  AG_CHECK_OK((*batch)->Run());
  double batch_seconds = batch_timer.Seconds();
  for (size_t i = 0; i < kLanes; ++i) {
    AG_CHECK(SameMetrics((*batch)->metrics(i), scalar_metrics[i]));
  }

  // Steady-state allocation audit on a re-armed batch: after the data
  // plane is built, a full batched run must not touch the heap.
  double warm_seconds = 0.0;
  double allocs_per_tick = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    AG_CHECK_OK((*batch)->Rerun(BenchLanes()));
    uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    WallTimer warm_timer;
    AG_CHECK_OK((*batch)->Run());
    double s = warm_timer.Seconds();
    uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    double per_tick =
        static_cast<double>(allocs) / static_cast<double>(ticks_per_run);
    if (per_tick > allocs_per_tick) allocs_per_tick = per_tick;
    if (rep == 0 || s < warm_seconds) warm_seconds = s;
    for (size_t i = 0; i < kLanes; ++i) {
      AG_CHECK(SameMetrics((*batch)->metrics(i), scalar_metrics[i]));
    }
  }

  // --- philox plane: scalar_fresh vs batched ----------------------------
  RunnerConfig philox_config = config;
  philox_config.rng_kind = RngKind::kPhilox;

  std::vector<RunMetrics> philox_scalar_metrics(kLanes);
  double philox_fresh_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer philox_timer;
    for (size_t i = 0; i < kLanes; ++i) {
      Landscape landscape = MakePaperLandscape(Scenario::kStatic);
      RunnerConfig run_config = philox_config;
      run_config.seed = lanes[i].seed;
      run_config.user_scale = lanes[i].user_scale;
      auto runner = SimulationRunner::Create(landscape, run_config);
      AG_CHECK_OK(runner.status());
      AG_CHECK_OK((*runner)->Run());
      philox_scalar_metrics[i] = (*runner)->metrics();
    }
    double s = philox_timer.Seconds();
    if (rep == 0 || s < philox_fresh_seconds) philox_fresh_seconds = s;
  }

  auto philox_batch = BatchRunner::Create(
      MakePaperLandscape(Scenario::kStatic), philox_config, lanes);
  AG_CHECK_OK(philox_batch.status());
  AG_CHECK_OK((*philox_batch)->Run());
  for (size_t i = 0; i < kLanes; ++i) {
    AG_CHECK(SameMetrics((*philox_batch)->metrics(i),
                         philox_scalar_metrics[i]));
  }
  double philox_warm_seconds = 0.0;
  double philox_allocs_per_tick = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    AG_CHECK_OK((*philox_batch)->Rerun(BenchLanes()));
    uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    WallTimer warm_timer;
    AG_CHECK_OK((*philox_batch)->Run());
    double s = warm_timer.Seconds();
    uint64_t allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    double per_tick =
        static_cast<double>(allocs) / static_cast<double>(ticks_per_run);
    if (per_tick > philox_allocs_per_tick) philox_allocs_per_tick = per_tick;
    if (rep == 0 || s < philox_warm_seconds) philox_warm_seconds = s;
    for (size_t i = 0; i < kLanes; ++i) {
      AG_CHECK(SameMetrics((*philox_batch)->metrics(i),
                           philox_scalar_metrics[i]));
    }
  }

  double fresh_rate = static_cast<double>(kLanes) / fresh_seconds;
  double batch_rate = static_cast<double>(kLanes) / warm_seconds;
  std::printf("scalar fresh : %6.2f s  (%7.2f seeds/s)\n", fresh_seconds,
              fresh_rate);
  std::printf("batched x%-3zu : %6.2f s  (%7.2f seeds/s, cold %.2f s)\n",
              kLanes, warm_seconds, batch_rate, batch_seconds);
  double philox_fresh_rate =
      static_cast<double>(kLanes) / philox_fresh_seconds;
  double philox_batch_rate =
      static_cast<double>(kLanes) / philox_warm_seconds;
  std::printf("philox fresh : %6.2f s  (%7.2f seeds/s)\n",
              philox_fresh_seconds, philox_fresh_rate);
  std::printf("philox x%-3zu  : %6.2f s  (%7.2f seeds/s)\n", kLanes,
              philox_warm_seconds, philox_batch_rate);
  std::printf("\n# parity: all %zu lanes bit-identical to scalar runs "
              "(both rng planes)\n",
              kLanes);
  std::printf("# speedup: %.1fx vs fresh; allocs/batched-tick: %.3f\n",
              batch_rate / fresh_rate, allocs_per_tick);
  std::printf("# philox speedup: %.1fx vs philox fresh; "
              "allocs/batched-tick: %.3f (%s kernels)\n",
              philox_batch_rate / philox_fresh_rate, philox_allocs_per_tick,
              std::string(SimdLevelName(ActiveSimdLevel())).c_str());

  std::vector<BenchRecord> records;
  BenchRecord fresh;
  fresh.name = "batch/static24h/scalar_fresh";
  fresh.wall_seconds = fresh_seconds;
  fresh.items_per_second = fresh_rate;
  fresh.extra["seeds"] = static_cast<double>(kLanes);
  fresh.extra["ticks_per_run"] = static_cast<double>(ticks_per_run);
  records.push_back(std::move(fresh));
  BenchRecord batched;
  batched.name = "batch/static24h/batched";
  batched.wall_seconds = warm_seconds;
  batched.items_per_second = batch_rate;
  batched.extra["lanes"] = static_cast<double>(kLanes);
  batched.extra["allocs_per_tick"] = allocs_per_tick;
  batched.extra["speedup_vs_fresh"] = batch_rate / fresh_rate;
  batched.extra["parity_checked_lanes"] = static_cast<double>(kLanes);
  records.push_back(std::move(batched));
  BenchRecord philox_fresh;
  philox_fresh.name = "batch/static24h/scalar_fresh_philox";
  philox_fresh.wall_seconds = philox_fresh_seconds;
  philox_fresh.items_per_second = philox_fresh_rate;
  philox_fresh.extra["seeds"] = static_cast<double>(kLanes);
  philox_fresh.extra["ticks_per_run"] = static_cast<double>(ticks_per_run);
  records.push_back(std::move(philox_fresh));
  BenchRecord philox_batched;
  philox_batched.name = "batch/static24h/batched_philox";
  philox_batched.wall_seconds = philox_warm_seconds;
  philox_batched.items_per_second = philox_batch_rate;
  philox_batched.extra["lanes"] = static_cast<double>(kLanes);
  philox_batched.extra["allocs_per_tick"] = philox_allocs_per_tick;
  philox_batched.extra["speedup_vs_fresh"] =
      philox_batch_rate / philox_fresh_rate;
  philox_batched.extra["parity_checked_lanes"] = static_cast<double>(kLanes);
  philox_batched.extra["avx2"] =
      ActiveSimdLevel() == SimdLevel::kAvx2 ? 1.0 : 0.0;
  records.push_back(std::move(philox_batched));
  WriteBenchJson("BENCH_batch.json", records);
  return 0;
}
