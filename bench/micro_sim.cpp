// Microbenchmarks (google-benchmark) of the simulation substrate:
// event-queue throughput, demand-engine ticks over the full paper
// landscape, whole simulated hours of each scenario, the per-server
// monitoring feed (histogram, watch-window reads), and the
// thread-pool run engine — the numbers that justify running 80-hour
// capacity sweeps in seconds. Results are also written to
// BENCH_micro.json so future PRs have a perf trajectory to compare
// against.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <vector>

#include "alloc_counter.h"
#include "autoglobe/capacity.h"
#include "autoglobe/landscape_gen.h"
#include "benchmark_json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "monitor/monitoring.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "workload/demand.h"

namespace {

using namespace autoglobe;

// The hot path of the kernel: schedule + dispatch with a static
// label. After the EventLabel/flat-liveness overhaul this path does
// no per-event label allocation and no hash-set probes.
void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  const int64_t batch = state.range(0);
  for (auto _ : state) {
    sim::Simulator simulator;
    uint64_t sink = 0;
    for (int64_t i = 0; i < batch; ++i) {
      AG_CHECK_OK(simulator
                      .ScheduleAt(SimTime::FromSeconds((i * 7919) % 100000),
                                  "e", [&sink] { ++sink; })
                      .status());
    }
    simulator.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleDispatch)->Arg(1000)->Arg(10000);

// Periodic series re-arm: one tick event driven for `batch` periods.
// Re-arming copies a shared_ptr refcount, not the std::function.
void BM_EventQueuePeriodicRearm(benchmark::State& state) {
  const int64_t batch = state.range(0);
  for (auto _ : state) {
    sim::Simulator simulator;
    uint64_t sink = 0;
    AG_CHECK_OK(simulator
                    .SchedulePeriodic(Duration::Minutes(1), "tick",
                                      [&sink] { ++sink; })
                    .status());
    simulator.RunUntil(SimTime::Start() + Duration::Minutes(batch));
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePeriodicRearm)->Arg(10000);

void BM_DemandEngineTick(benchmark::State& state) {
  infra::Cluster cluster;
  workload::DemandEngine engine(&cluster, Rng(1));
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  AG_CHECK_OK(landscape.Build(&cluster, &engine));
  int64_t minute = 0;
  for (auto _ : state) {
    engine.Tick(SimTime::Start() + Duration::Minutes(++minute));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandEngineTick);

// The dense-id data-plane contract: after one warm-up tick compiles
// the plane (spec/edge tables, SoA arrays, pre-sized scratch), every
// steady-state Tick over the full paper landscape — fresh demand,
// subsystem propagation, per-server water-filling, satisfaction
// bookkeeping — runs without touching the heap. allocs_per_tick must
// report 0 in both user-distribution modes.
void BM_DemandTick(benchmark::State& state) {
  workload::UserDistribution mode =
      static_cast<workload::UserDistribution>(state.range(0));
  infra::Cluster cluster;
  workload::DemandEngine engine(&cluster, Rng(1));
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  AG_CHECK_OK(landscape.Build(&cluster, &engine));
  engine.set_distribution(mode);
  int64_t minute = 0;
  engine.Tick(SimTime::Start() + Duration::Minutes(++minute));  // warm up
  uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    engine.Tick(SimTime::Start() + Duration::Minutes(++minute));
  }
  uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_tick"] = state.iterations() > 0
      ? static_cast<double>(allocs) / static_cast<double>(state.iterations())
      : 0.0;
  state.SetLabel(mode == workload::UserDistribution::kStickySessions
                     ? "sticky"
                     : "dynamic");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandTick)->DenseRange(0, 1);

void BM_SimulatedHour(benchmark::State& state) {
  Scenario scenario = static_cast<Scenario>(state.range(0));
  Landscape landscape = MakePaperLandscape(scenario);
  RunnerConfig config = MakeScenarioConfig(scenario, 1.15);
  config.duration = Duration::Hours(100000);  // run manually below
  auto runner = SimulationRunner::Create(landscape, config);
  AG_CHECK_OK(runner.status());
  int64_t hour = 0;
  for (auto _ : state) {
    ++hour;
    AG_CHECK_OK(
        (*runner)->RunUntil(SimTime::Start() + Duration::Hours(hour)));
  }
  state.SetLabel(std::string(ScenarioName(scenario)));
  state.SetItemsProcessed(state.iterations() * 60);  // ticks
}
BENCHMARK(BM_SimulatedHour)->DenseRange(0, 2);

// Pure pool dispatch overhead: trivial tasks, so the time is the
// submit/latch machinery itself.
void BM_ThreadPoolParallelFor(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  std::vector<uint64_t> sinks(1024, 0);
  for (auto _ : state) {
    pool.ParallelFor(sinks.size(), [&sinks](size_t i) { ++sinks[i]; });
  }
  benchmark::DoNotOptimize(sinks.data());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sinks.size()));
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4);

// The speedup the run engine exists for, measured on the real product
// path: a short capacity sweep, sequential (parallelism 1) versus one
// worker per hardware thread (parallelism 0). Items are sweep steps.
void BM_CapacitySweepShort(benchmark::State& state) {
  CapacityOptions options;
  options.start_scale = 1.0;
  options.step = 0.25;
  options.max_scale = 1.5;
  options.run_duration = Duration::Hours(2);
  options.warmup = Duration::Zero();
  options.parallelism = static_cast<int>(state.range(0));
  size_t steps = 0;
  for (auto _ : state) {
    auto result = FindCapacity(Scenario::kConstrainedMobility, options);
    AG_CHECK_OK(result.status());
    steps += result->steps.size();
    benchmark::DoNotOptimize(result->max_scale);
  }
  state.SetLabel(options.parallelism == 1 ? "sequential"
                                          : "hardware-parallel");
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_CapacitySweepShort)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Host selection on a warmed 1,000-server fleet: the scale_sweep
// configuration at user scale 1.5 (the fleet_10k perf workload at a
// tenth of its size), warmed past the one-hour archive retention.
// Ranks the targets for moving the first instance off the busiest
// server, pool prescreen on. A ranked candidate's one allocation is
// its name in the returned ScoredServer, so allocs_per_candidate
// stays near 1; per-candidate key strings or instance vectors would
// show up here as 2 or more.
void BM_RankServers(benchmark::State& state) {
  auto landscape = GenerateLandscape(MakeScaleSpec(1000));
  AG_CHECK_OK(landscape.status());
  RunnerConfig config;
  config.tick = Duration::Minutes(1);
  config.duration = Duration::Hours(2);
  config.seed = 1;
  config.user_scale = 1.5;
  config.fluctuation_per_minute = 0.0;
  config.archive_retention = Duration::Hours(1);
  config.archive_bucket = Duration::Minutes(15);
  config.controller.pool_prescreen = true;
  auto runner = SimulationRunner::Create(*landscape, config);
  AG_CHECK_OK(runner.status());
  AG_CHECK_OK(
      (*runner)->RunUntil(SimTime::Start() + Duration::Minutes(70)));

  const infra::LandscapeIndex& index = (*runner)->cluster().Index();
  infra::DenseId busiest = infra::kNoDenseId;
  for (size_t s = 0; s < index.num_servers(); ++s) {
    infra::DenseId id = static_cast<infra::DenseId>(s);
    if (index.InstancesOnServer(id).empty()) continue;
    if (busiest == infra::kNoDenseId ||
        (*runner)->demand().ServerCpuLoadById(id) >
            (*runner)->demand().ServerCpuLoadById(busiest)) {
      busiest = id;
    }
  }
  AG_CHECK(busiest != infra::kNoDenseId);
  const infra::InstanceRef& mover = index.InstancesOnServer(busiest).front();
  infra::Action move;
  move.type = infra::ActionType::kMove;
  move.service = index.ServiceName(mover.service);
  move.instance = mover.id;
  move.source_server = index.ServerName(busiest);

  const controller::Controller& controller = (*runner)->controller();
  const SimTime now = (*runner)->simulator().now();
  auto warm = controller.RankServers(move, now);
  AG_CHECK_OK(warm.status());
  const double candidates = static_cast<double>(warm->size());
  AG_CHECK(candidates > 0);

  uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto hosts = controller.RankServers(move, now);
    benchmark::DoNotOptimize(hosts);
  }
  double ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  double ranked = candidates * static_cast<double>(state.iterations());
  state.counters["candidates"] = candidates;
  state.counters["ns_per_candidate"] = ranked > 0 ? ns / ranked : 0.0;
  state.counters["allocs_per_candidate"] =
      ranked > 0 ? static_cast<double>(allocs) / ranked : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates));
}
BENCHMARK(BM_RankServers)->Unit(benchmark::kMicrosecond);

// The runner's always-on server_cpu_load histogram, fed one 10k-server
// tick of loads per iteration into single-writer cells. Loads spread
// over [0, 1.2) so in-range, boundary and overflow buckets all fill.
// allocs_per_tick (per 10k observations) must be 0.
void BM_HistogramObserve(benchmark::State& state) {
  constexpr size_t kServers = 10000;
  obs::MetricsRegistry registry;
  obs::Histogram histogram = registry.AddHistogram(
      "server_cpu_load",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  Rng rng(7);
  std::vector<double> loads(kServers);
  for (double& load : loads) {
    // Whole tenths now and then: captured loads sit on bounds too.
    load = rng.NextDouble() < 0.05
               ? std::round(rng.NextDouble() * 12.0) / 10.0
               : rng.NextDouble() * 1.2;
  }
  uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    for (double load : loads) histogram.Observe(load);
  }
  uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(registry.Snapshot().histograms[0].count);
  state.counters["allocs_per_tick"] = state.iterations() > 0
      ? static_cast<double>(allocs) / static_cast<double>(state.iterations())
      : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kServers));
}
BENCHMARK(BM_HistogramObserve);

// Watch-window means as host ranking reads them, over a warmed
// 1,000-subject monitor: every subject carries a pending run of 20
// carried-forward samples, which MaterializeSubject replays with one
// bulk AppendRun before LoadArchive::Average reads the window. 70
// one-minute ticks of changing in-band loads fill the archive past its
// one-hour retention; each iteration then feeds 20 constant ticks
// (untimed) and reads every subject once. The iteration count is fixed
// so the reserved aggregate buckets cover the whole run;
// allocs_per_tick (per pass over the fleet) must be 0.
constexpr int kMaterializeIterations = 200;
void BM_MaterializeAndAverage(benchmark::State& state) {
  constexpr int kSubjects = 1000;
  constexpr int kRun = 20;
  monitor::LoadArchive archive(Duration::Hours(1), Duration::Minutes(15));
  archive.set_capacity_hints(60,
                             8 + (kMaterializeIterations * kRun + 70) / 15);
  monitor::LoadMonitoringSystem monitoring(&archive,
                                          monitor::MonitorConfig{});
  for (int s = 0; s < kSubjects; ++s) {
    AG_CHECK_OK(monitoring.RegisterSubject(
        monitor::TriggerKind::kServerOverloaded, StrFormat("srv%04d", s)));
  }
  std::vector<monitor::LoadArchive::Handle> series(kSubjects);
  Rng rng(11);
  std::vector<double> loads(kSubjects);
  for (double& load : loads) load = 0.2 + 0.4 * rng.NextDouble();
  int minute = 0;
  auto feed = [&](int ticks, bool vary) {
    for (int t = 0; t < ticks; ++t, ++minute) {
      SimTime now = SimTime::Start() + Duration::Minutes(minute);
      for (int s = 0; s < kSubjects; ++s) {
        if (vary && rng.NextDouble() < 0.5) {
          loads[s] = 0.2 + 0.4 * rng.NextDouble();
        }
        AG_CHECK_OK(monitoring.ObserveById(now, s, loads[s]));
      }
    }
  };
  feed(70, true);
  const Duration window = Duration::Minutes(10);

  uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    state.PauseTiming();
    feed(kRun, false);
    state.ResumeTiming();
    const SimTime now = SimTime::Start() + Duration::Minutes(minute - 1);
    double sum = 0.0;
    for (int s = 0; s < kSubjects; ++s) {
      AG_CHECK_OK(monitoring.MaterializeSubject(s));
      if (!series[s]) series[s] = monitoring.SeriesOf(s);
      Result<double> mean = archive.Average(series[s], window, now);
      sum += mean.ok() ? *mean : 0.0;
    }
    benchmark::DoNotOptimize(sum);
  }
  uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  AG_CHECK(monitoring.skips() > 0);
  state.counters["allocs_per_tick"] = state.iterations() > 0
      ? static_cast<double>(allocs) / static_cast<double>(state.iterations())
      : 0.0;
  state.SetItemsProcessed(state.iterations() * kSubjects);
}
BENCHMARK(BM_MaterializeAndAverage)
    ->Iterations(kMaterializeIterations)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return autoglobe::bench::RunBenchmarksAndWriteJson(argc, argv,
                                                     "BENCH_micro.json");
}
