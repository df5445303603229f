// Availability scenario (robustness extension of the paper's
// self-healing claim, §2): run the FM landscape under the full crash
// model — instance crashes, whole-server failures with repair,
// transient action-failure windows, monitor dropouts — with heartbeat
// failure detection and the recovery pipeline enabled, and score the
// result as MTTD / MTTR / unavailability / recovery-objective
// satisfaction.
//
// Emits BENCH_faults.json. Every per-seed and aggregate number in it
// is a simulation result (wall_seconds deliberately 0), so those
// records are bit-identical across machines and parallelism levels;
// the one perf record (availability/fm/perf) carries the wall-clock
// throughput and the steady-state allocation audit for this suite.

#include <atomic>
#include <cstdio>

#include "alloc_counter.h"
#include "autoglobe/availability.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

int main() {
  std::printf("# Availability under fault injection: FM scenario at "
              "100%% users, 24 h, 4 seeds\n");

  AvailabilityOptions options;
  options.scenario = Scenario::kFullMobility;
  options.user_scale = 1.0;
  options.duration = Duration::Hours(24);
  options.seed = 42;
  options.repetitions = 4;
  options.parallelism = 0;  // one worker per hardware thread
  options.reps_per_task = 2;  // batch consecutive reps per worker
  options.fault_spec.instance_crashes_per_hour = 0.5;
  options.fault_spec.server_failures_per_day = 1.0;
  options.fault_spec.server_recovery = Duration::Hours(2);
  options.fault_spec.action_failure_windows_per_day = 2.0;
  options.fault_spec.action_failure_duration = Duration::Minutes(5);
  options.fault_spec.monitor_dropouts_per_day = 1.0;
  options.fault_spec.monitor_dropout_duration = Duration::Minutes(5);

  // Fault runs rebuild topology, so unlike the batched static path
  // allocs/tick here is small but nonzero by design.
  const uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  WallTimer timer;
  auto result = RunAvailabilityScenario(options);
  double wall_seconds = timer.Seconds();
  const uint64_t suite_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  AG_CHECK_OK(result.status());
  std::printf("%s", RenderAvailabilityResult(*result).c_str());

  const double total_ticks =
      static_cast<double>(options.repetitions) *
      static_cast<double>(options.duration.seconds() / 60);
  const double seeds_per_sec =
      static_cast<double>(options.repetitions) / wall_seconds;
  std::printf("# wall-clock: %.2f s for %d reps (%.2f seeds/s, "
              "%.1f allocs/tick)\n",
              wall_seconds, options.repetitions, seeds_per_sec,
              static_cast<double>(suite_allocs) / total_ticks);

  std::vector<BenchRecord> records;
  for (const AvailabilityRun& run : result->runs) {
    AG_CHECK(run.invariants_ok);
    BenchRecord record;
    record.name = StrFormat("availability/fm/seed%llu",
                            static_cast<unsigned long long>(run.seed));
    record.extra["faults_injected"] =
        static_cast<double>(run.report.faults_injected);
    record.extra["episodes"] = static_cast<double>(run.report.episodes);
    record.extra["detected"] = static_cast<double>(run.report.detected);
    record.extra["recovered"] =
        static_cast<double>(run.report.recovered);
    record.extra["abandoned"] =
        static_cast<double>(run.report.abandoned);
    record.extra["mttd_minutes_mean"] = run.report.mttd_minutes_mean;
    record.extra["mttr_minutes_mean"] = run.report.mttr_minutes_mean;
    record.extra["mttr_minutes_max"] = run.report.mttr_minutes_max;
    record.extra["unavailability_instance_minutes"] =
        run.report.unavailability_instance_minutes;
    record.extra["objective_satisfaction"] =
        run.report.objective_satisfaction;
    record.extra["restarts_attempted"] =
        static_cast<double>(run.recovery.restarts_attempted);
    record.extra["relocations"] =
        static_cast<double>(run.recovery.relocations);
    record.extra["evacuations"] =
        static_cast<double>(run.recovery.evacuations);
    records.push_back(std::move(record));
  }
  const faults::AvailabilityReport& aggregate = result->aggregate;
  BenchRecord total;
  total.name = "availability/fm/aggregate";
  total.extra["faults_injected"] =
      static_cast<double>(aggregate.faults_injected);
  total.extra["episodes"] = static_cast<double>(aggregate.episodes);
  total.extra["recovered"] = static_cast<double>(aggregate.recovered);
  total.extra["abandoned"] = static_cast<double>(aggregate.abandoned);
  total.extra["mttd_minutes_mean"] = aggregate.mttd_minutes_mean;
  total.extra["mttr_minutes_mean"] = aggregate.mttr_minutes_mean;
  total.extra["unavailability_instance_minutes"] =
      aggregate.unavailability_instance_minutes;
  total.extra["objective_satisfaction"] =
      aggregate.objective_satisfaction;
  records.push_back(std::move(total));

  BenchRecord perf;
  perf.name = "availability/fm/perf";
  perf.wall_seconds = wall_seconds;
  perf.items_per_second = seeds_per_sec;
  perf.extra["seeds_per_sec"] = seeds_per_sec;
  perf.extra["reps"] = static_cast<double>(options.repetitions);
  perf.extra["reps_per_task"] =
      static_cast<double>(options.reps_per_task);
  perf.extra["allocs_per_tick"] =
      static_cast<double>(suite_allocs) / total_ticks;
  records.push_back(std::move(perf));

  WriteBenchJson("BENCH_faults.json", records);
  return 0;
}
