#ifndef AUTOGLOBE_BENCH_BENCH_UTIL_H_
#define AUTOGLOBE_BENCH_BENCH_UTIL_H_

// Shared bench scaffolding: the BENCH_*.json report schema (WallTimer,
// BenchRecord, WriteBenchJson), the scenario driver behind the figure
// and ablation benches (RunScenario, RunWithConfig), and their console
// printers. benchmark_json.h adds the google-benchmark reporter on
// top; it stays separate because only the microbenchmarks link
// google-benchmark.

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "autoglobe/capacity.h"
#include "autoglobe/runner.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::bench {

// --- BENCH_*.json reports ----------------------------------------------
//
// The one BENCH_*.json schema shared by every harness — the
// google-benchmark reporter (benchmark_json.h) and the plain
// executables (table benches, figure benches) both write through
// WriteBenchJson, so perf trajectories stay diffable across changes
// regardless of which harness produced them.

/// Wall-clock stopwatch for bench harnesses.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One machine-readable measurement of a bench harness.
struct BenchRecord {
  std::string name;
  double wall_seconds = 0.0;
  double items_per_second = 0.0;
  /// Free-form numeric dimensions (thread count, step count, ...).
  std::map<std::string, double> extra;
};

/// Writes records as a stable JSON document (one `records` array),
/// e.g. BENCH_micro.json / BENCH_capacity.json next to the binary.
inline void WriteBenchJson(const std::string& path,
                           const std::vector<BenchRecord>& records) {
  std::string json = "{\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& record = records[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"wall_seconds\": %.9f, "
        "\"items_per_second\": %.3f",
        record.name.c_str(), record.wall_seconds,
        record.items_per_second);
    for (const auto& [key, value] : record.extra) {
      json += StrFormat(", \"%s\": %.6f", key.c_str(), value);
    }
    json += StrFormat("}%s\n", i + 1 < records.size() ? "," : "");
  }
  json += "  ]\n}\n";
  // Durable write: CI diffs these across changes; a crashed harness
  // must not leave a half-written report that parses as a regression.
  if (Status s = AtomicWriteFile(path, json); !s.ok()) {
    std::fprintf(stderr, "WARNING: cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return;
  }
  std::printf("# wrote %s (%zu records)\n", path.c_str(), records.size());
}

// --- Scenario runs ----------------------------------------------------

/// One sampled row of a scenario run: time plus per-server CPU loads.
struct LoadRow {
  SimTime at;
  std::map<std::string, double> server_cpu;
  double average = 0.0;
};

struct ScenarioRunResult {
  std::vector<LoadRow> rows;
  RunMetrics metrics;
  std::vector<std::string> messages;
  /// service -> (time, per-instance "SERVICE on SERVER" loads).
  std::vector<std::map<std::string, double>> service_instance_rows;
};

/// Runs a paper scenario (80 simulated hours unless `tweak` changes
/// the config) at `user_scale`. With a nonzero `sample_every` it
/// samples all server loads at that period and, when `trace_service`
/// is non-empty, the per-instance loads of that service (for the
/// Figure 15-17 reproductions).
inline ScenarioRunResult RunScenario(
    Scenario scenario, double user_scale, Duration sample_every,
    const std::string& trace_service = "",
    const std::function<void(RunnerConfig*)>& tweak = {}) {
  Landscape landscape = MakePaperLandscape(scenario);
  RunnerConfig config = MakeScenarioConfig(scenario, user_scale);
  if (tweak) tweak(&config);
  auto runner = SimulationRunner::Create(landscape, config);
  AG_CHECK_OK(runner.status());

  ScenarioRunResult result;
  int64_t sample_s = sample_every.seconds();
  if (sample_s > 0) {
    (*runner)->set_sample_hook([&](SimTime now,
                                   const workload::DemandEngine& demand,
                                   const infra::Cluster& cluster) {
      if (now.seconds() % sample_s != 0) return;
      LoadRow row;
      row.at = now;
      double total = 0.0;
      const infra::LandscapeIndex& index = cluster.Index();
      for (size_t s = 0; s < index.num_servers(); ++s) {
        infra::DenseId id = static_cast<infra::DenseId>(s);
        double cpu = demand.ServerCpuLoadById(id);
        row.server_cpu[index.ServerName(id)] = cpu;
        total += cpu;
      }
      row.average = row.server_cpu.empty()
                        ? 0.0
                        : total / static_cast<double>(row.server_cpu.size());
      result.rows.push_back(std::move(row));
      if (!trace_service.empty()) {
        std::map<std::string, double> instances;
        for (const infra::ServiceInstance* instance :
             cluster.InstancesOf(trace_service)) {
          instances[instance->service + " on " + instance->server] =
              demand.InstanceLoad(instance->id);
        }
        result.service_instance_rows.push_back(std::move(instances));
      }
    });
  }
  AG_CHECK_OK((*runner)->Run());
  result.metrics = (*runner)->metrics();
  result.messages = (*runner)->messages();
  return result;
}

/// Ablation driver (DESIGN.md A1-A5): runs the paper landscape with
/// one knob changed and returns the quality metrics that expose the
/// trade-off.
inline RunMetrics RunWithConfig(
    Scenario scenario, double user_scale,
    const std::function<void(RunnerConfig*)>& tweak,
    Duration duration = Duration::Hours(80),
    Duration warmup = Duration::Hours(24)) {
  return RunScenario(scenario, user_scale, Duration::Zero(), "",
                     [&](RunnerConfig* config) {
                       config->duration = duration;
                       config->metrics_warmup = warmup;
                       if (tweak) tweak(config);
                     })
      .metrics;
}

/// Prints the per-server load series as a CSV-ish table (time in
/// simulated d/hh:mm, loads in percent) followed by a summary — the
/// data behind Figures 12-14.
inline void PrintServerSeries(const ScenarioRunResult& result) {
  if (result.rows.empty()) return;
  std::printf("time");
  for (const auto& [server, load] : result.rows.front().server_cpu) {
    std::printf(",%s", server.c_str());
  }
  std::printf(",Average\n");
  for (const LoadRow& row : result.rows) {
    std::printf("%s", row.at.ToString().c_str());
    for (const auto& [server, load] : row.server_cpu) {
      std::printf(",%.0f", load * 100.0);
    }
    std::printf(",%.1f\n", row.average * 100.0);
  }
}

inline void PrintRunSummary(const char* label,
                            const ScenarioRunResult& result) {
  const RunMetrics& m = result.metrics;
  std::printf(
      "# %s: avg load %.1f%%, overload %.0f server-min "
      "(%.2f%% of samples, max streak %.0f min), lost work %.1f wu, "
      "%lld triggers, %lld actions, %lld alerts\n",
      label, m.average_cpu_load * 100.0, m.overload_server_minutes,
      m.overload_fraction * 100.0, m.max_overload_streak_minutes,
      m.lost_work_wu, static_cast<long long>(m.triggers),
      static_cast<long long>(m.actions_executed),
      static_cast<long long>(m.alerts));
}

inline void PrintMetricsHeader(const char* knob) {
  std::printf("%-14s %9s %10s %8s %9s %8s %8s %7s\n", knob, "ovl-min",
              "ovl-frac", "streak", "lost-wu", "actions", "triggers",
              "alerts");
}

inline void PrintMetricsRow(const char* label, const RunMetrics& m) {
  std::printf("%-14s %9.0f %9.2f%% %8.0f %9.1f %8lld %8lld %7lld\n",
              label, m.overload_server_minutes,
              m.overload_fraction * 100.0, m.max_overload_streak_minutes,
              m.lost_work_wu, static_cast<long long>(m.actions_executed),
              static_cast<long long>(m.triggers),
              static_cast<long long>(m.alerts));
}

}  // namespace autoglobe::bench

#endif  // AUTOGLOBE_BENCH_BENCH_UTIL_H_
