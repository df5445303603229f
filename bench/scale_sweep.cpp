// Hyperscale sweep: generated landscapes from 19 to 10,000 servers
// run through the full closed loop (demand ticks, monitoring feeds,
// dirty-subject trigger evaluation, pool-prescreened controller) with
// a *fixed* number of active services — the regime where per-tick
// cost must track activity, not fleet size. Emits BENCH_scale.json
// with sim-minutes/sec, steady-state allocations per tick (gated at
// zero in CI), trigger evaluations vs skips per tick (the
// sublinearity evidence), per-tick wall latency, an RSS estimate, and
// the cost of bringing the fleet up: GenerateLandscape + Create wall
// time (create_ms) and heap allocations (create_allocs, gated per
// server in CI — unlike wall time, the count is deterministic), and
// the load archive's heap run storage per monitored subject at the end
// of the window (archive_bytes_per_subject, also deterministic and
// gated in CI).
//
//   ./scale_sweep [--max-servers N]   (default sweeps 19/100/1k/10k)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "autoglobe/landscape_gen.h"
#include "autoglobe/runner.h"
#include "bench_util.h"
#include "common/logging.h"

namespace {

using namespace autoglobe;

// Parses a VmRSS/VmHWM line ("VmRSS:   123456 kB") into megabytes.
double ProcStatusMb(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      mb = std::atof(line + field_len + 1) / 1024.0;
      break;
    }
  }
  std::fclose(file);
  return mb;
}

bench::BenchRecord SweepOne(int num_servers) {
  LandscapeGenSpec spec = MakeScaleSpec(num_servers);
  uint64_t create_allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  bench::WallTimer create_timer;
  auto landscape = GenerateLandscape(spec);
  AG_CHECK_OK(landscape.status());

  RunnerConfig config;
  config.tick = Duration::Minutes(1);
  config.duration = Duration::Hours(4);
  config.seed = 42;
  // Zero fluctuation + zero demand noise keep inactive services
  // bitwise-constant, so only the fixed active set dirties per tick.
  config.fluctuation_per_minute = 0.0;
  // One-hour retention bounds what a varying subject's raw runs
  // reserve: the sweep does not read the default 48 h history.
  config.archive_retention = Duration::Hours(1);
  config.archive_bucket = Duration::Minutes(15);
  config.controller.pool_prescreen = true;

  auto runner = SimulationRunner::Create(*landscape, config);
  AG_CHECK_OK(runner.status());
  double create_seconds = create_timer.Seconds();
  uint64_t create_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - create_allocs0;

  // Warm up past the retention horizon so ring eviction (the true
  // steady state) is active before measurement starts.
  const Duration warmup = Duration::Minutes(70);
  AG_CHECK_OK((*runner)->RunUntil(SimTime::Start() + warmup));

  const int64_t ticks = 120;
  const monitor::LoadMonitoringSystem& mon = (*runner)->monitoring();
  int64_t evals0 = mon.evaluations();
  int64_t skips0 = mon.skips();
  uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  bench::WallTimer timer;
  AG_CHECK_OK((*runner)->RunUntil(SimTime::Start() + warmup +
                                  Duration::Minutes(ticks)));
  double seconds = timer.Seconds();
  uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs0;

  const double n_ticks = static_cast<double>(ticks);
  bench::BenchRecord record;
  record.name = "scale_sweep/" + std::to_string(num_servers);
  record.wall_seconds = seconds;
  record.items_per_second = n_ticks / seconds;  // sim-minutes per second
  record.extra["servers"] = static_cast<double>(num_servers);
  record.extra["services"] = static_cast<double>(spec.num_services);
  record.extra["active_services"] =
      static_cast<double>(spec.active_services);
  record.extra["ticks"] = n_ticks;
  record.extra["allocs_per_tick"] = static_cast<double>(allocs) / n_ticks;
  record.extra["evals_per_tick"] =
      static_cast<double>(mon.evaluations() - evals0) / n_ticks;
  record.extra["skips_per_tick"] =
      static_cast<double>(mon.skips() - skips0) / n_ticks;
  record.extra["tick_micros"] = seconds / n_ticks * 1e6;
  record.extra["triggers"] =
      static_cast<double>((*runner)->metrics().triggers);
  record.extra["vm_rss_mb"] = ProcStatusMb("VmRSS:");
  record.extra["vm_hwm_mb"] = ProcStatusMb("VmHWM:");
  record.extra["create_ms"] = create_seconds * 1e3;
  record.extra["create_allocs"] = static_cast<double>(create_allocs);
  record.extra["archive_bytes_per_subject"] =
      static_cast<double>((*runner)->archive().StorageBytes()) /
      static_cast<double>(num_servers + spec.num_services);
  std::printf(
      "%-18s %8.1f sim-min/s  tick %8.1f us  evals/tick %7.1f  "
      "skips/tick %8.1f  allocs/tick %6.2f  rss %7.1f MB  "
      "create %7.2f ms / %llu allocs  archive %6.1f B/subject\n",
      record.name.c_str(), record.items_per_second,
      record.extra["tick_micros"], record.extra["evals_per_tick"],
      record.extra["skips_per_tick"], record.extra["allocs_per_tick"],
      record.extra["vm_rss_mb"], record.extra["create_ms"],
      static_cast<unsigned long long>(create_allocs),
      record.extra["archive_bytes_per_subject"]);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  int max_servers = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-servers") == 0 && i + 1 < argc) {
      max_servers = std::atoi(argv[++i]);
    }
  }
  std::vector<bench::BenchRecord> records;
  for (int size : {19, 100, 1000, 10000}) {
    if (size > max_servers) break;
    records.push_back(SweepOne(size));
  }
  bench::WriteBenchJson("BENCH_scale.json", records);
  return 0;
}
