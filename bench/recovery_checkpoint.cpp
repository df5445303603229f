// Checkpoint/restore cost trajectory (BENCH_recovery.json): for the
// paper landscape and a generated 1k-server fleet, measures how long
// one full checkpoint takes (serialize + container encode + durable
// write), how big the snapshot is on disk, and how long a cold
// restore takes (read + decode + rebuild a runner and overwrite its
// state). Before reporting any number, the harness proves the restore
// is *correct*: the restored runner's re-serialized sections must be
// byte-identical to the source runner's, and a restored run continued
// to the end must match the uninterrupted run bit for bit. It also
// records each direction's heap transient — the most one checkpoint
// or one restore holds at its peak beyond what it leaves behind — which
// streaming keeps to about one section payload. CI gates the size,
// latency and transient columns (see ci.yml, crash-recovery job).
//
//   ./recovery_checkpoint

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "autoglobe/landscape_gen.h"
#include "bench_util.h"
#include "common/fileio.h"
#include "common/logging.h"
#include "persist/runner_checkpoint.h"
#include "persist/snapshot.h"

namespace {

using namespace autoglobe;

using Sections = std::vector<std::pair<std::string, std::string>>;

// One measured row: run `landscape` to its midpoint, checkpoint it
// `reps` times (timing serialize+encode+write), then restore `reps`
// times (timing read+decode+rebuild), verifying byte parity each way.
bench::BenchRecord MeasureOne(const std::string& name,
                              const Landscape& landscape,
                              const RunnerConfig& config) {
  auto runner = SimulationRunner::Create(landscape, config);
  AG_CHECK_OK(runner.status());
  const SimTime midpoint = SimTime::Start() + config.duration / 2;
  AG_CHECK_OK((*runner)->RunUntil(midpoint));

  const std::string path = "/tmp/recovery_bench_" + name + ".agsnap";
  const int reps = 20;

  // Checkpoint: sections -> container -> durable file.
  bench::WallTimer checkpoint_timer;
  for (int i = 0; i < reps; ++i) {
    AG_CHECK_OK(persist::SaveRunnerSnapshot(**runner, path));
  }
  double checkpoint_ms = checkpoint_timer.Seconds() * 1000.0 / reps;

  auto bytes = ReadFileToString(path);
  AG_CHECK_OK(bytes.status());

  // Heap transients of one checkpoint and one restore.
  ResetHeapHighWater();
  AG_CHECK_OK(persist::SaveRunnerSnapshot(**runner, path));
  const int64_t checkpoint_transient = HeapTransientBytes();
  int64_t restore_transient = 0;
  {
    std::unique_ptr<SimulationRunner> revived;
    ResetHeapHighWater();
    {
      auto snapshot =
          persist::ReadSnapshotFile(path, (*runner)->StateFingerprint());
      AG_CHECK_OK(snapshot.status());
      auto restored_once = persist::RestoreRunner(landscape, config, *snapshot);
      AG_CHECK_OK(restored_once.status());
      revived = std::move(*restored_once);
    }
    restore_transient = HeapTransientBytes();
  }

  // Restore: file -> decode -> fresh runner with overwritten state.
  std::unique_ptr<SimulationRunner> restored;
  bench::WallTimer restore_timer;
  for (int i = 0; i < reps; ++i) {
    auto snapshot =
        persist::ReadSnapshotFile(path, (*runner)->StateFingerprint());
    AG_CHECK_OK(snapshot.status());
    auto revived = persist::RestoreRunner(landscape, config, *snapshot);
    AG_CHECK_OK(revived.status());
    restored = std::move(*revived);
  }
  double restore_ms = restore_timer.Seconds() * 1000.0 / reps;

  // Correctness gate 1: the restored runner re-serializes to the very
  // bytes the source produced.
  Sections original, revived_sections;
  AG_CHECK_OK((*runner)->SaveStateSections(&original));
  AG_CHECK_OK(restored->SaveStateSections(&revived_sections));
  AG_CHECK(original == revived_sections);

  // Correctness gate 2: continuing both to the end stays bit-identical.
  const SimTime end = SimTime::Start() + config.duration;
  AG_CHECK_OK((*runner)->RunUntil(end));
  AG_CHECK_OK(restored->RunUntil(end));
  Sections final_a, final_b;
  AG_CHECK_OK((*runner)->SaveStateSections(&final_a));
  AG_CHECK_OK(restored->SaveStateSections(&final_b));
  AG_CHECK(final_a == final_b);

  AG_CHECK_OK(RemoveFileIfExists(path));

  bench::BenchRecord record;
  record.name = "recovery/" + name;
  record.wall_seconds = checkpoint_ms / 1000.0;
  record.items_per_second =
      static_cast<double>(bytes->size()) / (checkpoint_ms / 1000.0);
  record.extra["checkpoint_write_ms"] = checkpoint_ms;
  record.extra["restore_ms"] = restore_ms;
  record.extra["snapshot_bytes"] = static_cast<double>(bytes->size());
  record.extra["checkpoint_heap_transient_bytes"] =
      static_cast<double>(checkpoint_transient);
  record.extra["restore_heap_transient_bytes"] =
      static_cast<double>(restore_transient);
  record.extra["servers"] = static_cast<double>(landscape.servers.size());
  record.extra["parity_verified"] = 1.0;
  std::printf(
      "%-18s %7.2f ms checkpoint, %7.2f ms restore, %9zu bytes "
      "(%zu servers), heap transient %lld B checkpoint, %lld B restore\n",
      name.c_str(), checkpoint_ms, restore_ms, bytes->size(),
      landscape.servers.size(), static_cast<long long>(checkpoint_transient),
      static_cast<long long>(restore_transient));
  return record;
}

LandscapeGenSpec FleetSpec() {
  LandscapeGenSpec spec;
  spec.seed = 7;
  spec.pools.push_back({"Pool", 1000, 1.0, 4, 2.0, 1.0, 16.0});
  spec.num_services = 500;
  spec.active_services = 32;
  spec.instances_per_service = 2;
  return spec;
}

}  // namespace

int main() {
  std::vector<bench::BenchRecord> records;

  {
    Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
    RunnerConfig config =
        MakeScenarioConfig(Scenario::kFullMobility, 1.15, 42);
    config.duration = Duration::Hours(8);
    records.push_back(MeasureOne("paper_fm", landscape, config));
  }

  {
    auto landscape = GenerateLandscape(FleetSpec());
    AG_CHECK_OK(landscape.status());
    RunnerConfig config;
    config.tick = Duration::Minutes(1);
    config.duration = Duration::Hours(4);
    config.seed = 42;
    config.fluctuation_per_minute = 0.0;
    // Bounded archive keeps the 1k-server snapshot a measurement of
    // the codec, not of an unbounded history ring.
    config.archive_retention = Duration::Hours(1);
    config.archive_bucket = Duration::Minutes(15);
    config.controller.pool_prescreen = true;
    records.push_back(MeasureOne("fleet_1k", *landscape, config));
  }

  bench::WriteBenchJson("BENCH_recovery.json", records);
  return 0;
}
