// agbench: runs one benchmark workload and prints its raw samples as a
// single JSON object on the last line of stdout (run.py reduces them
// to metrics). Every workload is a closed-loop batch job on one thread
// with a fixed input size, repeated until --seconds have passed:
//
//   fleet_10k    a generated 10,000-server fleet at user scale 1.5:
//                70 min warm-up, then 2000 ticks inside one RunUntil,
//                each timed through the sample hook, then a checkpoint
//                written and restored at a fixed simulated time.
//   seed_batch   64 lanes of the static 24 h paper scenario stepped in
//                lockstep by one BatchRunner, on both RNG planes.
//
// With --trace 1 the job runs twice — untraced, then with spans around
// every call the benchmark makes — and the per-layer probes (layers.h)
// run on the workload's own inputs. Spans are written to --spans-out.
//
//   agbench --workload NAME --seed N --seconds S --trace 0|1
//           [--spans-out FILE] [--scratch-dir DIR]

#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autoglobe/batch_runner.h"
#include "autoglobe/capacity.h"
#include "autoglobe/landscape.h"
#include "autoglobe/landscape_gen.h"
#include "autoglobe/runner.h"
#include "common/logging.h"
#include "layers.h"
#include "persist/checkpoint_store.h"
#include "persist/runner_checkpoint.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace autoglobe;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string scratch_dir = ".bench_build/scratch";
};

// A failed output check; it also fails the unit it belongs to.
struct Check {
  std::string name;
  std::string detail;
};

// Raw samples of one pass over the job (untraced or traced).
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> units_ms;  // batch: one xoshiro-plane batch each
  /// fleet: one row per measured tick {wall ns, actions, triggers}.
  std::vector<std::array<int64_t, 3>> ticks;
  /// Timed windows {simulated minutes, wall seconds}: one per
  /// repetition's 2000 ticks, or per philox-plane batch.
  std::vector<std::array<double, 2>> windows;
  /// Determinism counts of the pass's first repetition.
  std::map<std::string, int64_t> counts;
  /// Informational end-to-end figures (printed, not gated).
  std::map<std::string, double> info;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Check> checks;
  std::vector<Pass> passes;
  Metrics layers;
  size_t spans = 0;

  // Records a unit of work and whether all of its checks held.
  void Unit(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool Expect(const std::string& name, bool ok, const std::string& detail) {
    if (!ok) checks.push_back({name, detail});
    return ok;
  }
};

// The untraced pass reports a p50, which needs ten samples beyond it;
// the traced pass only compares medians.
int MinUnits(bool traced) { return traced ? 5 : 20; }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

bool SameRunMetrics(const RunMetrics& a, const RunMetrics& b) {
  return a.overload_server_minutes == b.overload_server_minutes &&
         a.max_overload_streak_minutes == b.max_overload_streak_minutes &&
         a.overload_fraction == b.overload_fraction &&
         a.lost_work_wu == b.lost_work_wu &&
         a.average_cpu_load == b.average_cpu_load &&
         a.triggers == b.triggers &&
         a.actions_executed == b.actions_executed &&
         a.actions_failed == b.actions_failed && a.alerts == b.alerts &&
         a.failures_injected == b.failures_injected &&
         a.failures_remedied == b.failures_remedied &&
         a.sla_violation_minutes == b.sla_violation_minutes &&
         a.oscillations == b.oscillations &&
         a.strategy_reward_updates == b.strategy_reward_updates &&
         a.strategy_weight_updates == b.strategy_weight_updates;
}

// Compares a repetition's determinism counts with the first pass's.
void ExpectSameCounts(Outcome* out, const std::map<std::string, int64_t>& a,
                      const std::map<std::string, int64_t>& b) {
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    int64_t other = it == b.end() ? -1 : it->second;
    out->Expect("counts." + name, other == value,
                std::to_string(value) + " vs " + std::to_string(other));
  }
}

// Collects per-tick wall time plus action/trigger deltas from the
// sample hook; optionally records each tick as a span and captures
// the first `capture_limit` ticks' loads for the layer probes.
class TickRecorder {
 public:
  TickRecorder(SimulationRunner* runner, std::vector<std::array<int64_t, 3>>* rows,
               SpanRecorder* spans, std::vector<CapturedTick>* capture,
               size_t capture_limit)
      : runner_(runner),
        rows_(rows),
        spans_(spans),
        capture_(capture),
        capture_limit_(capture_limit) {}

  // Arms the recorder right before the timed RunUntil.
  void Start() {
    last_ns_ = NowNs();
    last_actions_ = runner_->metrics().actions_executed;
    last_triggers_ = runner_->metrics().triggers;
    runner_->set_sample_hook([this](SimTime now,
                                    const workload::DemandEngine& demand,
                                    const infra::Cluster& cluster) {
      OnTick(now, demand, cluster);
    });
  }
  void Stop() { runner_->set_sample_hook(nullptr); }

 private:
  void OnTick(SimTime now, const workload::DemandEngine& demand,
              const infra::Cluster& cluster) {
    int64_t now_ns = NowNs();
    int64_t actions = runner_->metrics().actions_executed;
    int64_t triggers = runner_->metrics().triggers;
    rows_->push_back({now_ns - last_ns_, actions - last_actions_,
                      triggers - last_triggers_});
    if (spans_ != nullptr) {
      spans_->Record(actions > last_actions_ ? "autoglobe.tick.action"
                                             : "autoglobe.tick.quiet",
                     last_ns_, now_ns);
    }
    if (capture_ != nullptr && capture_->size() < capture_limit_) {
      capture_->push_back(CaptureTick(now, demand, cluster));
    }
    last_actions_ = actions;
    last_triggers_ = triggers;
    last_ns_ = NowNs();  // capture time is not billed to the next tick
  }

  SimulationRunner* runner_;
  std::vector<std::array<int64_t, 3>>* rows_;
  SpanRecorder* spans_;
  std::vector<CapturedTick>* capture_;
  size_t capture_limit_;
  int64_t last_ns_ = 0;
  int64_t last_actions_ = 0;
  int64_t last_triggers_ = 0;
};

// Writes the traced pass's spans at exit; a failed write fails the run.
void WriteSpans(const Args& args, const SpanRecorder& spans, Outcome* out) {
  out->spans = spans.spans().size();
  if (args.spans_out.empty()) return;
  out->Unit(out->Expect("spans.write", spans.WriteJson(args.spans_out),
                        "cannot write " + args.spans_out));
}

// Median ns of the quiet and the action ticks among `rows`.
std::pair<double, double> TickMedians(
    const std::vector<std::array<int64_t, 3>>& rows) {
  std::vector<double> quiet, action;
  for (const auto& row : rows) {
    (row[1] > 0 ? action : quiet).push_back(static_cast<double>(row[0]));
  }
  return {Median(std::move(quiet)), Median(std::move(action))};
}

// Fills the per-layer metrics the workload measures itself (counts and
// tick splits) next to the probe results.
void WorkloadLayerMetrics(const std::map<std::string, int64_t>& counts,
                          const std::vector<std::array<int64_t, 3>>& ticks,
                          double quiet_attributed_ns, Metrics* layers) {
  auto count = [&](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  double evaluations = count("monitor_evaluations");
  double skips = count("monitor_skips");
  double tick_count = count("ticks");
  (*layers)["monitor.evaluations"] = evaluations;
  (*layers)["monitor.skips"] = skips;
  (*layers)["monitor.eval_ratio"] =
      evaluations + skips > 0 ? evaluations / (evaluations + skips) : 0.0;
  (*layers)["controller.actions_per_trigger"] =
      count("triggers") > 0 ? count("actions") / count("triggers") : 0.0;
  (*layers)["sim.events_per_tick"] =
      tick_count > 0 ? count("events") / tick_count : 0.0;
  auto [quiet_ns, action_ns] = TickMedians(ticks);
  (*layers)["autoglobe.quiet_tick_ns"] = quiet_ns;
  (*layers)["autoglobe.action_tick_ns"] = action_ns;
  (*layers)["autoglobe.unattributed_ns"] = quiet_ns - quiet_attributed_ns;
}

// Share of the quiet tick the probes account for: one demand tick, one
// histogram observe per server, one monitor observe per subject.
double QuietAttributedNs(const Metrics& layers, size_t servers,
                         size_t services) {
  auto get = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second;
  };
  return get("workload.tick_ns") +
         static_cast<double>(servers) * get("obs.histogram_observe_ns") +
         static_cast<double>(servers + services) * get("monitor.observe_ns");
}

// Runs a scalar runner to its end with the tick recorder attached,
// for the per-layer context of seed_batch, whose timed job has no
// hookable runner.
struct ScalarContext {
  Landscape landscape;
  RunnerConfig config;
  std::unique_ptr<SimulationRunner> runner;
  std::vector<std::array<int64_t, 3>> ticks;
  std::vector<CapturedTick> captured;
  std::map<std::string, int64_t> counts;
};

Status RunScalarContext(ScalarContext* ctx, SpanRecorder* spans) {
  ScopedSpan span(spans, "autoglobe.context_run");
  AG_ASSIGN_OR_RETURN(ctx->runner,
                      SimulationRunner::Create(ctx->landscape, ctx->config));
  TickRecorder recorder(ctx->runner.get(), &ctx->ticks, spans,
                        &ctx->captured, 1u << 20);
  recorder.Start();
  {
    ScopedSpan run(spans, "autoglobe.SimulationRunner::RunUntil");
    AG_RETURN_IF_ERROR(ctx->runner->Run());
  }
  recorder.Stop();
  const SimulationRunner& r = *ctx->runner;
  ctx->counts = {{"ticks", static_cast<int64_t>(ctx->ticks.size())},
                 {"triggers", r.metrics().triggers},
                 {"actions", r.metrics().actions_executed},
                 {"monitor_evaluations", r.monitoring().evaluations()},
                 {"monitor_skips", r.monitoring().skips()},
                 {"events", static_cast<int64_t>(
                                r.simulator().dispatched_events())}};
  return Status::OK();
}

// Runs the context to its end, then the layer probes on its live
// runner; the whole probe phase counts as one unit of work.
void ProbeScalarContext(const Args& args, ScalarContext* ctx,
                        size_t batch_lanes, SpanRecorder* spans,
                        Outcome* out) {
  Status status = RunScalarContext(ctx, spans);
  std::string error = status.ok() ? "" : status.ToString();
  if (error.empty()) {
    ProbeContext probe;
    probe.landscape = &ctx->landscape;
    probe.config = ctx->config;
    probe.runner = ctx->runner.get();
    probe.ticks = &ctx->captured;
    probe.seed = args.seed;
    probe.batch_lanes = batch_lanes;
    probe.heavy_reps = 10;
    probe.scratch_dir = args.scratch_dir;
    out->layers = ProbeLayers(probe, spans, &error);
    WorkloadLayerMetrics(
        ctx->counts, ctx->ticks,
        QuietAttributedNs(out->layers, ctx->captured.back().server_cpu.size(),
                          ctx->captured.back().service_load.size()),
        &out->layers);
  }
  out->Unit(out->Expect("layers.probes", error.empty(), error));
  WriteSpans(args, *spans, out);
}

// ---------------------------------------------------------------------------
// fleet_10k
// ---------------------------------------------------------------------------

// The canonical scale-sweep fleet (MakeScaleSpec's default spec seed).
// Between generated fleets the number of action ticks in the window
// ranges from about 100 to 190, which moves sim-min/s by ~20 %; one
// fixed fleet keeps the work per repetition fixed. The workload seed
// is the runner seed.
constexpr int kFleetServers = 10000;
constexpr uint64_t kFleetSpecSeed = 1;
constexpr int64_t kFleetWarmupMin = 70;
constexpr int64_t kFleetTicks = 2000;

RunnerConfig FleetConfig(uint64_t seed) {
  // The scale_sweep configuration: zero fluctuation keeps inactive
  // services constant, one-hour retention bounds the archive rings,
  // and the pool prescreen keeps host ranking O(pools + pool size).
  RunnerConfig config;
  config.tick = Duration::Minutes(1);
  config.duration = Duration::Minutes(kFleetWarmupMin + kFleetTicks);
  config.seed = seed;
  config.user_scale = 1.5;
  config.fluctuation_per_minute = 0.0;
  config.archive_retention = Duration::Hours(1);
  config.archive_bucket = Duration::Minutes(15);
  config.controller.pool_prescreen = true;
  return config;
}

// One repetition: build, warm up, 2000 hooked ticks in one RunUntil,
// then checkpoint and restore. With `spans`, the probes run on the
// live runner before it is torn down.
void FleetRep(const Args& args, SpanRecorder* spans, Pass* pass,
              std::map<std::string, int64_t>* counts, Outcome* out) {
  ScopedSpan rep_span(spans, "fleet.repetition");
  const RunnerConfig config = FleetConfig(args.seed);
  int64_t setup_start = NowNs();
  Result<Landscape> landscape = [&] {
    ScopedSpan span(spans, "autoglobe.GenerateLandscape");
    return GenerateLandscape(MakeScaleSpec(kFleetServers, kFleetSpecSeed));
  }();
  AG_CHECK_OK(landscape.status());
  Result<std::unique_ptr<SimulationRunner>> created = [&] {
    ScopedSpan span(spans, "autoglobe.SimulationRunner::Create");
    return SimulationRunner::Create(*landscape, config);
  }();
  AG_CHECK_OK(created.status());
  pass->setup_s.push_back(SecondsSince(setup_start));
  std::unique_ptr<SimulationRunner> runner = std::move(*created);

  const SimTime warm = SimTime::Start() + Duration::Minutes(kFleetWarmupMin);
  const SimTime end = warm + Duration::Minutes(kFleetTicks);
  int64_t warm_start = NowNs();
  {
    ScopedSpan span(spans, "autoglobe.RunUntil.warmup");
    AG_CHECK_OK(runner->RunUntil(warm));
  }
  pass->info["warmup_s"] = SecondsSince(warm_start);

  const RunMetrics before = runner->metrics();
  const int64_t evals0 = runner->monitoring().evaluations();
  const int64_t skips0 = runner->monitoring().skips();
  const uint64_t events0 = runner->simulator().dispatched_events();
  std::vector<std::array<int64_t, 3>> ticks;
  std::vector<CapturedTick> captured;
  TickRecorder recorder(runner.get(), &ticks, spans,
                        spans != nullptr ? &captured : nullptr, 60);
  int64_t run_start = NowNs();
  {
    ScopedSpan span(spans, "autoglobe.RunUntil.measured");
    recorder.Start();
    AG_CHECK_OK(runner->RunUntil(end));
    recorder.Stop();
  }
  pass->windows.push_back(
      {static_cast<double>(kFleetTicks), SecondsSince(run_start)});
  bool ok = out->Expect("fleet.tick_count",
                        ticks.size() == static_cast<size_t>(kFleetTicks),
                        std::to_string(ticks.size()) + " hooked ticks");

  int64_t action_ticks = 0;
  for (const auto& row : ticks) action_ticks += row[1] > 0 ? 1 : 0;
  const RunMetrics& m = runner->metrics();
  std::map<std::string, int64_t> rep_counts = {
      {"ticks", static_cast<int64_t>(ticks.size())},
      {"triggers", m.triggers - before.triggers},
      {"actions", m.actions_executed - before.actions_executed},
      {"action_ticks", action_ticks},
      {"monitor_evaluations", runner->monitoring().evaluations() - evals0},
      {"monitor_skips", runner->monitoring().skips() - skips0},
      {"events", static_cast<int64_t>(runner->simulator().dispatched_events() -
                                      events0)}};

  // Checkpoint at the fixed end time, then restore into a fresh runner.
  std::error_code ec;
  const std::string dir = args.scratch_dir + "/fleet_ckpt";
  std::filesystem::remove_all(dir, ec);
  Result<persist::CheckpointStore> store = persist::CheckpointStore::Open(dir, 1);
  AG_CHECK_OK(store.status());
  int64_t write_start = NowNs();
  Result<std::string> path = [&] {
    ScopedSpan span(spans, "persist.CheckpointRunner");
    return persist::CheckpointRunner(*runner, &*store);
  }();
  AG_CHECK_OK(path.status());
  pass->info["checkpoint_write_s"] = SecondsSince(write_start);
  rep_counts["persist_bytes"] =
      static_cast<int64_t>(std::filesystem::file_size(*path));

  const uint64_t fingerprint = runner->StateFingerprint();
  const RunMetrics original = runner->metrics();
  if (spans != nullptr) {
    // Per-layer probes on the live, checkpointed runner.
    ProbeContext probe;
    probe.landscape = &*landscape;
    probe.config = config;
    probe.runner = runner.get();
    probe.ticks = &captured;
    probe.seed = args.seed;
    probe.batch_lanes = 4;
    probe.heavy_reps = 2;
    probe.scratch_dir = args.scratch_dir + "/probe_ckpt";
    std::string error;
    out->layers = ProbeLayers(probe, spans, &error);
    ok &= out->Expect("layers.probes", error.empty(), error);
    WorkloadLayerMetrics(
        rep_counts, ticks,
        QuietAttributedNs(out->layers, captured.back().server_cpu.size(),
                          captured.back().service_load.size()),
        &out->layers);
  }
  runner.reset();  // the restore below needs the memory, not the original

  int64_t restore_start = NowNs();
  {
    ScopedSpan span(spans, "persist.restore");
    Result<persist::CheckpointStore::Loaded> loaded =
        store->LoadLatest(fingerprint);
    AG_CHECK_OK(loaded.status());
    Result<std::unique_ptr<SimulationRunner>> restored =
        persist::RestoreRunner(*landscape, config, loaded->data);
    AG_CHECK_OK(restored.status());
    pass->info["checkpoint_restore_s"] = SecondsSince(restore_start);
    ok &= out->Expect("fleet.restore_fingerprint",
                      (*restored)->StateFingerprint() == fingerprint,
                      "restored fingerprint differs");
    ok &= out->Expect("fleet.restore_metrics",
                      SameRunMetrics((*restored)->metrics(), original),
                      "restored RunMetrics differ");
  }
  std::filesystem::remove_all(dir, ec);

  if (counts->empty()) {
    *counts = rep_counts;
  } else {
    size_t failed_before = out->checks.size();
    ExpectSameCounts(out, *counts, rep_counts);
    ok &= out->checks.size() == failed_before;
  }
  out->Unit(ok);
  pass->ticks.insert(pass->ticks.end(), ticks.begin(), ticks.end());
}

// Extra set-up samples (build + Create, then torn down) taken after
// each repetition has freed its runners, so setup_s is a median over
// set-ups spread through the run, all made on a heap that has held a
// fleet before — like the one each repetition times. With a null
// `pass` the set-up only warms the heap up.
constexpr int kFleetSetupsPerRep = 6;

void FleetSetupSamples(const Args& args, int samples, Pass* pass) {
  for (int i = 0; i < samples; ++i) {
    int64_t start = NowNs();
    Result<Landscape> landscape =
        GenerateLandscape(MakeScaleSpec(kFleetServers, kFleetSpecSeed));
    AG_CHECK_OK(landscape.status());
    auto runner = SimulationRunner::Create(*landscape, FleetConfig(args.seed));
    AG_CHECK_OK(runner.status());
    if (pass != nullptr) pass->setup_s.push_back(SecondsSince(start));
  }
}

void RunFleet(const Args& args, Outcome* out) {
  std::map<std::string, int64_t> counts;
  Pass untraced;
  FleetSetupSamples(args, 1, nullptr);
  const int64_t start = NowNs();
  // Whole repetitions only: another one starts when it is expected to
  // end inside the budget. At least two, so the determinism counts are
  // compared within the run.
  const int min_reps = args.trace ? 1 : 2;
  const double budget = args.trace ? 0.4 * args.seconds : args.seconds;
  for (int rep = 0;; ++rep) {
    double elapsed = SecondsSince(start);
    double per_rep = rep > 0 ? elapsed / rep : 0.0;
    if (rep >= min_reps && elapsed + per_rep > budget) break;
    FleetRep(args, nullptr, &untraced, &counts, out);
    FleetSetupSamples(args, kFleetSetupsPerRep, &untraced);
  }
  untraced.counts = counts;
  out->passes.push_back(std::move(untraced));
  if (!args.trace) return;

  SpanRecorder spans;
  Pass traced;
  FleetRep(args, &spans, &traced, &counts, out);
  traced.counts = counts;
  out->passes.push_back(std::move(traced));
  WriteSpans(args, spans, out);
}

// ---------------------------------------------------------------------------
// seed_batch
// ---------------------------------------------------------------------------

constexpr size_t kLanes = 64;

RunnerConfig BatchConfig(RngKind kind) {
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
  config.duration = Duration::Hours(24);
  config.metrics_warmup = Duration::Hours(4);
  config.rng_kind = kind;
  return config;
}

// Lanes as in bench/batch_engine.cpp, offset by the workload seed:
// seeds and scales both vary, so calm and overloaded lanes mix.
std::vector<BatchLane> BatchLanes(uint64_t seed) {
  std::vector<BatchLane> lanes;
  for (size_t i = 0; i < kLanes; ++i) {
    lanes.push_back(BatchLane{seed + 17 * static_cast<uint64_t>(i),
                              1.0 + 0.05 * static_cast<double>(i % 9)});
  }
  return lanes;
}

bool SameLanes(const BatchRunner& batch, const std::vector<RunMetrics>& ref) {
  for (size_t i = 0; i < kLanes; ++i) {
    if (!SameRunMetrics(batch.metrics(i), ref[i])) return false;
  }
  return true;
}

void RunSeedBatch(const Args& args, Outcome* out) {
  const RngKind kinds[2] = {RngKind::kXoshiro, RngKind::kPhilox};
  const std::vector<BatchLane> lanes = BatchLanes(args.seed);

  // Parity before any timing: every lane against a scalar run.
  std::vector<RunMetrics> reference[2];
  for (int p = 0; p < 2; ++p) {
    const RunnerConfig config = BatchConfig(kinds[p]);
    Landscape landscape = MakePaperLandscape(Scenario::kStatic);
    for (const BatchLane& lane : lanes) {
      RunnerConfig lane_config = config;
      lane_config.seed = lane.seed;
      lane_config.user_scale = lane.user_scale;
      auto runner = SimulationRunner::Create(landscape, lane_config);
      AG_CHECK_OK(runner.status());
      AG_CHECK_OK((*runner)->Run());
      reference[p].push_back((*runner)->metrics());
    }
  }

  std::map<std::string, int64_t> counts;
  for (int p = 0; p < 2; ++p) {
    int64_t triggers = 0, overload_lanes = 0;
    for (const RunMetrics& m : reference[p]) {
      triggers += m.triggers;
      overload_lanes += m.overload_server_minutes > 0 ? 1 : 0;
    }
    const char* plane = p == 0 ? "xoshiro" : "philox";
    counts[std::string("triggers_") + plane] = triggers;
    counts[std::string("overloaded_lanes_") + plane] = overload_lanes;
  }

  // A set-up builds both planes afresh: the landscape, Create and the
  // cold first Run. It is timed every kBatchUnitsPerSetup units, so the
  // set-up samples spread through the run; the first, untimed, only
  // warms the heap up. Each plane's Rerun + Run is timed on its own:
  // the xoshiro batches give units_ms, the philox batches the windows.
  constexpr int kBatchUnitsPerSetup = 10;
  auto pass_fn = [&](double budget_s, SpanRecorder* spans) {
    Pass pass;
    std::unique_ptr<BatchRunner> batches[2];
    auto set_up = [&](bool timed) {
      for (auto& batch : batches) batch.reset();
      int64_t setup_start = NowNs();
      Landscape landscape = MakePaperLandscape(Scenario::kStatic);
      for (int p = 0; p < 2; ++p) {
        ScopedSpan span(spans, "autoglobe.BatchRunner::Create+Run");
        auto batch = BatchRunner::Create(landscape, BatchConfig(kinds[p]), lanes);
        AG_CHECK_OK(batch.status());
        AG_CHECK_OK((*batch)->Run());
        batches[p] = std::move(*batch);
      }
      if (timed) pass.setup_s.push_back(SecondsSince(setup_start));
      bool ok = true;
      for (int p = 0; p < 2; ++p) {
        ok &= out->Expect("batch.parity", SameLanes(*batches[p], reference[p]),
                          "a lane differs from its scalar run");
      }
      out->Unit(ok);
    };
    set_up(false);
    const int64_t start = NowNs();
    for (int unit = 0;; ++unit) {
      if (unit % kBatchUnitsPerSetup == 0) set_up(true);
      bool ok = true;
      for (int p = 0; p < 2; ++p) {
        int64_t plane_start = NowNs();
        {
          ScopedSpan span(spans, p == 0 ? "autoglobe.BatchRunner.xoshiro"
                                        : "autoglobe.BatchRunner.philox");
          {
            ScopedSpan rerun(spans, "autoglobe.BatchRunner::Rerun");
            AG_CHECK_OK(batches[p]->Rerun(lanes));
          }
          ScopedSpan run(spans, "autoglobe.BatchRunner::Run");
          AG_CHECK_OK(batches[p]->Run());
        }
        double plane_s = SecondsSince(plane_start);
        if (p == 0) {
          pass.units_ms.push_back(plane_s * 1e3);
        } else {
          pass.windows.push_back({kLanes * 24.0 * 60.0, plane_s});
        }
        ok &= out->Expect("batch.rerun_parity",
                          SameLanes(*batches[p], reference[p]),
                          "a rerun lane differs from its scalar run");
      }
      out->Unit(ok);
      if (SecondsSince(start) >= budget_s &&
          pass.units_ms.size() >=
              static_cast<size_t>(MinUnits(spans != nullptr))) {
        break;
      }
    }
    pass.counts = counts;
    out->passes.push_back(std::move(pass));
  };

  if (!args.trace) {
    pass_fn(args.seconds, nullptr);
    return;
  }
  SpanRecorder spans;
  pass_fn(0.35 * args.seconds, nullptr);
  pass_fn(0.35 * args.seconds, &spans);

  // Per-layer context: lane 0 as a scalar run of the same landscape.
  // The batched path has no controller, so the controller probes rank
  // over the static run's state and its action-tick figure stays 0.
  ScalarContext ctx;
  ctx.landscape = MakePaperLandscape(Scenario::kStatic);
  ctx.config = BatchConfig(RngKind::kXoshiro);
  ctx.config.seed = lanes[0].seed;
  ctx.config.user_scale = lanes[0].user_scale;
  ProbeScalarContext(args, &ctx, kLanes, &spans, out);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map>
std::string JsonObject(const Map& map) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + JsonNumber(static_cast<double>(value));
  }
  return out + "}";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

void PrintOutcome(const Args& args, const Outcome& out) {
  std::string json = "{\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"peak_rss_mb\": " + JsonNumber(PeakRssMb()) +
                     ", \"spans\": " + std::to_string(out.spans) +
                     ", \"checks\": [";
  for (size_t i = 0; i < out.checks.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"name\": " + JsonString(out.checks[i].name) +
            ", \"detail\": " + JsonString(out.checks[i].detail) + "}";
  }
  json += "], \"passes\": [";
  for (size_t p = 0; p < out.passes.size(); ++p) {
    const Pass& pass = out.passes[p];
    if (p > 0) json += ", ";
    json += "{\"setup_s\": " + JsonArray(pass.setup_s) +
            ", \"units_ms\": " + JsonArray(pass.units_ms) +
            ", \"windows\": [";
    for (size_t w = 0; w < pass.windows.size(); ++w) {
      if (w > 0) json += ", ";
      json += '[';
      json += JsonNumber(pass.windows[w][0]);
      json += ", ";
      json += JsonNumber(pass.windows[w][1]);
      json += ']';
    }
    json += "], \"counts\": " + JsonObject(pass.counts) +
            ", \"info\": " + JsonObject(pass.info) + ", \"ticks\": [";
    for (size_t t = 0; t < pass.ticks.size(); ++t) {
      json += t > 0 ? ",[" : "[";
      for (size_t k = 0; k < 3; ++k) {
        if (k > 0) json += ',';
        json += std::to_string(pass.ticks[t][k]);
      }
      json += ']';
    }
    json += "]}";
  }
  json += "], \"layers\": " + JsonObject(out.layers) + "}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--scratch-dir") {
      args->scratch_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: agbench --workload fleet_10k|seed_batch "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE] "
                 "[--scratch-dir DIR]\n");
    return 2;
  }
  perfbench::Outcome out;
  if (args.workload == "fleet_10k") {
    perfbench::RunFleet(args, &out);
  } else if (args.workload == "seed_batch") {
    perfbench::RunSeedBatch(args, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::PrintOutcome(args, out);
  return 0;
}
