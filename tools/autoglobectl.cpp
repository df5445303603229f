// autoglobectl — command-line front end to the AutoGlobe library.
//
//   autoglobectl export <out.xml> [--scenario fm]
//       Write the paper's SAP landscape (Figure 9/11, Tables 4-6) as
//       an XML description file.
//   autoglobectl validate <landscape.xml>
//       Parse a landscape description and materialize it under the
//       full constraint checks.
//   autoglobectl run <landscape.xml|paper> [--scenario fm]
//       [--scale 1.0] [--hours 80] [--seed 42] [--forecast]
//       [--static] [--verbose] [--trace-out run.trace.json]
//       [--metrics-out run.metrics.json]
//       Simulate the landscape under the fuzzy controller and print
//       the run summary plus final console snapshot. --trace-out
//       records structured trace events and writes them in the Chrome
//       trace_event format (open in chrome://tracing or Perfetto);
//       --metrics-out dumps the run's metrics registry as JSON.
//   autoglobectl explain <landscape.xml|paper> [--scenario fm]
//       [--scale 1.0] [--hours 80] [--seed 42] [--decision N]
//       Re-run with the controller decision audit trail enabled, list
//       every recorded decision, and print the full "explain" report
//       (fuzzified inputs, fired rules with activation degrees, ranked
//       actions/hosts, rejections, verdict) for decision N (default:
//       the last one).
//   autoglobectl capacity <landscape.xml|paper> [--scenario fm]
//       [--step 0.05] [--hours 80]
//       Sweep the user scale until the system becomes overloaded
//       (the Table 7 protocol).
//   autoglobectl design <landscape.xml|paper> [--out designed.xml]
//       Compute a statically optimized pre-assignment (the §7
//       landscape-designer tool) and optionally write it back out.
//   autoglobectl strategies [--scale 1.25] [--hours 24] [--seeds 3]
//       [--parallelism 0] [--fault-plan plan.xml] [--out bench.txt]
//       Run the controller head-to-head matrix — static fuzzy vs
//       proportional threshold vs fuzzy Q-learning, across the paper
//       scenarios (and a fault battery when given) — and print the
//       seed-mean comparison table.
//   autoglobectl availability [--scenario fm] [--scale 1.0]
//       [--hours 24] [--seed 42] [--reps 1] [--parallelism 1]
//       [--fault-plan plan.xml] [--crashes-per-hour 0.5]
//       [--server-failures-per-day 1] [--dropouts-per-day 0]
//       Run the fault-injected availability scenario (crash model +
//       heartbeat detection + self-healing recovery) and print the
//       MTTR / unavailability / objective-satisfaction scorecard.
//
// `run`, `explain`, `capacity`, and `strategies` accept --rng
// <xoshiro|philox> to pick the draw discipline (DESIGN.md §16); the
// flag overrides a landscape file's `rng` attribute, and the default
// stays the legacy xoshiro stream.
//
// `run` also accepts --fault-plan <plan.xml> to inject a fault
// schedule into an ordinary run (the availability report is printed
// after the summary), plus the strategy knobs: --strategy
// <static|proportional|qlearn> picks the decide-per-trigger policy,
// --strategy-config <strategy.xml> loads a full <strategy> block,
// and --load-weights / --save-weights round-trip the fuzzy
// Q-learner's learned weight table.
//
// Crash safety (DESIGN.md §17):
//   autoglobectl run ... --checkpoint-every <sim-minutes>
//       --checkpoint-dir <dir> [--checkpoint-keep 3]
//       Periodically serialize the full runner state into a
//       checksummed, generation-rotated snapshot under <dir>. On
//       SIGTERM/SIGINT the run stops at the next chunk boundary,
//       writes one final checkpoint, and exits cleanly.
//   autoglobectl run ... --restore-from <dir>
//       Resume from the newest loadable generation in <dir>
//       (corrupted generations are skipped with a warning) and run to
//       the configured end. The landscape/config must match the
//       snapshot's fingerprint.
//   autoglobectl checkpoint <dir>
//       Inspect a checkpoint directory: every generation is decoded
//       and verified, and its fingerprint, size, and sections are
//       printed. Exits nonzero if no generation is loadable.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autoglobe/availability.h"
#include "autoglobe/capacity.h"
#include "autoglobe/console.h"
#include "autoglobe/strategy_matrix.h"
#include "common/fileio.h"
#include "common/strings.h"
#include "designer/designer.h"
#include "faults/plan.h"
#include "persist/checkpoint_store.h"
#include "persist/runner_checkpoint.h"
#include "strategy/strategy.h"

using namespace autoglobe;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  /// Flag-syntax problems found while parsing (missing values); the
  /// command dispatcher refuses to run when any are present.
  std::vector<std::string> errors;
  bool Has(const std::string& flag) const {
    return options.count(flag) > 0;
  }
  std::string Get(const std::string& flag,
                  const std::string& fallback) const {
    auto it = options.find(flag);
    return it == options.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string key = arg.substr(2);
      // Boolean flags vs valued flags: a following non-flag token that
      // the flag expects becomes its value.
      bool takes_value = key == "scenario" || key == "scale" ||
                         key == "hours" || key == "seed" ||
                         key == "step" || key == "out" ||
                         key == "trace-out" || key == "metrics-out" ||
                         key == "decision" || key == "fault-plan" ||
                         key == "reps" || key == "parallelism" ||
                         key == "crashes-per-hour" ||
                         key == "server-failures-per-day" ||
                         key == "dropouts-per-day" ||
                         key == "action-windows-per-day" ||
                         key == "strategy" || key == "strategy-config" ||
                         key == "load-weights" || key == "save-weights" ||
                         key == "seeds" || key == "rng" ||
                         key == "checkpoint-every" ||
                         key == "checkpoint-dir" ||
                         key == "checkpoint-keep" ||
                         key == "restore-from";
      if (!takes_value) {
        args.options[key] = "true";
        continue;
      }
      // A valued flag must be followed by an actual value. Quietly
      // recording "true" here used to send the loaders chasing a file
      // literally named "true" — surface the real mistake instead.
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        args.errors.push_back("flag --" + key + " requires a value");
        continue;
      }
      args.options[key] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// SIGTERM/SIGINT request a clean stop: the checkpointing run loop
// finishes its current chunk, writes one final checkpoint, and exits.
volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

Result<Landscape> LoadLandscape(const std::string& source,
                                Scenario scenario) {
  if (source == "paper") return MakePaperLandscape(scenario);
  AG_ASSIGN_OR_RETURN(xml::Document doc, xml::Document::LoadFile(source));
  return Landscape::FromXml(*doc.root());
}

// Draw discipline of a command: an explicit --rng flag wins, else the
// landscape's serialized discipline (pass nullptr for commands that
// have no landscape), else the legacy xoshiro default.
Result<RngKind> RngArg(const Args& args, const Landscape* landscape) {
  if (args.Has("rng")) {
    RngKind kind;
    const std::string value = args.Get("rng", "");
    if (!ParseRngKind(value, &kind)) {
      return Status::InvalidArgument("unknown --rng value '" + value +
                                     "' (expected 'xoshiro' or 'philox')");
    }
    return kind;
  }
  if (landscape != nullptr) return landscape->rng_kind;
  return RngKind::kXoshiro;
}

Result<Scenario> ScenarioArg(const Args& args) {
  return ParseScenario(args.Get("scenario", "fm"));
}

int CmdExport(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: autoglobectl export <out.xml> "
                         "[--scenario fm]\n");
    return 1;
  }
  auto scenario = ScenarioArg(args);
  if (!scenario.ok()) return Fail(scenario.status());
  Landscape landscape = MakePaperLandscape(*scenario);
  xml::Document doc;
  landscape.ToXml(doc.SetRoot("landscape"));
  if (Status s = doc.SaveFile(args.positional[0]); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s (%zu servers, %zu services, scenario %s)\n",
              args.positional[0].c_str(), landscape.servers.size(),
              landscape.services.size(),
              std::string(ScenarioName(*scenario)).c_str());
  return 0;
}

int CmdValidate(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: autoglobectl validate <landscape.xml>\n");
    return 1;
  }
  auto scenario = ScenarioArg(args);
  if (!scenario.ok()) return Fail(scenario.status());
  auto landscape = LoadLandscape(args.positional[0], *scenario);
  if (!landscape.ok()) return Fail(landscape.status());
  infra::Cluster cluster;
  workload::DemandEngine engine(&cluster, Rng(1));
  if (Status s = landscape->Build(&cluster, &engine); !s.ok()) {
    return Fail(s);
  }
  std::printf("%s: OK (%zu servers, %zu services, %zu placed "
              "instances)\n",
              args.positional[0].c_str(), cluster.Servers().size(),
              cluster.Services().size(), cluster.total_instances());
  return 0;
}

int CmdRun(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: autoglobectl run <landscape.xml|paper> "
                 "[--scenario fm] [--scale 1.0] [--hours 80] "
                 "[--seed 42] [--forecast] [--static] [--verbose]\n");
    return 1;
  }
  auto scenario = ScenarioArg(args);
  if (!scenario.ok()) return Fail(scenario.status());
  auto landscape = LoadLandscape(args.positional[0], *scenario);
  if (!landscape.ok()) return Fail(landscape.status());

  auto scale = ParseDouble(args.Get("scale", "1.0"));
  auto hours = ParseInt(args.Get("hours", "80"));
  auto seed = ParseInt(args.Get("seed", "42"));
  if (!scale.ok()) return Fail(scale.status());
  if (!hours.ok()) return Fail(hours.status());
  if (!seed.ok()) return Fail(seed.status());

  RunnerConfig config = MakeScenarioConfig(
      *scenario, *scale, static_cast<uint64_t>(*seed));
  config.duration = Duration::Hours(*hours);
  auto rng = RngArg(args, &*landscape);
  if (!rng.ok()) return Fail(rng.status());
  config.rng_kind = *rng;
  config.use_forecast = args.Has("forecast");
  if (args.Has("static")) config.controller_enabled = false;
  if (args.Has("trace-out")) config.observability.enable_tracing = true;
  if (args.Has("fault-plan")) {
    auto plan = faults::FaultPlan::LoadFile(args.Get("fault-plan", ""));
    if (!plan.ok()) return Fail(plan.status());
    config.fault_plan = std::move(*plan);
  }
  if (args.Has("strategy-config")) {
    auto doc = xml::Document::LoadFile(args.Get("strategy-config", ""));
    if (!doc.ok()) return Fail(doc.status());
    auto strategy_config = strategy::StrategyConfigFromXml(*doc->root());
    if (!strategy_config.ok()) return Fail(strategy_config.status());
    config.strategy = *strategy_config;
  }
  if (args.Has("strategy")) {
    auto kind = strategy::ParseStrategyKind(args.Get("strategy", ""));
    if (!kind.ok()) return Fail(kind.status());
    config.strategy.kind = *kind;
  }
  if (args.Has("load-weights")) {
    config.strategy.load_weights_path = args.Get("load-weights", "");
  }
  if (args.Has("save-weights")) {
    config.strategy.save_weights_path = args.Get("save-weights", "");
  }

  auto checkpoint_every = ParseInt(args.Get("checkpoint-every", "0"));
  auto checkpoint_keep = ParseInt(args.Get("checkpoint-keep", "3"));
  if (!checkpoint_every.ok()) return Fail(checkpoint_every.status());
  if (!checkpoint_keep.ok()) return Fail(checkpoint_keep.status());
  const std::string checkpoint_dir = args.Get("checkpoint-dir", "");
  if (args.Has("checkpoint-every")) {
    if (*checkpoint_every <= 0) {
      return Fail(Status::InvalidArgument(
          "--checkpoint-every wants a positive sim-minute interval"));
    }
    if (checkpoint_dir.empty()) {
      return Fail(Status::InvalidArgument(
          "--checkpoint-every requires --checkpoint-dir <dir>"));
    }
  }

  auto runner = SimulationRunner::Create(*landscape, config);
  if (!runner.ok()) return Fail(runner.status());

  if (args.Has("restore-from")) {
    auto store = persist::CheckpointStore::Open(
        args.Get("restore-from", ""), static_cast<int>(*checkpoint_keep));
    if (!store.ok()) return Fail(store.status());
    auto loaded = store->LoadLatest((*runner)->StateFingerprint());
    if (!loaded.ok()) return Fail(loaded.status());
    for (const std::string& skip : loaded->skipped) {
      std::fprintf(stderr, "warning: skipped %s\n", skip.c_str());
    }
    auto restored = persist::RestoreRunner(*landscape, config, loaded->data);
    if (!restored.ok()) return Fail(restored.status());
    *runner = std::move(*restored);
    std::printf("restored from %s (sim time %lld s)\n",
                loaded->path.c_str(),
                static_cast<long long>(
                    (*runner)->simulator().now().seconds()));
  }

  const SimTime run_end = SimTime::Start() + config.duration;
  if (args.Has("checkpoint-every")) {
    auto store = persist::CheckpointStore::Open(
        checkpoint_dir, static_cast<int>(*checkpoint_keep));
    if (!store.ok()) return Fail(store.status());
    std::signal(SIGTERM, HandleStopSignal);
    std::signal(SIGINT, HandleStopSignal);
    const Duration chunk = Duration::Minutes(*checkpoint_every);
    while ((*runner)->simulator().now() < run_end) {
      SimTime next = (*runner)->simulator().now() + chunk;
      if (run_end < next) next = run_end;
      if (Status s = (*runner)->RunUntil(next); !s.ok()) return Fail(s);
      auto written = persist::CheckpointRunner(**runner, &*store);
      if (!written.ok()) return Fail(written.status());
      if (g_stop_requested) {
        std::printf(
            "stop signal received: wrote final checkpoint %s at sim "
            "time %lld s — resume with --restore-from %s\n",
            written->c_str(),
            static_cast<long long>(
                (*runner)->simulator().now().seconds()),
            checkpoint_dir.c_str());
        return 0;
      }
    }
  } else if (Status s = (*runner)->RunUntil(run_end); !s.ok()) {
    return Fail(s);
  }

  if (!config.strategy.save_weights_path.empty()) {
    if (Status s = (*runner)->strategy().SaveWeights(
            config.strategy.save_weights_path);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s\n", config.strategy.save_weights_path.c_str());
  }

  if (args.Has("trace-out")) {
    const std::string path = args.Get("trace-out", "");
    const obs::TraceBuffer* trace = (*runner)->trace_buffer();
    if (Status s = obs::ExportChromeTrace(*trace, path); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s (%zu trace events held, %llu recorded, %llu "
                "dropped)\n",
                path.c_str(), trace->size(),
                static_cast<unsigned long long>(trace->total_recorded()),
                static_cast<unsigned long long>(trace->dropped()));
  }
  if (args.Has("metrics-out")) {
    const std::string path = args.Get("metrics-out", "");
    obs::MetricsSnapshot snapshot = (*runner)->metrics_snapshot();
    if (Status s = snapshot.WriteJson(path); !s.ok()) return Fail(s);
    std::printf("wrote %s\n", path.c_str());
  }
  if (args.Has("verbose")) {
    for (const std::string& message : (*runner)->messages()) {
      std::printf("%s\n", message.c_str());
    }
    std::printf("\n");
  }
  const RunMetrics& m = (*runner)->metrics();
  std::string mode =
      config.controller_enabled
          ? (config.use_forecast ? "proactive controller" : "controller")
          : "no controller";
  if (config.controller_enabled &&
      config.strategy.kind != strategy::StrategyKind::kStaticFuzzy) {
    mode = std::string(strategy::StrategyKindName(config.strategy.kind));
  }
  std::printf(
      "ran %lld h at %.0f%% users (%s, %s): avg load %.1f%%, overload "
      "%.0f server-min (max streak %.0f min), %lld triggers, %lld "
      "actions, %lld alerts\n",
      static_cast<long long>(*hours), *scale * 100,
      std::string(ScenarioName(*scenario)).c_str(), mode.c_str(),
      m.average_cpu_load * 100, m.overload_server_minutes,
      m.max_overload_streak_minutes, static_cast<long long>(m.triggers),
      static_cast<long long>(m.actions_executed),
      static_cast<long long>(m.alerts));
  if (config.fault_plan.has_value()) {
    std::printf("\n%s", faults::RenderAvailabilityReport(
                            (*runner)->availability_report())
                            .c_str());
  }
  std::printf("\n%s", Console(runner->get()).Render().c_str());
  return 0;
}

int CmdAvailability(const Args& args) {
  auto scenario = ScenarioArg(args);
  if (!scenario.ok()) return Fail(scenario.status());
  auto scale = ParseDouble(args.Get("scale", "1.0"));
  auto hours = ParseInt(args.Get("hours", "24"));
  auto seed = ParseInt(args.Get("seed", "42"));
  auto reps = ParseInt(args.Get("reps", "1"));
  auto parallelism = ParseInt(args.Get("parallelism", "1"));
  auto crashes = ParseDouble(args.Get("crashes-per-hour", "0.5"));
  auto server_failures =
      ParseDouble(args.Get("server-failures-per-day", "1"));
  auto dropouts = ParseDouble(args.Get("dropouts-per-day", "0"));
  auto action_windows =
      ParseDouble(args.Get("action-windows-per-day", "0"));
  for (const Status& s :
       {scale.status(), hours.status(), seed.status(), reps.status(),
        parallelism.status(), crashes.status(),
        server_failures.status(), dropouts.status(),
        action_windows.status()}) {
    if (!s.ok()) return Fail(s);
  }

  AvailabilityOptions options;
  options.scenario = *scenario;
  options.user_scale = *scale;
  options.duration = Duration::Hours(*hours);
  options.seed = static_cast<uint64_t>(*seed);
  options.repetitions = static_cast<int>(*reps);
  options.parallelism = static_cast<int>(*parallelism);
  if (args.Has("fault-plan")) {
    auto plan = faults::FaultPlan::LoadFile(args.Get("fault-plan", ""));
    if (!plan.ok()) return Fail(plan.status());
    options.plan = std::move(*plan);
  } else {
    options.fault_spec.instance_crashes_per_hour = *crashes;
    options.fault_spec.server_failures_per_day = *server_failures;
    options.fault_spec.monitor_dropouts_per_day = *dropouts;
    options.fault_spec.action_failure_windows_per_day = *action_windows;
  }

  auto result = RunAvailabilityScenario(options);
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", RenderAvailabilityResult(*result).c_str());
  for (const AvailabilityRun& run : result->runs) {
    if (!run.invariants_ok) {
      std::fprintf(stderr,
                   "error: cluster invariants violated after seed "
                   "%llu: %s\n",
                   static_cast<unsigned long long>(run.seed),
                   run.invariants_error.c_str());
      return 1;
    }
  }
  return 0;
}

int CmdExplain(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: autoglobectl explain <landscape.xml|paper> "
                 "[--scenario fm] [--scale 1.0] [--hours 80] "
                 "[--seed 42] [--decision N]\n");
    return 1;
  }
  auto scenario = ScenarioArg(args);
  if (!scenario.ok()) return Fail(scenario.status());
  auto landscape = LoadLandscape(args.positional[0], *scenario);
  if (!landscape.ok()) return Fail(landscape.status());
  auto scale = ParseDouble(args.Get("scale", "1.0"));
  auto hours = ParseInt(args.Get("hours", "80"));
  auto seed = ParseInt(args.Get("seed", "42"));
  if (!scale.ok()) return Fail(scale.status());
  if (!hours.ok()) return Fail(hours.status());
  if (!seed.ok()) return Fail(seed.status());

  RunnerConfig config = MakeScenarioConfig(
      *scenario, *scale, static_cast<uint64_t>(*seed));
  config.duration = Duration::Hours(*hours);
  auto rng = RngArg(args, &*landscape);
  if (!rng.ok()) return Fail(rng.status());
  config.rng_kind = *rng;
  config.observability.enable_audit = true;
  // Interactive forensics wants the whole run, not the default
  // bounded window.
  config.observability.audit_capacity = 1 << 16;

  auto runner = SimulationRunner::Create(*landscape, config);
  if (!runner.ok()) return Fail(runner.status());
  if (Status s = (*runner)->Run(); !s.ok()) return Fail(s);

  const obs::AuditLog& log = *(*runner)->audit_log();
  if (log.records().empty()) {
    std::printf("no controller decisions recorded (the run fired no "
                "confirmed triggers)\n");
    return 0;
  }
  std::printf("%s\n", obs::RenderDecisionList(log).c_str());

  size_t index = log.records().size() - 1;
  if (args.Has("decision")) {
    auto chosen = ParseInt(args.Get("decision", "0"));
    if (!chosen.ok()) return Fail(chosen.status());
    if (*chosen < 0 ||
        static_cast<size_t>(*chosen) >= log.records().size()) {
      std::fprintf(stderr,
                   "error: --decision %lld out of range (0..%zu)\n",
                   static_cast<long long>(*chosen),
                   log.records().size() - 1);
      return 1;
    }
    index = static_cast<size_t>(*chosen);
  }
  std::printf("%s", obs::RenderExplain(log.records()[index]).c_str());
  return 0;
}

int CmdCapacity(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: autoglobectl capacity <landscape.xml|paper> "
                 "[--scenario fm] [--step 0.05] [--hours 80]\n");
    return 1;
  }
  auto scenario = ScenarioArg(args);
  if (!scenario.ok()) return Fail(scenario.status());
  auto step = ParseDouble(args.Get("step", "0.05"));
  auto hours = ParseInt(args.Get("hours", "80"));
  if (!step.ok()) return Fail(step.status());
  if (!hours.ok()) return Fail(hours.status());

  // For non-paper landscapes the sweep runs in-place (FindCapacity is
  // paper-landscape bound); replicate its loop here.
  auto landscape = LoadLandscape(args.positional[0], *scenario);
  if (!landscape.ok()) return Fail(landscape.status());
  CapacityOptions options;
  options.step = *step;
  options.run_duration = Duration::Hours(*hours);
  auto rng = RngArg(args, &*landscape);
  if (!rng.ok()) return Fail(rng.status());
  options.rng_kind = *rng;
  double max_scale = 0.0;
  for (double scale = options.start_scale;
       scale <= options.max_scale + 1e-9; scale += options.step) {
    RunnerConfig config = MakeScenarioConfig(*scenario, scale);
    config.duration = options.run_duration;
    config.metrics_warmup = options.warmup;
    config.rng_kind = options.rng_kind;
    auto runner = SimulationRunner::Create(*landscape, config);
    if (!runner.ok()) return Fail(runner.status());
    if (Status s = (*runner)->Run(); !s.ok()) return Fail(s);
    bool passed = Passes((*runner)->metrics(), options.criteria);
    std::printf("%4.0f%%: %s (overload %.0f server-min, streak %.0f "
                "min)\n",
                scale * 100, passed ? "ok" : "OVERLOADED",
                (*runner)->metrics().overload_server_minutes,
                (*runner)->metrics().max_overload_streak_minutes);
    if (!passed) break;
    max_scale = scale;
  }
  std::printf("maximum sustainable user scale: %.0f%%\n",
              max_scale * 100);
  return 0;
}

int CmdStrategies(const Args& args) {
  auto scale = ParseDouble(args.Get("scale", "1.25"));
  auto hours = ParseInt(args.Get("hours", "24"));
  auto seeds = ParseInt(args.Get("seeds", "3"));
  auto parallelism = ParseInt(args.Get("parallelism", "0"));
  for (const Status& s : {scale.status(), hours.status(), seeds.status(),
                          parallelism.status()}) {
    if (!s.ok()) return Fail(s);
  }
  StrategyMatrixOptions options;
  options.user_scale = *scale;
  options.run_duration = Duration::Hours(*hours);
  options.warmup = Duration::Hours(std::max<long long>(1, *hours / 6));
  options.parallelism = static_cast<int>(*parallelism);
  auto rng = RngArg(args, nullptr);
  if (!rng.ok()) return Fail(rng.status());
  options.rng_kind = *rng;
  options.seeds.clear();
  for (long long i = 0; i < std::max<long long>(1, *seeds); ++i) {
    options.seeds.push_back(42 + static_cast<uint64_t>(i));
  }
  if (args.Has("fault-plan")) {
    auto plan = faults::FaultPlan::LoadFile(args.Get("fault-plan", ""));
    if (!plan.ok()) return Fail(plan.status());
    options.fault_plan = std::move(*plan);
  }

  auto result = RunStrategyMatrix(options);
  if (!result.ok()) return Fail(result.status());
  std::string table = RenderStrategyMatrix(*result);
  std::printf("%s", table.c_str());
  if (args.Has("out")) {
    const std::string path = args.Get("out", "");
    if (Status s = AtomicWriteFile(path, table); !s.ok()) return Fail(s);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int CmdCheckpoint(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: autoglobectl checkpoint <dir>\n");
    return 1;
  }
  const std::string& dir = args.positional[0];
  auto store = persist::CheckpointStore::Open(dir, /*keep=*/1 << 20);
  if (!store.ok()) return Fail(store.status());
  auto generations = store->ListGenerations();
  if (!generations.ok()) return Fail(generations.status());
  if (generations->empty()) {
    std::fprintf(stderr, "error: no checkpoints under %s\n", dir.c_str());
    return 1;
  }
  size_t loadable = 0;
  for (const std::string& name : *generations) {
    auto snapshot = persist::ReadSnapshotFile(dir + "/" + name);
    if (!snapshot.ok()) {
      std::printf("%s: %s: %s\n", name.c_str(),
                  snapshot.status().code() == StatusCode::kIoError
                      ? "unreadable"
                      : "CORRUPT",
                  snapshot.status().ToString().c_str());
      continue;
    }
    ++loadable;
    std::printf("%s: OK, %llu bytes, fingerprint %016llx, %zu sections\n",
                name.c_str(), static_cast<unsigned long long>(snapshot->size),
                static_cast<unsigned long long>(snapshot->fingerprint),
                snapshot->sections.size());
    // Sim time lives in the "sim" section header written first by the
    // runner; decoding it fully is a restore concern, so just list
    // section names and sizes from the validated table here.
    for (const persist::SectionEntry& section : snapshot->sections) {
      std::printf("    %-10s %8llu bytes\n", section.name.c_str(),
                  static_cast<unsigned long long>(section.size));
    }
  }
  std::printf("%zu of %zu generation(s) loadable\n", loadable,
              generations->size());
  return loadable > 0 ? 0 : 1;
}

int CmdDesign(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: autoglobectl design <landscape.xml|paper> "
                 "[--scenario static] [--out designed.xml]\n");
    return 1;
  }
  Args adjusted = args;
  if (!args.Has("scenario")) adjusted.options["scenario"] = "static";
  auto scenario = ScenarioArg(adjusted);
  if (!scenario.ok()) return Fail(scenario.status());
  auto landscape = LoadLandscape(args.positional[0], *scenario);
  if (!landscape.ok()) return Fail(landscape.status());
  auto report = designer::DesignAllocation(*landscape);
  if (!report.ok()) return Fail(report.status());
  std::printf("predicted peak load: input %.2f -> designed %.2f "
              "(imbalance %.2f)\n",
              report->input_peak_load, report->designed_peak_load,
              report->designed_imbalance);
  for (const auto& [service, server] :
       report->landscape.initial_allocation) {
    std::printf("  %-10s -> %s\n", service.c_str(), server.c_str());
  }
  if (args.Has("out")) {
    xml::Document doc;
    report->landscape.ToXml(doc.SetRoot("landscape"));
    if (Status s = doc.SaveFile(args.Get("out", "")); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s\n", args.Get("out", "").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: autoglobectl <export|validate|run|explain|"
                 "capacity|design|availability|strategies|checkpoint> "
                 "...\n");
    return 1;
  }
  Args args = ParseArgs(argc, argv);
  if (!args.errors.empty()) {
    for (const std::string& error : args.errors) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
    }
    return 1;
  }
  std::string command = argv[1];
  if (command == "export") return CmdExport(args);
  if (command == "validate") return CmdValidate(args);
  if (command == "run") return CmdRun(args);
  if (command == "explain") return CmdExplain(args);
  if (command == "capacity") return CmdCapacity(args);
  if (command == "design") return CmdDesign(args);
  if (command == "availability") return CmdAvailability(args);
  if (command == "strategies") return CmdStrategies(args);
  if (command == "checkpoint") return CmdCheckpoint(args);
  std::fprintf(stderr, "unknown command \"%s\"\n", command.c_str());
  return 1;
}
