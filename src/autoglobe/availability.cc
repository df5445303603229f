#include "autoglobe/availability.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace autoglobe {

faults::AvailabilityReport AggregateReports(
    const std::vector<AvailabilityRun>& runs) {
  faults::AvailabilityReport total;
  double mttd_weighted = 0.0;
  double mttr_weighted = 0.0;
  double satisfaction_weighted = 0.0;
  for (const AvailabilityRun& run : runs) {
    const faults::AvailabilityReport& report = run.report;
    total.faults_injected += report.faults_injected;
    total.instance_crashes += report.instance_crashes;
    total.server_failures += report.server_failures;
    total.action_failure_windows += report.action_failure_windows;
    total.monitor_dropouts += report.monitor_dropouts;
    total.episodes += report.episodes;
    total.detected += report.detected;
    total.recovered += report.recovered;
    total.abandoned += report.abandoned;
    total.open += report.open;
    mttd_weighted +=
        report.mttd_minutes_mean * static_cast<double>(report.detected);
    mttr_weighted +=
        report.mttr_minutes_mean * static_cast<double>(report.recovered);
    total.mttr_minutes_max =
        std::max(total.mttr_minutes_max, report.mttr_minutes_max);
    total.unavailability_instance_minutes +=
        report.unavailability_instance_minutes;
    satisfaction_weighted += report.objective_satisfaction *
                             static_cast<double>(report.episodes);
  }
  if (total.detected > 0) {
    total.mttd_minutes_mean =
        mttd_weighted / static_cast<double>(total.detected);
  }
  if (total.recovered > 0) {
    total.mttr_minutes_mean =
        mttr_weighted / static_cast<double>(total.recovered);
  }
  if (total.episodes > 0) {
    total.objective_satisfaction =
        satisfaction_weighted / static_cast<double>(total.episodes);
  }
  return total;
}

Result<RunnerConfig> MakeAvailabilityConfig(
    const AvailabilityOptions& options, uint64_t seed) {
  RunnerConfig config =
      MakeScenarioConfig(options.scenario, options.user_scale, seed);
  config.duration = options.duration;
  config.recovery = options.recovery;
  config.availability = options.availability;
  if (options.plan.has_value()) {
    AG_RETURN_IF_ERROR(options.plan->Validate());
    config.fault_plan = *options.plan;
  } else {
    Landscape landscape = MakePaperLandscape(options.scenario);
    std::vector<std::string> servers;
    std::vector<std::string> services;
    for (const infra::ServerSpec& server : landscape.servers) {
      servers.push_back(server.name);
    }
    for (const infra::ServiceSpec& service : landscape.services) {
      services.push_back(service.name);
    }
    std::sort(servers.begin(), servers.end());
    std::sort(services.begin(), services.end());
    config.fault_plan = faults::FaultPlan::Generate(
        options.fault_spec, options.duration, seed, servers, services);
  }
  return config;
}

namespace {

Result<AvailabilityRun> RunOne(const AvailabilityOptions& options,
                               size_t index) {
  uint64_t seed = options.seed + static_cast<uint64_t>(index);
  AG_ASSIGN_OR_RETURN(RunnerConfig config,
                      MakeAvailabilityConfig(options, seed));
  Landscape landscape = MakePaperLandscape(options.scenario);
  AG_ASSIGN_OR_RETURN(std::unique_ptr<SimulationRunner> runner,
                      SimulationRunner::Create(landscape, config));
  AG_RETURN_IF_ERROR(runner->Run());

  AvailabilityRun run;
  run.seed = seed;
  run.report = runner->availability_report();
  run.recovery = runner->recovery_manager()->stats();
  run.injector = runner->fault_injector()->stats();
  run.metrics = runner->metrics();
  Status invariants = infra::VerifyClusterInvariants(runner->cluster());
  run.invariants_ok = invariants.ok();
  if (!invariants.ok()) {
    run.invariants_error = std::string(invariants.message());
  }
  for (const infra::ServiceSpec* service : runner->cluster().Services()) {
    if (runner->cluster().ActiveInstanceCount(service->name) == 0) {
      ++run.extinct_services;
    }
  }
  return run;
}

/// One pool task: repetitions [begin, end) in sequential order.
Result<std::vector<AvailabilityRun>> RunGroup(
    const AvailabilityOptions& options, size_t begin, size_t end) {
  std::vector<AvailabilityRun> runs;
  runs.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    AG_ASSIGN_OR_RETURN(AvailabilityRun run, RunOne(options, i));
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace

Result<AvailabilityResult> RunAvailabilityScenario(
    const AvailabilityOptions& options) {
  if (options.repetitions < 1) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  size_t repetitions = static_cast<size_t>(options.repetitions);
  size_t workers =
      options.parallelism == 0
          ? ThreadPool::DefaultThreadCount()
          : static_cast<size_t>(std::max(1, options.parallelism));

  AvailabilityResult result;
  result.scenario = options.scenario;
  if (workers <= 1 || repetitions <= 1) {
    for (size_t i = 0; i < repetitions; ++i) {
      AG_ASSIGN_OR_RETURN(AvailabilityRun run, RunOne(options, i));
      result.runs.push_back(std::move(run));
    }
  } else {
    // Group consecutive reps into one pool task (see
    // AvailabilityOptions::reps_per_task); rep order inside a group
    // and across groups is the sequential order, so results stay
    // bit-identical at any grouping.
    size_t group = static_cast<size_t>(std::max(1, options.reps_per_task));
    size_t task_count = (repetitions + group - 1) / group;
    ThreadPool pool(std::min(workers, task_count));
    auto outcomes = pool.ParallelMap(
        task_count,
        [&](size_t t)
            -> std::optional<Result<std::vector<AvailabilityRun>>> {
          return RunGroup(options, t * group,
                          std::min(repetitions, (t + 1) * group));
        });
    for (auto& outcome : outcomes) {
      AG_RETURN_IF_ERROR(outcome->status());
      for (AvailabilityRun& run : **outcome) {
        result.runs.push_back(std::move(run));
      }
    }
  }
  result.aggregate = AggregateReports(result.runs);
  return result;
}

std::string RenderAvailabilityResult(const AvailabilityResult& result) {
  std::string out;
  out += StrFormat("availability scenario: %s, %zu repetition(s)\n",
                   std::string(ScenarioName(result.scenario)).c_str(),
                   result.runs.size());
  out +=
      "seed      faults episodes recovered abandoned   MTTR(min) "
      "unavail(inst-min) invariants\n";
  for (const AvailabilityRun& run : result.runs) {
    out += StrFormat(
        "%-9llu %6lld %8lld %9lld %9lld %11.2f %17.1f %s\n",
        static_cast<unsigned long long>(run.seed),
        static_cast<long long>(run.report.faults_injected),
        static_cast<long long>(run.report.episodes),
        static_cast<long long>(run.report.recovered),
        static_cast<long long>(run.report.abandoned),
        run.report.mttr_minutes_mean,
        run.report.unavailability_instance_minutes,
        run.invariants_ok ? "ok" : run.invariants_error.c_str());
  }
  out += "aggregate:\n";
  out += RenderAvailabilityReport(result.aggregate);
  return out;
}

}  // namespace autoglobe
