#include "autoglobe/capacity.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>

#include "autoglobe/batch_runner.h"
#include "common/thread_pool.h"

namespace autoglobe {

RunnerConfig MakeScenarioConfig(Scenario scenario, double user_scale,
                                uint64_t seed) {
  RunnerConfig config;
  config.user_scale = user_scale;
  config.seed = seed;
  switch (scenario) {
    case Scenario::kStatic:
      config.controller_enabled = false;
      config.distribution = workload::UserDistribution::kStickySessions;
      break;
    case Scenario::kConstrainedMobility:
      config.controller_enabled = true;
      // "After a scale-out, the system does not dynamically
      // redistribute the users" (§5.1) — only fluctuation rebalances.
      config.distribution = workload::UserDistribution::kStickySessions;
      break;
    case Scenario::kFullMobility:
      config.controller_enabled = true;
      // "if a new instance of a service is started, the users are
      // equally redistributed across all instances" (§5.1).
      config.distribution =
          workload::UserDistribution::kDynamicRedistribution;
      break;
  }
  return config;
}

bool Passes(const RunMetrics& metrics, const AcceptanceCriteria& criteria) {
  return metrics.max_overload_streak_minutes <=
             criteria.max_overload_streak_minutes &&
         metrics.overload_fraction <= criteria.max_overload_fraction;
}

std::vector<double> SweepScales(const CapacityOptions& options) {
  std::vector<double> scales;
  if (options.step <= 0) {
    // A non-positive step would never pass max_scale; degrade to the
    // single start step instead of looping forever.
    scales.push_back(options.start_scale);
    return scales;
  }
  // Each scale is derived from the step index, not accumulated: a
  // running `scale += step` drifts by one ulp every few steps, and a
  // long sweep can accumulate enough error to emit a step beyond
  // max_scale (or skip the final one).
  for (size_t i = 0;; ++i) {
    double scale = options.start_scale + static_cast<double>(i) * options.step;
    if (scale > options.max_scale + 1e-9) break;
    scales.push_back(scale);
  }
  return scales;
}

uint64_t StepSeed(const CapacityOptions& options, size_t index) {
  return options.seed + options.seed_stride * static_cast<uint64_t>(index);
}

namespace {

/// One fully independent sweep step: fresh landscape, fresh runner,
/// seed a pure function of the step index — execution order can never
/// leak into the result.
Result<CapacityStep> RunStep(Scenario scenario, double scale,
                             const CapacityOptions& options,
                             uint64_t seed) {
  Landscape landscape = MakePaperLandscape(scenario);
  RunnerConfig config = MakeScenarioConfig(scenario, scale, seed);
  config.duration = options.run_duration;
  config.metrics_warmup = options.warmup;
  config.rng_kind = options.rng_kind;
  AG_ASSIGN_OR_RETURN(std::unique_ptr<SimulationRunner> runner,
                      SimulationRunner::Create(landscape, config));
  AG_RETURN_IF_ERROR(runner->Run());
  CapacityStep step;
  step.scale = scale;
  step.metrics = runner->metrics();
  step.observed = runner->metrics_snapshot();
  step.passed = Passes(step.metrics, options.criteria);
  return step;
}

size_t ResolveWorkers(const CapacityOptions& options) {
  if (options.parallelism == 0) return ThreadPool::DefaultThreadCount();
  return static_cast<size_t>(std::max(1, options.parallelism));
}

/// Shared early-stop bound for one scenario's speculative sweep: the
/// lowest step index known to have failed. Steps beyond the bound are
/// skipped — they can never appear in the truncated result — so the
/// speculative waste is limited to the handful of steps already in
/// flight when the failure surfaces, instead of the whole scale range.
class FailureBound {
 public:
  bool Beyond(size_t index) const {
    return index > bound_.load(std::memory_order_acquire);
  }
  void RecordFailure(size_t index) {
    size_t current = bound_.load(std::memory_order_acquire);
    while (index < current &&
           !bound_.compare_exchange_weak(current, index,
                                         std::memory_order_acq_rel)) {
    }
  }

 private:
  std::atomic<size_t> bound_{std::numeric_limits<size_t>::max()};
};

/// Runs step `index` unless the bound says it cannot matter; records
/// failures (and errors, which also end a sequential sweep) in the
/// bound so later steps stop being computed.
std::optional<Result<CapacityStep>> RunStepSpeculative(
    Scenario scenario, const std::vector<double>& scales, size_t index,
    const CapacityOptions& options, FailureBound* bound) {
  if (bound->Beyond(index)) return std::nullopt;  // skipped
  Result<CapacityStep> outcome =
      RunStep(scenario, scales[index], options, StepSeed(options, index));
  if (!outcome.ok() || !outcome->passed) bound->RecordFailure(index);
  return outcome;
}

/// Applies the sequential sweep semantics — "until the system becomes
/// overloaded" — to speculatively computed steps: keep steps up to
/// and including the first failure, drop the rest.
Result<CapacityResult> Assemble(
    Scenario scenario,
    std::vector<std::optional<Result<CapacityStep>>> outcomes) {
  CapacityResult result;
  result.scenario = scenario;
  for (std::optional<Result<CapacityStep>>& outcome : outcomes) {
    if (!outcome.has_value()) {
      return Status::Internal("sweep step was not computed");
    }
    AG_RETURN_IF_ERROR(outcome->status());
    result.steps.push_back(**outcome);
    if (!(*outcome)->passed) break;
    result.max_scale = (*outcome)->scale;
  }
  return result;
}

/// The sweep config of one scenario at the options' duration/warmup
/// (the per-step knobs — scale and seed — are the batch lanes).
RunnerConfig SweepConfig(Scenario scenario, const CapacityOptions& options) {
  RunnerConfig config = MakeScenarioConfig(scenario, options.start_scale,
                                           options.seed);
  config.duration = options.run_duration;
  config.metrics_warmup = options.warmup;
  config.rng_kind = options.rng_kind;
  return config;
}

bool UseBatchedSweep(Scenario scenario, const CapacityOptions& options) {
  return options.batch_lanes > 1 &&
         BatchRunner::CheckEligibility(SweepConfig(scenario, options)).ok();
}

/// The batched sweep: chunks of up to batch_lanes steps run in
/// lockstep in one reused BatchRunner. Sequential semantics are kept —
/// steps after the first failure are dropped, and chunks past it are
/// never run (the batch is the speculation granule).
Result<CapacityResult> FindCapacityBatched(
    Scenario scenario, const CapacityOptions& options,
    const std::vector<double>& scales) {
  Landscape landscape = MakePaperLandscape(scenario);
  RunnerConfig config = SweepConfig(scenario, options);
  CapacityResult result;
  result.scenario = scenario;
  const size_t width = std::min(options.batch_lanes, scales.size());
  std::unique_ptr<BatchRunner> batch;
  for (size_t base = 0; base < scales.size(); base += width) {
    std::vector<BatchLane> lanes(width);
    for (size_t lane = 0; lane < width; ++lane) {
      // The tail chunk pads with repeats of the last step (the lane
      // count is fixed for the runner's lifetime); padded lanes are
      // simply not read out.
      size_t index = std::min(base + lane, scales.size() - 1);
      lanes[lane] = BatchLane{StepSeed(options, index), scales[index]};
    }
    if (batch == nullptr) {
      AG_ASSIGN_OR_RETURN(
          batch, BatchRunner::Create(landscape, config, std::move(lanes)));
    } else {
      AG_RETURN_IF_ERROR(batch->Rerun(std::move(lanes)));
    }
    AG_RETURN_IF_ERROR(batch->Run());
    for (size_t lane = 0; lane < width && base + lane < scales.size();
         ++lane) {
      CapacityStep step;
      step.scale = scales[base + lane];
      step.metrics = batch->metrics(lane);
      step.passed = Passes(step.metrics, options.criteria);
      bool passed = step.passed;
      result.steps.push_back(std::move(step));
      if (!passed) return result;  // "until the system becomes overloaded"
      result.max_scale = scales[base + lane];
    }
  }
  return result;
}

Result<CapacityResult> FindCapacitySequential(
    Scenario scenario, const CapacityOptions& options,
    const std::vector<double>& scales) {
  CapacityResult result;
  result.scenario = scenario;
  for (size_t i = 0; i < scales.size(); ++i) {
    AG_ASSIGN_OR_RETURN(
        CapacityStep step,
        RunStep(scenario, scales[i], options, StepSeed(options, i)));
    result.steps.push_back(step);
    if (!step.passed) break;  // "until the system becomes overloaded"
    result.max_scale = step.scale;
  }
  return result;
}

}  // namespace

Result<CapacityResult> FindCapacity(Scenario scenario,
                                    const CapacityOptions& options) {
  std::vector<double> scales = SweepScales(options);
  if (UseBatchedSweep(scenario, options)) {
    return FindCapacityBatched(scenario, options, scales);
  }
  size_t workers = ResolveWorkers(options);
  if (workers <= 1 || scales.size() <= 1) {
    // Sequential keeps the early exit: steps past the first failure
    // are never run at all.
    return FindCapacitySequential(scenario, options, scales);
  }
  ThreadPool pool(std::min(workers, scales.size()));
  FailureBound bound;
  auto outcomes = pool.ParallelMap(
      scales.size(),
      [&](size_t i) -> std::optional<Result<CapacityStep>> {
        return RunStepSpeculative(scenario, scales, i, options, &bound);
      });
  return Assemble(scenario, std::move(outcomes));
}

Result<std::vector<CapacityResult>> FindCapacityAll(
    const CapacityOptions& options) {
  const Scenario scenarios[] = {Scenario::kStatic,
                                Scenario::kConstrainedMobility,
                                Scenario::kFullMobility};
  std::vector<double> scales = SweepScales(options);
  size_t workers = ResolveWorkers(options);
  std::vector<CapacityResult> results;

  if (workers <= 1) {
    for (Scenario scenario : scenarios) {
      AG_ASSIGN_OR_RETURN(CapacityResult result,
                          UseBatchedSweep(scenario, options)
                              ? FindCapacityBatched(scenario, options, scales)
                              : FindCapacitySequential(scenario, options,
                                                       scales));
      results.push_back(std::move(result));
    }
    return results;
  }

  // Batch-eligible scenarios (static) run batched on the calling
  // thread first — one BatchRunner sweeps all their steps faster than
  // the speculative fan-out would, and leaving them out of the task
  // list keeps the pool for the controller-enabled scenarios.
  std::vector<std::optional<CapacityResult>> batched(std::size(scenarios));
  for (size_t s = 0; s < std::size(scenarios); ++s) {
    if (!UseBatchedSweep(scenarios[s], options)) continue;
    AG_ASSIGN_OR_RETURN(batched[s],
                        FindCapacityBatched(scenarios[s], options, scales));
  }

  // Flatten every (scenario, step) pair into one task list so the
  // pool stays busy across scenario boundaries. Step-major order
  // (all scenarios' step i before any step i+1) surfaces each
  // scenario's first failure as early as possible, which keeps the
  // speculative waste per scenario down to roughly the worker count.
  struct Task {
    size_t scenario;
    size_t step;
  };
  std::vector<Task> tasks;
  tasks.reserve(std::size(scenarios) * scales.size());
  for (size_t i = 0; i < scales.size(); ++i) {
    for (size_t s = 0; s < std::size(scenarios); ++s) {
      if (!batched[s].has_value()) tasks.push_back({s, i});
    }
  }
  std::vector<std::vector<std::optional<Result<CapacityStep>>>> outcomes(
      std::size(scenarios));
  for (auto& per_scenario : outcomes) per_scenario.resize(scales.size());
  std::vector<FailureBound> bounds(std::size(scenarios));

  if (!tasks.empty()) {
    ThreadPool pool(std::min(workers, tasks.size()));
    pool.ParallelFor(tasks.size(), [&](size_t t) {
      const Task& task = tasks[t];
      outcomes[task.scenario][task.step] =
          RunStepSpeculative(scenarios[task.scenario], scales, task.step,
                             options, &bounds[task.scenario]);
    });
  }

  for (size_t s = 0; s < std::size(scenarios); ++s) {
    if (batched[s].has_value()) {
      results.push_back(std::move(*batched[s]));
      continue;
    }
    AG_ASSIGN_OR_RETURN(CapacityResult result,
                        Assemble(scenarios[s], std::move(outcomes[s])));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace autoglobe
