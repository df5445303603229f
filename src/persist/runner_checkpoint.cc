#include "persist/runner_checkpoint.h"

#include <utility>
#include <vector>

namespace autoglobe::persist {

Result<std::string> CheckpointRunner(const SimulationRunner& runner,
                                     CheckpointStore* store) {
  std::vector<std::pair<std::string, std::string>> sections;
  AG_RETURN_IF_ERROR(runner.SaveStateSections(&sections));
  return store->Write(runner.StateFingerprint(), std::move(sections));
}

Status SaveRunnerSnapshot(const SimulationRunner& runner,
                          const std::string& path) {
  std::vector<std::pair<std::string, std::string>> sections;
  AG_RETURN_IF_ERROR(runner.SaveStateSections(&sections));
  return WriteSnapshotFile(path, runner.StateFingerprint(),
                           std::move(sections));
}

Result<std::unique_ptr<SimulationRunner>> RestoreRunner(
    const Landscape& landscape, RunnerConfig config,
    const SnapshotData& snapshot) {
  AG_ASSIGN_OR_RETURN(std::unique_ptr<SimulationRunner> runner,
                      SimulationRunner::Create(landscape, std::move(config)));
  if (snapshot.fingerprint != runner->StateFingerprint()) {
    return Status::FailedPrecondition(
        "snapshot fingerprint does not match this landscape/config "
        "(different landscape, seed, rng plane, strategy, or fault-plan "
        "presence)");
  }
  AG_RETURN_IF_ERROR(runner->RestoreStateSections(snapshot.sections));
  return runner;
}

Result<std::unique_ptr<SimulationRunner>> RunWithCrashes(
    const Landscape& landscape, RunnerConfig config,
    const CrashPlan& plan) {
  AG_RETURN_IF_ERROR(plan.Validate());
  AG_ASSIGN_OR_RETURN(std::unique_ptr<SimulationRunner> runner,
                      SimulationRunner::Create(landscape, config));
  SimTime end = SimTime::Start() + config.duration;
  for (SimTime crash : plan.crash_at) {
    if (crash >= end) break;
    if (crash <= runner->simulator().now()) continue;
    AG_RETURN_IF_ERROR(runner->RunUntil(crash));
    // The kill: serialize through the full container codec (checksums
    // included), drop the live runner, rebuild, restore.
    std::vector<std::pair<std::string, std::string>> sections;
    AG_RETURN_IF_ERROR(runner->SaveStateSections(&sections));
    std::string image =
        EncodeSnapshot(runner->StateFingerprint(), std::move(sections));
    runner.reset();
    AG_ASSIGN_OR_RETURN(SnapshotData snapshot, DecodeSnapshot(image));
    AG_ASSIGN_OR_RETURN(runner,
                        RestoreRunner(landscape, config, snapshot));
  }
  AG_RETURN_IF_ERROR(runner->RunUntil(end));
  return runner;
}

}  // namespace autoglobe::persist
