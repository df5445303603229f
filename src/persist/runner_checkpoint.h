#ifndef AUTOGLOBE_PERSIST_RUNNER_CHECKPOINT_H_
#define AUTOGLOBE_PERSIST_RUNNER_CHECKPOINT_H_

#include <memory>
#include <string>

#include "autoglobe/landscape.h"
#include "autoglobe/runner.h"
#include "persist/checkpoint_store.h"
#include "persist/crash_plan.h"
#include "persist/snapshot.h"

namespace autoglobe::persist {

/// Glue between SimulationRunner's section API and the snapshot
/// container: one call to checkpoint a live runner, one to bring a
/// runner back. Used by autoglobectl, the recovery bench, and the
/// crash-injection harness.

/// Streams the runner's state, one section at a time, into the next
/// checkpoint generation. Returns the path written.
Result<std::string> CheckpointRunner(const SimulationRunner& runner,
                                     CheckpointStore* store);

/// Streams the runner's state to a single snapshot file.
Status SaveRunnerSnapshot(const SimulationRunner& runner,
                          const std::string& path);

/// Creates a fresh runner from (landscape, config) and overwrites its
/// state with the snapshot, reading one section payload at a time
/// through SnapshotData::Payload. The snapshot's fingerprint must match the
/// new runner's (same landscape names, seed, rng plane, strategy kind,
/// fault-plan presence) — FailedPrecondition otherwise.
Result<std::unique_ptr<SimulationRunner>> RestoreRunner(
    const Landscape& landscape, RunnerConfig config,
    const SnapshotData& snapshot);

/// The crash-injection harness: runs the scenario to completion,
/// killing and reviving the process-equivalent at every point in
/// `plan` — at each crash time the runner is serialized through the
/// full container codec (encode + decode, checksums and all), torn
/// down, rebuilt from (landscape, config), and restored before the
/// run continues. With a correct checkpoint implementation the
/// returned runner is bit-identical to an uninterrupted run.
Result<std::unique_ptr<SimulationRunner>> RunWithCrashes(
    const Landscape& landscape, RunnerConfig config,
    const CrashPlan& plan);

}  // namespace autoglobe::persist

#endif  // AUTOGLOBE_PERSIST_RUNNER_CHECKPOINT_H_
