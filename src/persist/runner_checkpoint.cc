#include "persist/runner_checkpoint.h"

#include <utility>
#include <vector>

#include "common/strings.h"

namespace autoglobe::persist {

namespace {

SectionProducer SectionsOf(const SimulationRunner& runner) {
  return [&runner](const SectionSink& sink) {
    return runner.SaveStateSections(sink);
  };
}

/// A snapshot's sections as RestoreStateSections reads them: each
/// payload through SnapshotData::Payload, one at a time, into one
/// reused buffer.
class SnapshotSections final : public SimulationRunner::SectionSource {
 public:
  explicit SnapshotSections(const SnapshotData& snapshot)
      : snapshot_(snapshot) {}

  bool Has(std::string_view name) const override {
    return IndexOf(name) < snapshot_.sections.size();
  }
  Result<std::string_view> Read(std::string_view name) override {
    const size_t index = IndexOf(name);
    if (index == snapshot_.sections.size()) {
      return Status::NotFound(StrFormat("snapshot has no section \"%s\"",
                                        std::string(name).c_str()));
    }
    return snapshot_.Payload(index, &buffer_);
  }

 private:
  size_t IndexOf(std::string_view name) const {
    size_t index = 0;
    while (index < snapshot_.sections.size() &&
           snapshot_.sections[index].name != name) {
      ++index;
    }
    return index;
  }

  const SnapshotData& snapshot_;
  std::string buffer_;
};

}  // namespace

Result<std::string> CheckpointRunner(const SimulationRunner& runner,
                                     CheckpointStore* store) {
  return store->Write(runner.StateFingerprint(), runner.StateSectionNames(),
                      SectionsOf(runner));
}

Status SaveRunnerSnapshot(const SimulationRunner& runner,
                          const std::string& path) {
  return WriteSnapshotFile(path, runner.StateFingerprint(),
                           runner.StateSectionNames(), SectionsOf(runner));
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
  SnapshotSections sections(snapshot);
  AG_RETURN_IF_ERROR(runner->RestoreStateSections(&sections));
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
    AG_ASSIGN_OR_RETURN(SnapshotData snapshot,
                        DecodeSnapshot(std::move(image)));
    AG_ASSIGN_OR_RETURN(runner,
                        RestoreRunner(landscape, config, snapshot));
  }
  AG_RETURN_IF_ERROR(runner->RunUntil(end));
  return runner;
}

}  // namespace autoglobe::persist
