// Per-layer probes for the traced pass. Each probe calls one layer's
// public functions on the workload's own inputs — its landscape, its
// seed, its live runner, and loads captured through the sample hook —
// inside spans, and reduces the timings to a median per call.

#ifndef AUTOGLOBE_PERFBENCH_LAYERS_H_
#define AUTOGLOBE_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "autoglobe/landscape.h"
#include "autoglobe/runner.h"
#include "spans.h"

namespace perfbench {

/// One tick's loads as the runner saw them (dense-id order: servers
/// and services sorted by name).
struct CapturedTick {
  autoglobe::SimTime at;
  std::vector<double> server_cpu;
  std::vector<double> service_load;
};

/// Copies the demand engine's per-tick loads; call from a sample hook.
CapturedTick CaptureTick(autoglobe::SimTime now,
                         const autoglobe::workload::DemandEngine& demand,
                         const autoglobe::infra::Cluster& cluster);

/// What the probes run on. `runner` is a live runner that has finished
/// its own run: the controller and persist probes read its state, and
/// the demand-tick probe advances its engine last.
struct ProbeContext {
  const autoglobe::Landscape* landscape = nullptr;
  autoglobe::RunnerConfig config;
  autoglobe::SimulationRunner* runner = nullptr;
  const std::vector<CapturedTick>* ticks = nullptr;
  uint64_t seed = 42;
  /// Lanes of the BatchDemandEngine probe.
  size_t batch_lanes = 64;
  /// Repetitions of the expensive probes (create, checkpoint).
  int heavy_reps = 3;
  /// Directory for the checkpoint probe's generations.
  std::string scratch_dir;
};

using Metrics = std::map<std::string, double>;

/// Runs every layer probe and returns the per-layer metrics it owns
/// (timings in ns per call unless the name says _s, plus
/// persist.bytes and controller.candidates_per_rank). A probe that
/// fails returns a non-empty `error`.
Metrics ProbeLayers(const ProbeContext& context, SpanRecorder* spans,
                    std::string* error);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // AUTOGLOBE_PERFBENCH_LAYERS_H_
