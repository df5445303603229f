#ifndef AUTOGLOBE_AUTOGLOBE_BATCH_RUNNER_H_
#define AUTOGLOBE_AUTOGLOBE_BATCH_RUNNER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "autoglobe/landscape.h"
#include "autoglobe/overload_ledger.h"
#include "autoglobe/runner.h"
#include "common/result.h"
#include "infra/cluster.h"
#include "workload/batch_demand.h"

namespace autoglobe {

/// Per-lane run parameters: the only knobs that may differ between
/// the runs of one batch.
struct BatchLane {
  uint64_t seed = 42;
  double user_scale = 1.0;
};

/// Steps B independent *runs* of one scenario in lockstep on a single
/// thread. Where SimulationRunner wires the full control stack around
/// the event kernel, BatchRunner is a straight time loop over a
/// BatchDemandEngine and an L-lane OverloadLedger — the same smoothed
/// overload books the scalar runner keeps in its 1-lane ledger — plus
/// per-lane replicas of the monitor's watch state machine (trigger
/// *counting* — phase arming, watch-time means with the archive's
/// newest-first summation). The metrics-warmup reset is applied at the
/// event order the kernel would use.
///
/// Bit-identity contract: metrics(lane) equals the RunMetrics of a
/// SimulationRunner created with the same landscape and config with
/// `seed`/`user_scale` of that lane — bit for bit, including trigger
/// counts. A parity suite (tests/autoglobe/batch_runner_test.cc)
/// enforces this against the real runner.
///
/// Eligibility: the shortcut is only valid when the run cannot feed
/// back into the topology or demand — controller disabled, no fault
/// plan, no SLAs, no forecast, no tracing/audit. CheckEligibility
/// returns InvalidArgument otherwise; ineligible configs must use
/// SimulationRunner (availability scenarios batch at the rep level
/// instead, see availability.h).
///
/// Steady state allocates nothing: every per-lane array is sized at
/// Create, and Rerun re-arms them in place for the next batch.
class BatchRunner {
 public:
  static Result<std::unique_ptr<BatchRunner>> Create(
      const Landscape& landscape, RunnerConfig config,
      std::vector<BatchLane> lanes);

  /// InvalidArgument when `config` needs machinery the batch path
  /// does not replicate (controller, faults, SLAs, forecast, tracing).
  static Status CheckEligibility(const RunnerConfig& config);

  /// Runs all lanes over the configured duration.
  Status Run();

  /// Re-arms every lane for another batch (new seeds / scales, same
  /// landscape and config) without reconstructing anything. `lanes`
  /// must have the same size as the original batch.
  Status Rerun(std::vector<BatchLane> lanes);

  size_t lanes() const { return lanes_.size(); }
  const BatchLane& lane(size_t lane) const { return lanes_[lane]; }
  /// The run metrics of one lane (valid after Run).
  const RunMetrics& metrics(size_t lane) const { return metrics_[lane]; }

  workload::BatchDemandEngine& demand() { return *engine_; }
  const workload::BatchDemandEngine& demand() const { return *engine_; }
  infra::Cluster& cluster() { return cluster_; }

 private:
  /// One monitoring subject (server or service) with per-lane
  /// detection state. Mirrors LoadMonitoringSystem's SubjectState for
  /// the trigger-*counting* subset.
  struct Subject {
    double idle_threshold = 0.125;
    int64_t overload_watch_sec = 0;
    /// History ring of the last `cap` observations, lane-strided
    /// (`hist[slot * lanes + lane]`): the watch-time mean recomputes
    /// exactly like LoadArchive::Average (newest-first sum).
    size_t cap = 0;
    /// Ring slot holding the current tick's row — advanced with
    /// wraparound after the tick's observation, standing in for
    /// (k - 1) % cap without the per-tick integer division.
    size_t hist_slot = 0;
    std::vector<double> hist;
    std::vector<uint8_t> phase;          // per lane (Phase enum)
    std::vector<int64_t> watch_started;  // per lane, seconds
    /// Bit l of word l/64 is set iff phase[l] == Normal; bits past the
    /// lane count stay set. Lets the arm pass visit only the lanes
    /// that can actually arm (out-of-band AND Normal) and the expiry
    /// passes visit only the watching lanes (~normal_mask).
    std::vector<uint64_t> normal_mask;
    /// Lanes currently in a watch phase. While 0, the whole row can
    /// be dismissed with one in-band scan (see ObserveRowReplica).
    size_t watching = 0;
    /// Earliest second any watching lane's window can close
    /// (kNoExpiry while none is watching). Divergent rows compare
    /// against this once per tick instead of re-checking every lane's
    /// countdown.
    static constexpr int64_t kNoExpiry =
        std::numeric_limits<int64_t>::max();
    int64_t next_expiry = kNoExpiry;
    /// True while every lane is in the same phase with the same watch
    /// start (lanes usually arm and expire in lockstep — e.g. every
    /// lane going idle overnight). Lets the whole row run the watch
    /// state machine once instead of per lane.
    bool homogeneous = true;
  };

  BatchRunner(RunnerConfig config, std::vector<BatchLane> lanes);

  Status Init(const Landscape& landscape);
  void ResetRunState();
  void TickOnce(int64_t k);
  /// Observes one tick's whole lane row for a subject, with a fast
  /// dismissal when no lane is watching and every load is in band.
  void ObserveRowReplica(Subject& subject, const double* loads,
                         int64_t k);
  void ApplyWarmupReset();

  RunnerConfig config_;
  std::vector<BatchLane> lanes_;
  infra::Cluster cluster_;
  std::unique_ptr<workload::BatchDemandEngine> engine_;
  /// Active row-kernel tier for the watch replica's band and window
  /// rows.
  const LaneKernels* kernels_;

  int64_t tick_sec_ = 60;
  int64_t idle_watch_sec_ = 0;

  size_t num_servers_ = 0;
  /// The smoothed-overload books, one lane per run.
  OverloadLedger ledger_;

  std::vector<Subject> subjects_;  // servers (sorted) then services

  std::vector<RunMetrics> metrics_;  // per lane
  std::vector<double> watch_sum_;    // expiry-walk scratch, per lane
  std::vector<uint32_t> expiring_;   // expiring-lane index scratch
};

}  // namespace autoglobe

#endif  // AUTOGLOBE_AUTOGLOBE_BATCH_RUNNER_H_
