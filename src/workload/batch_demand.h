#ifndef AUTOGLOBE_WORKLOAD_BATCH_DEMAND_H_
#define AUTOGLOBE_WORKLOAD_BATCH_DEMAND_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/lane_kernels.h"
#include "common/philox.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/rng_kind.h"
#include "common/sim_time.h"
#include "infra/cluster.h"
#include "infra/ids.h"
#include "workload/demand.h"

namespace autoglobe::workload {

/// Batched multi-run demand engine: steps B independent simulation
/// runs ("lanes") in lockstep on one thread. All lanes share one
/// topology (the cluster and its LandscapeIndex) and the registered
/// demand specs; each lane owns its dynamic state — users, backlogs,
/// queues, loads, quality metrics, and an RNG stream — laid out
/// SoA-across-runs as `[entity * lanes + lane]` contiguous arrays so
/// the per-tick inner loops iterate lane-innermost (branch-light,
/// auto-vectorizable, zero steady-state allocation).
///
/// Bit-identity contract: lane `k` of a batched Tick sequence is
/// bit-identical to a scalar DemandEngine constructed with
/// `Rng(seed_k)` and the same registrations, scale, and distribution,
/// ticked at the same times. Every per-lane loop preserves the scalar
/// engine's iteration order (specs in name order, instances in
/// InstanceId span order, servers in dense-id order), every per-lane
/// floating-point accumulator sees the same operation sequence, and
/// RNG draws stay strictly conditional (a lane draws noise exactly
/// when the scalar path would), so stream positions never shift.
///
/// Instance states are read from the shared cluster, exactly as the
/// scalar engine reads them, so every state check is one branch per
/// row for all lanes. Topology and state changes apply to the shared
/// cluster and therefore to every lane at once; runs whose faults or
/// actions differ per lane do not batch (see autoglobe/batch_runner.h).
/// Lanes diverge only in their loads, and the two paths whose control
/// flow depends on a lane's loads run per lane over the strided
/// arrays: the refuge hand-off of a failed instance that still holds
/// users, and the water-filling CPU model of an overloaded server.
class BatchDemandEngine : public DemandModelSink {
 public:
  /// `lanes` is fixed for the engine's lifetime (1..1024).
  BatchDemandEngine(infra::Cluster* cluster, size_t lanes);

  BatchDemandEngine(const BatchDemandEngine&) = delete;
  BatchDemandEngine& operator=(const BatchDemandEngine&) = delete;

  // --- DemandModelSink (shared across lanes) ---------------------------
  Status AddService(ServiceDemandSpec spec) override;
  Status AddSubsystem(SubsystemSpec spec) override;

  size_t lanes() const { return lanes_; }

  /// Re-seeds a lane's RNG stream (matches a scalar engine built with
  /// `Rng(seed)` — or, in philox mode, `PhiloxRng(seed)`). Both
  /// disciplines are re-seeded so set_rng_kind can be called in
  /// either order.
  void SetLaneSeed(size_t lane, uint64_t seed);
  /// Selects the draw discipline for every lane (default kXoshiro,
  /// the legacy sequential streams). In kPhilox mode noise draws run
  /// through the lane-strided counter-based streams — evaluated 4
  /// lanes at a time by the AVX2 row kernels where available, and
  /// bit-identical to a scalar DemandEngine in philox mode lane by
  /// lane (DESIGN.md §16).
  void set_rng_kind(RngKind kind) { rng_kind_ = kind; }
  RngKind rng_kind() const { return rng_kind_; }
  /// Per-lane user multiplier (the capacity sweep's +5 % knob — lanes
  /// of one batch typically differ only in scale or seed).
  void SetLaneUserScale(size_t lane, double scale);
  double LaneUserScale(size_t lane) const { return user_scale_[lane]; }

  void set_distribution(UserDistribution distribution) {
    distribution_ = distribution;
  }
  UserDistribution distribution() const { return distribution_; }
  void set_fluctuation_per_minute(double fraction) {
    fluctuation_per_minute_ = fraction;
  }
  void set_overload_threshold(double threshold) {
    overload_threshold_ = threshold;
  }

  /// Advances every lane by `dt` ending at `now`. Allocation-free
  /// unless the topology changed since the previous tick.
  void Tick(SimTime now, Duration dt = Duration::Minutes(1));

  /// Rewinds every lane to its just-built state (zero users /
  /// backlogs / queues / loads / metrics) so the engine can be
  /// re-armed for another batch without rebuilding the data plane.
  /// Re-seed each lane afterwards.
  void ResetLanes();

  // --- Per-lane load views (mirror the scalar engine's views) ----------
  double ServerCpuLoad(size_t lane, infra::DenseId server) const {
    size_t s = static_cast<size_t>(server);
    return s < num_servers_ ? server_cpu_[s * lanes_ + lane] : 0.0;
  }
  double ServerMemLoad(size_t lane, infra::DenseId server) const {
    size_t s = static_cast<size_t>(server);
    return s < num_servers_ ? server_mem_[s * lanes_ + lane] : 0.0;
  }
  double InstanceLoad(size_t lane, infra::InstanceId id) const {
    size_t i = static_cast<size_t>(id);
    return i < tracked_.size() && tracked_[i]
               ? inst_load_[i * lanes_ + lane]
               : 0.0;
  }
  double InstanceUsers(size_t lane, infra::InstanceId id) const {
    size_t i = static_cast<size_t>(id);
    return i < tracked_.size() && tracked_[i] ? users_[i * lanes_ + lane]
                                              : 0.0;
  }
  double ServiceLoad(size_t lane, infra::DenseId service) const;
  /// All lanes of ServiceLoad in one instance pass: `out[lane]` gets
  /// exactly ServiceLoad(lane, service) (same accumulation order), but
  /// the instance span and tracked checks are walked once instead of
  /// once per lane. `out` must hold lanes() doubles.
  void ServiceLoadAll(infra::DenseId service, double* out) const;
  /// Contiguous per-lane CPU loads of one server (lanes() doubles);
  /// `server` must be a valid dense id.
  const double* ServerCpuRow(infra::DenseId server) const {
    return server_cpu_.data() + static_cast<size_t>(server) * lanes_;
  }
  double ServiceSatisfaction(size_t lane, infra::DenseId service) const;
  double TotalBacklog(size_t lane) const;
  double TotalLostWork(size_t lane) const { return lost_work_wu_[lane]; }
  double OverloadMinutes(size_t lane) const {
    return overload_minutes_[lane];
  }
  /// Clears one lane's cumulative quality counters (warmup end).
  void ResetQualityMetrics(size_t lane) {
    lost_work_wu_[lane] = 0.0;
    overload_minutes_[lane] = 0.0;
  }

  size_t num_servers() const { return num_servers_; }

 private:
  /// Mirrors DemandEngine::SubsystemEdges: propagation lowered to
  /// registered-spec slots.
  struct SubsystemEdges {
    std::vector<int32_t> app_specs;
    int32_t ci_spec = -1;
    int32_t db_spec = -1;
    double ci_factor = 0.0;
    double db_factor = 0.0;
  };

  int32_t SpecSlotOf(std::string_view service) const;

  const infra::LandscapeIndex& EnsureDataPlane();
  /// Lane-inner user attachment for every lane at once. Falls back to
  /// SyncUsersSpecLane for (spec, lane) pairs on the order-sensitive
  /// failed-with-users path.
  void SyncUsersAll(const infra::LandscapeIndex& index);
  /// Scalar-order sticky reconciliation of one spec in one lane (the
  /// rare path: a failed instance still holds users).
  void SyncUsersSpecLane(const infra::LandscapeIndex& index, size_t slot,
                         size_t lane);
  /// Lane-inner session fluctuation for every lane at once.
  void ApplyFluctuationAll(const infra::LandscapeIndex& index,
                           double dt_minutes);
  infra::InstanceId LeastLoadedInstance(
      const infra::LandscapeIndex& index,
      std::span<const infra::InstanceRef> instances, size_t lane) const;

  infra::Cluster* cluster_;
  const size_t lanes_;
  std::vector<Rng> rng_;  // one legacy stream per lane
  PhiloxLanes philox_;    // lane-strided counter-based streams
  RngKind rng_kind_ = RngKind::kXoshiro;
  /// Active row-kernel tier (scalar or AVX2), resolved once at
  /// construction; all uniform-row hot loops dispatch through it.
  const LaneKernels* kernels_;

  // Registered demand specs, sorted by service name (shared).
  std::vector<ServiceDemandSpec> specs_;
  std::vector<infra::DenseId> spec_service_id_;
  std::vector<int32_t> spec_of_service_;
  std::vector<SubsystemSpec> subsystems_;
  std::vector<SubsystemEdges> edges_;

  std::vector<double> user_scale_;  // per lane
  UserDistribution distribution_ = UserDistribution::kStickySessions;
  double fluctuation_per_minute_ = 0.01;
  double overload_threshold_ = 0.8;

  // Lane-strided per-instance state: x_[id * lanes_ + lane].
  std::vector<double> users_;
  std::vector<double> backlog_wu_;
  std::vector<double> demand_wu_;
  std::vector<double> served_wu_;
  std::vector<double> inst_load_;
  std::vector<uint8_t> tracked_;  // shared: topology-derived

  // Lane-strided per-server loads (layout = dense server ids).
  size_t num_servers_ = 0;
  std::vector<std::string> server_names_;
  std::vector<double> server_cpu_;
  std::vector<double> server_mem_;

  // Lane-strided shared service queues: queue_wu_[slot * lanes_ + lane].
  std::vector<double> queue_wu_;

  /// Pre-sized per-tick temporaries (all lane-strided or per-lane).
  struct Scratch {
    std::vector<double> app_work;         // [slot][lane]
    std::vector<double> shared_unserved;  // [slot][lane]
    std::vector<double> serve;            // [id][lane]
    std::vector<double> tier_work;        // [lane]
    std::vector<double> current_total;    // [lane]
    std::vector<double> total_demand;     // [lane]
    std::vector<double> best_score;       // [lane] refuge search
    std::vector<uint64_t> best_id;        // [lane] refuge search
    std::vector<double> moved;            // [lane] fluctuation sums
    std::vector<double> amount;           // [lane] sync diff / keep
    std::vector<uint8_t> mode;            // [lane] sync dispatch
    std::vector<uint32_t> unsatisfied;        // per-lane, sequential use
    std::vector<uint32_t> still_unsatisfied;  // (capacity pre-reserved)
  };
  Scratch scratch_;

  uint64_t plane_epoch_ = 0;
  bool plane_dirty_ = true;

  std::vector<double> lost_work_wu_;      // per lane
  std::vector<double> overload_minutes_;  // per lane
};

}  // namespace autoglobe::workload

#endif  // AUTOGLOBE_WORKLOAD_BATCH_DEMAND_H_
