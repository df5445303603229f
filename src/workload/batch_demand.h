#ifndef AUTOGLOBE_WORKLOAD_BATCH_DEMAND_H_
#define AUTOGLOBE_WORKLOAD_BATCH_DEMAND_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/lane_kernels.h"
#include "common/philox.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/rng_kind.h"
#include "common/sim_time.h"
#include "infra/cluster.h"
#include "infra/ids.h"
#include "workload/demand_model.h"

namespace autoglobe::workload {

/// The demand engine: steps B independent simulation runs ("lanes")
/// in lockstep on one thread. It is the B-lane DemandModel
/// (workload/demand_model.h) stepped by the one demand tick loop, whose
/// inner loops run lane-innermost: all lanes share one topology (the
/// cluster and its LandscapeIndex) and the registered demand specs;
/// each lane owns its dynamic state — users, backlogs, queues, loads,
/// quality metrics — in the model's `[entity * lanes + lane]` arrays,
/// and an RNG stream here (zero steady-state allocation).
///
/// The loop is a template on the lane count with two builds, picked
/// from lanes() on every Tick: the 1-lane build (DemandEngine, or any
/// 1-lane engine) has the count a compile-time 1, calls the portable
/// row kernels inline and keeps its per-lane accumulators in locals;
/// the L-lane build dispatches the rows through the active kernel tier
/// (AVX2 where available).
///
/// Bit-identity contract: lane `k` of an L-lane Tick sequence is
/// bit-identical to a DemandEngine constructed with `Rng(seed_k)` and
/// the same registrations, scale, and distribution, ticked at the same
/// times. Both builds run the same source in the same iteration order
/// (specs in name order, instances in InstanceId span order, servers
/// in dense-id order), every per-lane floating-point accumulator sees
/// the same operation sequence in either build and kernel tier, and
/// RNG draws stay strictly conditional (a lane draws noise exactly
/// when its fresh work is positive), so stream positions never shift.
///
/// Instance states are read from the shared cluster, so every state
/// check is one branch per row for all lanes. Topology and state
/// changes apply to the shared cluster and therefore to every lane at
/// once; runs whose faults or actions differ per lane do not batch
/// (see autoglobe/batch_runner.h).
/// Lanes diverge only in their loads, and the two paths whose control
/// flow depends on a lane's loads run per lane over the strided
/// arrays: the refuge hand-off of a failed instance that still holds
/// users, and the water-filling CPU model of an overloaded server.
class BatchDemandEngine : public DemandModel {
 public:
  /// `lanes` is fixed for the engine's lifetime (1..1024).
  BatchDemandEngine(infra::Cluster* cluster, size_t lanes);

  /// Re-seeds a lane's RNG stream (the legacy `Rng(seed)`, or in
  /// philox mode `PhiloxRng(seed)`). Both disciplines are re-seeded so
  /// set_rng_kind can be called in either order.
  void SetLaneSeed(size_t lane, uint64_t seed);
  /// Selects the draw discipline for every lane (default kXoshiro,
  /// the legacy sequential streams). In kPhilox mode noise draws run
  /// through the lane-strided counter-based streams — evaluated 4
  /// lanes at a time by the AVX2 row kernels where available, and
  /// bit-identical to a 1-lane engine in philox mode lane by lane
  /// (DESIGN.md §16).
  void set_rng_kind(RngKind kind) { rng_kind_ = kind; }
  RngKind rng_kind() const { return rng_kind_; }
  /// Per-lane user multiplier (the capacity sweep's +5 % knob — lanes
  /// of one batch typically differ only in scale or seed).
  void SetLaneUserScale(size_t lane, double scale);
  double LaneUserScale(size_t lane) const { return user_scale_[lane]; }

  /// Advances every lane by `dt` ending at `now`. Allocation-free
  /// unless the topology changed since the previous tick.
  void Tick(SimTime now, Duration dt = Duration::Minutes(1));

  /// All lanes of ServiceLoad in one instance pass: `out[lane]` gets
  /// exactly ServiceLoad(lane, service) (same accumulation order), but
  /// the instance span and tracked checks are walked once instead of
  /// once per lane. `out` must hold lanes() doubles.
  void ServiceLoadAll(infra::DenseId service, double* out) const;

 protected:
  std::vector<Rng> rng_;  // one legacy stream per lane
  PhiloxLanes philox_;    // lane-strided counter-based streams
  RngKind rng_kind_ = RngKind::kXoshiro;
  std::vector<double> user_scale_;  // per lane

 private:
  /// The tick loop, built for a compile-time lane count (1) or for
  /// the lane count fixed at construction (kAnyLanes).
  template <size_t kLanes>
  void TickLanes(SimTime now, double dt_minutes);
  /// Lane-inner user attachment for every lane at once. Falls back to
  /// SyncUsersSpecLane for (spec, lane) pairs on the order-sensitive
  /// failed-with-users path.
  template <size_t kLanes>
  void SyncUsersAll(const infra::LandscapeIndex& index);
  /// Sticky reconciliation of one spec in one lane, instance by
  /// instance (the rare path: a failed instance still holds users).
  void SyncUsersSpecLane(const infra::LandscapeIndex& index, size_t slot,
                         size_t lane);
  /// Lane-inner session fluctuation for every lane at once.
  template <size_t kLanes>
  void ApplyFluctuationAll(const infra::LandscapeIndex& index,
                           double dt_minutes);
  /// Priority-weighted water-filling (3 rounds) of one server in every
  /// lane whose running demand `total[lane]` exceeds `capacity`: the
  /// running instances share the capacity in scratch_.serve.
  void WaterFill(const infra::LandscapeIndex& index,
                 std::span<const infra::InstanceRef> instances,
                 double capacity, const double* total);
  /// Re-sizes the scratch to the data plane just synced.
  void ResizeScratch(const infra::LandscapeIndex& index);

  /// Active row-kernel tier (scalar or AVX2), resolved once at
  /// construction; the L-lane build's row loops dispatch through it.
  const LaneKernels* kernels_;

  /// Pre-sized per-tick temporaries (all lane-strided or per-lane).
  struct Scratch {
    std::vector<double> app_work;         // [slot][lane]
    std::vector<double> shared_unserved;  // [slot][lane]
    std::vector<double> serve;            // [id][lane] granted work
    std::vector<double> tier_work;        // [lane]
    std::vector<double> current_total;    // [lane]
    std::vector<double> total_demand;     // [lane]
    std::vector<double> best_score;       // [lane] refuge search
    std::vector<uint64_t> best_id;        // [lane] refuge search
    std::vector<double> moved;            // [lane] fluctuation sums
    std::vector<double> amount;           // [lane] sync diff / keep
    std::vector<uint8_t> mode;            // [lane] sync dispatch
    std::vector<uint32_t> running;            // water-filling worklists
    std::vector<uint32_t> unsatisfied;        // (capacity pre-reserved)
    std::vector<uint32_t> still_unsatisfied;
  };
  Scratch scratch_;
};

}  // namespace autoglobe::workload

#endif  // AUTOGLOBE_WORKLOAD_BATCH_DEMAND_H_
