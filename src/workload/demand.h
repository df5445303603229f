#ifndef AUTOGLOBE_WORKLOAD_DEMAND_H_
#define AUTOGLOBE_WORKLOAD_DEMAND_H_

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/rng_kind.h"
#include "infra/cluster.h"
#include "infra/ids.h"
#include "workload/batch_demand.h"

namespace autoglobe::workload {

/// The flow-level workload engine of one run: each tick it distributes
/// users, derives per-instance work, propagates it through the three
/// tiers, applies the proportional-share CPU model with service
/// priorities, and records per-server and per-instance loads plus
/// backlog.
///
/// It is the 1-lane BatchDemandEngine: the same tick loop, built with
/// the lane count a compile-time 1 so its row kernels inline. This
/// class adds only the single-run spellings — a seeded constructor,
/// the scalar user scale, lane-0 load views keyed by name or dense
/// id — and the checkpoint image of lane 0.
class DemandEngine : public BatchDemandEngine {
 public:
  DemandEngine(infra::Cluster* cluster, Rng rng);

  /// Selects the draw discipline and re-seeds both generators without
  /// touching run state (call before the first Tick).
  void SeedRng(uint64_t seed, RngKind kind);

  /// Global user multiplier (the evaluation's +5 % sweep knob).
  void set_user_scale(double scale) { SetLaneUserScale(0, scale); }
  double user_scale() const { return LaneUserScale(0); }

  // --- Load views of the last tick -------------------------------------
  // The model's lane-0 views, keyed by name or by the cluster index's
  // dense ids (the `ById` twins hash and compare no strings).
  double ServerCpuLoad(std::string_view server) const;
  double ServerMemLoad(std::string_view server) const;
  double InstanceLoad(infra::InstanceId id) const {
    return DemandModel::InstanceLoad(0, id);
  }
  double ServiceLoad(std::string_view service) const;
  double ServiceSatisfaction(std::string_view service) const;
  double ServerCpuLoadById(infra::DenseId server) const {
    return DemandModel::ServerCpuLoad(0, server);
  }
  double ServerMemLoadById(infra::DenseId server) const {
    return DemandModel::ServerMemLoad(0, server);
  }
  double ServiceLoadById(infra::DenseId service) const {
    return DemandModel::ServiceLoad(0, service);
  }
  double ServiceSatisfactionById(infra::DenseId service) const {
    return DemandModel::ServiceSatisfaction(0, service);
  }

  // --- User bookkeeping -------------------------------------------------
  double InstanceUsers(infra::InstanceId id) const {
    return DemandModel::InstanceUsers(0, id);
  }
  double ServiceUsers(std::string_view service) const;

  // --- Checkpoint/restore ----------------------------------------------
  /// Serializes the run state: both RNG streams, the per-instance SoA
  /// arrays, last-tick server loads, shared queues and the quality
  /// counters. Registered specs and config knobs are not included —
  /// they are rebuilt from the same landscape configuration.
  void SaveState(ByteWriter* w) const;
  /// Restores a SaveState image; the dense data plane re-syncs on the
  /// next Tick (value-carrying, so the continuation is bit-identical).
  /// Rejects counts the image cannot hold, array lengths that disagree
  /// with each other or with the registered specs, and an unknown RNG
  /// kind.
  Status RestoreState(ByteReader* r);
};

}  // namespace autoglobe::workload

#endif  // AUTOGLOBE_WORKLOAD_DEMAND_H_
