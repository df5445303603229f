#ifndef AUTOGLOBE_WORKLOAD_DEMAND_H_
#define AUTOGLOBE_WORKLOAD_DEMAND_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/philox.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/rng_kind.h"
#include "common/sim_time.h"
#include "infra/cluster.h"
#include "infra/ids.h"
#include "workload/demand_model.h"

namespace autoglobe::workload {

/// The flow-level workload engine: each tick it distributes users,
/// derives per-instance work, propagates it through the three tiers,
/// applies the proportional-share CPU model with service priorities,
/// and records per-server and per-instance loads plus backlog.
///
/// The engine is the 1-lane DemandModel (workload/demand_model.h)
/// stepped by a scalar tick loop: the model owns the registrations,
/// the dense-id data plane and the run state; this class adds the RNG
/// streams, the per-tick scratch and the loop. Every server, service
/// and instance resolves to an integer id (infra::LandscapeIndex),
/// subsystem propagation is a flat edge list, and the per-tick
/// temporaries come from a pre-sized scratch — the steady-state Tick
/// performs zero heap allocations. Topology changes (instance
/// start/stop/move) re-sync the data plane on the next Tick; every
/// loop preserves its iteration order (services in name order,
/// instances in InstanceId order, servers in name order).
class DemandEngine : public DemandModel {
 public:
  DemandEngine(infra::Cluster* cluster, Rng rng);

  /// Rewinds the engine to its just-built state (ResetLanes) and
  /// re-seeds both generators from `seed`, with subsequent noise draws
  /// flowing through `kind` (see RunnerConfig::rng_kind). After a reset
  /// on an unchanged topology, a run is bit-identical to one on a newly
  /// constructed engine (see SimulationRunner::ResetForRerun).
  void ResetRunState(uint64_t seed, RngKind kind);

  /// Selects the draw discipline and re-seeds both generators without
  /// touching run state (call before the first Tick).
  void SeedRng(uint64_t seed, RngKind kind);
  RngKind rng_kind() const { return rng_kind_; }

  /// Global user multiplier (the evaluation's +5 % sweep knob).
  void set_user_scale(double scale) { user_scale_ = scale; }
  double user_scale() const { return user_scale_; }

  /// Advances the model by `dt` ending at time `now`, recomputing all
  /// loads. Allocation-free unless the topology changed since the
  /// previous tick.
  void Tick(SimTime now, Duration dt = Duration::Minutes(1));

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
  /// Rejects counts the image cannot hold and array lengths that
  /// disagree with each other or with the registered specs.
  Status RestoreState(ByteReader* r);

 private:
  /// Pre-sized per-tick temporaries; reused across ticks so the
  /// steady-state Tick never touches the heap.
  struct Scratch {
    std::vector<double> app_work;         // per spec slot
    std::vector<double> shared_unserved;  // per spec slot
    std::vector<double> serve;            // per InstanceId
    std::vector<uint32_t> unsatisfied;        // positions in a server span
    std::vector<uint32_t> still_unsatisfied;  // (capacity pre-reserved)
  };

  /// Re-sizes the scratch to the data plane just synced.
  void ResizeScratch(const infra::LandscapeIndex& index);

  void SyncUsers(const infra::LandscapeIndex& index);
  void ApplyFluctuation(const infra::LandscapeIndex& index,
                        double dt_minutes);

  Rng rng_;
  PhiloxRng philox_;
  RngKind rng_kind_ = RngKind::kXoshiro;
  double user_scale_ = 1.0;
  Scratch scratch_;
};

}  // namespace autoglobe::workload

#endif  // AUTOGLOBE_WORKLOAD_DEMAND_H_
