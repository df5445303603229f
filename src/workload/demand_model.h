#ifndef AUTOGLOBE_WORKLOAD_DEMAND_MODEL_H_
#define AUTOGLOBE_WORKLOAD_DEMAND_MODEL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "infra/cluster.h"
#include "infra/ids.h"
#include "workload/load_pattern.h"

namespace autoglobe::workload {

/// Work is measured in *work units* (wu): 1 wu is the work a
/// performance-index-1 server completes per minute at 100 % CPU. The
/// paper dimensions a standard blade to "handle at most 150 users of
/// one service" (§5.1), so a fully active user of request cost 1.0
/// consumes 1/150 wu per minute, and a server of performance index p
/// delivers p wu per minute.
inline constexpr double kUsersPerPerformanceUnit = 150.0;

/// Demand model of one service (the paper's service-specific
/// simulation parameters, §5.1: "the load caused by a single request
/// depends on the specific service").
struct ServiceDemandSpec {
  std::string service;
  LoadPattern pattern;
  /// Connected users at 100 % scale (Table 4). Zero for batch and
  /// derived (CI/DB) services.
  double base_users = 0.0;
  /// Relative app-server work per active user ("an FI request
  /// produces lower load than a BW request").
  double request_cost = 1.0;
  /// Idle work per running instance ("every application server itself
  /// induces a basic load").
  double base_load_wu = 0.02;
  /// Batch-style service (BW): demand scales with job size, not with
  /// a user count.
  bool batch = false;
  /// Total batch work across all instances at activity 1.0, scale 1.0.
  double batch_load_wu = 0.0;
  /// Relative per-tick demand noise (creates the "short load peaks"
  /// the watchTime mechanism must ride out).
  double noise_stddev = 0.02;
  /// Queue bound (wu). Interactive services keep this small — users
  /// give up / postpone rather than queue indefinitely ("requests
  /// will be delayed till next day"); batch and database tiers queue
  /// generously. Overflow counts as lost work.
  double backlog_cap_wu = 2.0;
  /// Batch and derived tiers pull from one shared queue, so unserved
  /// work migrates to whichever instance has spare capacity;
  /// interactive sessions queue at their own instance.
  bool shared_queue = false;
};

/// Three-tier request propagation (paper §5.1): before an application
/// request reaches the database, the central instance's lock
/// management is consulted — so CI and DB demand derive from the
/// subsystem's application work.
struct SubsystemSpec {
  std::string name;              // e.g. "ERP"
  std::vector<std::string> app_services;
  std::string central_instance;  // service name, may be empty
  std::string database;          // service name, may be empty
  double ci_factor = 0.05;       // CI wu per app wu
  double db_factor = 0.25;       // DB wu per app wu
};

/// How users attach to service instances (the key difference between
/// the CM and FM scenarios, §5.1).
enum class UserDistribution {
  /// Users stay logged in to one instance for their whole session;
  /// only the slow fluctuation re-balances (static / CM scenarios).
  kStickySessions,
  /// Users are equally redistributed across all instances whenever
  /// the instance set changes (FM scenario).
  kDynamicRedistribution,
};

/// The workload model of `lanes` independent runs over one cluster:
/// the registered demand specs, the dense-id data plane synced against
/// the cluster topology, and each run's state — users, backlogs,
/// queues, loads and quality counters — in flat arrays laid out
/// `[entity * lanes + lane]`.
///
/// BatchDemandEngine is this model plus the tick loop and an RNG plane,
/// and DemandEngine its 1-lane form. Registration, the data-plane
/// sync, the reset and the load views below depend only on the lane
/// count fixed at construction.
class DemandModel {
 public:
  DemandModel(const DemandModel&) = delete;
  DemandModel& operator=(const DemandModel&) = delete;

  /// Registers the demand model of a service (which must exist in the
  /// cluster). Shared by every lane.
  Status AddService(ServiceDemandSpec spec);
  /// Registers a subsystem; all referenced services must be known.
  Status AddSubsystem(SubsystemSpec spec);

  size_t lanes() const { return lanes_; }

  void set_distribution(UserDistribution distribution) {
    distribution_ = distribution;
  }
  UserDistribution distribution() const { return distribution_; }
  /// Fraction of each instance's users that log off and reconnect to
  /// the least-loaded instance per minute (paper §5.1: "users
  /// infrequently log themselves off ... and reconnect to the
  /// currently least-loaded server").
  void set_fluctuation_per_minute(double fraction) {
    fluctuation_per_minute_ = fraction;
  }
  void set_overload_threshold(double threshold) {
    overload_threshold_ = threshold;
  }

  /// Rewinds every lane to its just-built state — zero users,
  /// backlogs, queues, loads and quality counters — while keeping the
  /// registered specs and the synced data plane. Re-seed the RNG plane
  /// afterwards; a run on an unchanged topology is then bit-identical
  /// to one on a newly constructed engine.
  void ResetLanes();

  // --- Per-lane load views of the last tick ------------------------------
  // Server ids refer to the last-tick layout; service ids are the
  // cluster index's current ids.
  double ServerCpuLoad(size_t lane, infra::DenseId server) const {
    size_t s = static_cast<size_t>(server);
    return s < num_servers() ? server_cpu_[s * lanes_ + lane] : 0.0;
  }
  double ServerMemLoad(size_t lane, infra::DenseId server) const {
    size_t s = static_cast<size_t>(server);
    return s < num_servers() ? server_mem_[s * lanes_ + lane] : 0.0;
  }
  /// Contiguous per-lane CPU loads of one server (lanes() doubles);
  /// `server` must be a valid dense id.
  const double* ServerCpuRow(infra::DenseId server) const {
    return server_cpu_.data() + static_cast<size_t>(server) * lanes_;
  }
  /// Fraction of the host's capacity the instance demands, in [0, 1].
  double InstanceLoad(size_t lane, infra::InstanceId id) const {
    size_t i = static_cast<size_t>(id);
    return i < tracked_.size() && tracked_[i] ? inst_load_[i * lanes_ + lane]
                                              : 0.0;
  }
  double InstanceUsers(size_t lane, infra::InstanceId id) const {
    size_t i = static_cast<size_t>(id);
    return i < tracked_.size() && tracked_[i] ? users_[i * lanes_ + lane]
                                              : 0.0;
  }
  /// Average load of all instances of a service (Table 1's
  /// serviceLoad input).
  double ServiceLoad(size_t lane, infra::DenseId service) const;
  /// Fraction of the service's requested work that was actually served
  /// in the last tick, in [0, 1] (1.0 when nothing was requested).
  /// This is the response-quality proxy the QoS/SLA extension
  /// monitors: it drops below 1 exactly when requests queue or drop.
  double ServiceSatisfaction(size_t lane, infra::DenseId service) const;
  /// Number of servers in the last-tick load arrays.
  size_t num_servers() const { return server_names_.size(); }

  // --- Quality metrics (lane 0 is a 1-lane engine's only lane) ----------
  /// Work that missed its tick and waits in instance backlogs and
  /// shared queues (wu).
  double TotalBacklog(size_t lane = 0) const;
  /// Work dropped because backlogs overflowed — the paper's "requests
  /// will be delayed till next day" (wu, cumulative).
  double TotalLostWork(size_t lane = 0) const { return lost_work_wu_[lane]; }
  /// Cumulative server-minutes with CPU load above the overload
  /// threshold (default 0.8 — the paper's "CPU load of more than 80%
  /// for a long time" criterion).
  double OverloadMinutes(size_t lane = 0) const {
    return overload_minutes_[lane];
  }
  /// Clears one lane's cumulative quality counters (overload minutes,
  /// lost work). Used to exclude a warm-up period from run verdicts.
  void ResetQualityMetrics(size_t lane = 0) {
    lost_work_wu_[lane] = 0.0;
    overload_minutes_[lane] = 0.0;
  }

 protected:
  /// `lanes` is fixed for the model's lifetime (1..1024).
  DemandModel(infra::Cluster* cluster, size_t lanes);
  ~DemandModel() = default;

  /// Subsystem propagation lowered to registered-spec slots: summing
  /// the app tier and fanning work out to the CI / DB tiers touches
  /// no names at tick time.
  struct SubsystemEdges {
    std::vector<int32_t> app_specs;  // spec slots, declared order
    int32_t ci_spec = -1;
    int32_t db_spec = -1;
    double ci_factor = 0.0;
    double db_factor = 0.0;
  };

  /// Registered spec slot for a service name, or -1. Slots enumerate
  /// specs in sorted-name order.
  int32_t SpecSlotOf(std::string_view service) const;
  /// Dense server slot for a name in the last-built layout, or -1.
  int32_t ServerSlotOf(std::string_view server) const;

  /// Re-syncs the dense arrays with the cluster topology. Returns
  /// false (after two integer compares) when nothing changed, true
  /// after a sync — the caller then re-sizes its per-tick scratch.
  bool EnsureDataPlane();

  /// The running instance whose host had the lowest CPU load in
  /// `lane`'s last tick, ties broken toward emptier instances relative
  /// to host capacity; 0 when none is running.
  infra::InstanceId LeastLoadedInstance(
      const infra::LandscapeIndex& index,
      std::span<const infra::InstanceRef> instances, size_t lane) const;

  infra::Cluster* cluster_;
  const size_t lanes_;

  // Registered demand specs, sorted by service name (slot == rank).
  std::vector<ServiceDemandSpec> specs_;
  std::vector<infra::DenseId> spec_service_id_;  // slot -> cluster id
  std::vector<int32_t> spec_of_service_;         // cluster id -> slot | -1
  std::vector<SubsystemSpec> subsystems_;
  std::vector<SubsystemEdges> edges_;

  UserDistribution distribution_ = UserDistribution::kStickySessions;
  double fluctuation_per_minute_ = 0.01;
  double overload_threshold_ = 0.8;

  // Lane-strided per-instance state: x_[id * lanes_ + lane], indexed by
  // raw InstanceId. `tracked_` (shared, topology-derived) marks ids
  // with a state entry: a removed instance keeps its values until the
  // next data-plane sync zeroes them.
  std::vector<double> users_;
  std::vector<double> backlog_wu_;
  std::vector<double> demand_wu_;  // last tick, per minute
  std::vector<double> served_wu_;  // last tick, per minute
  std::vector<double> inst_load_;  // demand / host capacity, clamped
  std::vector<uint8_t> tracked_;

  // Lane-strided last-tick per-server loads; layout = sorted server
  // names (dense server ids).
  std::vector<std::string> server_names_;
  std::vector<double> server_cpu_;
  std::vector<double> server_mem_;

  // Lane-strided shared service queues (wu), queue_wu_[slot * lanes_ +
  // lane]; persists across ticks.
  std::vector<double> queue_wu_;

  std::vector<double> lost_work_wu_;      // per lane
  std::vector<double> overload_minutes_;  // per lane

  uint64_t plane_epoch_ = 0;  // cluster epoch the arrays match
  bool plane_dirty_ = true;   // registrations changed since the sync
};

}  // namespace autoglobe::workload

#endif  // AUTOGLOBE_WORKLOAD_DEMAND_MODEL_H_
