#ifndef AUTOGLOBE_INFRA_CLUSTER_H_
#define AUTOGLOBE_INFRA_CLUSTER_H_

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "infra/action.h"
#include "infra/ids.h"
#include "infra/specs.h"

namespace autoglobe::infra {

/// Lifecycle state of a service instance. Starting instances already
/// occupy memory but serve no users yet (the paper's start delay);
/// failed instances hold their slot until the controller remedies the
/// failure (e.g. by restart, §2 "failure situations ... are remedied
/// for example with a restart").
enum class InstanceState {
  kStarting,
  kRunning,
  kFailed,
};

std::string_view InstanceStateName(InstanceState state);

/// A running (or starting/failed) instance of a service on a server.
struct ServiceInstance {
  InstanceId id = 0;
  std::string service;
  std::string server;
  InstanceState state = InstanceState::kStarting;
  SimTime placed_at;
  /// Virtualization per paper §2: every instance owns a service IP
  /// bound to the NIC of its current host; moving rebinds it.
  std::string virtual_ip;

  std::string Name() const { return service + "@" + server; }
};

/// The pooled, virtualized hardware landscape: servers, service
/// definitions, the instance allocation, per-service priorities, and
/// the protection-mode bookkeeping of §4.
///
/// The cluster enforces the declarative constraints (Tables 5/6) on
/// every placement: memory capacity, minimum performance index,
/// exclusiveness, and instance-count bounds. At most one instance of
/// a given service runs per server (matching the paper's landscape).
class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Topology -------------------------------------------------------
  Status AddServer(ServerSpec spec);
  Status AddService(ServiceSpec spec);

  Result<const ServerSpec*> FindServer(std::string_view name) const;
  Result<const ServiceSpec*> FindService(std::string_view name) const;
  std::vector<const ServerSpec*> Servers() const;
  std::vector<const ServiceSpec*> Services() const;

  // --- Server health --------------------------------------------------

  /// Marks a server failed (`up = false`) or repaired. A down server
  /// accepts no placements (CanPlace / MoveInstance reject it) until
  /// it is marked up again. Like instance-state flips, health changes
  /// do NOT bump the topology epoch — the dense index carries no
  /// health facts; consumers must ask IsServerUp.
  Status SetServerUp(std::string_view server, bool up);
  /// True unless the server was explicitly marked down. Unknown names
  /// report true (health is a property of registered servers; lookups
  /// validate names separately).
  bool IsServerUp(std::string_view server) const;

  // --- Placement ------------------------------------------------------

  /// Checks every constraint for placing a new instance of `service`
  /// on `server` (memory, performance index, exclusiveness, max
  /// instances, one-instance-per-server). `exclude_instance` names an
  /// instance to disregard — used when relocating it, so the mover
  /// does not count against its own service's limits.
  Status CanPlace(std::string_view service, std::string_view server,
                  InstanceId exclude_instance = 0) const;
  /// Dense form of CanPlace for loops over many candidate hosts:
  /// `service` is a spec of this cluster, resolved once by the caller,
  /// `server` an Index() id, and `active_instances` the caller's
  /// hoisted ActiveInstanceCount(service.name, exclude_instance).
  /// Runs the same rule sequence as CanPlace (one shared
  /// implementation), so verdicts and messages are identical.
  Status CanPlaceById(const ServiceSpec& service, DenseId server,
                      InstanceId exclude_instance,
                      int active_instances) const;

  /// Places a new instance; `initial` is kStarting for delayed starts.
  Result<InstanceId> PlaceInstance(std::string_view service,
                                   std::string_view server, SimTime now,
                                   InstanceState initial =
                                       InstanceState::kRunning);

  /// Removes an instance. With `enforce_min`, refuses to drop the
  /// service below its minInstances constraint.
  Status RemoveInstance(InstanceId id, bool enforce_min = true);

  /// Moves an instance to `target_server` (validating constraints and
  /// rebinding the virtual IP). The instance keeps its id.
  Status MoveInstance(InstanceId id, std::string_view target_server,
                      SimTime now);

  Status SetInstanceState(InstanceId id, InstanceState state);

  Result<const ServiceInstance*> FindInstance(InstanceId id) const;

  /// Instances currently hosted by `server` (any state).
  std::vector<const ServiceInstance*> InstancesOn(
      std::string_view server) const;
  /// Instances of `service` (any state).
  std::vector<const ServiceInstance*> InstancesOf(
      std::string_view service) const;
  /// Number of starting-or-running instances of `service`,
  /// disregarding `exclude_instance` when non-zero.
  int ActiveInstanceCount(std::string_view service,
                          InstanceId exclude_instance = 0) const;
  /// Number of running instances of `service`.
  int RunningInstanceCount(std::string_view service) const;
  /// Memory claimed on `server` by its instances, in GB.
  double UsedMemoryGb(std::string_view server) const;

  size_t total_instances() const { return instances_.size(); }

  // --- Dense-id data plane --------------------------------------------

  /// The interned landscape view: dense server/service/instance ids,
  /// cached per-server and per-service instance spans, flat arrays of
  /// the per-tick facts. Rebuilt lazily when the topology epoch moved;
  /// between topology changes every call is a cheap cache hit, so hot
  /// loops can call this per tick. Spans and dense ids obtained from
  /// the returned index stay valid until the next topology change.
  const LandscapeIndex& Index() const;

  /// Monotone counter, bumped by every topology mutation (server /
  /// service added, instance placed / removed / moved). Instance state
  /// flips and priority adjustments do NOT bump it — index consumers
  /// see those through live pointers and write-through updates.
  uint64_t topology_epoch() const { return topology_epoch_; }

  // --- Priorities -----------------------------------------------------

  /// Relative CPU weight of a service (default 1.0); the proportional-
  /// share CPU model of the workload engine consumes this. Clamped to
  /// [0.25, 4].
  double ServicePriority(std::string_view service) const;
  Status AdjustServicePriority(std::string_view service, double factor);

  // --- Protection mode (§4) --------------------------------------------

  /// After a rearrangement, involved entities are excluded from
  /// further actions for a protection period to prevent oscillation.
  void ProtectServer(std::string_view server, SimTime until);
  void ProtectService(std::string_view service, SimTime until);
  bool IsServerProtected(std::string_view server, SimTime now) const;
  bool IsServiceProtected(std::string_view service, SimTime now) const;

  // --- Checkpoint/restore ---------------------------------------------
  /// Serializes the mutable run state: instance allocation, server
  /// health, priorities, protection windows, the id counters and the
  /// topology epoch. The static topology (server/service specs) is
  /// NOT included — a restore rebuilds it from the same landscape
  /// configuration; the snapshot's landscape fingerprint guards
  /// against restoring onto a different one.
  void SaveState(ByteWriter* w) const;
  /// Restores a SaveState image over a cluster that already holds the
  /// same topology. The placement books are rebuilt and the dense
  /// index is invalidated (rebuilt lazily on next access).
  Status RestoreState(ByteReader* r);

 private:
  friend class LandscapeIndex;

  /// One instance in a placement book, with its service's spec. Both
  /// pointers target map nodes, which stay put until the instance is
  /// unbooked, so the placement rules read a co-tenant's spec without
  /// a name search.
  struct Booked {
    const ServiceInstance* instance;
    const ServiceSpec* spec;
  };
  /// Placement book: the instances hosted on one server / belonging
  /// to one service, kept in ascending id order — the iteration order
  /// of the global instance map restricted to that entity. CanPlace,
  /// the instance counts and UsedMemoryGb walk these short lists
  /// instead of every instance in the cluster.
  using Book = std::vector<Booked>;
  /// Everything the cluster keeps per server, in one map entry.
  struct ServerEntry {
    ServerSpec spec;
    Book hosted;
    bool down = false;
  };
  /// Everything the cluster keeps per service, in one map entry.
  struct ServiceEntry {
    ServiceSpec spec;
    Book instances;
  };
  Result<ServiceInstance*> FindMutableInstance(InstanceId id);
  std::string NextVirtualIp();
  void BumpTopology() { ++topology_epoch_; }

  /// Runs the placement rules for a new instance of `service` on
  /// `server`, disregarding `exclude_instance`.
  Status CheckPlacement(const ServiceEntry& service,
                        const ServerEntry& server,
                        InstanceId exclude_instance) const;
  static int ActiveCount(const Book& book, InstanceId exclude_instance);
  static std::vector<const ServiceInstance*> Instances(const Book& book);
  void BookInstance(const ServiceInstance& instance, ServerEntry* server,
                    ServiceEntry* service);
  void UnbookInstance(const ServiceInstance& instance);

  std::map<std::string, ServerEntry, std::less<>> servers_;
  std::map<std::string, ServiceEntry, std::less<>> services_;
  /// Servers whose entry is marked down; while zero, IsServerUp
  /// answers without a search.
  size_t down_servers_ = 0;
  std::map<InstanceId, ServiceInstance> instances_;
  std::map<std::string, double, std::less<>> priorities_;
  std::map<std::string, SimTime, std::less<>> server_protection_;
  std::map<std::string, SimTime, std::less<>> service_protection_;
  InstanceId next_instance_id_ = 1;
  int next_ip_suffix_ = 1;

  uint64_t topology_epoch_ = 1;
  /// Lazily rebuilt dense view (mutable: rebuilding on first access
  /// after a topology change does not alter observable state).
  mutable LandscapeIndex index_;
  mutable uint64_t index_epoch_ = 0;
};

/// Full-cluster consistency check, used by the chaos/property tests
/// and available to tools: every starting-or-running instance sits on
/// an up server, per-server memory accounting stays within capacity,
/// at most one instance of a service per server, exclusiveness holds
/// both ways, and no service exceeds maxInstances. With
/// `enforce_min`, services below minInstances are also reported
/// (recovery can transiently violate the minimum while a replacement
/// boots, so steady-state callers opt in).
Status VerifyClusterInvariants(const Cluster& cluster,
                               bool enforce_min = false);

}  // namespace autoglobe::infra

#endif  // AUTOGLOBE_INFRA_CLUSTER_H_
