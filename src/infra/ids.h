#ifndef AUTOGLOBE_INFRA_IDS_H_
#define AUTOGLOBE_INFRA_IDS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "infra/action.h"

namespace autoglobe::infra {

struct ServerSpec;
struct ServiceSpec;
struct ServiceInstance;
class Cluster;

/// Dense id of a server or service: its rank in sorted-name order
/// over the cluster's current topology. Dense ids are stable between
/// topology changes (AddServer/AddService/Place/Remove/Move), which
/// in practice means they are fixed for a whole simulation run — the
/// landscape's server and service sets are set up once.
using DenseId = int32_t;
inline constexpr DenseId kNoDenseId = -1;

/// One live instance as seen by the dense data plane. The pointer
/// targets the cluster's map node (stable across unrelated inserts
/// and erases), so `instance->state` is always the live state — state
/// flips do not invalidate an index.
struct InstanceRef {
  const ServiceInstance* instance = nullptr;
  InstanceId id = 0;
  DenseId service = kNoDenseId;
  DenseId server = kNoDenseId;
};

/// The interned landscape: every server, service, and instance
/// resolved to dense integer ids, with the per-server / per-service
/// instance lists precomputed as contiguous spans (CSR layout) and
/// the per-tick facts (performance index, memory, priorities, used
/// memory) gathered into flat arrays.
///
/// Rebuilt by Cluster::Index() whenever the topology epoch moved;
/// between topology changes every accessor is an array read. All
/// instance lists preserve InstanceId order — the same iteration
/// order as the cluster's ordered instance map — and server/service
/// ids enumerate names in sorted order, so code that walks the index
/// visits entities exactly as the string-keyed API would.
class LandscapeIndex {
 public:
  LandscapeIndex() = default;

  size_t num_servers() const { return servers_.size(); }
  size_t num_services() const { return services_.size(); }
  size_t num_instances() const { return instances_.size(); }

  /// Exclusive upper bound of live InstanceIds (0 when empty); size
  /// per-instance state arrays with this to index them by raw id.
  InstanceId instance_id_bound() const { return instance_id_bound_; }

  /// kNoDenseId when the name is unknown.
  DenseId ServerIdOf(std::string_view name) const;
  DenseId ServiceIdOf(std::string_view name) const;

  /// Names are the specs' own (the cluster's map keys), so the index
  /// copies no strings.
  const std::string& ServerName(DenseId id) const;
  const std::string& ServiceName(DenseId id) const;
  const ServerSpec& Server(DenseId id) const {
    return *servers_[static_cast<size_t>(id)];
  }
  const ServiceSpec& Service(DenseId id) const {
    return *services_[static_cast<size_t>(id)];
  }

  /// Live health of the server (Cluster::SetServerUp): read through a
  /// pointer into the cluster's entry, since health flips do not
  /// rebuild the index.
  bool ServerDown(DenseId id) const {
    return *server_down_[static_cast<size_t>(id)];
  }

  double ServerPerformance(DenseId id) const {
    return performance_[static_cast<size_t>(id)];
  }
  double ServerMemoryGb(DenseId id) const {
    return memory_gb_[static_cast<size_t>(id)];
  }
  /// Memory claimed by the instances hosted on the server, in GB.
  /// Placement-dependent, so it is part of the cached topology view.
  double ServerUsedMemoryGb(DenseId id) const {
    return used_memory_gb_[static_cast<size_t>(id)];
  }
  /// Live CPU weight of the service — kept in sync by the cluster on
  /// AdjustServicePriority without a rebuild.
  double ServicePriority(DenseId id) const {
    return priorities_[static_cast<size_t>(id)];
  }

  /// All live instances, InstanceId ascending.
  std::span<const InstanceRef> Instances() const { return instances_; }
  /// Instances hosted on / belonging to an entity (any state),
  /// InstanceId ascending. Valid until the next topology change.
  std::span<const InstanceRef> InstancesOnServer(DenseId id) const {
    size_t i = static_cast<size_t>(id);
    return std::span<const InstanceRef>(by_server_)
        .subspan(static_cast<size_t>(server_offsets_[i]),
                 static_cast<size_t>(server_offsets_[i + 1] -
                                     server_offsets_[i]));
  }
  std::span<const InstanceRef> InstancesOfService(DenseId id) const {
    size_t i = static_cast<size_t>(id);
    return std::span<const InstanceRef>(by_service_)
        .subspan(static_cast<size_t>(service_offsets_[i]),
                 static_cast<size_t>(service_offsets_[i + 1] -
                                     service_offsets_[i]));
  }

  /// The largest instance count any single server currently hosts —
  /// the capacity bound scratch buffers for per-server loops need.
  size_t max_instances_per_server() const {
    return max_instances_per_server_;
  }

  // --- Pool (server-category) layout ----------------------------------
  // Servers grouped by ServerSpec::category, pools enumerated in
  // sorted category-name order. The hierarchical-aggregation layer
  // (monitor::PoolLoadStats, the controller's pool prescreen) ranks
  // these pools first and only then scans the servers inside the
  // chosen pool — O(pools + pool-size) instead of O(fleet).
  size_t num_pools() const { return pool_names_.size(); }
  const std::string& PoolName(int32_t pool) const {
    return pool_names_[static_cast<size_t>(pool)];
  }
  /// Pool of a server (always valid for a live DenseId).
  int32_t PoolOfServer(DenseId server) const {
    return pool_of_server_[static_cast<size_t>(server)];
  }
  /// Servers of a pool, in sorted-name (dense-id) order.
  std::span<const DenseId> ServersInPool(int32_t pool) const {
    size_t i = static_cast<size_t>(pool);
    return std::span<const DenseId>(pool_servers_)
        .subspan(static_cast<size_t>(pool_offsets_[i]),
                 static_cast<size_t>(pool_offsets_[i + 1] -
                                     pool_offsets_[i]));
  }

 private:
  friend class Cluster;

  /// Re-interns the whole landscape from the cluster's maps in
  /// O(servers + services + instances): owners come from one pass
  /// over the placement books in the cluster's name-sorted entries,
  /// never from a name search per instance.
  void Rebuild(const Cluster& cluster);
  void SetPriority(DenseId id, double priority) {
    priorities_[static_cast<size_t>(id)] = priority;
  }

  std::vector<const ServerSpec*> servers_;    // sorted by name
  std::vector<const ServiceSpec*> services_;  // sorted by name
  std::vector<const bool*> server_down_;     // live, per server
  std::vector<double> performance_;
  std::vector<double> memory_gb_;
  std::vector<double> used_memory_gb_;
  std::vector<double> priorities_;
  std::vector<InstanceRef> instances_;
  // CSR: bucket lists are contiguous slices of one flat array.
  std::vector<InstanceRef> by_server_;
  std::vector<int32_t> server_offsets_;
  std::vector<InstanceRef> by_service_;
  std::vector<int32_t> service_offsets_;
  InstanceId instance_id_bound_ = 0;
  size_t max_instances_per_server_ = 0;
  /// Rebuild scratch: position in instances_ per raw InstanceId.
  std::vector<int32_t> slot_of_id_;
  // Pool layout: categories sorted by name, servers bucketed CSR-style.
  std::vector<std::string> pool_names_;  // sorted
  std::vector<int32_t> pool_of_server_;  // per server dense id
  std::vector<DenseId> pool_servers_;
  std::vector<int32_t> pool_offsets_;
};

}  // namespace autoglobe::infra

#endif  // AUTOGLOBE_INFRA_IDS_H_
