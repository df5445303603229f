#include "infra/ids.h"

#include <algorithm>

#include "infra/cluster.h"
#include "infra/specs.h"

namespace autoglobe::infra {

namespace {

template <typename Spec>
DenseId RankOf(const std::vector<const Spec*>& sorted, std::string_view name) {
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), name,
      [](const Spec* spec, std::string_view key) { return spec->name < key; });
  if (it == sorted.end() || (*it)->name != name) return kNoDenseId;
  return static_cast<DenseId>(it - sorted.begin());
}

/// Walks two maps sorted by the same name order in lockstep: for each
/// key of `entities` (rank = dense id) finds the matching entry of
/// `by_name`, if any, and calls `visit(rank, entry value)`.
template <typename Entities, typename ByName, typename Visit>
void MergeByName(const Entities& entities, const ByName& by_name,
                 Visit visit) {
  auto other = by_name.begin();
  DenseId rank = 0;
  for (auto it = entities.begin(); it != entities.end(); ++it, ++rank) {
    while (other != by_name.end() && other->first < it->first) ++other;
    if (other != by_name.end() && other->first == it->first) {
      visit(rank, other->second);
    }
  }
}

}  // namespace

DenseId LandscapeIndex::ServerIdOf(std::string_view name) const {
  return RankOf(servers_, name);
}

DenseId LandscapeIndex::ServiceIdOf(std::string_view name) const {
  return RankOf(services_, name);
}

const std::string& LandscapeIndex::ServerName(DenseId id) const {
  return servers_[static_cast<size_t>(id)]->name;
}

const std::string& LandscapeIndex::ServiceName(DenseId id) const {
  return services_[static_cast<size_t>(id)]->name;
}

void LandscapeIndex::Rebuild(const Cluster& cluster) {
  // Pre-reserve every array from the cluster's entity counts: a
  // 10k-server rebuild does one allocation per array, never an
  // incremental regrowth.
  size_t n_servers = cluster.servers_.size();
  size_t n_services = cluster.services_.size();
  servers_.clear();
  server_down_.clear();
  performance_.clear();
  memory_gb_.clear();
  servers_.reserve(n_servers);
  server_down_.reserve(n_servers);
  performance_.reserve(n_servers);
  memory_gb_.reserve(n_servers);
  for (const auto& [name, entry] : cluster.servers_) {
    servers_.push_back(&entry.spec);  // map order == sorted order
    server_down_.push_back(&entry.down);
    performance_.push_back(entry.spec.performance_index);
    memory_gb_.push_back(entry.spec.memory_gb);
  }

  services_.clear();
  services_.reserve(n_services);
  for (const auto& [name, entry] : cluster.services_) {
    services_.push_back(&entry.spec);
  }
  // Unlisted services run at the default weight (Cluster::ServicePriority).
  priorities_.assign(n_services, 1.0);
  MergeByName(cluster.services_, cluster.priorities_,
              [this](DenseId service, double priority) {
                priorities_[static_cast<size_t>(service)] = priority;
              });

  instances_.clear();
  instances_.reserve(cluster.instances_.size());
  instance_id_bound_ =
      cluster.instances_.empty() ? 0 : cluster.instances_.rbegin()->first + 1;
  slot_of_id_.assign(static_cast<size_t>(instance_id_bound_), -1);
  for (const auto& [id, instance] : cluster.instances_) {
    slot_of_id_[static_cast<size_t>(id)] =
        static_cast<int32_t>(instances_.size());
    instances_.push_back(InstanceRef{&instance, id, kNoDenseId, kNoDenseId});
  }
  // Owners from the placement books: each entry's book lists its
  // instances, and the entries enumerate in dense-id order — one
  // pass, no name search.
  auto own = [this](const auto& entries, auto book,
                    DenseId InstanceRef::*field) {
    DenseId owner = 0;
    for (const auto& [name, entry] : entries) {
      for (const auto& booked : entry.*book) {
        InstanceId id = booked.instance->id;
        int32_t slot = id < instance_id_bound_
                           ? slot_of_id_[static_cast<size_t>(id)]
                           : -1;
        if (slot >= 0) instances_[static_cast<size_t>(slot)].*field = owner;
      }
      ++owner;
    }
  };
  own(cluster.servers_, &Cluster::ServerEntry::hosted, &InstanceRef::server);
  own(cluster.services_, &Cluster::ServiceEntry::instances,
      &InstanceRef::service);

  // CSR bucket lists via counting sort: a forward pass over the
  // id-ordered instance array fills every bucket in id order — the
  // exact iteration order of the string-keyed InstancesOn/Of.
  auto build_csr = [this](size_t buckets, auto key,
                          std::vector<InstanceRef>* flat,
                          std::vector<int32_t>* offsets) {
    offsets->assign(buckets + 1, 0);
    for (const InstanceRef& ref : instances_) {
      if (key(ref) >= 0) ++(*offsets)[static_cast<size_t>(key(ref)) + 1];
    }
    for (size_t i = 1; i <= buckets; ++i) (*offsets)[i] += (*offsets)[i - 1];
    flat->assign(instances_.size(), InstanceRef{});
    std::vector<int32_t> cursor(offsets->begin(), offsets->end() - 1);
    for (const InstanceRef& ref : instances_) {
      if (key(ref) < 0) continue;
      (*flat)[static_cast<size_t>(cursor[static_cast<size_t>(key(ref))]++)] =
          ref;
    }
  };
  build_csr(num_servers(), [](const InstanceRef& r) { return r.server; },
            &by_server_, &server_offsets_);
  build_csr(num_services(), [](const InstanceRef& r) { return r.service; },
            &by_service_, &service_offsets_);

  max_instances_per_server_ = 0;
  used_memory_gb_.assign(num_servers(), 0.0);
  for (size_t s = 0; s < num_servers(); ++s) {
    std::span<const InstanceRef> hosted =
        InstancesOnServer(static_cast<DenseId>(s));
    max_instances_per_server_ =
        std::max(max_instances_per_server_, hosted.size());
    // Id-order accumulation, matching Cluster::UsedMemoryGb exactly.
    for (const InstanceRef& ref : hosted) {
      if (ref.service >= 0) {
        used_memory_gb_[s] +=
            Service(ref.service).memory_footprint_gb;
      }
    }
  }

  // Pool layout: distinct server categories, sorted; servers bucketed
  // in dense-id order (another counting sort). Servers without a
  // category form the "" pool. A fleet has a handful of categories,
  // so the sorted distinct list is built by insertion; a run of
  // servers sharing their predecessor's category costs one compare.
  auto pool_of = [this](const std::string& category) {
    return static_cast<int32_t>(
        std::lower_bound(pool_names_.begin(), pool_names_.end(), category) -
        pool_names_.begin());
  };
  pool_names_.clear();
  for (size_t s = 0; s < num_servers(); ++s) {
    const std::string& category = servers_[s]->category;
    if (s > 0 && category == servers_[s - 1]->category) continue;
    size_t pool = static_cast<size_t>(pool_of(category));
    if (pool == pool_names_.size() || pool_names_[pool] != category) {
      pool_names_.insert(pool_names_.begin() + static_cast<ptrdiff_t>(pool),
                         category);
    }
  }
  pool_of_server_.assign(num_servers(), 0);
  pool_offsets_.assign(pool_names_.size() + 1, 0);
  for (size_t s = 0; s < num_servers(); ++s) {
    pool_of_server_[s] =
        s > 0 && servers_[s]->category == servers_[s - 1]->category
            ? pool_of_server_[s - 1]
            : pool_of(servers_[s]->category);
    ++pool_offsets_[static_cast<size_t>(pool_of_server_[s]) + 1];
  }
  for (size_t p = 1; p <= pool_names_.size(); ++p) {
    pool_offsets_[p] += pool_offsets_[p - 1];
  }
  pool_servers_.assign(num_servers(), kNoDenseId);
  std::vector<int32_t> pool_cursor(pool_offsets_.begin(),
                                   pool_offsets_.end() - 1);
  for (size_t s = 0; s < num_servers(); ++s) {
    size_t pool = static_cast<size_t>(pool_of_server_[s]);
    pool_servers_[static_cast<size_t>(pool_cursor[pool]++)] =
        static_cast<DenseId>(s);
  }
}

}  // namespace autoglobe::infra
