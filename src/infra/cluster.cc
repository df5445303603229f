#include "infra/cluster.h"

#include <algorithm>

#include "common/strings.h"

namespace autoglobe::infra {

std::string_view InstanceStateName(InstanceState state) {
  switch (state) {
    case InstanceState::kStarting:
      return "starting";
    case InstanceState::kRunning:
      return "running";
    case InstanceState::kFailed:
      return "failed";
  }
  return "?";
}

namespace {

Status UnknownServer(std::string_view name) {
  return Status::NotFound(StrFormat("unknown server \"%.*s\"",
                                    static_cast<int>(name.size()),
                                    name.data()));
}

Status UnknownService(std::string_view name) {
  return Status::NotFound(StrFormat("unknown service \"%.*s\"",
                                    static_cast<int>(name.size()),
                                    name.data()));
}

/// Inserts a new entry keyed by `name`, or returns nullptr when the
/// name is taken. Landscapes list their entities in sorted runs, so a
/// name past the current last key goes in at the end without a
/// search.
template <typename Map>
typename Map::mapped_type* InsertEntry(Map* map, const std::string& name) {
  if (map->empty() || map->rbegin()->first < name) {
    return &map->try_emplace(map->end(), name)->second;
  }
  auto [it, inserted] = map->try_emplace(name);
  return inserted ? &it->second : nullptr;
}

}  // namespace

Status Cluster::AddServer(ServerSpec spec) {
  AG_RETURN_IF_ERROR(spec.Validate());
  ServerEntry* entry = InsertEntry(&servers_, spec.name);
  if (entry == nullptr) {
    return Status::AlreadyExists(
        StrFormat("server \"%s\" already exists", spec.name.c_str()));
  }
  entry->spec = std::move(spec);
  BumpTopology();
  return Status::OK();
}

Status Cluster::AddService(ServiceSpec spec) {
  AG_RETURN_IF_ERROR(spec.Validate());
  ServiceEntry* entry = InsertEntry(&services_, spec.name);
  if (entry == nullptr) {
    return Status::AlreadyExists(
        StrFormat("service \"%s\" already exists", spec.name.c_str()));
  }
  entry->spec = std::move(spec);
  BumpTopology();
  return Status::OK();
}

void Cluster::BookInstance(const ServiceInstance& instance,
                           ServerEntry* server, ServiceEntry* service) {
  auto insert_sorted = [](Book* book, Booked booked) {
    // Ids are allocated monotonically, so this is a push_back except
    // after moves, which re-book an old id.
    book->insert(std::lower_bound(book->begin(), book->end(),
                                  booked.instance->id,
                                  [](const Booked& entry, InstanceId id) {
                                    return entry.instance->id < id;
                                  }),
                 booked);
  };
  Booked booked{&instance, &service->spec};
  insert_sorted(&server->hosted, booked);
  insert_sorted(&service->instances, booked);
}

void Cluster::UnbookInstance(const ServiceInstance& instance) {
  auto erase = [&instance](Book* book) {
    auto it = std::find_if(book->begin(), book->end(),
                           [&instance](const Booked& entry) {
                             return entry.instance == &instance;
                           });
    if (it != book->end()) book->erase(it);
  };
  auto server_it = servers_.find(instance.server);
  if (server_it != servers_.end()) erase(&server_it->second.hosted);
  auto service_it = services_.find(instance.service);
  if (service_it != services_.end()) erase(&service_it->second.instances);
}

Result<const ServerSpec*> Cluster::FindServer(std::string_view name) const {
  auto it = servers_.find(name);
  if (it == servers_.end()) return UnknownServer(name);
  return &it->second.spec;
}

Result<const ServiceSpec*> Cluster::FindService(std::string_view name) const {
  auto it = services_.find(name);
  if (it == services_.end()) return UnknownService(name);
  return &it->second.spec;
}

std::vector<const ServerSpec*> Cluster::Servers() const {
  std::vector<const ServerSpec*> out;
  out.reserve(servers_.size());
  for (const auto& [name, entry] : servers_) out.push_back(&entry.spec);
  return out;
}

std::vector<const ServiceSpec*> Cluster::Services() const {
  std::vector<const ServiceSpec*> out;
  out.reserve(services_.size());
  for (const auto& [name, entry] : services_) out.push_back(&entry.spec);
  return out;
}

Status Cluster::SetServerUp(std::string_view server, bool up) {
  auto it = servers_.find(server);
  if (it == servers_.end()) return UnknownServer(server);
  if (it->second.down == up) {
    it->second.down = !up;
    if (up) {
      --down_servers_;
    } else {
      ++down_servers_;
    }
  }
  return Status::OK();
}

bool Cluster::IsServerUp(std::string_view server) const {
  if (down_servers_ == 0) return true;
  auto it = servers_.find(server);
  return it == servers_.end() || !it->second.down;
}

namespace {

/// The placement rule sequence, shared by the name-keyed CanPlace and
/// the dense CanPlaceById so both give the same first failure with the
/// same message. `hosted` lists the server's instances in InstanceId
/// order and `resolve` maps one entry to its instance and that
/// instance's service spec (nullptr when the service is not
/// registered); walking them in id order fixes both the failure
/// precedence and the floating-point memory sum.
template <typename Hosted, typename Resolve>
Status CheckPlacementRules(const ServiceSpec& service,
                           const ServerSpec& server, bool server_up,
                           int active_instances, InstanceId exclude_instance,
                           const Hosted& hosted, Resolve resolve) {
  if (!server_up) {
    return Status::Unavailable(
        StrFormat("server \"%s\" is down", server.name.c_str()));
  }
  if (server.performance_index < service.min_performance_index) {
    return Status::FailedPrecondition(StrFormat(
        "server \"%s\" (PI %g) below minimum performance index %g of "
        "service \"%s\"",
        server.name.c_str(), server.performance_index,
        service.min_performance_index, service.name.c_str()));
  }
  if (active_instances >= service.max_instances) {
    return Status::FailedPrecondition(StrFormat(
        "service \"%s\" already runs its maximum of %d instances",
        service.name.c_str(), service.max_instances));
  }
  double used_memory = 0.0;
  for (const auto& entry : hosted) {
    auto [instance, spec] = resolve(entry);
    if (instance->id == exclude_instance) continue;
    if (instance->service == service.name) {
      return Status::FailedPrecondition(StrFormat(
          "service \"%s\" already has an instance on server \"%s\"",
          service.name.c_str(), server.name.c_str()));
    }
    // Exclusiveness cuts both ways: an exclusive service tolerates no
    // co-tenants, and no instance may join a host running one.
    if (spec != nullptr && spec->exclusive) {
      return Status::FailedPrecondition(StrFormat(
          "server \"%s\" is exclusively reserved for service \"%s\"",
          server.name.c_str(), instance->service.c_str()));
    }
    if (service.exclusive) {
      return Status::FailedPrecondition(StrFormat(
          "exclusive service \"%s\" cannot share server \"%s\" with "
          "\"%s\"",
          service.name.c_str(), server.name.c_str(),
          instance->service.c_str()));
    }
    if (spec != nullptr) used_memory += spec->memory_footprint_gb;
  }
  if (used_memory + service.memory_footprint_gb > server.memory_gb + 1e-9) {
    return Status::ResourceExhausted(StrFormat(
        "server \"%s\": %.1f GB used + %.1f GB footprint exceeds %.1f GB",
        server.name.c_str(), used_memory, service.memory_footprint_gb,
        server.memory_gb));
  }
  return Status::OK();
}

}  // namespace

int Cluster::ActiveCount(const Book& book, InstanceId exclude_instance) {
  int count = 0;
  for (const Booked& entry : book) {
    if (entry.instance->id != exclude_instance &&
        entry.instance->state != InstanceState::kFailed) {
      ++count;
    }
  }
  return count;
}

Status Cluster::CheckPlacement(const ServiceEntry& service,
                               const ServerEntry& server,
                               InstanceId exclude_instance) const {
  // Walk only this server's book. No Index() here: PlaceInstance runs
  // this check once per placement while a landscape is built, and a
  // rebuild per placement would make the build quadratic.
  return CheckPlacementRules(
      service.spec, server.spec, !server.down,
      ActiveCount(service.instances, exclude_instance), exclude_instance,
      server.hosted, [](const Booked& entry) {
        return std::pair(entry.instance, entry.spec);
      });
}

Status Cluster::CanPlace(std::string_view service, std::string_view server,
                         InstanceId exclude_instance) const {
  auto service_it = services_.find(service);
  if (service_it == services_.end()) return UnknownService(service);
  auto server_it = servers_.find(server);
  if (server_it == servers_.end()) return UnknownServer(server);
  return CheckPlacement(service_it->second, server_it->second,
                        exclude_instance);
}

Status Cluster::CanPlaceById(const ServiceSpec& service, DenseId server,
                             InstanceId exclude_instance,
                             int active_instances) const {
  const LandscapeIndex& index = Index();
  return CheckPlacementRules(
      service, index.Server(server), !index.ServerDown(server),
      active_instances, exclude_instance, index.InstancesOnServer(server),
      [&index](const InstanceRef& ref) {
        return std::pair(ref.instance, ref.service >= 0
                                           ? &index.Service(ref.service)
                                           : nullptr);
      });
}

Result<InstanceId> Cluster::PlaceInstance(std::string_view service,
                                          std::string_view server,
                                          SimTime now,
                                          InstanceState initial) {
  // Both entries are resolved once: the rules and the booking read
  // them directly.
  auto service_it = services_.find(service);
  if (service_it == services_.end()) return UnknownService(service);
  auto server_it = servers_.find(server);
  if (server_it == servers_.end()) return UnknownServer(server);
  AG_RETURN_IF_ERROR(
      CheckPlacement(service_it->second, server_it->second, 0));
  ServiceInstance instance;
  instance.id = next_instance_id_++;
  instance.service = service_it->first;
  instance.server = server_it->first;
  instance.state = initial;
  instance.placed_at = now;
  instance.virtual_ip = NextVirtualIp();
  InstanceId id = instance.id;
  // Fresh ids exceed every live one, so the node goes last.
  auto emplaced = instances_.emplace_hint(instances_.end(), id,
                                          std::move(instance));
  BookInstance(emplaced->second, &server_it->second, &service_it->second);
  BumpTopology();
  return id;
}

Status Cluster::RemoveInstance(InstanceId id, bool enforce_min) {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    return Status::NotFound(StrFormat("no instance %llu",
                                      static_cast<unsigned long long>(id)));
  }
  if (enforce_min) {
    auto service_it = services_.find(it->second.service);
    if (service_it == services_.end()) {
      return UnknownService(it->second.service);
    }
    const ServiceSpec& spec = service_it->second.spec;
    if (ActiveCount(service_it->second.instances, 0) <= spec.min_instances) {
      return Status::FailedPrecondition(StrFormat(
          "service \"%s\" must keep at least %d instance(s)",
          spec.name.c_str(), spec.min_instances));
    }
  }
  UnbookInstance(it->second);
  instances_.erase(it);
  BumpTopology();
  return Status::OK();
}

Status Cluster::MoveInstance(InstanceId id, std::string_view target_server,
                             SimTime now) {
  AG_ASSIGN_OR_RETURN(ServiceInstance* instance, FindMutableInstance(id));
  if (instance->server == target_server) {
    return Status::InvalidArgument(StrFormat(
        "instance %s already runs on \"%.*s\"", instance->Name().c_str(),
        static_cast<int>(target_server.size()), target_server.data()));
  }
  auto service_it = services_.find(instance->service);
  if (service_it == services_.end()) {
    return UnknownService(instance->service);
  }
  auto target_it = servers_.find(target_server);
  if (target_it == servers_.end()) return UnknownServer(target_server);
  AG_RETURN_IF_ERROR(CheckPlacement(service_it->second, target_it->second,
                                    instance->id));
  // Unbind the service IP from the old host's NIC, rebind on the new
  // one (paper §2's service virtualization).
  UnbookInstance(*instance);
  instance->server = target_it->first;
  instance->placed_at = now;
  BookInstance(*instance, &target_it->second, &service_it->second);
  BumpTopology();
  return Status::OK();
}

Status Cluster::SetInstanceState(InstanceId id, InstanceState state) {
  AG_ASSIGN_OR_RETURN(ServiceInstance* instance, FindMutableInstance(id));
  instance->state = state;
  return Status::OK();
}

Result<const ServiceInstance*> Cluster::FindInstance(InstanceId id) const {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    return Status::NotFound(StrFormat("no instance %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return &it->second;
}

Result<ServiceInstance*> Cluster::FindMutableInstance(InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    return Status::NotFound(StrFormat("no instance %llu",
                                      static_cast<unsigned long long>(id)));
  }
  return &it->second;
}

std::vector<const ServiceInstance*> Cluster::Instances(const Book& book) {
  std::vector<const ServiceInstance*> out;
  out.reserve(book.size());
  for (const Booked& entry : book) out.push_back(entry.instance);
  return out;
}

std::vector<const ServiceInstance*> Cluster::InstancesOn(
    std::string_view server) const {
  auto it = servers_.find(server);
  if (it == servers_.end()) return {};
  return Instances(it->second.hosted);
}

std::vector<const ServiceInstance*> Cluster::InstancesOf(
    std::string_view service) const {
  auto it = services_.find(service);
  if (it == services_.end()) return {};
  return Instances(it->second.instances);
}

int Cluster::ActiveInstanceCount(std::string_view service,
                                 InstanceId exclude_instance) const {
  auto it = services_.find(service);
  if (it == services_.end()) return 0;
  return ActiveCount(it->second.instances, exclude_instance);
}

int Cluster::RunningInstanceCount(std::string_view service) const {
  auto it = services_.find(service);
  if (it == services_.end()) return 0;
  int count = 0;
  for (const Booked& entry : it->second.instances) {
    if (entry.instance->state == InstanceState::kRunning) ++count;
  }
  return count;
}

double Cluster::UsedMemoryGb(std::string_view server) const {
  auto it = servers_.find(server);
  if (it == servers_.end()) return 0.0;
  double used = 0.0;
  for (const Booked& entry : it->second.hosted) {
    used += entry.spec->memory_footprint_gb;
  }
  return used;
}

double Cluster::ServicePriority(std::string_view service) const {
  auto it = priorities_.find(service);
  return it == priorities_.end() ? 1.0 : it->second;
}

Status Cluster::AdjustServicePriority(std::string_view service,
                                      double factor) {
  AG_RETURN_IF_ERROR(FindService(service).status());
  if (factor <= 0) {
    return Status::InvalidArgument("priority factor must be positive");
  }
  double next = std::clamp(ServicePriority(service) * factor, 0.25, 4.0);
  priorities_[std::string(service)] = next;
  // Keep the dense view live without forcing a rebuild: priorities
  // change during runs (the adjustPriority action), topology does not.
  if (index_epoch_ == topology_epoch_) {
    DenseId id = index_.ServiceIdOf(service);
    if (id != kNoDenseId) index_.SetPriority(id, next);
  }
  return Status::OK();
}

void Cluster::ProtectServer(std::string_view server, SimTime until) {
  auto it = server_protection_.find(server);
  if (it == server_protection_.end()) {
    server_protection_.emplace(std::string(server), until);
  } else {
    it->second = std::max(it->second, until);
  }
}

void Cluster::ProtectService(std::string_view service, SimTime until) {
  auto it = service_protection_.find(service);
  if (it == service_protection_.end()) {
    service_protection_.emplace(std::string(service), until);
  } else {
    it->second = std::max(it->second, until);
  }
}

bool Cluster::IsServerProtected(std::string_view server, SimTime now) const {
  auto it = server_protection_.find(server);
  return it != server_protection_.end() && now < it->second;
}

bool Cluster::IsServiceProtected(std::string_view service,
                                 SimTime now) const {
  auto it = service_protection_.find(service);
  return it != service_protection_.end() && now < it->second;
}

const LandscapeIndex& Cluster::Index() const {
  if (index_epoch_ != topology_epoch_) {
    index_.Rebuild(*this);
    index_epoch_ = topology_epoch_;
  }
  return index_;
}

std::string Cluster::NextVirtualIp() {
  int suffix = next_ip_suffix_++;
  // "10.42.<suffix / 250>.<suffix % 250 + 1>".
  std::string ip = "10.42.";
  AppendInt(&ip, suffix / 250);
  ip += '.';
  AppendInt(&ip, suffix % 250 + 1);
  return ip;
}

void Cluster::SaveState(ByteWriter* w) const {
  w->U64(down_servers_);
  for (const auto& [name, entry] : servers_) {
    if (!entry.down) continue;
    w->Str(name);
    w->U8(1);
  }
  w->U64(instances_.size());
  for (const auto& [id, instance] : instances_) {
    w->U64(id);
    w->Str(instance.service);
    w->Str(instance.server);
    w->U8(static_cast<uint8_t>(instance.state));
    w->I64(instance.placed_at.seconds());
    w->Str(instance.virtual_ip);
  }
  w->U64(priorities_.size());
  for (const auto& [name, priority] : priorities_) {
    w->Str(name);
    w->F64(priority);
  }
  w->U64(server_protection_.size());
  for (const auto& [name, until] : server_protection_) {
    w->Str(name);
    w->I64(until.seconds());
  }
  w->U64(service_protection_.size());
  for (const auto& [name, until] : service_protection_) {
    w->Str(name);
    w->I64(until.seconds());
  }
  w->U64(next_instance_id_);
  w->I64(next_ip_suffix_);
  w->U64(topology_epoch_);
}

Status Cluster::RestoreState(ByteReader* r) {
  for (auto& [name, entry] : servers_) entry.down = false;
  down_servers_ = 0;
  AG_ASSIGN_OR_RETURN(uint64_t down_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(down_count, 4 + 1));
  for (uint64_t i = 0; i < down_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    AG_ASSIGN_OR_RETURN(uint8_t flag, r->U8());
    (void)flag;  // a listed server is down, whatever its flag byte
    auto it = servers_.find(name);
    if (it == servers_.end()) return UnknownServer(name);
    if (!it->second.down) {
      it->second.down = true;
      ++down_servers_;
    }
  }
  for (auto& [name, entry] : servers_) entry.hosted.clear();
  for (auto& [name, entry] : services_) entry.instances.clear();
  instances_.clear();
  AG_ASSIGN_OR_RETURN(uint64_t instance_count, r->U64());
  // Id, three string prefixes, the state byte and the placement time.
  AG_RETURN_IF_ERROR(r->CheckCount(instance_count, 8 + 3 * 4 + 1 + 8));
  for (uint64_t i = 0; i < instance_count; ++i) {
    ServiceInstance instance;
    AG_ASSIGN_OR_RETURN(instance.id, r->U64());
    AG_ASSIGN_OR_RETURN(instance.service, r->Str());
    AG_ASSIGN_OR_RETURN(instance.server, r->Str());
    AG_ASSIGN_OR_RETURN(uint8_t state, r->U8());
    AG_ASSIGN_OR_RETURN(int64_t placed_s, r->I64());
    AG_ASSIGN_OR_RETURN(instance.virtual_ip, r->Str());
    if (state > static_cast<uint8_t>(InstanceState::kFailed)) {
      return Status::ParseError(
          StrFormat("invalid instance state %d", state));
    }
    instance.state = static_cast<InstanceState>(state);
    instance.placed_at = SimTime::FromSeconds(placed_s);
    auto service_it = services_.find(instance.service);
    if (service_it == services_.end()) {
      return UnknownService(instance.service);
    }
    auto server_it = servers_.find(instance.server);
    if (server_it == servers_.end()) return UnknownServer(instance.server);
    InstanceId id = instance.id;
    // Snapshots list instances in id order: each goes last.
    size_t before = instances_.size();
    auto emplaced =
        instances_.emplace_hint(instances_.end(), id, std::move(instance));
    if (instances_.size() == before) {
      return Status::ParseError(StrFormat(
          "duplicate instance id %llu in snapshot",
          static_cast<unsigned long long>(id)));
    }
    BookInstance(emplaced->second, &server_it->second, &service_it->second);
  }
  priorities_.clear();
  AG_ASSIGN_OR_RETURN(uint64_t priority_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(priority_count, 4 + 8));
  for (uint64_t i = 0; i < priority_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    AG_ASSIGN_OR_RETURN(double priority, r->F64());
    priorities_[std::move(name)] = priority;
  }
  server_protection_.clear();
  AG_ASSIGN_OR_RETURN(uint64_t sp_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(sp_count, 4 + 8));
  for (uint64_t i = 0; i < sp_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    AG_ASSIGN_OR_RETURN(int64_t until_s, r->I64());
    server_protection_.emplace(std::move(name),
                               SimTime::FromSeconds(until_s));
  }
  service_protection_.clear();
  AG_ASSIGN_OR_RETURN(uint64_t svc_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(svc_count, 4 + 8));
  for (uint64_t i = 0; i < svc_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    AG_ASSIGN_OR_RETURN(int64_t until_s, r->I64());
    service_protection_.emplace(std::move(name),
                                SimTime::FromSeconds(until_s));
  }
  AG_ASSIGN_OR_RETURN(next_instance_id_, r->U64());
  AG_ASSIGN_OR_RETURN(int64_t ip_suffix, r->I64());
  next_ip_suffix_ = static_cast<int>(ip_suffix);
  AG_ASSIGN_OR_RETURN(topology_epoch_, r->U64());
  // Epochs start at 1, so 0 can never match: the dense index rebuilds
  // on the next access.
  index_epoch_ = 0;
  return Status::OK();
}

Status VerifyClusterInvariants(const Cluster& cluster, bool enforce_min) {
  for (const ServerSpec* server : cluster.Servers()) {
    double used = 0.0;
    std::vector<std::string_view> hosted;
    bool has_exclusive = false;
    std::string exclusive_service;
    std::vector<const ServiceInstance*> instances =
        cluster.InstancesOn(server->name);
    for (const ServiceInstance* instance : instances) {
      AG_ASSIGN_OR_RETURN(const ServiceSpec* spec,
                          cluster.FindService(instance->service));
      used += spec->memory_footprint_gb;
      for (std::string_view other : hosted) {
        if (other == instance->service) {
          return Status::Internal(StrFormat(
              "server \"%s\" hosts two instances of service \"%s\"",
              server->name.c_str(), instance->service.c_str()));
        }
      }
      hosted.push_back(instance->service);
      if (spec->exclusive) {
        has_exclusive = true;
        exclusive_service = spec->name;
      }
      if (server->performance_index < spec->min_performance_index) {
        return Status::Internal(StrFormat(
            "instance %s on server with PI %g below service minimum %g",
            instance->Name().c_str(), server->performance_index,
            spec->min_performance_index));
      }
      if (!cluster.IsServerUp(server->name) &&
          instance->state != InstanceState::kFailed) {
        return Status::Internal(StrFormat(
            "%s instance %s still placed on down server \"%s\"",
            std::string(InstanceStateName(instance->state)).c_str(),
            instance->Name().c_str(), server->name.c_str()));
      }
    }
    if (has_exclusive && instances.size() > 1) {
      return Status::Internal(StrFormat(
          "exclusive service \"%s\" shares server \"%s\" with %zu "
          "co-tenant(s)",
          exclusive_service.c_str(), server->name.c_str(),
          instances.size() - 1));
    }
    if (used > server->memory_gb + 1e-9) {
      return Status::Internal(StrFormat(
          "server \"%s\": %.1f GB of instances exceeds %.1f GB capacity",
          server->name.c_str(), used, server->memory_gb));
    }
  }
  for (const ServiceSpec* service : cluster.Services()) {
    int active = cluster.ActiveInstanceCount(service->name);
    if (active > service->max_instances) {
      return Status::Internal(StrFormat(
          "service \"%s\": %d active instances exceed maxInstances %d",
          service->name.c_str(), active, service->max_instances));
    }
    if (enforce_min && active < service->min_instances) {
      return Status::Internal(StrFormat(
          "service \"%s\": %d active instances below minInstances %d",
          service->name.c_str(), active, service->min_instances));
    }
  }
  return Status::OK();
}

}  // namespace autoglobe::infra
