#include "workload/demand.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::workload {

using infra::InstanceId;
using infra::InstanceRef;
using infra::LandscapeIndex;

DemandEngine::DemandEngine(infra::Cluster* cluster, Rng rng)
    : cluster_(cluster), rng_(rng) {
  AG_CHECK(cluster_ != nullptr);
}

int32_t DemandEngine::SpecSlotOf(std::string_view service) const {
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), service,
      [](const ServiceDemandSpec& spec, std::string_view name) {
        return spec.service < name;
      });
  if (it == specs_.end() || it->service != service) return -1;
  return static_cast<int32_t>(it - specs_.begin());
}

int32_t DemandEngine::ServerSlotOf(std::string_view server) const {
  auto it = std::lower_bound(server_names_.begin(), server_names_.end(),
                             server);
  if (it == server_names_.end() || *it != server) return -1;
  return static_cast<int32_t>(it - server_names_.begin());
}

Status DemandEngine::AddService(ServiceDemandSpec spec) {
  AG_RETURN_IF_ERROR(cluster_->FindService(spec.service).status());
  if (SpecSlotOf(spec.service) >= 0) {
    return Status::AlreadyExists(StrFormat(
        "demand spec for \"%s\" already registered", spec.service.c_str()));
  }
  if (spec.base_users < 0 || spec.request_cost < 0 ||
      spec.base_load_wu < 0 || spec.batch_load_wu < 0 ||
      spec.noise_stddev < 0) {
    return Status::InvalidArgument(StrFormat(
        "demand spec for \"%s\" has negative parameters",
        spec.service.c_str()));
  }
  // Keep specs sorted by service name: a slot is the service's rank,
  // and iterating slots reproduces the old name-keyed map order.
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), spec.service,
      [](const ServiceDemandSpec& existing, const std::string& name) {
        return existing.service < name;
      });
  size_t slot = static_cast<size_t>(it - specs_.begin());
  specs_.insert(it, std::move(spec));
  queue_wu_.insert(queue_wu_.begin() + static_cast<ptrdiff_t>(slot), 0.0);
  plane_dirty_ = true;
  return Status::OK();
}

Status DemandEngine::AddSubsystem(SubsystemSpec spec) {
  for (const std::string& app : spec.app_services) {
    if (SpecSlotOf(app) < 0) {
      return Status::NotFound(StrFormat(
          "subsystem \"%s\": unknown app service \"%s\"",
          spec.name.c_str(), app.c_str()));
    }
  }
  if (!spec.central_instance.empty() &&
      SpecSlotOf(spec.central_instance) < 0) {
    return Status::NotFound(StrFormat(
        "subsystem \"%s\": unknown central instance \"%s\"",
        spec.name.c_str(), spec.central_instance.c_str()));
  }
  if (!spec.database.empty() && SpecSlotOf(spec.database) < 0) {
    return Status::NotFound(StrFormat(
        "subsystem \"%s\": unknown database \"%s\"", spec.name.c_str(),
        spec.database.c_str()));
  }
  subsystems_.push_back(std::move(spec));
  plane_dirty_ = true;
  return Status::OK();
}

void DemandEngine::SeedRng(uint64_t seed, RngKind kind) {
  rng_ = Rng(seed);
  philox_.Reseed(seed);
  rng_kind_ = kind;
}

void DemandEngine::ResetRunState(uint64_t seed, RngKind kind) {
  ResetRunState(Rng(seed));
  philox_.Reseed(seed);
  rng_kind_ = kind;
}

void DemandEngine::ResetRunState(Rng rng) {
  rng_ = rng;
  std::fill(users_.begin(), users_.end(), 0.0);
  std::fill(backlog_wu_.begin(), backlog_wu_.end(), 0.0);
  std::fill(demand_wu_.begin(), demand_wu_.end(), 0.0);
  std::fill(served_wu_.begin(), served_wu_.end(), 0.0);
  std::fill(inst_load_.begin(), inst_load_.end(), 0.0);
  std::fill(server_cpu_.begin(), server_cpu_.end(), 0.0);
  std::fill(server_mem_.begin(), server_mem_.end(), 0.0);
  std::fill(queue_wu_.begin(), queue_wu_.end(), 0.0);
  lost_work_wu_ = 0.0;
  overload_minutes_ = 0.0;
}

const LandscapeIndex& DemandEngine::EnsureDataPlane() {
  const LandscapeIndex& index = cluster_->Index();
  if (!plane_dirty_ && plane_epoch_ == cluster_->topology_epoch()) {
    return index;
  }

  // Spec slot <-> cluster service id views.
  spec_service_id_.assign(specs_.size(), infra::kNoDenseId);
  spec_of_service_.assign(index.num_services(), -1);
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    infra::DenseId sid = index.ServiceIdOf(specs_[slot].service);
    spec_service_id_[slot] = sid;
    if (sid >= 0) {
      spec_of_service_[static_cast<size_t>(sid)] =
          static_cast<int32_t>(slot);
    }
  }

  // Lower subsystem propagation to flat spec-slot edges.
  edges_.clear();
  edges_.reserve(subsystems_.size());
  for (const SubsystemSpec& subsystem : subsystems_) {
    SubsystemEdges edge;
    edge.app_specs.reserve(subsystem.app_services.size());
    for (const std::string& app : subsystem.app_services) {
      edge.app_specs.push_back(SpecSlotOf(app));
    }
    if (!subsystem.central_instance.empty()) {
      edge.ci_spec = SpecSlotOf(subsystem.central_instance);
    }
    if (!subsystem.database.empty()) {
      edge.db_spec = SpecSlotOf(subsystem.database);
    }
    edge.ci_factor = subsystem.ci_factor;
    edge.db_factor = subsystem.db_factor;
    edges_.push_back(std::move(edge));
  }

  // Per-instance SoA state, indexed by raw InstanceId. Growth keeps
  // the existing values; ids are never reused, so no remap is needed.
  size_t bound = static_cast<size_t>(index.instance_id_bound());
  if (users_.size() < bound) {
    users_.resize(bound, 0.0);
    backlog_wu_.resize(bound, 0.0);
    demand_wu_.resize(bound, 0.0);
    served_wu_.resize(bound, 0.0);
    inst_load_.resize(bound, 0.0);
    tracked_.resize(bound, 0);
  }
  // Untrack removed instances, zeroing their state — their users are
  // gone, and the per-service target reconciliation in SyncUsers
  // re-adds them elsewhere (the old engine erased the map entries).
  std::vector<uint8_t> live(users_.size(), 0);
  for (const InstanceRef& ref : index.Instances()) {
    live[static_cast<size_t>(ref.id)] = 1;
  }
  for (size_t id = 0; id < users_.size(); ++id) {
    if (tracked_[id] && !live[id]) {
      users_[id] = 0.0;
      backlog_wu_[id] = 0.0;
      demand_wu_[id] = 0.0;
      served_wu_[id] = 0.0;
      inst_load_[id] = 0.0;
    }
    tracked_[id] = live[id];
  }

  // Per-server load arrays: carry last-tick values over to the
  // shifted dense layout by name. The cluster only ever adds servers
  // and dense server ids are name ranks, so an unchanged server count
  // means an unchanged layout and the arrays stay as they are.
  if (server_names_.size() != index.num_servers()) {
    std::vector<std::string> names;
    names.reserve(index.num_servers());
    for (size_t s = 0; s < index.num_servers(); ++s) {
      names.push_back(index.ServerName(static_cast<infra::DenseId>(s)));
    }
    std::vector<double> cpu(names.size(), 0.0);
    std::vector<double> mem(names.size(), 0.0);
    for (size_t s = 0; s < names.size(); ++s) {
      int32_t old_slot = ServerSlotOf(names[s]);
      if (old_slot >= 0) {
        cpu[s] = server_cpu_[static_cast<size_t>(old_slot)];
        mem[s] = server_mem_[static_cast<size_t>(old_slot)];
      }
    }
    server_names_ = std::move(names);
    server_cpu_ = std::move(cpu);
    server_mem_ = std::move(mem);
  }

  // Pre-size every per-tick temporary so Tick stays off the heap.
  scratch_.app_work.assign(specs_.size(), 0.0);
  scratch_.shared_unserved.assign(specs_.size(), 0.0);
  scratch_.serve.assign(users_.size(), 0.0);
  scratch_.unsatisfied.reserve(index.max_instances_per_server());
  scratch_.still_unsatisfied.reserve(index.max_instances_per_server());

  plane_epoch_ = cluster_->topology_epoch();
  plane_dirty_ = false;
  return index;
}

InstanceId DemandEngine::LeastLoadedInstance(
    const LandscapeIndex& index,
    std::span<const InstanceRef> instances) const {
  InstanceId best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (const InstanceRef& ref : instances) {
    if (ref.instance->state != infra::InstanceState::kRunning) continue;
    // Score by the host's CPU load from the previous tick; break ties
    // toward emptier instances relative to host capacity.
    double host_load = ServerCpuLoadById(ref.server);
    double users = users_[static_cast<size_t>(ref.id)];
    double capacity = index.ServerPerformance(ref.server);
    double score = host_load + 0.001 * users / (capacity *
                                                kUsersPerPerformanceUnit);
    if (score < best_score) {
      best_score = score;
      best = ref.id;
    }
  }
  return best;
}

void DemandEngine::SyncUsers(const LandscapeIndex& index) {
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    const ServiceDemandSpec& spec = specs_[slot];
    infra::DenseId sid = spec_service_id_[slot];
    if (sid < 0) continue;
    std::span<const InstanceRef> instances = index.InstancesOfService(sid);
    if (instances.empty()) continue;
    if (spec.base_users <= 0) continue;  // batch / derived services

    double target_total = spec.base_users * user_scale_;

    if (distribution_ == UserDistribution::kDynamicRedistribution) {
      // FM: users are redistributed across all serving instances
      // whenever anything changes. The paper says "equally"; we weigh
      // the shares by host capacity so that equal *load* results on
      // the heterogeneous blades (an equal head-count split would
      // systematically overload the PI-1 hosts).
      bool any_usable = false;
      double weight_total = 0.0;
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state != infra::InstanceState::kFailed) {
          any_usable = true;
          weight_total += index.ServerPerformance(ref.server);
        }
      }
      if (!any_usable || weight_total <= 0) continue;
      for (const InstanceRef& ref : instances) {
        users_[static_cast<size_t>(ref.id)] = 0.0;
      }
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == infra::InstanceState::kFailed) continue;
        users_[static_cast<size_t>(ref.id)] =
            target_total * index.ServerPerformance(ref.server) /
            weight_total;
      }
      continue;
    }

    // Sticky sessions: users stay where they are. Users of failed
    // instances re-login at the least-loaded instance. Scale changes
    // and users lost with removed instances reconcile against the
    // target total: shortfalls log in at the least-loaded instance,
    // excess logs off proportionally.
    double current_total = 0.0;
    for (const InstanceRef& ref : instances) {
      size_t id = static_cast<size_t>(ref.id);
      if (ref.instance->state == infra::InstanceState::kFailed &&
          users_[id] > 0) {
        InstanceId refuge = LeastLoadedInstance(index, instances);
        if (refuge != 0 && refuge != ref.id) {
          users_[static_cast<size_t>(refuge)] += users_[id];
          users_[id] = 0.0;
        }
      }
      current_total += users_[id];
    }
    double diff = target_total - current_total;
    if (diff > 1e-9) {
      // Fresh logins spread across the least-loaded instances; in the
      // aggregate that matches a capacity-proportional arrival split.
      double weight_total = 0.0;
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == infra::InstanceState::kFailed) continue;
        weight_total += index.ServerPerformance(ref.server);
      }
      if (weight_total > 0) {
        for (const InstanceRef& ref : instances) {
          if (ref.instance->state == infra::InstanceState::kFailed) {
            continue;
          }
          users_[static_cast<size_t>(ref.id)] +=
              diff * index.ServerPerformance(ref.server) / weight_total;
        }
      } else {
        users_[static_cast<size_t>(instances.front().id)] += diff;
      }
    } else if (diff < -1e-9 && current_total > 0) {
      double keep = target_total / current_total;
      for (const InstanceRef& ref : instances) {
        users_[static_cast<size_t>(ref.id)] *= keep;
      }
    }
  }
}

void DemandEngine::ApplyFluctuation(const LandscapeIndex& index,
                                    double dt_minutes) {
  if (distribution_ != UserDistribution::kStickySessions) return;
  if (fluctuation_per_minute_ <= 0) return;
  double fraction = std::min(1.0, fluctuation_per_minute_ * dt_minutes);
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    const ServiceDemandSpec& spec = specs_[slot];
    if (spec.base_users <= 0) continue;
    infra::DenseId sid = spec_service_id_[slot];
    if (sid < 0) continue;
    std::span<const InstanceRef> instances = index.InstancesOfService(sid);
    if (instances.size() < 2) continue;
    InstanceId refuge = LeastLoadedInstance(index, instances);
    if (refuge == 0) continue;
    double moved = 0.0;
    for (const InstanceRef& ref : instances) {
      if (ref.id == refuge) continue;
      size_t id = static_cast<size_t>(ref.id);
      double leave = users_[id] * fraction;
      users_[id] -= leave;
      moved += leave;
    }
    users_[static_cast<size_t>(refuge)] += moved;
  }
}

void DemandEngine::Tick(SimTime now, Duration dt) {
  double dt_minutes = std::max(1e-9, dt.seconds() / 60.0);
  const LandscapeIndex& index = EnsureDataPlane();
  SyncUsers(index);
  ApplyFluctuation(index, dt_minutes);

  // --- Fresh demand per instance (wu per minute) -----------------------
  std::fill(scratch_.app_work.begin(), scratch_.app_work.end(), 0.0);
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    const ServiceDemandSpec& spec = specs_[slot];
    infra::DenseId sid = spec_service_id_[slot];
    if (sid < 0) continue;
    std::span<const InstanceRef> instances = index.InstancesOfService(sid);
    if (instances.empty()) continue;
    double activity = spec.pattern.Activity(now);
    double usable_capacity = 0.0;
    for (const InstanceRef& ref : instances) {
      if (ref.instance->state != infra::InstanceState::kFailed) {
        usable_capacity += index.ServerPerformance(ref.server);
      }
    }
    double queue = queue_wu_[slot];
    double service_work = 0.0;
    for (const InstanceRef& ref : instances) {
      size_t id = static_cast<size_t>(ref.id);
      double fresh = 0.0;
      if (spec.batch) {
        // Batch jobs are pulled from a shared queue, so instances on
        // faster hosts process proportionally more of them.
        if (usable_capacity > 0 &&
            ref.instance->state != infra::InstanceState::kFailed) {
          fresh = spec.batch_load_wu * activity * user_scale_ *
                  index.ServerPerformance(ref.server) / usable_capacity;
        }
      } else if (spec.base_users > 0) {
        fresh = users_[id] * activity * spec.request_cost /
                kUsersPerPerformanceUnit;
      }
      if (fresh > 0 && spec.noise_stddev > 0) {
        if (rng_kind_ == RngKind::kPhilox) {
          // Same expression as the batched philox_noise_row kernel —
          // scalar and batched philox runs are bit-identical.
          fresh *= std::max(
              0.0, 1.0 + spec.noise_stddev * philox_.NormalUnit());
        } else {
          fresh *= std::max(0.0, rng_.Normal(1.0, spec.noise_stddev));
        }
      }
      double queued = backlog_wu_[id];
      if (spec.shared_queue && usable_capacity > 0 &&
          ref.instance->state != infra::InstanceState::kFailed &&
          queue > 0) {
        queued = queue * index.ServerPerformance(ref.server) /
                 usable_capacity;
      }
      demand_wu_[id] = spec.base_load_wu + fresh + queued;
      service_work += fresh;
    }
    scratch_.app_work[slot] = service_work;
  }

  // --- Propagate through central instances and databases ----------------
  for (const SubsystemEdges& edge : edges_) {
    double app_work = 0.0;
    for (int32_t app_slot : edge.app_specs) {
      if (app_slot >= 0) app_work += scratch_.app_work[app_slot];
    }
    auto distribute = [&](int32_t spec_slot, double work) {
      if (spec_slot < 0 || work <= 0) return;
      infra::DenseId sid = spec_service_id_[static_cast<size_t>(spec_slot)];
      if (sid < 0) {
        lost_work_wu_ += work * dt_minutes;
        return;
      }
      std::span<const InstanceRef> instances =
          index.InstancesOfService(sid);
      double usable_capacity = 0.0;
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state != infra::InstanceState::kFailed) {
          usable_capacity += index.ServerPerformance(ref.server);
        }
      }
      if (usable_capacity <= 0) {
        lost_work_wu_ += work * dt_minutes;  // nobody to serve the tier
        return;
      }
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == infra::InstanceState::kFailed) continue;
        demand_wu_[static_cast<size_t>(ref.id)] +=
            work * index.ServerPerformance(ref.server) / usable_capacity;
      }
    };
    distribute(edge.ci_spec, edge.ci_factor * app_work);
    distribute(edge.db_spec, edge.db_factor * app_work);
  }

  // --- Proportional-share CPU model per server --------------------------
  std::fill(scratch_.shared_unserved.begin(),
            scratch_.shared_unserved.end(), 0.0);
  for (size_t s = 0; s < index.num_servers(); ++s) {
    infra::DenseId server_id = static_cast<infra::DenseId>(s);
    std::span<const InstanceRef> instances =
        index.InstancesOnServer(server_id);
    double capacity = index.ServerPerformance(server_id);
    double total_demand = 0.0;
    for (const InstanceRef& ref : instances) {
      scratch_.serve[static_cast<size_t>(ref.id)] = 0.0;
      // Starting instances consume their base load only; their fresh
      // work waits (and is re-queued as backlog below).
      if (ref.instance->state == infra::InstanceState::kRunning) {
        total_demand += demand_wu_[static_cast<size_t>(ref.id)];
      }
    }

    double cpu = capacity > 0 ? total_demand / capacity : 1.0;
    double cpu_load = std::min(1.0, cpu);
    server_cpu_[s] = cpu_load;
    server_mem_[s] =
        std::min(1.0, index.ServerUsedMemoryGb(server_id) /
                          index.ServerMemoryGb(server_id));

    // Serve demand: everything if it fits, otherwise a priority-
    // weighted proportional share (water-filling, 3 rounds).
    if (total_demand <= capacity) {
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == infra::InstanceState::kRunning) {
          scratch_.serve[static_cast<size_t>(ref.id)] =
              demand_wu_[static_cast<size_t>(ref.id)];
        }
      }
    } else {
      double remaining = capacity;
      scratch_.unsatisfied.clear();
      for (size_t pos = 0; pos < instances.size(); ++pos) {
        if (instances[pos].instance->state ==
            infra::InstanceState::kRunning) {
          scratch_.unsatisfied.push_back(static_cast<uint32_t>(pos));
        }
      }
      for (int round = 0; round < 3 && remaining > 1e-12 &&
                          !scratch_.unsatisfied.empty();
           ++round) {
        double total_weight = 0.0;
        for (uint32_t pos : scratch_.unsatisfied) {
          const InstanceRef& ref = instances[pos];
          total_weight +=
              index.ServicePriority(ref.service) *
              std::max(1e-9, demand_wu_[static_cast<size_t>(ref.id)]);
        }
        if (total_weight <= 0) break;
        scratch_.still_unsatisfied.clear();
        double granted_total = 0.0;
        for (uint32_t pos : scratch_.unsatisfied) {
          const InstanceRef& ref = instances[pos];
          size_t id = static_cast<size_t>(ref.id);
          double weight = index.ServicePriority(ref.service) *
                          std::max(1e-9, demand_wu_[id]);
          double grant = remaining * weight / total_weight;
          double need = demand_wu_[id] - scratch_.serve[id];
          double take = std::min(grant, need);
          scratch_.serve[id] += take;
          granted_total += take;
          if (scratch_.serve[id] + 1e-12 < demand_wu_[id]) {
            scratch_.still_unsatisfied.push_back(pos);
          }
        }
        remaining -= granted_total;
        scratch_.unsatisfied.swap(scratch_.still_unsatisfied);
      }
    }

    // Update per-instance load and backlog.
    for (const InstanceRef& ref : instances) {
      size_t id = static_cast<size_t>(ref.id);
      inst_load_[id] =
          capacity > 0 ? std::min(1.0, demand_wu_[id] / capacity) : 1.0;
      double got = scratch_.serve[id];
      served_wu_[id] = got;
      double unserved = std::max(0.0, demand_wu_[id] - got);
      // Base (idle) load does not queue; only request work does.
      int32_t slot =
          ref.service >= 0
              ? spec_of_service_[static_cast<size_t>(ref.service)]
              : -1;
      if (slot >= 0) {
        unserved = std::max(0.0, unserved - specs_[slot].base_load_wu);
      }
      // demand_wu already included the queued work, so the unserved
      // remainder *is* the new queue content (converted rate -> work).
      double new_backlog = unserved * dt_minutes;
      backlog_wu_[id] = 0.0;
      if (slot >= 0 && specs_[slot].shared_queue) {
        // Collected into the shared service queue below.
        scratch_.shared_unserved[static_cast<size_t>(slot)] += new_backlog;
        continue;
      }
      double cap = slot >= 0 ? specs_[slot].backlog_cap_wu : 2.0;
      if (new_backlog > cap) {
        lost_work_wu_ += new_backlog - cap;
        new_backlog = cap;
      }
      backlog_wu_[id] = new_backlog;
    }

    if (cpu_load > overload_threshold_) overload_minutes_ += dt_minutes;
  }

  // Commit shared queues (cap per service; overflow is lost work).
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    double queued = scratch_.shared_unserved[slot];
    double cap = specs_[slot].backlog_cap_wu;
    if (queued > cap) {
      lost_work_wu_ += queued - cap;
      queued = cap;
    }
    queue_wu_[slot] = queued > 0 ? queued : 0.0;
  }
}

double DemandEngine::ServerCpuLoad(std::string_view server) const {
  int32_t slot = ServerSlotOf(server);
  return slot < 0 ? 0.0 : server_cpu_[static_cast<size_t>(slot)];
}

double DemandEngine::ServerMemLoad(std::string_view server) const {
  int32_t slot = ServerSlotOf(server);
  return slot < 0 ? 0.0 : server_mem_[static_cast<size_t>(slot)];
}

double DemandEngine::InstanceLoad(infra::InstanceId id) const {
  size_t i = static_cast<size_t>(id);
  return i < tracked_.size() && tracked_[i] ? inst_load_[i] : 0.0;
}

double DemandEngine::ServiceSatisfactionById(infra::DenseId service) const {
  const LandscapeIndex& index = cluster_->Index();
  if (service < 0 || static_cast<size_t>(service) >= index.num_services()) {
    return 1.0;  // nothing requested
  }
  double requested = 0.0;
  double served = 0.0;
  for (const InstanceRef& ref : index.InstancesOfService(service)) {
    size_t id = static_cast<size_t>(ref.id);
    if (id >= tracked_.size() || !tracked_[id]) continue;
    requested += demand_wu_[id];
    served += std::min(served_wu_[id], demand_wu_[id]);
  }
  if (requested <= 1e-12) return 1.0;
  return std::clamp(served / requested, 0.0, 1.0);
}

double DemandEngine::ServiceSatisfaction(std::string_view service) const {
  return ServiceSatisfactionById(cluster_->Index().ServiceIdOf(service));
}

double DemandEngine::ServiceLoadById(infra::DenseId service) const {
  const LandscapeIndex& index = cluster_->Index();
  if (service < 0 || static_cast<size_t>(service) >= index.num_services()) {
    return 0.0;
  }
  std::span<const InstanceRef> instances =
      index.InstancesOfService(service);
  if (instances.empty()) return 0.0;
  double total = 0.0;
  int count = 0;
  for (const InstanceRef& ref : instances) {
    size_t id = static_cast<size_t>(ref.id);
    if (id >= tracked_.size() || !tracked_[id]) continue;
    total += inst_load_[id];
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

double DemandEngine::ServiceLoad(std::string_view service) const {
  return ServiceLoadById(cluster_->Index().ServiceIdOf(service));
}

double DemandEngine::InstanceUsers(infra::InstanceId id) const {
  size_t i = static_cast<size_t>(id);
  return i < tracked_.size() && tracked_[i] ? users_[i] : 0.0;
}

double DemandEngine::ServiceUsers(std::string_view service) const {
  const LandscapeIndex& index = cluster_->Index();
  infra::DenseId sid = index.ServiceIdOf(service);
  if (sid < 0) return 0.0;
  double total = 0.0;
  for (const InstanceRef& ref : index.InstancesOfService(sid)) {
    total += InstanceUsers(ref.id);
  }
  return total;
}

double DemandEngine::TotalBacklog() const {
  double total = 0.0;
  for (size_t id = 0; id < tracked_.size(); ++id) {
    if (tracked_[id]) total += backlog_wu_[id];
  }
  for (double queued : queue_wu_) total += queued;
  return total;
}

namespace {

void WriteDoubles(ByteWriter* w, const std::vector<double>& values) {
  w->U64(values.size());
  for (double v : values) w->F64(v);
}

Status ReadDoubles(ByteReader* r, std::vector<double>* values) {
  uint64_t count;
  AG_ASSIGN_OR_RETURN(count, r->U64());
  values->assign(count, 0.0);
  for (uint64_t i = 0; i < count; ++i) {
    AG_ASSIGN_OR_RETURN((*values)[i], r->F64());
  }
  return Status::OK();
}

}  // namespace

void DemandEngine::SaveState(ByteWriter* w) const {
  Rng::State rng = rng_.SaveState();
  for (uint64_t word : rng.words) w->U64(word);
  w->U8(rng.have_cached_normal ? 1 : 0);
  w->F64(rng.cached_normal);
  PhiloxRng::State philox = philox_.SaveState();
  w->U32(philox.key0);
  w->U32(philox.key1);
  w->U64(philox.counter);
  w->U64(philox.cache_block);
  w->F64(philox.cache);
  w->U8(philox.cache_valid ? 1 : 0);
  w->U8(static_cast<uint8_t>(rng_kind_));

  WriteDoubles(w, users_);
  WriteDoubles(w, backlog_wu_);
  WriteDoubles(w, demand_wu_);
  WriteDoubles(w, served_wu_);
  WriteDoubles(w, inst_load_);
  w->U64(tracked_.size());
  w->Raw(tracked_.data(), tracked_.size());

  w->U64(server_names_.size());
  for (const std::string& name : server_names_) w->Str(name);
  WriteDoubles(w, server_cpu_);
  WriteDoubles(w, server_mem_);
  WriteDoubles(w, queue_wu_);
  w->F64(lost_work_wu_);
  w->F64(overload_minutes_);
}

Status DemandEngine::RestoreState(ByteReader* r) {
  Rng::State rng;
  for (uint64_t& word : rng.words) {
    AG_ASSIGN_OR_RETURN(word, r->U64());
  }
  AG_ASSIGN_OR_RETURN(uint8_t have_normal, r->U8());
  rng.have_cached_normal = have_normal != 0;
  AG_ASSIGN_OR_RETURN(rng.cached_normal, r->F64());
  rng_.RestoreState(rng);
  PhiloxRng::State philox;
  AG_ASSIGN_OR_RETURN(philox.key0, r->U32());
  AG_ASSIGN_OR_RETURN(philox.key1, r->U32());
  AG_ASSIGN_OR_RETURN(philox.counter, r->U64());
  AG_ASSIGN_OR_RETURN(philox.cache_block, r->U64());
  AG_ASSIGN_OR_RETURN(philox.cache, r->F64());
  AG_ASSIGN_OR_RETURN(uint8_t cache_valid, r->U8());
  philox.cache_valid = cache_valid != 0;
  philox_.RestoreState(philox);
  AG_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  rng_kind_ = static_cast<RngKind>(kind);

  AG_RETURN_IF_ERROR(ReadDoubles(r, &users_));
  AG_RETURN_IF_ERROR(ReadDoubles(r, &backlog_wu_));
  AG_RETURN_IF_ERROR(ReadDoubles(r, &demand_wu_));
  AG_RETURN_IF_ERROR(ReadDoubles(r, &served_wu_));
  AG_RETURN_IF_ERROR(ReadDoubles(r, &inst_load_));
  AG_ASSIGN_OR_RETURN(uint64_t tracked_count, r->U64());
  tracked_.assign(tracked_count, 0);
  AG_RETURN_IF_ERROR(r->Raw(tracked_.data(), tracked_count));

  AG_ASSIGN_OR_RETURN(uint64_t name_count, r->U64());
  server_names_.clear();
  server_names_.reserve(name_count);
  for (uint64_t i = 0; i < name_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    server_names_.push_back(std::move(name));
  }
  AG_RETURN_IF_ERROR(ReadDoubles(r, &server_cpu_));
  AG_RETURN_IF_ERROR(ReadDoubles(r, &server_mem_));
  AG_RETURN_IF_ERROR(ReadDoubles(r, &queue_wu_));
  AG_ASSIGN_OR_RETURN(lost_work_wu_, r->F64());
  AG_ASSIGN_OR_RETURN(overload_minutes_, r->F64());

  // The dense plane re-syncs against the restored cluster on the next
  // Tick; the sync carries per-instance state by id and per-server
  // state by name, so forcing it is value-preserving.
  plane_dirty_ = true;
  return Status::OK();
}

}  // namespace autoglobe::workload
