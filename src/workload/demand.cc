#include "workload/demand.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "common/strings.h"

namespace autoglobe::workload {

using infra::InstanceId;
using infra::InstanceRef;
using infra::LandscapeIndex;

DemandEngine::DemandEngine(infra::Cluster* cluster, Rng rng)
    : DemandModel(cluster, 1), rng_(rng) {}

void DemandEngine::SeedRng(uint64_t seed, RngKind kind) {
  rng_ = Rng(seed);
  philox_.Reseed(seed);
  rng_kind_ = kind;
}

void DemandEngine::ResetRunState(uint64_t seed, RngKind kind) {
  ResetLanes();
  SeedRng(seed, kind);
}

void DemandEngine::ResizeScratch(const LandscapeIndex& index) {
  scratch_.app_work.assign(specs_.size(), 0.0);
  scratch_.shared_unserved.assign(specs_.size(), 0.0);
  scratch_.serve.assign(users_.size(), 0.0);
  scratch_.unsatisfied.reserve(index.max_instances_per_server());
  scratch_.still_unsatisfied.reserve(index.max_instances_per_server());
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
        InstanceId refuge = LeastLoadedInstance(index, instances, 0);
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
    InstanceId refuge = LeastLoadedInstance(index, instances, 0);
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
  const LandscapeIndex& index = cluster_->Index();
  if (EnsureDataPlane()) ResizeScratch(index);
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
        lost_work_wu_[0] += work * dt_minutes;
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
        lost_work_wu_[0] += work * dt_minutes;  // nobody to serve the tier
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
        lost_work_wu_[0] += new_backlog - cap;
        new_backlog = cap;
      }
      backlog_wu_[id] = new_backlog;
    }

    if (cpu_load > overload_threshold_) overload_minutes_[0] += dt_minutes;
  }

  // Commit shared queues (cap per service; overflow is lost work).
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    double queued = scratch_.shared_unserved[slot];
    double cap = specs_[slot].backlog_cap_wu;
    if (queued > cap) {
      lost_work_wu_[0] += queued - cap;
      queued = cap;
    }
    queue_wu_[slot] = queued > 0 ? queued : 0.0;
  }
}

double DemandEngine::ServerCpuLoad(std::string_view server) const {
  return ServerCpuLoadById(ServerSlotOf(server));
}

double DemandEngine::ServerMemLoad(std::string_view server) const {
  return ServerMemLoadById(ServerSlotOf(server));
}

double DemandEngine::ServiceSatisfaction(std::string_view service) const {
  return ServiceSatisfactionById(cluster_->Index().ServiceIdOf(service));
}

double DemandEngine::ServiceLoad(std::string_view service) const {
  return ServiceLoadById(cluster_->Index().ServiceIdOf(service));
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

namespace {

void WriteDoubles(ByteWriter* w, const std::vector<double>& values) {
  w->U64(values.size());
  for (double v : values) w->F64(v);
}

Status ReadDoubles(ByteReader* r, std::vector<double>* values) {
  AG_ASSIGN_OR_RETURN(uint64_t count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(count, sizeof(double)));
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
  w->F64(lost_work_wu_[0]);
  w->F64(overload_minutes_[0]);
}

Status DemandEngine::RestoreState(ByteReader* r) {
  Rng::State rng;
  for (uint64_t& word : rng.words) {
    AG_ASSIGN_OR_RETURN(word, r->U64());
  }
  AG_ASSIGN_OR_RETURN(uint8_t have_normal, r->U8());
  rng.have_cached_normal = have_normal != 0;
  AG_ASSIGN_OR_RETURN(rng.cached_normal, r->F64());
  PhiloxRng::State philox;
  AG_ASSIGN_OR_RETURN(philox.key0, r->U32());
  AG_ASSIGN_OR_RETURN(philox.key1, r->U32());
  AG_ASSIGN_OR_RETURN(philox.counter, r->U64());
  AG_ASSIGN_OR_RETURN(philox.cache_block, r->U64());
  AG_ASSIGN_OR_RETURN(philox.cache, r->F64());
  AG_ASSIGN_OR_RETURN(uint8_t cache_valid, r->U8());
  philox.cache_valid = cache_valid != 0;
  AG_ASSIGN_OR_RETURN(uint8_t kind, r->U8());

  std::vector<double> users, backlog, demand, served, inst_load;
  for (std::vector<double>* values :
       {&users, &backlog, &demand, &served, &inst_load}) {
    AG_RETURN_IF_ERROR(ReadDoubles(r, values));
  }
  AG_ASSIGN_OR_RETURN(uint64_t tracked_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(tracked_count, 1));
  std::vector<uint8_t> tracked(tracked_count, 0);
  AG_RETURN_IF_ERROR(r->Raw(tracked.data(), tracked_count));

  AG_ASSIGN_OR_RETURN(uint64_t name_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(name_count, sizeof(uint32_t)));
  std::vector<std::string> names;
  names.reserve(name_count);
  for (uint64_t i = 0; i < name_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    names.push_back(std::move(name));
  }
  std::vector<double> cpu, mem, queue;
  for (std::vector<double>* values : {&cpu, &mem, &queue}) {
    AG_RETURN_IF_ERROR(ReadDoubles(r, values));
  }
  AG_ASSIGN_OR_RETURN(double lost_work, r->F64());
  AG_ASSIGN_OR_RETURN(double overload_minutes, r->F64());

  // The tick indexes every per-instance array by the tracked ids, the
  // server arrays by the server layout and the queues by spec slot.
  for (const std::vector<double>* values :
       {&users, &backlog, &demand, &served, &inst_load}) {
    if (values->size() != tracked.size()) {
      return Status::ParseError(StrFormat(
          "demand state: a per-instance array holds %zu value(s) for %zu "
          "tracked id(s)",
          values->size(), tracked.size()));
    }
  }
  if (cpu.size() != names.size() || mem.size() != names.size()) {
    return Status::ParseError(StrFormat(
        "demand state: %zu/%zu server load(s) for %zu server name(s)",
        cpu.size(), mem.size(), names.size()));
  }
  if (queue.size() != specs_.size()) {
    return Status::ParseError(StrFormat(
        "demand state: %zu shared queue(s) for %zu registered spec(s)",
        queue.size(), specs_.size()));
  }

  rng_.RestoreState(rng);
  philox_.RestoreState(philox);
  rng_kind_ = static_cast<RngKind>(kind);
  users_ = std::move(users);
  backlog_wu_ = std::move(backlog);
  demand_wu_ = std::move(demand);
  served_wu_ = std::move(served);
  inst_load_ = std::move(inst_load);
  tracked_ = std::move(tracked);
  server_names_ = std::move(names);
  server_cpu_ = std::move(cpu);
  server_mem_ = std::move(mem);
  queue_wu_ = std::move(queue);
  lost_work_wu_[0] = lost_work;
  overload_minutes_[0] = overload_minutes;

  // The dense plane re-syncs against the restored cluster on the next
  // Tick; the sync carries per-instance state by id and per-server
  // state by name, so forcing it is value-preserving.
  plane_dirty_ = true;
  return Status::OK();
}

}  // namespace autoglobe::workload
