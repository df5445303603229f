#include "workload/demand_model.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::workload {

using infra::InstanceId;
using infra::InstanceRef;
using infra::LandscapeIndex;

DemandModel::DemandModel(infra::Cluster* cluster, size_t lanes)
    : cluster_(cluster), lanes_(lanes) {
  AG_CHECK(cluster_ != nullptr);
  AG_CHECK(lanes_ >= 1 && lanes_ <= 1024);
  lost_work_wu_.assign(lanes_, 0.0);
  overload_minutes_.assign(lanes_, 0.0);
}

int32_t DemandModel::SpecSlotOf(std::string_view service) const {
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), service,
      [](const ServiceDemandSpec& spec, std::string_view name) {
        return spec.service < name;
      });
  if (it == specs_.end() || it->service != service) return -1;
  return static_cast<int32_t>(it - specs_.begin());
}

int32_t DemandModel::ServerSlotOf(std::string_view server) const {
  auto it = std::lower_bound(server_names_.begin(), server_names_.end(),
                             server);
  if (it == server_names_.end() || *it != server) return -1;
  return static_cast<int32_t>(it - server_names_.begin());
}

Status DemandModel::AddService(ServiceDemandSpec spec) {
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
  // so iterating slots visits the services in name order.
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), spec.service,
      [](const ServiceDemandSpec& existing, const std::string& name) {
        return existing.service < name;
      });
  size_t slot = static_cast<size_t>(it - specs_.begin());
  specs_.insert(it, std::move(spec));
  queue_wu_.insert(queue_wu_.begin() + static_cast<ptrdiff_t>(slot * lanes_),
                   lanes_, 0.0);
  plane_dirty_ = true;
  return Status::OK();
}

Status DemandModel::AddSubsystem(SubsystemSpec spec) {
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

void DemandModel::ResetLanes() {
  for (std::vector<double>* values :
       {&users_, &backlog_wu_, &demand_wu_, &served_wu_, &inst_load_,
        &server_cpu_, &server_mem_, &queue_wu_, &lost_work_wu_,
        &overload_minutes_}) {
    std::fill(values->begin(), values->end(), 0.0);
  }
}

bool DemandModel::EnsureDataPlane() {
  const LandscapeIndex& index = cluster_->Index();
  if (!plane_dirty_ && plane_epoch_ == cluster_->topology_epoch()) {
    return false;
  }

  // Spec slot <-> cluster service id views. They depend only on the
  // registrations and the service set; services are only ever added
  // and dense service ids are name ranks, so an unchanged service
  // count means unchanged ids and instance moves skip this.
  if (plane_dirty_ || spec_of_service_.size() != index.num_services()) {
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
  }

  // Lower subsystem propagation to flat spec-slot edges; they depend
  // only on the registrations.
  if (plane_dirty_) {
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
  }

  // Per-instance state, lane-strided by raw InstanceId. Growth keeps
  // the existing values; ids are never reused, so no remap is needed.
  size_t bound = static_cast<size_t>(index.instance_id_bound());
  if (tracked_.size() < bound) {
    for (std::vector<double>* values :
         {&users_, &backlog_wu_, &demand_wu_, &served_wu_, &inst_load_}) {
      values->resize(bound * lanes_, 0.0);
    }
    tracked_.resize(bound, 0);
  }
  // Untrack removed instances, zeroing every lane's state for the id —
  // their users are gone, and the per-service target reconciliation
  // of the next user sync re-adds them elsewhere.
  std::vector<uint8_t> live(tracked_.size(), 0);
  for (const InstanceRef& ref : index.Instances()) {
    live[static_cast<size_t>(ref.id)] = 1;
  }
  for (size_t id = 0; id < tracked_.size(); ++id) {
    if (tracked_[id] && !live[id]) {
      for (std::vector<double>* values :
           {&users_, &backlog_wu_, &demand_wu_, &served_wu_, &inst_load_}) {
        std::fill_n(values->data() + id * lanes_, lanes_, 0.0);
      }
    }
    tracked_[id] = live[id];
  }

  // Per-server load arrays: carry last-tick values over to the shifted
  // dense layout by name. The cluster only ever adds servers and dense
  // server ids are name ranks, so an unchanged server count means an
  // unchanged layout and the arrays stay as they are.
  if (server_names_.size() != index.num_servers()) {
    std::vector<std::string> names;
    names.reserve(index.num_servers());
    for (size_t s = 0; s < index.num_servers(); ++s) {
      names.push_back(index.ServerName(static_cast<infra::DenseId>(s)));
    }
    std::vector<double> cpu(names.size() * lanes_, 0.0);
    std::vector<double> mem(names.size() * lanes_, 0.0);
    for (size_t s = 0; s < names.size(); ++s) {
      int32_t old_slot = ServerSlotOf(names[s]);
      if (old_slot < 0) continue;
      size_t from = static_cast<size_t>(old_slot) * lanes_;
      std::copy_n(server_cpu_.data() + from, lanes_, cpu.data() + s * lanes_);
      std::copy_n(server_mem_.data() + from, lanes_, mem.data() + s * lanes_);
    }
    server_names_ = std::move(names);
    server_cpu_ = std::move(cpu);
    server_mem_ = std::move(mem);
  }

  plane_epoch_ = cluster_->topology_epoch();
  plane_dirty_ = false;
  return true;
}

InstanceId DemandModel::LeastLoadedInstance(
    const LandscapeIndex& index, std::span<const InstanceRef> instances,
    size_t lane) const {
  InstanceId best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (const InstanceRef& ref : instances) {
    if (ref.instance->state != infra::InstanceState::kRunning) continue;
    // Score by the host's CPU load from the previous tick; break ties
    // toward emptier instances relative to host capacity.
    double host_load = ServerCpuLoad(lane, ref.server);
    double users = users_[static_cast<size_t>(ref.id) * lanes_ + lane];
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

double DemandModel::ServiceLoad(size_t lane, infra::DenseId service) const {
  const LandscapeIndex& index = cluster_->Index();
  if (service < 0 || static_cast<size_t>(service) >= index.num_services()) {
    return 0.0;
  }
  std::span<const InstanceRef> instances = index.InstancesOfService(service);
  if (instances.empty()) return 0.0;
  double total = 0.0;
  int count = 0;
  for (const InstanceRef& ref : instances) {
    size_t id = static_cast<size_t>(ref.id);
    if (id >= tracked_.size() || !tracked_[id]) continue;
    total += inst_load_[id * lanes_ + lane];
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

double DemandModel::ServiceSatisfaction(size_t lane,
                                        infra::DenseId service) const {
  const LandscapeIndex& index = cluster_->Index();
  if (service < 0 || static_cast<size_t>(service) >= index.num_services()) {
    return 1.0;  // nothing requested
  }
  double requested = 0.0;
  double served = 0.0;
  for (const InstanceRef& ref : index.InstancesOfService(service)) {
    size_t id = static_cast<size_t>(ref.id);
    if (id >= tracked_.size() || !tracked_[id]) continue;
    size_t i = id * lanes_ + lane;
    requested += demand_wu_[i];
    served += std::min(served_wu_[i], demand_wu_[i]);
  }
  if (requested <= 1e-12) return 1.0;
  return std::clamp(served / requested, 0.0, 1.0);
}

double DemandModel::TotalBacklog(size_t lane) const {
  double total = 0.0;
  for (size_t id = 0; id < tracked_.size(); ++id) {
    if (tracked_[id]) total += backlog_wu_[id * lanes_ + lane];
  }
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    total += queue_wu_[slot * lanes_ + lane];
  }
  return total;
}

}  // namespace autoglobe::workload
