#include "workload/demand.h"

#include <string>
#include <utility>

#include "common/strings.h"

namespace autoglobe::workload {

using infra::InstanceRef;
using infra::LandscapeIndex;

DemandEngine::DemandEngine(infra::Cluster* cluster, Rng rng)
    : BatchDemandEngine(cluster, 1) {
  rng_[0] = rng;
}

void DemandEngine::SeedRng(uint64_t seed, RngKind kind) {
  SetLaneSeed(0, seed);
  set_rng_kind(kind);
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
  Rng::State rng = rng_[0].SaveState();
  for (uint64_t word : rng.words) w->U64(word);
  w->U8(rng.have_cached_normal ? 1 : 0);
  w->F64(rng.cached_normal);
  PhiloxRng::State philox = philox_.LaneState(0);
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
  if (kind > static_cast<uint8_t>(RngKind::kPhilox)) {
    return Status::ParseError(
        StrFormat("demand state: unknown RNG kind %u", kind));
  }

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

  rng_[0].RestoreState(rng);
  philox_.SetLaneState(0, philox);
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
