#include "workload/batch_demand.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/philox.h"

namespace autoglobe::workload {

using infra::InstanceId;
using infra::InstanceRef;
using infra::InstanceState;
using infra::LandscapeIndex;

namespace {

// The row kernels compiled into this translation unit (built with the
// kernel TUs' floating-point flags, so they are the same bits as the
// dispatched tiers).
#include "common/lane_kernels_inl.h"

// A per-lane row the tick loop accumulates into. With a compile-time
// lane count it is a local copy, which the compiler keeps in
// registers (no store-to-load chain through memory per row); in the
// L-lane build it is the row itself. Store() writes a copy back.
template <size_t kLanes, typename T = double>
class LaneRow {
 public:
  explicit LaneRow(T* row) : row_(row) { std::copy_n(row, kLanes, local_); }
  T* data() { return local_; }
  void Store() { std::copy_n(local_, kLanes, row_); }

 private:
  T* row_;
  T local_[kLanes];
};

template <typename T>
class LaneRow<kAnyLanes, T> {
 public:
  explicit LaneRow(T* row) : row_(row) {}
  T* data() { return row_; }
  void Store() {}

 private:
  T* row_;
};

// Summed performance index of the non-failed instances: the capacity a
// service's users and work are spread over.
double UsablePerformance(const LandscapeIndex& index,
                         std::span<const InstanceRef> instances) {
  double total = 0.0;
  for (const InstanceRef& ref : instances) {
    if (ref.instance->state != InstanceState::kFailed) {
      total += index.ServerPerformance(ref.server);
    }
  }
  return total;
}

}  // namespace

BatchDemandEngine::BatchDemandEngine(infra::Cluster* cluster, size_t lanes)
    : DemandModel(cluster, lanes), kernels_(&GetLaneKernels()) {
  rng_.reserve(lanes_);
  philox_.Resize(lanes_);
  for (size_t lane = 0; lane < lanes_; ++lane) {
    rng_.emplace_back(static_cast<uint64_t>(lane));
    philox_.SeedLane(lane, static_cast<uint64_t>(lane));
  }
  user_scale_.assign(lanes_, 1.0);
}

void BatchDemandEngine::SetLaneSeed(size_t lane, uint64_t seed) {
  AG_CHECK(lane < lanes_);
  rng_[lane] = Rng(seed);
  philox_.SeedLane(lane, seed);
}

void BatchDemandEngine::SetLaneUserScale(size_t lane, double scale) {
  AG_CHECK(lane < lanes_);
  user_scale_[lane] = scale;
}

void BatchDemandEngine::ResizeScratch(const LandscapeIndex& index) {
  scratch_.app_work.assign(specs_.size() * lanes_, 0.0);
  scratch_.shared_unserved.assign(specs_.size() * lanes_, 0.0);
  scratch_.serve.assign(tracked_.size() * lanes_, 0.0);
  scratch_.tier_work.assign(lanes_, 0.0);
  scratch_.current_total.assign(lanes_, 0.0);
  scratch_.total_demand.assign(lanes_, 0.0);
  scratch_.best_score.assign(lanes_, 0.0);
  scratch_.best_id.assign(lanes_, 0);
  scratch_.moved.assign(lanes_, 0.0);
  scratch_.amount.assign(lanes_, 0.0);
  scratch_.mode.assign(lanes_, 0);
  scratch_.running.reserve(index.max_instances_per_server());
  scratch_.unsatisfied.reserve(index.max_instances_per_server());
  scratch_.still_unsatisfied.reserve(index.max_instances_per_server());
}

void BatchDemandEngine::SyncUsersSpecLane(const LandscapeIndex& index,
                                          size_t slot, size_t lane) {
  const ServiceDemandSpec& spec = specs_[slot];
  std::span<const InstanceRef> instances =
      index.InstancesOfService(spec_service_id_[slot]);
  double target_total = spec.base_users * user_scale_[lane];

  double current_total = 0.0;
  for (const InstanceRef& ref : instances) {
    size_t i = static_cast<size_t>(ref.id) * lanes_ + lane;
    if (ref.instance->state == InstanceState::kFailed && users_[i] > 0) {
      InstanceId refuge = LeastLoadedInstance(index, instances, lane);
      if (refuge != 0 && refuge != ref.id) {
        users_[static_cast<size_t>(refuge) * lanes_ + lane] += users_[i];
        users_[i] = 0.0;
      }
    }
    current_total += users_[i];
  }
  double diff = target_total - current_total;
  if (diff > 1e-9) {
    double weight_total = UsablePerformance(index, instances);
    if (weight_total > 0) {
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == InstanceState::kFailed) continue;
        users_[static_cast<size_t>(ref.id) * lanes_ + lane] +=
            diff * index.ServerPerformance(ref.server) / weight_total;
      }
    } else {
      users_[static_cast<size_t>(instances.front().id) * lanes_ +
             lane] += diff;
    }
  } else if (diff < -1e-9 && current_total > 0) {
    double keep = target_total / current_total;
    for (const InstanceRef& ref : instances) {
      users_[static_cast<size_t>(ref.id) * lanes_ + lane] *= keep;
    }
  }
}

template <size_t kLanes>
void BatchDemandEngine::SyncUsersAll(const LandscapeIndex& index) {
  const size_t L = LaneCount<kLanes>(lanes_);
  const LaneKernels& rows = RowKernels<kLanes>(kernels_);
  // Sync modes per lane: nothing to do, top up, or scale down.
  enum : uint8_t { kNone = 0, kAdd = 1, kScale = 2, kSlow = 3 };
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    const ServiceDemandSpec& spec = specs_[slot];
    infra::DenseId sid = spec_service_id_[slot];
    if (sid < 0) continue;
    std::span<const InstanceRef> instances = index.InstancesOfService(sid);
    if (instances.empty()) continue;
    if (spec.base_users <= 0) continue;  // batch / derived services

    if (distribution_ == UserDistribution::kDynamicRedistribution) {
      // FM: users are redistributed across all serving instances
      // whenever anything changes. The paper says "equally"; we weigh
      // the shares by host capacity so that equal *load* results on
      // the heterogeneous blades (an equal head-count split would
      // systematically overload the PI-1 hosts). No usable instance:
      // every lane keeps its stale attachment.
      double weight_total = UsablePerformance(index, instances);
      if (weight_total <= 0) continue;
      for (const InstanceRef& ref : instances) {
        std::fill_n(users_.data() + static_cast<size_t>(ref.id) * L, L,
                    0.0);
      }
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == InstanceState::kFailed) continue;
        size_t row = static_cast<size_t>(ref.id) * L;
        double perf = index.ServerPerformance(ref.server);
        for (size_t lane = 0; lane < L; ++lane) {
          users_[row + lane] =
              spec.base_users * user_scale_[lane] * perf / weight_total;
        }
      }
      continue;
    }

    // Sticky sessions: users stay where they are. Scale changes and
    // users lost with removed instances reconcile against the target
    // total: shortfalls log in capacity-proportionally, excess logs
    // off proportionally. Detection pass (read-only): per-lane
    // attached total, and a slow flag for the order-sensitive path —
    // a failed instance still holding users in that lane, whose
    // refuge hand-off interleaves with the total.
    LaneRow<kLanes> current_row(scratch_.current_total.data());
    LaneRow<kLanes, uint8_t> mode_row(scratch_.mode.data());
    double* current = current_row.data();
    uint8_t* mode = mode_row.data();
    std::fill_n(current, L, 0.0);
    std::fill_n(mode, L, kNone);
    for (const InstanceRef& ref : instances) {
      const double* users = users_.data() + static_cast<size_t>(ref.id) * L;
      if (ref.instance->state != InstanceState::kFailed) {
        rows.add_row(current, users, L);
        continue;
      }
      for (size_t lane = 0; lane < L; ++lane) {
        if (users[lane] > 0) mode[lane] = kSlow;
        current[lane] += users[lane];
      }
    }

    LaneRow<kLanes> amount_row(scratch_.amount.data());
    double* amount = amount_row.data();
    bool any_add = false;
    bool any_apply = false;
    for (size_t lane = 0; lane < L; ++lane) {
      if (mode[lane] == kSlow) {
        SyncUsersSpecLane(index, slot, lane);
        mode[lane] = kNone;
        continue;
      }
      double target_total = spec.base_users * user_scale_[lane];
      double diff = target_total - current[lane];
      if (diff > 1e-9) {
        mode[lane] = kAdd;
        amount[lane] = diff;
        any_add = true;
        any_apply = true;
      } else if (diff < -1e-9 && current[lane] > 0) {
        mode[lane] = kScale;
        amount[lane] = target_total / current[lane];
        any_apply = true;
      }
    }
    // Steady state: every lane already holds its target attachment.
    if (!any_apply) continue;
    // Fresh logins spread across the instances by host capacity (in
    // the aggregate, a least-loaded arrival split). No lane on the
    // fast path has a failed instance with users; a failed-but-empty
    // instance still drops out of the weight sum.
    const double weight_total =
        any_add ? UsablePerformance(index, instances) : 0.0;
    for (const InstanceRef& ref : instances) {
      size_t row = static_cast<size_t>(ref.id) * L;
      double perf = index.ServerPerformance(ref.server);
      const bool row_failed = ref.instance->state == InstanceState::kFailed;
      for (size_t lane = 0; lane < L; ++lane) {
        if (mode[lane] == kAdd) {
          if (weight_total > 0) {
            if (!row_failed) {
              users_[row + lane] += amount[lane] * perf / weight_total;
            }
          } else if (ref.id == instances.front().id) {
            users_[row + lane] += amount[lane];
          }
        } else if (mode[lane] == kScale) {
          users_[row + lane] *= amount[lane];
        }
      }
    }
  }
}

template <size_t kLanes>
void BatchDemandEngine::ApplyFluctuationAll(const LandscapeIndex& index,
                                            double dt_minutes) {
  const size_t L = LaneCount<kLanes>(lanes_);
  const LaneKernels& rows = RowKernels<kLanes>(kernels_);
  double fraction = std::min(1.0, fluctuation_per_minute_ * dt_minutes);
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    const ServiceDemandSpec& spec = specs_[slot];
    if (spec.base_users <= 0) continue;
    infra::DenseId sid = spec_service_id_[slot];
    if (sid < 0) continue;
    std::span<const InstanceRef> instances = index.InstancesOfService(sid);
    if (instances.size() < 2) continue;
    // Per-lane refuge: LeastLoadedInstance restructured lane-inner —
    // same instance order and strict-less comparison per lane.
    LaneRow<kLanes> best_score_row(scratch_.best_score.data());
    LaneRow<kLanes, uint64_t> best_id_row(scratch_.best_id.data());
    double* best_score = best_score_row.data();
    uint64_t* best_id = best_id_row.data();
    std::fill_n(best_score, L, std::numeric_limits<double>::infinity());
    std::fill_n(best_id, L, uint64_t{0});
    for (const InstanceRef& ref : instances) {
      if (ref.instance->state != InstanceState::kRunning) continue;
      double denom = index.ServerPerformance(ref.server) *
                     kUsersPerPerformanceUnit;
      rows.least_loaded_row(
          best_score, best_id,
          server_cpu_.data() + static_cast<size_t>(ref.server) * L,
          users_.data() + static_cast<size_t>(ref.id) * L, denom,
          static_cast<uint64_t>(ref.id), L);
    }
    LaneRow<kLanes> moved_row(scratch_.moved.data());
    double* moved = moved_row.data();
    std::fill_n(moved, L, 0.0);
    for (const InstanceRef& ref : instances) {
      size_t row = static_cast<size_t>(ref.id) * L;
      rows.fluct_move_row(users_.data() + row, moved, best_id,
                          static_cast<uint64_t>(ref.id), fraction, L);
    }
    for (size_t lane = 0; lane < L; ++lane) {
      if (best_id[lane] != 0) {
        users_[static_cast<size_t>(best_id[lane]) * L + lane] +=
            moved[lane];
      }
    }
  }
}

void BatchDemandEngine::WaterFill(const LandscapeIndex& index,
                                  std::span<const InstanceRef> instances,
                                  double capacity, const double* total) {
  const size_t L = lanes_;
  std::vector<uint32_t>& running = scratch_.running;
  running.clear();
  for (size_t pos = 0; pos < instances.size(); ++pos) {
    if (instances[pos].instance->state == InstanceState::kRunning) {
      running.push_back(static_cast<uint32_t>(pos));
    }
  }
  for (size_t lane = 0; lane < L; ++lane) {
    if (total[lane] <= capacity) continue;
    for (uint32_t pos : running) {
      scratch_.serve[static_cast<size_t>(instances[pos].id) * L + lane] = 0.0;
    }
    scratch_.unsatisfied.assign(running.begin(), running.end());
    double remaining = capacity;
    for (int round = 0;
         round < 3 && remaining > 1e-12 && !scratch_.unsatisfied.empty();
         ++round) {
      double total_weight = 0.0;
      for (uint32_t pos : scratch_.unsatisfied) {
        const InstanceRef& ref = instances[pos];
        total_weight +=
            index.ServicePriority(ref.service) *
            std::max(1e-9,
                     demand_wu_[static_cast<size_t>(ref.id) * L + lane]);
      }
      if (total_weight <= 0) break;
      scratch_.still_unsatisfied.clear();
      double granted_total = 0.0;
      for (uint32_t pos : scratch_.unsatisfied) {
        const InstanceRef& ref = instances[pos];
        size_t i = static_cast<size_t>(ref.id) * L + lane;
        double weight = index.ServicePriority(ref.service) *
                        std::max(1e-9, demand_wu_[i]);
        double grant = remaining * weight / total_weight;
        double need = demand_wu_[i] - scratch_.serve[i];
        double take = std::min(grant, need);
        scratch_.serve[i] += take;
        granted_total += take;
        if (scratch_.serve[i] + 1e-12 < demand_wu_[i]) {
          scratch_.still_unsatisfied.push_back(pos);
        }
      }
      remaining -= granted_total;
      scratch_.unsatisfied.swap(scratch_.still_unsatisfied);
    }
  }
}

void BatchDemandEngine::Tick(SimTime now, Duration dt) {
  double dt_minutes = std::max(1e-9, dt.seconds() / 60.0);
  if (lanes_ == 1) {
    TickLanes<1>(now, dt_minutes);
  } else {
    TickLanes<kAnyLanes>(now, dt_minutes);
  }
}

template <size_t kLanes>
void BatchDemandEngine::TickLanes(SimTime now, double dt_minutes) {
  const size_t L = LaneCount<kLanes>(lanes_);
  const LaneKernels& rows = RowKernels<kLanes>(kernels_);
  const LandscapeIndex& index = cluster_->Index();
  if (EnsureDataPlane()) ResizeScratch(index);
  // User attachment and fluctuation run lane-inner like everything
  // else; only the order-sensitive path (failed instances holding
  // users) drops to a per-lane fallback.
  SyncUsersAll<kLanes>(index);
  if (distribution_ == UserDistribution::kStickySessions &&
      fluctuation_per_minute_ > 0) {
    ApplyFluctuationAll<kLanes>(index, dt_minutes);
  }
  // The quality counters accumulate over the whole tick.
  LaneRow<kLanes> lost_sum(lost_work_wu_.data());
  LaneRow<kLanes> overload_sum(overload_minutes_.data());
  double* lost = lost_sum.data();
  double* overload = overload_sum.data();

  // --- Fresh demand per instance (wu per minute) -----------------------
  // Lane-innermost from here on: the loop structure (spec spans,
  // activity, spec lookups, instance states) is computed once per
  // entity and amortized over the whole batch. Every lane shares the
  // cluster's instance states, so each state check is one branch per
  // row and the inner loops are straight-line arithmetic.
  std::fill(scratch_.app_work.begin(), scratch_.app_work.end(), 0.0);
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    const ServiceDemandSpec& spec = specs_[slot];
    infra::DenseId sid = spec_service_id_[slot];
    if (sid < 0) continue;
    std::span<const InstanceRef> instances = index.InstancesOfService(sid);
    if (instances.empty()) continue;
    double activity = spec.pattern.Activity(now);
    const double usable = UsablePerformance(index, instances);
    LaneRow<kLanes> service_work_row(scratch_.app_work.data() + slot * L);
    LaneRow<kLanes> fresh_row(scratch_.moved.data());
    double* service_work = service_work_row.data();
    double* fresh_all = fresh_row.data();
    // Spec-level branches (batch vs interactive, noisy or not) are
    // hoisted out of the lane loop: non-noisy specs become straight
    // vector arithmetic, and only noisy specs pay the per-lane RNG
    // call.
    const bool noisy = spec.noise_stddev > 0;
    const double* queue_row = queue_wu_.data() + slot * L;
    for (const InstanceRef& ref : instances) {
      size_t row = static_cast<size_t>(ref.id) * L;
      if (spec.batch) {
        // Batch jobs are pulled from a shared queue, so instances on
        // faster hosts process proportionally more of them.
        if (ref.instance->state != InstanceState::kFailed) {
          rows.fresh_batch_row(fresh_all, usable, user_scale_.data(),
                               spec.batch_load_wu * activity,
                               index.ServerPerformance(ref.server), L);
        } else {
          std::fill_n(fresh_all, L, 0.0);
        }
      } else if (spec.base_users > 0) {
        rows.fresh_users_row(fresh_all, users_.data() + row, activity,
                             spec.request_cost, kUsersPerPerformanceUnit,
                             L);
      } else {
        std::fill_n(fresh_all, L, 0.0);
      }
      if (noisy) {
        if (rng_kind_ == RngKind::kPhilox) {
          // Lanes with fresh == 0 draw nothing, so a lane's counter
          // advances exactly at its own draw sites.
          rows.philox_noise_row(MakePhiloxLaneView(philox_), fresh_all,
                                spec.noise_stddev, L);
        } else {
          for (size_t lane = 0; lane < L; ++lane) {
            if (fresh_all[lane] > 0) {
              fresh_all[lane] *= std::max(
                  0.0, rng_[lane].Normal(1.0, spec.noise_stddev));
            }
          }
        }
      }
      if (spec.shared_queue &&
          ref.instance->state != InstanceState::kFailed) {
        rows.demand_shared_row(demand_wu_.data() + row, service_work,
                               fresh_all, backlog_wu_.data() + row,
                               queue_row, usable, spec.base_load_wu,
                               index.ServerPerformance(ref.server), L);
      } else {
        // Private queues; the shared queue never feeds a failed row.
        rows.demand_plain_row(demand_wu_.data() + row, service_work,
                              fresh_all, backlog_wu_.data() + row,
                              spec.base_load_wu, L);
      }
    }
    service_work_row.Store();
  }

  // --- Propagate through central instances and databases ----------------
  for (const SubsystemEdges& edge : edges_) {
    LaneRow<kLanes> work_row(scratch_.tier_work.data());
    double* work = work_row.data();
    std::fill_n(work, L, 0.0);
    for (int32_t app_slot : edge.app_specs) {
      if (app_slot < 0) continue;
      const double* app = scratch_.app_work.data() +
                          static_cast<size_t>(app_slot) * L;
      rows.add_row(work, app, L);
    }
    const std::pair<int32_t, double> tiers[] = {
        {edge.ci_spec, edge.ci_factor}, {edge.db_spec, edge.db_factor}};
    for (const auto& [spec_slot, factor] : tiers) {
      if (spec_slot < 0) continue;
      infra::DenseId sid =
          spec_service_id_[static_cast<size_t>(spec_slot)];
      std::span<const InstanceRef> instances;
      if (sid >= 0) instances = index.InstancesOfService(sid);
      const double usable = UsablePerformance(index, instances);
      for (size_t lane = 0; lane < L; ++lane) {
        double w = factor * work[lane];
        // Nobody to serve the tier.
        if (w > 0 && usable <= 0) lost[lane] += w * dt_minutes;
      }
      for (const InstanceRef& ref : instances) {
        if (ref.instance->state == InstanceState::kFailed) continue;
        rows.distribute_row(
            demand_wu_.data() + static_cast<size_t>(ref.id) * L, work,
            usable, factor, index.ServerPerformance(ref.server), L);
      }
    }
  }

  // --- Proportional-share CPU model per server --------------------------
  // A server's capacity is its performance index, which
  // ServerSpec::Validate keeps finite and > 0 for every server
  // Cluster::AddServer admits (the only way into a cluster).
  std::fill(scratch_.shared_unserved.begin(),
            scratch_.shared_unserved.end(), 0.0);
  LaneRow<kLanes> total_row(scratch_.total_demand.data());
  double* total_demand = total_row.data();
  for (size_t s = 0; s < index.num_servers(); ++s) {
    infra::DenseId server_id = static_cast<infra::DenseId>(s);
    std::span<const InstanceRef> instances =
        index.InstancesOnServer(server_id);
    const double capacity = index.ServerPerformance(server_id);
    // Serve demand: every running instance is granted all of it, and
    // lanes where the server is overloaded re-grant a priority-weighted
    // proportional share below. Starting instances consume their base
    // load only; their fresh work waits (and is re-queued as backlog).
    std::fill_n(total_demand, L, 0.0);
    for (const InstanceRef& ref : instances) {
      size_t row = static_cast<size_t>(ref.id) * L;
      if (ref.instance->state == InstanceState::kRunning) {
        rows.serve_all_row(total_demand, scratch_.serve.data() + row,
                           demand_wu_.data() + row, L);
      } else {
        std::fill_n(scratch_.serve.data() + row, L, 0.0);
      }
    }
    double mem = std::min(1.0, index.ServerUsedMemoryGb(server_id) /
                                   index.ServerMemoryGb(server_id));
    rows.cpu_mem_row(server_cpu_.data() + s * L, server_mem_.data() + s * L,
                     total_demand, capacity, mem, L);

    // Overloaded lanes re-grant the capacity by priority.
    bool overloaded = false;
    for (size_t lane = 0; lane < L; ++lane) {
      overloaded |= !(total_demand[lane] <= capacity);
    }
    if (overloaded) WaterFill(index, instances, capacity, total_demand);

    // Update per-instance load and backlog.
    for (const InstanceRef& ref : instances) {
      size_t row = static_cast<size_t>(ref.id) * L;
      int32_t slot =
          ref.service >= 0
              ? spec_of_service_[static_cast<size_t>(ref.service)]
              : -1;
      // demand_wu already included the queued work, so the unserved
      // remainder *is* the new queue content (converted rate -> work);
      // base (idle) load does not queue, only request work does.
      if (slot >= 0 && specs_[slot].shared_queue) {
        // Collected into the shared service queue below.
        rows.shared_backlog_row(
            inst_load_.data() + row, served_wu_.data() + row,
            backlog_wu_.data() + row,
            scratch_.shared_unserved.data() + static_cast<size_t>(slot) * L,
            demand_wu_.data() + row, scratch_.serve.data() + row, capacity,
            specs_[slot].base_load_wu, dt_minutes, L);
        continue;
      }
      // A spec-less instance has no base load and a 2 wu queue bound.
      double base_load = slot >= 0 ? specs_[slot].base_load_wu : 0.0;
      double cap = slot >= 0 ? specs_[slot].backlog_cap_wu : 2.0;
      rows.backlog_row(inst_load_.data() + row, served_wu_.data() + row,
                       backlog_wu_.data() + row, lost,
                       demand_wu_.data() + row, scratch_.serve.data() + row,
                       capacity, base_load, cap, dt_minutes, L);
    }

    rows.overload_row(overload, server_cpu_.data() + s * L,
                      overload_threshold_, dt_minutes, L);
  }

  // Commit shared queues (cap per service; overflow is lost work).
  for (size_t slot = 0; slot < specs_.size(); ++slot) {
    rows.queue_commit_row(queue_wu_.data() + slot * L, lost,
                          scratch_.shared_unserved.data() + slot * L,
                          specs_[slot].backlog_cap_wu, L);
  }
  lost_sum.Store();
  overload_sum.Store();
}

void BatchDemandEngine::ServiceLoadAll(infra::DenseId service,
                                       double* out) const {
  const size_t L = lanes_;
  std::fill_n(out, L, 0.0);
  const LandscapeIndex& index = cluster_->Index();
  if (service < 0 ||
      static_cast<size_t>(service) >= index.num_services()) {
    return;
  }
  std::span<const InstanceRef> instances =
      index.InstancesOfService(service);
  size_t count = 0;
  for (const InstanceRef& ref : instances) {
    size_t id = static_cast<size_t>(ref.id);
    if (id >= tracked_.size() || !tracked_[id]) continue;
    kernels_->add_row(out, inst_load_.data() + id * L, L);
    ++count;
  }
  if (count == 0) {
    std::fill_n(out, L, 0.0);
    return;
  }
  double inv_count = static_cast<double>(count);
  for (size_t lane = 0; lane < L; ++lane) out[lane] /= inv_count;
}

}  // namespace autoglobe::workload
