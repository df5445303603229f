#include "autoglobe/landscape_gen.h"

#include <algorithm>

#include "common/rng.h"
#include "common/strings.h"
#include "workload/demand.h"
#include "workload/load_pattern.h"

namespace autoglobe {

namespace {

using infra::ServerSpec;
using infra::ServiceSpec;
using workload::LoadPattern;
using workload::ServiceDemandSpec;

/// Activity levels of the oscillating day profile. Both sit inside
/// the default monitor band (idle 0.125/PI .. overload 0.70) after
/// the target-load back-computation, so active services dirty their
/// loads every tick without ever arming a watch.
constexpr double kActiveLow = 0.5;
constexpr double kActiveHigh = 0.7;

Status ValidateSpec(const LandscapeGenSpec& spec) {
  if (spec.pools.empty()) {
    return Status::InvalidArgument("generator needs at least one pool");
  }
  for (const PoolGenSpec& pool : spec.pools) {
    if (pool.count <= 0) {
      return Status::InvalidArgument(StrFormat(
          "pool \"%s\" has no servers", pool.category.c_str()));
    }
    if (pool.category.empty()) {
      return Status::InvalidArgument("pool category must be non-empty");
    }
    if (pool.performance_index <= 0 || pool.memory_gb <= 0) {
      return Status::InvalidArgument(StrFormat(
          "pool \"%s\" needs positive performance index and memory",
          pool.category.c_str()));
    }
    if (spec.instances_per_service > pool.count) {
      return Status::InvalidArgument(StrFormat(
          "pool \"%s\" (%d servers) cannot host %d distinct instances "
          "of one service",
          pool.category.c_str(), pool.count, spec.instances_per_service));
    }
  }
  if (spec.num_services <= 0 || spec.instances_per_service <= 0) {
    return Status::InvalidArgument(
        "generator needs services and a positive instance multiplicity");
  }
  if (spec.active_services < 0 ||
      spec.active_services > spec.num_services) {
    return Status::InvalidArgument("active_services out of range");
  }
  if (spec.target_load <= 0 || spec.target_load >= 0.70) {
    return Status::InvalidArgument(
        "target_load must sit below the overload threshold");
  }
  if (spec.target_jitter < 0 || spec.target_jitter >= 1.0) {
    return Status::InvalidArgument("target_jitter must be in [0, 1)");
  }
  return Status::OK();
}

}  // namespace

Result<Landscape> GenerateLandscape(const LandscapeGenSpec& spec) {
  AG_RETURN_IF_ERROR(ValidateSpec(spec));
  Landscape landscape;

  // --- Servers, pool by pool, zero-padded sortable names ---------------
  struct PoolLayout {
    const PoolGenSpec* spec;
    size_t first_server;  // index into landscape.servers
  };
  std::vector<PoolLayout> pools;
  pools.reserve(spec.pools.size());
  size_t total_servers = 0;
  for (const PoolGenSpec& pool : spec.pools) {
    total_servers += static_cast<size_t>(pool.count);
  }
  landscape.servers.reserve(total_servers);
  for (const PoolGenSpec& pool : spec.pools) {
    pools.push_back(PoolLayout{&pool, landscape.servers.size()});
    for (int i = 0; i < pool.count; ++i) {
      ServerSpec server;
      server.name.reserve(pool.category.size() + 6);
      server.name.append(pool.category).append(1, '-');
      AppendInt(&server.name, i + 1, 5);  // "<category>-%05d"
      server.category = pool.category;
      server.performance_index = pool.performance_index;
      server.num_cpus = pool.num_cpus;
      server.cpu_clock_ghz = pool.cpu_clock_ghz;
      server.cpu_cache_mb = pool.cpu_cache_mb;
      server.memory_gb = pool.memory_gb;
      landscape.servers.push_back(std::move(server));
    }
  }

  // --- Service -> pool assignment, stacking estimate -------------------
  // Services go to the pool with the largest remaining instance
  // deficit (servers minus instances assigned so far), so instance
  // counts track pool sizes and — whenever the spec provisions at
  // least one instance per server — no server is left empty to sit
  // below the idle threshold and spam serverIdle triggers. The
  // expected instances-per-server of each pool then divides the
  // per-server load target, so a server hosting e stacked instances
  // still peaks near target_load.
  int k = spec.instances_per_service;
  std::vector<int> pool_of_service(
      static_cast<size_t>(spec.num_services), 0);
  std::vector<int> pool_services(pools.size(), 0);
  {
    std::vector<int> deficit(pools.size());
    for (size_t p = 0; p < pools.size(); ++p) {
      deficit[p] = pools[p].spec->count;
    }
    for (int s = 0; s < spec.num_services; ++s) {
      size_t best = 0;
      for (size_t p = 1; p < pools.size(); ++p) {
        if (deficit[p] > deficit[best]) best = p;
      }
      pool_of_service[static_cast<size_t>(s)] = static_cast<int>(best);
      ++pool_services[best];
      deficit[best] -= k;
    }
  }
  std::vector<int> pool_stacking(pools.size(), 1);
  for (size_t p = 0; p < pools.size(); ++p) {
    int instances = pool_services[p] * k;
    pool_stacking[p] = std::max(
        1, (instances + pools[p].spec->count - 1) / pools[p].spec->count);
  }

  // The oscillating profile of the active services: alternating
  // hourly control points, linearly interpolated — the load moves
  // every minute, peaking at kActiveHigh.
  AG_ASSIGN_OR_RETURN(LoadPattern active_pattern,
                      LoadPattern::FromHourlyPoints([] {
                        std::vector<double> points(24);
                        for (size_t h = 0; h < points.size(); ++h) {
                          points[h] = (h % 2 == 0) ? kActiveLow
                                                   : kActiveHigh;
                        }
                        return points;
                      }()));

  // --- Services, demand, placement -------------------------------------
  Rng rng(spec.seed);
  landscape.services.reserve(static_cast<size_t>(spec.num_services));
  landscape.demand.reserve(static_cast<size_t>(spec.num_services));
  landscape.initial_allocation.reserve(
      static_cast<size_t>(spec.num_services) * static_cast<size_t>(k));
  std::vector<double> used_memory(landscape.servers.size(), 0.0);
  // Per-pool rotating placement cursor spreads instances evenly.
  std::vector<int> cursor(pools.size(), 0);

  for (int s = 0; s < spec.num_services; ++s) {
    size_t p = static_cast<size_t>(pool_of_service[static_cast<size_t>(s)]);
    const PoolGenSpec& pool = *pools[p].spec;

    ServiceSpec service;
    service.name = "Svc-";
    AppendInt(&service.name, s + 1, 5);  // "Svc-%05d"
    service.role = infra::ServiceRole::kApplicationServer;
    service.min_instances = 1;
    service.max_instances = std::max(2 * k, k + 1);
    service.memory_footprint_gb = spec.memory_footprint_gb;
    service.allowed_actions = {infra::ActionType::kScaleOut,
                               infra::ActionType::kScaleIn,
                               infra::ActionType::kMove};
    landscape.services.push_back(std::move(service));

    // Back-compute the user count so that one instance contributes
    // target / stacking to its server's CPU at the profile's peak:
    //   load = (base_load_wu + users_per_instance * a * cost / U) / PI
    // with U = kUsersPerPerformanceUnit, solved at a = kActiveHigh.
    bool active = s < spec.active_services;
    double jitter =
        1.0 - spec.target_jitter * rng.NextDouble();  // (1-j, 1]
    double per_instance_target =
        spec.target_load * jitter /
        static_cast<double>(pool_stacking[p]);
    double peak_activity = active ? kActiveHigh : kActiveLow;
    double work_at_peak =
        per_instance_target * pool.performance_index - spec.base_load_wu;
    if (work_at_peak <= 0) {
      return Status::InvalidArgument(StrFormat(
          "target load %.3f too small for base load %.3f on pool \"%s\"",
          spec.target_load, spec.base_load_wu, pool.category.c_str()));
    }
    ServiceDemandSpec demand;
    demand.service = landscape.services.back().name;
    demand.pattern =
        active ? active_pattern : LoadPattern::Flat(kActiveLow);
    demand.base_users = static_cast<double>(k) * work_at_peak *
                        workload::kUsersPerPerformanceUnit /
                        (spec.request_cost * peak_activity);
    demand.request_cost = spec.request_cost;
    demand.base_load_wu = spec.base_load_wu;
    demand.noise_stddev = spec.noise_stddev;
    landscape.demand.push_back(std::move(demand));

    // Place k instances on distinct servers of the pool, skipping
    // servers whose memory is exhausted.
    for (int j = 0; j < k; ++j) {
      int tried = 0;
      bool placed = false;
      while (tried < pool.count) {
        int slot = cursor[p];
        cursor[p] = (cursor[p] + 1) % pool.count;
        ++tried;
        size_t server_index =
            pools[p].first_server + static_cast<size_t>(slot);
        if (used_memory[server_index] + spec.memory_footprint_gb >
            pool.memory_gb + 1e-9) {
          continue;
        }
        used_memory[server_index] += spec.memory_footprint_gb;
        landscape.initial_allocation.emplace_back(
            landscape.services.back().name,
            landscape.servers[server_index].name);
        placed = true;
        break;
      }
      if (!placed) {
        return Status::ResourceExhausted(StrFormat(
            "pool \"%s\" out of memory placing %s",
            pool.category.c_str(),
            landscape.services.back().name.c_str()));
      }
    }
  }
  return landscape;
}

LandscapeGenSpec MakeScaleSpec(int num_servers, uint64_t seed) {
  LandscapeGenSpec spec;
  spec.seed = seed;
  // Three pools: half small blades, 40 % mid blades, the rest large
  // hosts (remainders land in the first pool). Every pool keeps at
  // least two servers so the two-instance services always fit.
  int mid = std::max(2, num_servers * 4 / 10);
  int large = std::max(2, num_servers / 10);
  int small = std::max(2, num_servers - mid - large);
  spec.pools.push_back(
      PoolGenSpec{"pool-bx300", small, 1.0, 1, 0.933, 0.25, 4.0});
  spec.pools.push_back(
      PoolGenSpec{"pool-bx600", mid, 2.0, 2, 0.933, 0.25, 8.0});
  spec.pools.push_back(
      PoolGenSpec{"pool-bl40p", large, 4.0, 4, 2.8, 2.0, 16.0});
  spec.instances_per_service = 2;
  // Enough services that the max-deficit assignment covers every
  // server with at least one instance (no idle-trigger noise), plus a
  // small surplus absorbing per-pool rounding.
  spec.num_services =
      std::max(3, (num_servers + 1) / 2 + static_cast<int>(spec.pools.size()));
  // Fixed activity regardless of fleet size: per-tick evaluation work
  // should track these 16 services, not the server count.
  spec.active_services = std::min(16, spec.num_services);
  return spec;
}

}  // namespace autoglobe
