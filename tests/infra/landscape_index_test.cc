// Property test of the dense landscape index: after every step of a
// seeded random sequence of placements, moves, removals and priority
// changes, each entry of Cluster::Index() must agree with the
// name-keyed cluster API — owners, CSR spans in InstanceId order,
// used memory to the bit, priorities, and the pool layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "infra/cluster.h"

namespace autoglobe::infra {
namespace {

class IndexRebuildProperty : public ::testing::TestWithParam<int> {};

void ExpectIndexMatchesCluster(const Cluster& cluster) {
  const LandscapeIndex& index = cluster.Index();
  std::vector<const ServerSpec*> servers = cluster.Servers();
  std::vector<const ServiceSpec*> services = cluster.Services();
  ASSERT_EQ(index.num_servers(), servers.size());
  ASSERT_EQ(index.num_services(), services.size());
  ASSERT_EQ(index.num_instances(), cluster.total_instances());

  InstanceId previous = 0;
  InstanceId bound = 0;
  for (const InstanceRef& ref : index.Instances()) {
    ASSERT_NE(ref.instance, nullptr);
    EXPECT_GT(ref.id, previous) << "Instances() not in InstanceId order";
    previous = ref.id;
    bound = ref.id + 1;
    auto found = cluster.FindInstance(ref.id);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_EQ(ref.instance, *found);
    EXPECT_EQ(ref.instance->id, ref.id);
    EXPECT_EQ(ref.server, index.ServerIdOf(ref.instance->server));
    EXPECT_EQ(ref.service, index.ServiceIdOf(ref.instance->service));
  }
  EXPECT_EQ(index.instance_id_bound(), bound);

  auto expect_span = [](std::span<const InstanceRef> span,
                        const std::vector<const ServiceInstance*>& named,
                        DenseId owner, DenseId InstanceRef::*field) {
    ASSERT_EQ(span.size(), named.size());
    for (size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(span[i].instance, named[i]);
      EXPECT_EQ(span[i].*field, owner);
      if (i > 0) {
        EXPECT_LT(span[i - 1].id, span[i].id);
      }
    }
  };
  size_t max_hosted = 0;
  std::set<std::string> categories;
  for (size_t s = 0; s < servers.size(); ++s) {
    DenseId id = static_cast<DenseId>(s);
    const std::string& name = servers[s]->name;
    EXPECT_EQ(index.ServerName(id), name);
    EXPECT_EQ(&index.Server(id), servers[s]);
    EXPECT_EQ(index.ServerIdOf(name), id);
    expect_span(index.InstancesOnServer(id), cluster.InstancesOn(name), id,
                &InstanceRef::server);
    max_hosted = std::max(max_hosted, index.InstancesOnServer(id).size());
    EXPECT_EQ(std::bit_cast<uint64_t>(index.ServerUsedMemoryGb(id)),
              std::bit_cast<uint64_t>(cluster.UsedMemoryGb(name)))
        << name;
    EXPECT_EQ(index.ServerPerformance(id), servers[s]->performance_index);
    EXPECT_EQ(index.ServerMemoryGb(id), servers[s]->memory_gb);
    EXPECT_EQ(index.PoolName(index.PoolOfServer(id)), servers[s]->category);
    categories.insert(servers[s]->category);
  }
  EXPECT_EQ(index.max_instances_per_server(), max_hosted);
  for (size_t v = 0; v < services.size(); ++v) {
    DenseId id = static_cast<DenseId>(v);
    const std::string& name = services[v]->name;
    EXPECT_EQ(index.ServiceName(id), name);
    EXPECT_EQ(index.ServiceIdOf(name), id);
    expect_span(index.InstancesOfService(id), cluster.InstancesOf(name), id,
                &InstanceRef::service);
    EXPECT_EQ(index.ServicePriority(id), cluster.ServicePriority(name));
  }
  EXPECT_EQ(index.ServerIdOf("no-such-server"), kNoDenseId);
  EXPECT_EQ(index.ServiceIdOf("no-such-service"), kNoDenseId);

  // Pools: the sorted distinct categories, each listing its servers
  // in dense-id order.
  ASSERT_EQ(index.num_pools(), categories.size());
  size_t pooled = 0;
  auto category = categories.begin();
  for (size_t p = 0; p < index.num_pools(); ++p, ++category) {
    int32_t pool = static_cast<int32_t>(p);
    EXPECT_EQ(index.PoolName(pool), *category);
    DenseId last = kNoDenseId;
    for (DenseId server : index.ServersInPool(pool)) {
      EXPECT_GT(server, last);
      EXPECT_EQ(index.PoolOfServer(server), pool);
      last = server;
      ++pooled;
    }
  }
  EXPECT_EQ(pooled, servers.size());
}

TEST_P(IndexRebuildProperty, IndexMatchesClusterAfterEveryMutation) {
  uint64_t state = static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Categories interleave in name order, so servers of one pool are
  // not contiguous in dense-id order; "" is the uncategorized pool.
  const char* kCategories[] = {"rack", "", "blade", "zeta"};
  Cluster cluster;
  std::vector<std::string> server_names;
  for (int i = 0; i < 12; ++i) {
    ServerSpec spec;
    spec.name = "srv" + std::to_string(next() % 1000);
    spec.category = kCategories[next() % 4];
    spec.performance_index = 1.0 + static_cast<double>(next() % 4);
    spec.num_cpus = 1;
    spec.memory_gb = 2.0 + static_cast<double>(next() % 6);
    if (cluster.AddServer(spec).ok()) server_names.push_back(spec.name);
  }
  std::vector<std::string> service_names;
  for (int i = 0; i < 7; ++i) {
    ServiceSpec spec;
    spec.name = "svc" + std::to_string(next() % 100);
    spec.memory_footprint_gb = 0.1 * static_cast<double>(1 + next() % 13);
    spec.max_instances = 1 + static_cast<int>(next() % 5);
    spec.exclusive = next() % 7 == 0;
    if (cluster.AddService(spec).ok()) service_names.push_back(spec.name);
  }
  ExpectIndexMatchesCluster(cluster);

  std::vector<InstanceId> live;
  for (int step = 0; step < 160; ++step) {
    uint64_t op = next() % 10;
    const std::string& server = server_names[next() % server_names.size()];
    const std::string& service =
        service_names[next() % service_names.size()];
    // Outcomes do not matter: rejected mutations must leave the index
    // consistent too.
    if (op < 5 || live.empty()) {
      auto id = cluster.PlaceInstance(service, server, SimTime::Start());
      if (id.ok()) live.push_back(*id);
    } else if (op < 8) {
      InstanceId id = live[next() % live.size()];
      (void)cluster.MoveInstance(id, server, SimTime::Start());
    } else if (op < 9) {
      size_t at = next() % live.size();
      if (cluster.RemoveInstance(live[at], /*enforce_min=*/false).ok()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
    } else {
      (void)cluster.AdjustServicePriority(service,
                                          next() % 2 == 0 ? 1.5 : 0.5);
    }
    ExpectIndexMatchesCluster(cluster);
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexRebuildProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace autoglobe::infra
