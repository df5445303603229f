// Parity of the two placement checks: the name-keyed Cluster::CanPlace
// and the dense CanPlaceById that host ranking calls must agree on
// every (service, server, exclude) triple — same StatusCode, same
// message — on the paper landscape and on a generated fleet seeded
// with every rule's edge case.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "autoglobe/landscape.h"
#include "autoglobe/landscape_gen.h"
#include "infra/cluster.h"
#include "workload/demand.h"

namespace autoglobe {
namespace {

using infra::Cluster;
using infra::DenseId;
using infra::InstanceId;
using infra::InstanceRef;
using infra::LandscapeIndex;

/// The rule a verdict came from, so callers can assert that every
/// edge case was actually exercised.
std::string RuleOf(const Status& status) {
  if (status.ok()) return "ok";
  for (const char* rule :
       {"is down", "below minimum performance index", "maximum of",
        "already has an instance", "is exclusively reserved",
        "cannot share", "exceeds"}) {
    if (status.message().find(rule) != std::string::npos) return rule;
  }
  return status.message();
}

/// Checks every triple; returns the verdict count per rule.
std::map<std::string, int> ExpectParity(const Cluster& cluster) {
  std::map<std::string, int> verdicts;
  const LandscapeIndex& index = cluster.Index();
  for (size_t v = 0; v < index.num_services(); ++v) {
    DenseId service = static_cast<DenseId>(v);
    const std::string& service_name = index.ServiceName(service);
    for (size_t s = 0; s < index.num_servers(); ++s) {
      DenseId server = static_cast<DenseId>(s);
      const std::string& server_name = index.ServerName(server);
      // No exclusion, each instance of the service (a relocation),
      // and each co-tenant already on the host.
      std::vector<InstanceId> excludes = {0};
      for (const InstanceRef& ref : index.InstancesOfService(service)) {
        excludes.push_back(ref.id);
      }
      for (const InstanceRef& ref : index.InstancesOnServer(server)) {
        excludes.push_back(ref.id);
      }
      for (InstanceId exclude : excludes) {
        Status named = cluster.CanPlace(service_name, server_name, exclude);
        Status dense = cluster.CanPlaceById(
            index.Service(service), server, exclude,
            cluster.ActiveInstanceCount(service_name, exclude));
        EXPECT_EQ(named.code(), dense.code())
            << service_name << " on " << server_name << " excluding "
            << exclude << ": " << named << " vs " << dense;
        EXPECT_EQ(named.message(), dense.message())
            << service_name << " on " << server_name << " excluding "
            << exclude;
        ++verdicts[RuleOf(named)];
      }
    }
  }
  return verdicts;
}

TEST(PlacementParityTest, PaperLandscape) {
  for (Scenario scenario : {Scenario::kStatic, Scenario::kConstrainedMobility,
                            Scenario::kFullMobility}) {
    Cluster cluster;
    workload::DemandEngine engine(&cluster, Rng(1));
    ASSERT_TRUE(MakePaperLandscape(scenario).Build(&cluster, &engine).ok());
    std::map<std::string, int> verdicts = ExpectParity(cluster);
    EXPECT_GT(verdicts["ok"], 0);
    EXPECT_GT(verdicts["already has an instance"], 0);
  }
}

TEST(PlacementParityTest, GeneratedFleetWithEveryEdgeCase) {
  auto landscape = GenerateLandscape(MakeScaleSpec(100));
  ASSERT_TRUE(landscape.ok()) << landscape.status();
  Cluster cluster;
  workload::DemandEngine engine(&cluster, Rng(1));
  ASSERT_TRUE(landscape->Build(&cluster, &engine).ok());
  const std::string busy = cluster.Servers().front()->name;
  ASSERT_FALSE(cluster.InstancesOn(busy).empty());
  const std::string generated_service = cluster.Services().front()->name;

  auto add_server = [&](const std::string& name, double pi, double memory) {
    infra::ServerSpec spec;
    spec.name = name;
    spec.performance_index = pi;
    spec.num_cpus = 1;
    spec.memory_gb = memory;
    ASSERT_TRUE(cluster.AddServer(spec).ok());
  };
  auto add_service = [&](const std::string& name, double footprint,
                         int max_instances, bool exclusive, double min_pi) {
    infra::ServiceSpec spec;
    spec.name = name;
    spec.memory_footprint_gb = footprint;
    spec.max_instances = max_instances;
    spec.exclusive = exclusive;
    spec.min_performance_index = min_pi;
    ASSERT_TRUE(cluster.AddService(spec).ok());
  };
  auto place = [&](const std::string& service, const std::string& server) {
    ASSERT_TRUE(
        cluster.PlaceInstance(service, server, SimTime::Start()).ok());
  };
  // A down server.
  add_server("zz-down", 4, 16);
  place(generated_service, "zz-down");
  ASSERT_TRUE(cluster.SetServerUp("zz-down", false).ok());
  // Exclusive services both ways: one holds a host alone, another
  // may not join any occupied host.
  add_server("zz-exclusive", 4, 16);
  add_service("Excl-Holder", 1.0, 4, /*exclusive=*/true, 0);
  place("Excl-Holder", "zz-exclusive");
  add_service("Excl-Joiner", 1.0, 4, /*exclusive=*/true, 0);
  // A memory-full host.
  add_server("zz-full", 4, 2.0);
  add_service("Fat", 2.0, 4, false, 0);
  place("Fat", "zz-full");
  // A service at max_instances (relocating its own instance is fine).
  add_service("Capped", 0.5, 1, false, 0);
  place("Capped", busy);
  // A minimum performance index only the big hosts meet.
  add_service("Picky", 0.5, 4, false, 3.5);
  // Empty and unconstrained, for the OK verdicts.
  add_server("zz-empty", 4, 16);

  std::map<std::string, int> verdicts = ExpectParity(cluster);
  for (const char* rule :
       {"ok", "is down", "below minimum performance index", "maximum of",
        "already has an instance", "is exclusively reserved",
        "cannot share", "exceeds"}) {
    EXPECT_GT(verdicts[rule], 0) << "no verdict from rule: " << rule;
  }
  EXPECT_EQ(verdicts.size(), 8u) << "a verdict matched no known rule";
}

}  // namespace
}  // namespace autoglobe
