#include "infra/cluster.h"

#include <gtest/gtest.h>

namespace autoglobe::infra {
namespace {

ServerSpec MakeServer(const std::string& name, double pi,
                      double memory_gb) {
  ServerSpec spec;
  spec.name = name;
  spec.performance_index = pi;
  spec.num_cpus = 1;
  spec.memory_gb = memory_gb;
  return spec;
}

ServiceSpec MakeService(const std::string& name, double footprint = 1.0,
                        int min_instances = 0, int max_instances = 8) {
  ServiceSpec spec;
  spec.name = name;
  spec.memory_footprint_gb = footprint;
  spec.min_instances = min_instances;
  spec.max_instances = max_instances;
  return spec;
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.AddServer(MakeServer("small", 1, 2)).ok());
    ASSERT_TRUE(cluster_.AddServer(MakeServer("big", 9, 12)).ok());
    ASSERT_TRUE(cluster_.AddService(MakeService("app", 1.0, 0, 8)).ok());
  }
  Cluster cluster_;
  SimTime t0_ = SimTime::Start();
};

TEST_F(ClusterTest, AddDuplicatesRejected) {
  EXPECT_FALSE(cluster_.AddServer(MakeServer("small", 1, 2)).ok());
  EXPECT_FALSE(cluster_.AddService(MakeService("app")).ok());
}

TEST_F(ClusterTest, FindSucceedsAndFails) {
  EXPECT_TRUE(cluster_.FindServer("big").ok());
  EXPECT_FALSE(cluster_.FindServer("huge").ok());
  EXPECT_TRUE(cluster_.FindService("app").ok());
  EXPECT_FALSE(cluster_.FindService("gone").ok());
  EXPECT_EQ(cluster_.Servers().size(), 2u);
  EXPECT_EQ(cluster_.Services().size(), 1u);
}

TEST_F(ClusterTest, PlaceAndQueryInstance) {
  auto id = cluster_.PlaceInstance("app", "small", t0_);
  ASSERT_TRUE(id.ok()) << id.status();
  auto instance = cluster_.FindInstance(*id);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->service, "app");
  EXPECT_EQ((*instance)->server, "small");
  EXPECT_EQ((*instance)->state, InstanceState::kRunning);
  EXPECT_FALSE((*instance)->virtual_ip.empty());
  EXPECT_EQ(cluster_.InstancesOn("small").size(), 1u);
  EXPECT_EQ(cluster_.InstancesOf("app").size(), 1u);
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
  EXPECT_DOUBLE_EQ(cluster_.UsedMemoryGb("small"), 1.0);
}

TEST_F(ClusterTest, VirtualIpsAreUniquePerInstance) {
  auto a = cluster_.PlaceInstance("app", "small", t0_);
  auto b = cluster_.PlaceInstance("app", "big", t0_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*cluster_.FindInstance(*a))->virtual_ip,
            (*cluster_.FindInstance(*b))->virtual_ip);
}

TEST(ClusterIpTest, VirtualIpsFollowTheSuffixScheme) {
  // Checkpoints store the IPs, so their bytes are part of the format:
  // suffix s (from 1) is 10.42.<s / 250>.<s % 250 + 1>.
  Cluster cluster;
  ASSERT_TRUE(cluster.AddService(MakeService("app", 1.0, 0, 600)).ok());
  for (int s = 1; s <= 520; ++s) {
    std::string server = "host-" + std::to_string(s);
    ASSERT_TRUE(cluster.AddServer(MakeServer(server, 1, 2)).ok());
    auto id = cluster.PlaceInstance("app", server, SimTime::Start());
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_EQ((*cluster.FindInstance(*id))->virtual_ip,
              "10.42." + std::to_string(s / 250) + "." +
                  std::to_string(s % 250 + 1));
  }
}

TEST_F(ClusterTest, ServerHealthSurvivesFlipsAndRestore) {
  ASSERT_TRUE(cluster_.AddServer(MakeServer("mid", 2, 4)).ok());
  ASSERT_TRUE(cluster_.SetServerUp("small", false).ok());
  ASSERT_TRUE(cluster_.SetServerUp("small", false).ok());  // idempotent
  ASSERT_TRUE(cluster_.SetServerUp("big", false).ok());
  ASSERT_TRUE(cluster_.SetServerUp("big", true).ok());
  ASSERT_TRUE(cluster_.SetServerUp("mid", false).ok());
  EXPECT_EQ(cluster_.SetServerUp("ghost", false).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(cluster_.IsServerUp("small"));
  EXPECT_TRUE(cluster_.IsServerUp("big"));
  EXPECT_FALSE(cluster_.IsServerUp("mid"));
  EXPECT_TRUE(cluster_.IsServerUp("ghost"));
  EXPECT_EQ(cluster_.CanPlace("app", "small").code(),
            StatusCode::kUnavailable);
  const LandscapeIndex& index = cluster_.Index();
  EXPECT_FALSE(index.ServerDown(index.ServerIdOf("big")));
  EXPECT_TRUE(index.ServerDown(index.ServerIdOf("mid")));

  // A restore onto the same topology brings the same health back, and
  // saves the same bytes.
  ByteWriter saved;
  cluster_.SaveState(&saved);
  Cluster restored;
  ASSERT_TRUE(restored.AddServer(MakeServer("small", 1, 2)).ok());
  ASSERT_TRUE(restored.AddServer(MakeServer("big", 9, 12)).ok());
  ASSERT_TRUE(restored.AddServer(MakeServer("mid", 2, 4)).ok());
  ASSERT_TRUE(restored.AddService(MakeService("app", 1.0, 0, 8)).ok());
  ByteReader reader(saved.data());
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  EXPECT_FALSE(restored.IsServerUp("small"));
  EXPECT_TRUE(restored.IsServerUp("big"));
  EXPECT_FALSE(restored.IsServerUp("mid"));
  ByteWriter resaved;
  restored.SaveState(&resaved);
  EXPECT_EQ(resaved.data(), saved.data());

  // Bringing every server back up leaves none down.
  ASSERT_TRUE(restored.SetServerUp("small", true).ok());
  ASSERT_TRUE(restored.SetServerUp("mid", true).ok());
  EXPECT_TRUE(restored.IsServerUp("small"));
  EXPECT_TRUE(restored.IsServerUp("mid"));
  EXPECT_TRUE(restored.CanPlace("app", "small").ok());
}

TEST_F(ClusterTest, OneInstancePerServerPerService) {
  ASSERT_TRUE(cluster_.PlaceInstance("app", "small", t0_).ok());
  auto second = cluster_.PlaceInstance("app", "small", t0_);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ClusterTest, MemoryCapacityEnforced) {
  ASSERT_TRUE(cluster_.AddService(MakeService("fat", 1.5)).ok());
  ASSERT_TRUE(cluster_.PlaceInstance("app", "small", t0_).ok());  // 1.0 GB
  // 1.0 + 1.5 > 2 GB.
  auto placed = cluster_.PlaceInstance("fat", "small", t0_);
  EXPECT_FALSE(placed.ok());
  EXPECT_EQ(placed.status().code(), StatusCode::kResourceExhausted);
  // Fits on the big host.
  EXPECT_TRUE(cluster_.PlaceInstance("fat", "big", t0_).ok());
}

TEST_F(ClusterTest, MinPerformanceIndexEnforced) {
  ServiceSpec db = MakeService("db", 4.0);
  db.min_performance_index = 5;
  ASSERT_TRUE(cluster_.AddService(db).ok());
  EXPECT_FALSE(cluster_.PlaceInstance("db", "small", t0_).ok());
  EXPECT_TRUE(cluster_.PlaceInstance("db", "big", t0_).ok());
}

TEST_F(ClusterTest, ExclusivenessCutsBothWays) {
  ServiceSpec db = MakeService("db", 4.0);
  db.exclusive = true;
  ASSERT_TRUE(cluster_.AddService(db).ok());
  // app occupies "small": exclusive db cannot join.
  ASSERT_TRUE(cluster_.PlaceInstance("app", "small", t0_).ok());
  EXPECT_FALSE(cluster_.PlaceInstance("db", "small", t0_).ok());
  // db occupies "big": nothing else may join.
  ASSERT_TRUE(cluster_.PlaceInstance("db", "big", t0_).ok());
  EXPECT_FALSE(cluster_.PlaceInstance("app", "big", t0_).ok());
}

TEST_F(ClusterTest, MaxInstancesEnforced) {
  ASSERT_TRUE(cluster_.AddService(MakeService("dual", 0.5, 0, 1)).ok());
  ASSERT_TRUE(cluster_.PlaceInstance("dual", "small", t0_).ok());
  auto second = cluster_.PlaceInstance("dual", "big", t0_);
  EXPECT_FALSE(second.ok());
}

TEST_F(ClusterTest, MinInstancesProtectsRemoval) {
  ASSERT_TRUE(cluster_.AddService(MakeService("core", 0.5, 1, 4)).ok());
  auto id = cluster_.PlaceInstance("core", "small", t0_);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(cluster_.RemoveInstance(*id).ok());
  // Without enforcement it is allowed (used by the stop action).
  EXPECT_TRUE(cluster_.RemoveInstance(*id, /*enforce_min=*/false).ok());
  EXPECT_EQ(cluster_.ActiveInstanceCount("core"), 0);
}

TEST_F(ClusterTest, MoveValidatesAndRelocates) {
  auto id = cluster_.PlaceInstance("app", "small", t0_);
  ASSERT_TRUE(id.ok());
  std::string old_ip = (*cluster_.FindInstance(*id))->virtual_ip;
  ASSERT_TRUE(cluster_.MoveInstance(*id, "big", t0_).ok());
  auto instance = cluster_.FindInstance(*id);
  EXPECT_EQ((*instance)->server, "big");
  // The instance keeps its service IP (it is re-bound, not re-issued).
  EXPECT_EQ((*instance)->virtual_ip, old_ip);
  EXPECT_TRUE(cluster_.InstancesOn("small").empty());
  // Moving to the same host is an error.
  EXPECT_FALSE(cluster_.MoveInstance(*id, "big", t0_).ok());
  EXPECT_FALSE(cluster_.MoveInstance(*id, "nonexistent", t0_).ok());
}

TEST_F(ClusterTest, MoveOfSingletonAtMaxInstancesIsAllowed) {
  // A move must not count the moving instance against maxInstances
  // (regression test: CI services have maxInstances = 1 and must
  // still be movable).
  ASSERT_TRUE(cluster_.AddService(MakeService("ci", 0.5, 1, 1)).ok());
  auto id = cluster_.PlaceInstance("ci", "small", t0_);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(cluster_.CanPlace("ci", "big", *id).ok());
  EXPECT_TRUE(cluster_.MoveInstance(*id, "big", t0_).ok());
}

TEST_F(ClusterTest, InstanceStateTransitions) {
  auto id = cluster_.PlaceInstance("app", "small", t0_,
                                   InstanceState::kStarting);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cluster_.RunningInstanceCount("app"), 0);
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
  ASSERT_TRUE(cluster_.SetInstanceState(*id, InstanceState::kRunning).ok());
  EXPECT_EQ(cluster_.RunningInstanceCount("app"), 1);
  ASSERT_TRUE(cluster_.SetInstanceState(*id, InstanceState::kFailed).ok());
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 0);  // failed not active
  EXPECT_FALSE(cluster_.SetInstanceState(999, InstanceState::kRunning).ok());
}

TEST_F(ClusterTest, PrioritiesClampAndDefault) {
  EXPECT_DOUBLE_EQ(cluster_.ServicePriority("app"), 1.0);
  ASSERT_TRUE(cluster_.AdjustServicePriority("app", 2.0).ok());
  EXPECT_DOUBLE_EQ(cluster_.ServicePriority("app"), 2.0);
  ASSERT_TRUE(cluster_.AdjustServicePriority("app", 100.0).ok());
  EXPECT_DOUBLE_EQ(cluster_.ServicePriority("app"), 4.0);  // clamped
  ASSERT_TRUE(cluster_.AdjustServicePriority("app", 0.001).ok());
  EXPECT_DOUBLE_EQ(cluster_.ServicePriority("app"), 0.25);  // clamped
  EXPECT_FALSE(cluster_.AdjustServicePriority("app", -1.0).ok());
  EXPECT_FALSE(cluster_.AdjustServicePriority("ghost", 2.0).ok());
}

TEST_F(ClusterTest, ProtectionModeExpires) {
  SimTime now = SimTime::Start() + Duration::Hours(1);
  SimTime until = now + Duration::Minutes(30);
  cluster_.ProtectServer("small", until);
  cluster_.ProtectService("app", until);
  EXPECT_TRUE(cluster_.IsServerProtected("small", now));
  EXPECT_TRUE(cluster_.IsServiceProtected("app", now));
  EXPECT_TRUE(
      cluster_.IsServerProtected("small", until - Duration::Seconds(1)));
  EXPECT_FALSE(cluster_.IsServerProtected("small", until));
  EXPECT_FALSE(cluster_.IsServiceProtected("app", until));
  EXPECT_FALSE(cluster_.IsServerProtected("big", now));
}

TEST_F(ClusterTest, ProtectionExtendsButNeverShrinks) {
  SimTime now = SimTime::Start();
  cluster_.ProtectServer("small", now + Duration::Minutes(30));
  cluster_.ProtectServer("small", now + Duration::Minutes(10));  // shorter
  EXPECT_TRUE(
      cluster_.IsServerProtected("small", now + Duration::Minutes(20)));
}

// Property: the allocator never violates memory capacity whatever the
// placement order.
class ClusterMemoryProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClusterMemoryProperty, MemoryNeverOversubscribed) {
  Cluster cluster;
  ASSERT_TRUE(cluster.AddServer(MakeServer("s1", 1, 3.0)).ok());
  ASSERT_TRUE(cluster.AddServer(MakeServer("s2", 2, 5.0)).ok());
  uint64_t state = static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster
                    .AddService(MakeService("svc" + std::to_string(i),
                                            0.5 + (next() % 20) / 10.0))
                    .ok());
  }
  for (int i = 0; i < 40; ++i) {
    std::string service = "svc" + std::to_string(next() % 6);
    std::string server = (next() % 2 == 0) ? "s1" : "s2";
    // Outcome does not matter; the invariant must hold regardless.
    (void)cluster.PlaceInstance(service, server, SimTime::Start());
  }
  EXPECT_LE(cluster.UsedMemoryGb("s1"), 3.0 + 1e-9);
  EXPECT_LE(cluster.UsedMemoryGb("s2"), 5.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterMemoryProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace autoglobe::infra
