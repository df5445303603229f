#include "workload/batch_demand.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "autoglobe/landscape.h"
#include "workload/demand.h"

namespace autoglobe::workload {
namespace {

using infra::Cluster;
using infra::InstanceId;
using infra::InstanceRef;
using infra::InstanceState;
using infra::ServerSpec;
using infra::ServiceSpec;

ServerSpec MakeServer(const std::string& name, double pi) {
  ServerSpec spec;
  spec.name = name;
  spec.performance_index = pi;
  spec.memory_gb = 32;
  return spec;
}

ServiceSpec MakeService(const std::string& name) {
  ServiceSpec spec;
  spec.name = name;
  spec.memory_footprint_gb = 1;
  spec.min_instances = 0;
  spec.max_instances = 16;
  return spec;
}

// A small three-tier landscape with every demand feature the engine
// models: interactive noise, a shared-queue batch tier, and CI/DB
// propagation.
struct SmallWorld {
  Cluster cluster;

  void Populate() {
    ASSERT_TRUE(cluster.AddServer(MakeServer("s1", 1)).ok());
    ASSERT_TRUE(cluster.AddServer(MakeServer("s2", 2)).ok());
    ASSERT_TRUE(cluster.AddServer(MakeServer("s3", 1)).ok());
    ASSERT_TRUE(cluster.AddService(MakeService("app")).ok());
    ASSERT_TRUE(cluster.AddService(MakeService("ci")).ok());
    ASSERT_TRUE(cluster.AddService(MakeService("db")).ok());
  }

  // Same placement sequence => same InstanceIds on every SmallWorld.
  std::vector<InstanceId> PlaceInitial() {
    std::vector<InstanceId> ids;
    for (auto [service, server] :
         {std::pair{"app", "s1"}, {"app", "s2"}, {"ci", "s2"},
          {"db", "s3"}}) {
      auto id = cluster.PlaceInstance(service, server, SimTime::Start());
      EXPECT_TRUE(id.ok()) << id.status();
      ids.push_back(id.value_or(0));
    }
    return ids;
  }

  static void Register(DemandModel* sink) {
    ServiceDemandSpec app;
    app.service = "app";
    app.pattern = LoadPattern::Flat(0.8);
    app.base_users = 400;
    app.request_cost = 1.0;
    app.noise_stddev = 0.05;
    ASSERT_TRUE(sink->AddService(app).ok());

    ServiceDemandSpec ci;
    ci.service = "ci";
    ci.pattern = LoadPattern::Flat(1.0);
    ci.noise_stddev = 0.0;
    ASSERT_TRUE(sink->AddService(ci).ok());

    ServiceDemandSpec db;
    db.service = "db";
    db.pattern = LoadPattern::Flat(1.0);
    db.batch = true;
    db.batch_load_wu = 0.6;
    db.noise_stddev = 0.03;
    db.shared_queue = true;
    db.backlog_cap_wu = 20.0;
    ASSERT_TRUE(sink->AddService(db).ok());

    SubsystemSpec subsystem;
    subsystem.name = "ERP";
    subsystem.app_services = {"app"};
    subsystem.central_instance = "ci";
    subsystem.database = "db";
    ASSERT_TRUE(sink->AddSubsystem(subsystem).ok());
  }
};

struct LaneSetup {
  uint64_t seed;
  double scale;
};

// Every view of lane `lane` must be bit-identical to the scalar
// engine's. EXPECT_EQ on doubles is an exact bit comparison here —
// that is the contract, not a tolerance.
void ExpectLaneMatchesScalar(const BatchDemandEngine& batch, size_t lane,
                             const DemandEngine& scalar,
                             const Cluster& cluster) {
  const infra::LandscapeIndex& index = cluster.Index();
  for (size_t s = 0; s < index.num_servers(); ++s) {
    infra::DenseId sid = static_cast<infra::DenseId>(s);
    EXPECT_EQ(batch.ServerCpuLoad(lane, sid), scalar.ServerCpuLoadById(sid))
        << "cpu of server " << index.ServerName(sid) << " lane " << lane;
    EXPECT_EQ(batch.ServerMemLoad(lane, sid), scalar.ServerMemLoadById(sid))
        << "mem of server " << index.ServerName(sid) << " lane " << lane;
  }
  for (const InstanceRef& ref : index.Instances()) {
    EXPECT_EQ(batch.InstanceUsers(lane, ref.id),
              scalar.InstanceUsers(ref.id))
        << "users of instance " << ref.id << " lane " << lane;
    EXPECT_EQ(batch.InstanceLoad(lane, ref.id), scalar.InstanceLoad(ref.id))
        << "load of instance " << ref.id << " lane " << lane;
  }
  for (size_t v = 0; v < index.num_services(); ++v) {
    infra::DenseId sid = static_cast<infra::DenseId>(v);
    EXPECT_EQ(batch.ServiceLoad(lane, sid), scalar.ServiceLoadById(sid))
        << "service load of " << index.ServiceName(sid) << " lane " << lane;
    EXPECT_EQ(batch.ServiceSatisfaction(lane, sid),
              scalar.ServiceSatisfactionById(sid))
        << "satisfaction of " << index.ServiceName(sid) << " lane " << lane;
  }
  EXPECT_EQ(batch.TotalBacklog(lane), scalar.TotalBacklog())
      << "backlog lane " << lane;
  EXPECT_EQ(batch.TotalLostWork(lane), scalar.TotalLostWork())
      << "lost work lane " << lane;
  EXPECT_EQ(batch.OverloadMinutes(lane), scalar.OverloadMinutes())
      << "overload minutes lane " << lane;
}

// --- Paper landscape, both distribution modes, three seeds -------------

class PaperParityTest : public ::testing::TestWithParam<UserDistribution> {};

TEST_P(PaperParityTest, LanesMatchScalarPerSeedAndScale) {
  const std::vector<LaneSetup> lanes = {
      {42, 1.00}, {7, 1.05}, {2026, 1.40}};

  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  Cluster cluster;
  ASSERT_TRUE(landscape.Build(&cluster, nullptr).ok());

  BatchDemandEngine batch(&cluster, lanes.size());
  ASSERT_TRUE(landscape.Build(nullptr, &batch).ok());
  batch.set_distribution(GetParam());
  std::vector<std::unique_ptr<DemandEngine>> scalars;
  for (size_t k = 0; k < lanes.size(); ++k) {
    batch.SetLaneSeed(k, lanes[k].seed);
    batch.SetLaneUserScale(k, lanes[k].scale);
    auto scalar =
        std::make_unique<DemandEngine>(&cluster, Rng(lanes[k].seed));
    ASSERT_TRUE(landscape.Build(nullptr, scalar.get()).ok());
    scalar->set_user_scale(lanes[k].scale);
    scalar->set_distribution(GetParam());
    scalars.push_back(std::move(scalar));
  }

  for (int t = 1; t <= 240; ++t) {
    SimTime now = SimTime::Start() + Duration::Minutes(t);
    batch.Tick(now);
    for (auto& scalar : scalars) scalar->Tick(now);
    if (t % 60 == 0 || t == 1) {
      for (size_t k = 0; k < lanes.size(); ++k) {
        ExpectLaneMatchesScalar(batch, k, *scalars[k], cluster);
      }
    }
  }
  for (size_t k = 0; k < lanes.size(); ++k) {
    ExpectLaneMatchesScalar(batch, k, *scalars[k], cluster);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, PaperParityTest,
                         ::testing::Values(
                             UserDistribution::kStickySessions,
                             UserDistribution::kDynamicRedistribution),
                         [](const auto& info) {
                           return info.param ==
                                          UserDistribution::kStickySessions
                                      ? "Sticky"
                                      : "Dynamic";
                         });

// --- Mid-run topology changes (shared across lanes) --------------------

TEST(BatchDemandTest, MidRunTopologyChangesStayInLockstep) {
  SmallWorld world;
  world.Populate();
  std::vector<InstanceId> ids = world.PlaceInitial();

  const std::vector<LaneSetup> lanes = {{42, 1.0}, {7, 1.3}};
  BatchDemandEngine batch(&world.cluster, lanes.size());
  SmallWorld::Register(&batch);
  std::vector<std::unique_ptr<DemandEngine>> scalars;
  for (size_t k = 0; k < lanes.size(); ++k) {
    batch.SetLaneSeed(k, lanes[k].seed);
    batch.SetLaneUserScale(k, lanes[k].scale);
    auto scalar =
        std::make_unique<DemandEngine>(&world.cluster, Rng(lanes[k].seed));
    SmallWorld::Register(scalar.get());
    scalar->set_user_scale(lanes[k].scale);
    scalars.push_back(std::move(scalar));
  }

  auto tick_all = [&](int from, int to) {
    for (int t = from; t <= to; ++t) {
      SimTime now = SimTime::Start() + Duration::Minutes(t);
      batch.Tick(now);
      for (auto& scalar : scalars) scalar->Tick(now);
    }
    for (size_t k = 0; k < lanes.size(); ++k) {
      ExpectLaneMatchesScalar(batch, k, *scalars[k], world.cluster);
    }
  };

  tick_all(1, 30);

  // Start a new app instance (kStarting: base load only)...
  auto started = world.cluster.PlaceInstance(
      "app", "s3", SimTime::Start() + Duration::Minutes(30),
      InstanceState::kStarting);
  ASSERT_TRUE(started.ok());
  tick_all(31, 40);

  // ...promote it to running...
  ASSERT_TRUE(world.cluster
                  .SetInstanceState(started.value_or(0),
                                    InstanceState::kRunning)
                  .ok());
  tick_all(41, 60);

  // ...and remove one of the original instances.
  ASSERT_TRUE(world.cluster.RemoveInstance(ids[0]).ok());
  tick_all(61, 90);
}

// A server added mid-run whose name sorts first shifts every dense
// server id, so both engines must carry each lane's last-tick server
// loads over to the new layout by name (the refuge search reads them).
TEST(BatchDemandTest, ServerAddedMidRunRemapsEveryLane) {
  SmallWorld world;
  world.Populate();
  world.PlaceInitial();

  const std::vector<LaneSetup> lanes = {{42, 1.0}, {7, 1.3}, {2026, 0.7}};
  BatchDemandEngine batch(&world.cluster, lanes.size());
  SmallWorld::Register(&batch);
  std::vector<std::unique_ptr<DemandEngine>> scalars;
  for (size_t k = 0; k < lanes.size(); ++k) {
    batch.SetLaneSeed(k, lanes[k].seed);
    batch.SetLaneUserScale(k, lanes[k].scale);
    auto scalar =
        std::make_unique<DemandEngine>(&world.cluster, Rng(lanes[k].seed));
    SmallWorld::Register(scalar.get());
    scalar->set_user_scale(lanes[k].scale);
    scalars.push_back(std::move(scalar));
  }

  int minute = 0;
  auto tick = [&](int ticks) {
    for (int t = 0; t < ticks; ++t) {
      SimTime now = SimTime::Start() + Duration::Minutes(++minute);
      batch.Tick(now);
      for (auto& scalar : scalars) scalar->Tick(now);
      for (size_t k = 0; k < lanes.size(); ++k) {
        ExpectLaneMatchesScalar(batch, k, *scalars[k], world.cluster);
      }
    }
  };

  tick(30);
  ASSERT_TRUE(world.cluster.AddServer(MakeServer("s0", 2)).ok());
  ASSERT_EQ(world.cluster.Index().ServerIdOf("s0"), 0);
  // One tick on the shifted layout before s0 hosts anything: its
  // refuge search picks among the old instances by their carried-over
  // host loads.
  tick(1);
  ASSERT_TRUE(world.cluster
                  .PlaceInstance("app", "s0",
                                 SimTime::Start() + Duration::Minutes(minute))
                  .ok());
  tick(60);
}

// --- Instance failures in the shared cluster ---------------------------

// Every lane reads instance states from the shared cluster, so a failed
// instance is failed in all lanes at once. The lanes still diverge in
// what that does to them: they hold different users and loads, each
// takes the refuge hand-off on its own, and under philox a lane whose
// fresh work drops to zero skips its draw. Each lane must match a
// scalar engine on the same cluster through the failure and recovery of
// the users' app instance and of the only shared-queue db instance, and
// through a db failure while a second db instance drains the queue.
class SharedFailureParityTest
    : public ::testing::TestWithParam<
          std::tuple<RngKind, UserDistribution>> {};

TEST_P(SharedFailureParityTest, LanesMatchScalarThroughFailures) {
  const auto [kind, distribution] = GetParam();
  const std::vector<LaneSetup> lanes = {{42, 1.0}, {7, 1.3}, {2026, 0.7}};

  SmallWorld world;
  world.Populate();
  // ids: app on s1, app on s2, ci on s2, db on s3.
  std::vector<InstanceId> ids = world.PlaceInitial();

  BatchDemandEngine batch(&world.cluster, lanes.size());
  SmallWorld::Register(&batch);
  batch.set_rng_kind(kind);
  batch.set_distribution(distribution);
  std::vector<std::unique_ptr<DemandEngine>> scalars;
  for (size_t k = 0; k < lanes.size(); ++k) {
    batch.SetLaneSeed(k, lanes[k].seed);
    batch.SetLaneUserScale(k, lanes[k].scale);
    auto scalar =
        std::make_unique<DemandEngine>(&world.cluster, Rng(lanes[k].seed));
    SmallWorld::Register(scalar.get());
    scalar->SeedRng(lanes[k].seed, kind);
    scalar->set_user_scale(lanes[k].scale);
    scalar->set_distribution(distribution);
    scalars.push_back(std::move(scalar));
  }

  int minute = 0;
  auto tick_30 = [&] {
    for (int t = 0; t < 30; ++t) {
      SimTime now = SimTime::Start() + Duration::Minutes(++minute);
      batch.Tick(now);
      for (auto& scalar : scalars) scalar->Tick(now);
    }
    for (size_t k = 0; k < lanes.size(); ++k) {
      ExpectLaneMatchesScalar(batch, k, *scalars[k], world.cluster);
    }
  };
  auto step = [&](InstanceId id, InstanceState state) {
    ASSERT_TRUE(world.cluster.SetInstanceState(id, state).ok());
    tick_30();
  };

  tick_30();  // attach users in every lane
  for (size_t k = 0; k < lanes.size(); ++k) {
    ASSERT_GT(batch.InstanceUsers(k, ids[0]), 0.0) << "lane " << k;
  }

  // The app instance fails while holding users: they move to the
  // surviving app instance in every lane.
  step(ids[0], InstanceState::kFailed);
  for (size_t k = 0; k < lanes.size(); ++k) {
    EXPECT_EQ(batch.InstanceUsers(k, ids[0]), 0.0) << "lane " << k;
  }
  step(ids[0], InstanceState::kRunning);

  // The only db instance fails: the tier's work is lost in every lane.
  std::vector<double> lost_before;
  for (size_t k = 0; k < lanes.size(); ++k) {
    lost_before.push_back(batch.TotalLostWork(k));
  }
  step(ids[3], InstanceState::kFailed);
  for (size_t k = 0; k < lanes.size(); ++k) {
    EXPECT_GT(batch.TotalLostWork(k), lost_before[k]) << "lane " << k;
  }
  step(ids[3], InstanceState::kRunning);

  // A second db instance next to the busy app instance queues work;
  // the shared queue then splits over the survivor only.
  auto second_db = world.cluster.PlaceInstance(
      "db", "s1", SimTime::Start() + Duration::Minutes(minute));
  ASSERT_TRUE(second_db.ok()) << second_db.status();
  tick_30();
  step(ids[3], InstanceState::kFailed);
}

INSTANTIATE_TEST_SUITE_P(
    BothPlanesBothModes, SharedFailureParityTest,
    ::testing::Combine(
        ::testing::Values(RngKind::kXoshiro, RngKind::kPhilox),
        ::testing::Values(UserDistribution::kStickySessions,
                          UserDistribution::kDynamicRedistribution)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) == RngKind::kPhilox
                             ? "Philox"
                             : "Xoshiro";
      name += std::get<1>(info.param) == UserDistribution::kStickySessions
                  ? "Sticky"
                  : "Dynamic";
      return name;
    });

// --- Batch size never changes a lane's output --------------------------

TEST(BatchDemandTest, BatchSizeInvariance) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  Cluster cluster;
  ASSERT_TRUE(landscape.Build(&cluster, nullptr).ok());

  auto run = [&](size_t lanes_count) {
    auto batch = std::make_unique<BatchDemandEngine>(&cluster, lanes_count);
    EXPECT_TRUE(landscape.Build(nullptr, batch.get()).ok());
    for (size_t k = 0; k < lanes_count; ++k) {
      batch->SetLaneSeed(k, 42 + k * 17);
      batch->SetLaneUserScale(k, 1.0 + 0.05 * static_cast<double>(k % 9));
    }
    for (int t = 1; t <= 120; ++t) {
      batch->Tick(SimTime::Start() + Duration::Minutes(t));
    }
    return batch;
  };

  auto b1 = run(1);
  auto b8 = run(8);
  auto b64 = run(64);

  const infra::LandscapeIndex& index = cluster.Index();
  auto expect_lane_equal = [&](const BatchDemandEngine& a, size_t la,
                               const BatchDemandEngine& b, size_t lb) {
    for (size_t s = 0; s < index.num_servers(); ++s) {
      infra::DenseId sid = static_cast<infra::DenseId>(s);
      EXPECT_EQ(a.ServerCpuLoad(la, sid), b.ServerCpuLoad(lb, sid));
    }
    for (const InstanceRef& ref : index.Instances()) {
      EXPECT_EQ(a.InstanceUsers(la, ref.id), b.InstanceUsers(lb, ref.id));
      EXPECT_EQ(a.InstanceLoad(la, ref.id), b.InstanceLoad(lb, ref.id));
    }
    EXPECT_EQ(a.TotalBacklog(la), b.TotalBacklog(lb));
    EXPECT_EQ(a.TotalLostWork(la), b.TotalLostWork(lb));
    EXPECT_EQ(a.OverloadMinutes(la), b.OverloadMinutes(lb));
  };

  expect_lane_equal(*b1, 0, *b64, 0);
  for (size_t k = 0; k < 8; ++k) expect_lane_equal(*b8, k, *b64, k);
}

// --- ResetLanes re-arms the engine bit-identically ---------------------

TEST(BatchDemandTest, ResetLanesReproducesFreshRun) {
  SmallWorld world;
  world.Populate();
  world.PlaceInitial();

  BatchDemandEngine batch(&world.cluster, 2);
  SmallWorld::Register(&batch);

  auto arm = [&]() {
    batch.SetLaneSeed(0, 42);
    batch.SetLaneSeed(1, 7);
    batch.SetLaneUserScale(0, 1.0);
    batch.SetLaneUserScale(1, 1.2);
  };
  auto run = [&]() {
    for (int t = 1; t <= 90; ++t) {
      batch.Tick(SimTime::Start() + Duration::Minutes(t));
    }
  };

  arm();
  run();
  std::vector<double> first;
  const infra::LandscapeIndex& index = world.cluster.Index();
  for (size_t lane = 0; lane < 2; ++lane) {
    for (const InstanceRef& ref : index.Instances()) {
      first.push_back(batch.InstanceUsers(lane, ref.id));
      first.push_back(batch.InstanceLoad(lane, ref.id));
    }
    first.push_back(batch.TotalBacklog(lane));
    first.push_back(batch.TotalLostWork(lane));
    first.push_back(batch.OverloadMinutes(lane));
  }

  batch.ResetLanes();
  arm();
  run();
  size_t i = 0;
  for (size_t lane = 0; lane < 2; ++lane) {
    for (const InstanceRef& ref : index.Instances()) {
      EXPECT_EQ(first[i++], batch.InstanceUsers(lane, ref.id));
      EXPECT_EQ(first[i++], batch.InstanceLoad(lane, ref.id));
    }
    EXPECT_EQ(first[i++], batch.TotalBacklog(lane));
    EXPECT_EQ(first[i++], batch.TotalLostWork(lane));
    EXPECT_EQ(first[i++], batch.OverloadMinutes(lane));
  }
}

// --- Philox draw discipline: scalar <-> batched bit-parity -------------

// 64 batched philox lanes against 64 scalar philox engines, both
// distribution modes. This is the tentpole contract: in philox mode
// every noise draw is a pure function of (seed, draw index), so the
// batched engine — including its AVX2 4-lane block kernels — must
// reproduce each scalar run bit for bit.
class PhiloxParityTest : public ::testing::TestWithParam<UserDistribution> {
};

TEST_P(PhiloxParityTest, SixtyFourLanesMatchScalarRuns) {
  constexpr size_t kLanes = 64;
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  Cluster cluster;
  ASSERT_TRUE(landscape.Build(&cluster, nullptr).ok());

  BatchDemandEngine batch(&cluster, kLanes);
  ASSERT_TRUE(landscape.Build(nullptr, &batch).ok());
  batch.set_rng_kind(RngKind::kPhilox);
  batch.set_distribution(GetParam());
  std::vector<std::unique_ptr<DemandEngine>> scalars;
  for (size_t k = 0; k < kLanes; ++k) {
    uint64_t seed = 1000 + k * 977;
    double scale = 1.0 + 0.05 * static_cast<double>(k % 5);
    batch.SetLaneSeed(k, seed);
    batch.SetLaneUserScale(k, scale);
    auto scalar = std::make_unique<DemandEngine>(&cluster, Rng(seed));
    ASSERT_TRUE(landscape.Build(nullptr, scalar.get()).ok());
    scalar->SeedRng(seed, RngKind::kPhilox);
    scalar->set_user_scale(scale);
    scalar->set_distribution(GetParam());
    scalars.push_back(std::move(scalar));
  }

  for (int t = 1; t <= 180; ++t) {
    SimTime now = SimTime::Start() + Duration::Minutes(t);
    batch.Tick(now);
    for (auto& scalar : scalars) scalar->Tick(now);
    if (t == 1 || t == 90) {
      for (size_t k = 0; k < kLanes; k += 13) {
        ExpectLaneMatchesScalar(batch, k, *scalars[k], cluster);
      }
    }
  }
  for (size_t k = 0; k < kLanes; ++k) {
    ExpectLaneMatchesScalar(batch, k, *scalars[k], cluster);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, PhiloxParityTest,
                         ::testing::Values(
                             UserDistribution::kStickySessions,
                             UserDistribution::kDynamicRedistribution),
                         [](const auto& info) {
                           return info.param ==
                                          UserDistribution::kStickySessions
                                      ? "Sticky"
                                      : "Dynamic";
                         });

// Philox batch-size invariance: the same 64 (seed, scale) streams give
// the same bits whether stepped as 64x1, 8x8, or 1x64 lanes. The
// legacy discipline has this property because lanes never share
// state; philox additionally exercises the mixed even/odd counter
// paths of the SIMD kernels at every lane width.
TEST(BatchDemandTest, PhiloxBatchSizeInvariance) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  Cluster cluster;
  ASSERT_TRUE(landscape.Build(&cluster, nullptr).ok());

  auto run = [&](size_t lanes_count) {
    auto batch = std::make_unique<BatchDemandEngine>(&cluster, lanes_count);
    EXPECT_TRUE(landscape.Build(nullptr, batch.get()).ok());
    batch->set_rng_kind(RngKind::kPhilox);
    for (size_t k = 0; k < lanes_count; ++k) {
      batch->SetLaneSeed(k, 42 + k * 17);
      batch->SetLaneUserScale(k, 1.0 + 0.05 * static_cast<double>(k % 9));
    }
    for (int t = 1; t <= 120; ++t) {
      batch->Tick(SimTime::Start() + Duration::Minutes(t));
    }
    return batch;
  };

  auto b1 = run(1);
  auto b8 = run(8);
  auto b64 = run(64);

  const infra::LandscapeIndex& index = cluster.Index();
  auto expect_lane_equal = [&](const BatchDemandEngine& a, size_t la,
                               const BatchDemandEngine& b, size_t lb) {
    for (size_t s = 0; s < index.num_servers(); ++s) {
      infra::DenseId sid = static_cast<infra::DenseId>(s);
      EXPECT_EQ(a.ServerCpuLoad(la, sid), b.ServerCpuLoad(lb, sid));
    }
    for (const InstanceRef& ref : index.Instances()) {
      EXPECT_EQ(a.InstanceUsers(la, ref.id), b.InstanceUsers(lb, ref.id));
      EXPECT_EQ(a.InstanceLoad(la, ref.id), b.InstanceLoad(lb, ref.id));
    }
    EXPECT_EQ(a.TotalBacklog(la), b.TotalBacklog(lb));
    EXPECT_EQ(a.TotalLostWork(la), b.TotalLostWork(lb));
    EXPECT_EQ(a.OverloadMinutes(la), b.OverloadMinutes(lb));
  };

  expect_lane_equal(*b1, 0, *b64, 0);
  for (size_t k = 0; k < 8; ++k) expect_lane_equal(*b8, k, *b64, k);
}

}  // namespace
}  // namespace autoglobe::workload
