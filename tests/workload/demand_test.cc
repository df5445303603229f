#include "workload/demand.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace autoglobe::workload {
namespace {

using infra::Cluster;
using infra::InstanceId;
using infra::InstanceState;
using infra::ServerSpec;
using infra::ServiceSpec;

ServerSpec MakeServer(const std::string& name, double pi) {
  ServerSpec spec;
  spec.name = name;
  spec.performance_index = pi;
  spec.memory_gb = 32;  // memory is not under test here
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

ServiceDemandSpec InteractiveSpec(const std::string& name, double users,
                                  double activity) {
  ServiceDemandSpec spec;
  spec.service = name;
  spec.pattern = LoadPattern::Flat(activity);
  spec.base_users = users;
  spec.base_load_wu = 0.0;
  spec.noise_stddev = 0.0;  // deterministic for unit tests
  return spec;
}

class DemandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.AddServer(MakeServer("s1", 1)).ok());
    ASSERT_TRUE(cluster_.AddServer(MakeServer("s2", 2)).ok());
    ASSERT_TRUE(cluster_.AddService(MakeService("app")).ok());
    engine_ = std::make_unique<DemandEngine>(&cluster_, Rng(7));
  }

  InstanceId Place(const std::string& service, const std::string& server) {
    auto id = cluster_.PlaceInstance(service, server, SimTime::Start());
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or(0);
  }

  void TickMinutes(int n, SimTime from = SimTime::Start()) {
    for (int i = 1; i <= n; ++i) {
      engine_->Tick(from + Duration::Minutes(i));
    }
  }

  Cluster cluster_;
  std::unique_ptr<DemandEngine> engine_;
};

TEST_F(DemandTest, AddServiceValidates) {
  EXPECT_FALSE(engine_->AddService(InteractiveSpec("ghost", 100, 0.5)).ok());
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 100, 0.5)).ok());
  EXPECT_FALSE(engine_->AddService(InteractiveSpec("app", 100, 0.5)).ok());
  ServiceDemandSpec bad = InteractiveSpec("app", -5, 0.5);
  bad.service = "app";
  EXPECT_FALSE(engine_->AddService(bad).ok());
}

TEST_F(DemandTest, SingleInstanceLoadMatchesTheCalibration) {
  // 150 fully active users on a PI-1 server = 100 % CPU (§5.1's
  // dimensioning rule), so 75 active users = 50 %.
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.5)).ok());
  Place("app", "s1");
  TickMinutes(1);
  EXPECT_NEAR(engine_->ServerCpuLoad("s1"), 0.5, 1e-9);
  EXPECT_NEAR(engine_->ServiceLoad("app"), 0.5, 1e-9);
  EXPECT_NEAR(engine_->ServiceUsers("app"), 150, 1e-9);
}

TEST_F(DemandTest, UsersSpreadCapacityProportionally) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 300, 0.5)).ok());
  engine_->set_fluctuation_per_minute(0.0);
  InstanceId a = Place("app", "s1");
  InstanceId b = Place("app", "s2");
  TickMinutes(1);
  // s2 has twice the capacity -> twice the users -> equal load.
  EXPECT_NEAR(engine_->InstanceUsers(a), 100, 1e-6);
  EXPECT_NEAR(engine_->InstanceUsers(b), 200, 1e-6);
  EXPECT_NEAR(engine_->ServerCpuLoad("s1"),
              engine_->ServerCpuLoad("s2"), 1e-9);
}

TEST_F(DemandTest, UserScaleMultipliesDemand) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.5)).ok());
  Place("app", "s1");
  engine_->set_user_scale(1.2);
  TickMinutes(1);
  EXPECT_NEAR(engine_->ServerCpuLoad("s1"), 0.6, 1e-9);
  EXPECT_NEAR(engine_->ServiceUsers("app"), 180, 1e-6);
}

TEST_F(DemandTest, SaturationCapsLoadAndQueuesBacklog) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 450, 1.0)).ok());
  Place("app", "s1");  // demand 3 wu on capacity 1
  TickMinutes(1);
  EXPECT_DOUBLE_EQ(engine_->ServerCpuLoad("s1"), 1.0);
  EXPECT_GT(engine_->TotalBacklog(), 0.0);
  TickMinutes(30, SimTime::Start() + Duration::Minutes(1));
  // The small interactive queue overflows into lost work.
  EXPECT_GT(engine_->TotalLostWork(), 0.0);
  EXPECT_GT(engine_->OverloadMinutes(), 25.0);
}

TEST_F(DemandTest, BacklogDrainsAfterThePeak) {
  ServiceDemandSpec spec = InteractiveSpec("app", 180, 1.0);
  ASSERT_TRUE(engine_->AddService(spec).ok());
  Place("app", "s1");  // demand 1.2 -> builds backlog
  TickMinutes(10);
  EXPECT_GT(engine_->TotalBacklog(), 0.0);
  engine_->set_user_scale(0.1);  // peak over
  TickMinutes(10, SimTime::Start() + Duration::Minutes(10));
  EXPECT_NEAR(engine_->TotalBacklog(), 0.0, 1e-9);
  EXPECT_LT(engine_->ServerCpuLoad("s1"), 0.2);
}

TEST_F(DemandTest, StickyUsersStayAfterScaleOut) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.6)).ok());
  engine_->set_distribution(UserDistribution::kStickySessions);
  engine_->set_fluctuation_per_minute(0.0);
  InstanceId a = Place("app", "s1");
  TickMinutes(1);
  ASSERT_NEAR(engine_->InstanceUsers(a), 150, 1e-6);
  InstanceId b = Place("app", "s2");
  TickMinutes(1, SimTime::Start() + Duration::Minutes(1));
  // Without fluctuation nobody moves (§5.1 CM: "the original servers
  // remain quite loaded").
  EXPECT_NEAR(engine_->InstanceUsers(a), 150, 1e-6);
  EXPECT_NEAR(engine_->InstanceUsers(b), 0, 1e-6);
}

TEST_F(DemandTest, FluctuationDrainsLoadedInstanceSlowly) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.6)).ok());
  engine_->set_distribution(UserDistribution::kStickySessions);
  engine_->set_fluctuation_per_minute(0.01);
  InstanceId a = Place("app", "s1");
  TickMinutes(1);
  InstanceId b = Place("app", "s2");
  TickMinutes(60, SimTime::Start() + Duration::Minutes(1));
  double moved = engine_->InstanceUsers(b);
  // Roughly 1 % per minute leaves a: after ~60 min almost half moved.
  EXPECT_GT(moved, 40);
  EXPECT_LT(moved, 90);
  EXPECT_NEAR(engine_->InstanceUsers(a) + moved, 150, 1e-6);
}

TEST_F(DemandTest, DynamicRedistributionIsImmediate) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 300, 0.6)).ok());
  engine_->set_distribution(UserDistribution::kDynamicRedistribution);
  InstanceId a = Place("app", "s1");
  TickMinutes(1);
  EXPECT_NEAR(engine_->InstanceUsers(a), 300, 1e-6);
  InstanceId b = Place("app", "s2");
  TickMinutes(1, SimTime::Start() + Duration::Minutes(1));
  // FM: the effect of a scale-out is "observable almost instantly".
  EXPECT_NEAR(engine_->InstanceUsers(a), 100, 1e-6);
  EXPECT_NEAR(engine_->InstanceUsers(b), 200, 1e-6);
}

TEST_F(DemandTest, FailedInstanceShedsUsers) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 300, 0.5)).ok());
  InstanceId a = Place("app", "s1");
  InstanceId b = Place("app", "s2");
  TickMinutes(1);
  ASSERT_TRUE(cluster_.SetInstanceState(a, InstanceState::kFailed).ok());
  TickMinutes(1, SimTime::Start() + Duration::Minutes(1));
  EXPECT_NEAR(engine_->InstanceUsers(a), 0, 1e-6);
  EXPECT_NEAR(engine_->InstanceUsers(b), 300, 1e-6);
}

TEST_F(DemandTest, StartingInstanceServesNothing) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.6)).ok());
  auto id = cluster_.PlaceInstance("app", "s1", SimTime::Start(),
                                   InstanceState::kStarting);
  ASSERT_TRUE(id.ok());
  TickMinutes(1);
  // Demand exists but is not served by a starting instance.
  EXPECT_DOUBLE_EQ(engine_->ServerCpuLoad("s1"), 0.0);
}

TEST_F(DemandTest, BatchWorkSplitsByCapacityAndScalesWithJobs) {
  ServiceDemandSpec bw;
  bw.service = "app";
  bw.pattern = LoadPattern::Flat(1.0);
  bw.batch = true;
  bw.batch_load_wu = 1.5;
  bw.base_load_wu = 0.0;
  bw.noise_stddev = 0.0;
  ASSERT_TRUE(engine_->AddService(bw).ok());
  Place("app", "s1");
  Place("app", "s2");
  TickMinutes(1);
  // 1.5 wu split 1:2 -> 0.5 on s1 (load 0.5), 1.0 on s2 (load 0.5).
  EXPECT_NEAR(engine_->ServerCpuLoad("s1"), 0.5, 1e-9);
  EXPECT_NEAR(engine_->ServerCpuLoad("s2"), 0.5, 1e-9);
  // "we increase the load per batch job by 5 %": scale acts on work.
  engine_->set_user_scale(1.05);
  TickMinutes(1, SimTime::Start() + Duration::Minutes(1));
  EXPECT_NEAR(engine_->ServerCpuLoad("s1"), 0.525, 1e-9);
}

TEST_F(DemandTest, SubsystemPropagationReachesCiAndDb) {
  ASSERT_TRUE(cluster_.AddService(MakeService("ci")).ok());
  ASSERT_TRUE(cluster_.AddService(MakeService("db")).ok());
  ASSERT_TRUE(cluster_.AddServer(MakeServer("s3", 1)).ok());
  ASSERT_TRUE(cluster_.AddServer(MakeServer("s4", 9)).ok());
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.5)).ok());
  ServiceDemandSpec derived;
  derived.service = "ci";
  derived.pattern = LoadPattern::Flat(0);
  derived.base_load_wu = 0;
  derived.noise_stddev = 0;
  ASSERT_TRUE(engine_->AddService(derived).ok());
  derived.service = "db";
  ASSERT_TRUE(engine_->AddService(derived).ok());
  SubsystemSpec subsystem{"ERP", {"app"}, "ci", "db", 0.1, 0.5};
  ASSERT_TRUE(engine_->AddSubsystem(subsystem).ok());
  Place("app", "s1");
  Place("ci", "s3");
  Place("db", "s4");
  TickMinutes(1);
  // App work = 0.5 wu; CI gets 10 %, DB 50 % of it.
  EXPECT_NEAR(engine_->ServerCpuLoad("s1"), 0.5, 1e-9);
  EXPECT_NEAR(engine_->ServerCpuLoad("s3"), 0.05, 1e-9);
  EXPECT_NEAR(engine_->ServerCpuLoad("s4"), 0.25 / 9, 1e-9);
}

TEST_F(DemandTest, SubsystemValidation) {
  EXPECT_FALSE(
      engine_->AddSubsystem(SubsystemSpec{"X", {"ghost"}, "", "", 0, 0})
          .ok());
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 10, 0.5)).ok());
  EXPECT_FALSE(
      engine_->AddSubsystem(SubsystemSpec{"X", {"app"}, "ghost", "", 0, 0})
          .ok());
  EXPECT_FALSE(
      engine_->AddSubsystem(SubsystemSpec{"X", {"app"}, "", "ghost", 0, 0})
          .ok());
  EXPECT_TRUE(
      engine_->AddSubsystem(SubsystemSpec{"X", {"app"}, "", "", 0, 0}).ok());
}

TEST_F(DemandTest, LostTierWorkWhenNoDatabaseRuns) {
  ASSERT_TRUE(cluster_.AddService(MakeService("db")).ok());
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 0.5)).ok());
  ServiceDemandSpec derived;
  derived.service = "db";
  derived.pattern = LoadPattern::Flat(0);
  derived.base_load_wu = 0;
  ASSERT_TRUE(engine_->AddService(derived).ok());
  ASSERT_TRUE(
      engine_->AddSubsystem(SubsystemSpec{"X", {"app"}, "", "db", 0, 0.5})
          .ok());
  Place("app", "s1");
  // No db instance exists: its tier work is lost, and that is visible.
  TickMinutes(3);
  EXPECT_GT(engine_->TotalLostWork(), 0.0);
}

TEST_F(DemandTest, PriorityShiftsShareUnderContention) {
  ASSERT_TRUE(cluster_.AddService(MakeService("noisy")).ok());
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 150, 1.0)).ok());
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("noisy", 150, 1.0)).ok());
  InstanceId a = Place("app", "s1");
  InstanceId b = Place("noisy", "s1");
  (void)a;
  (void)b;
  // Demand 2 wu on capacity 1: equal priorities -> equal split ->
  // equal backlog. Boost app: its backlog shrinks relative to noisy.
  ASSERT_TRUE(cluster_.AdjustServicePriority("app", 4.0).ok());
  TickMinutes(5);
  EXPECT_DOUBLE_EQ(engine_->ServerCpuLoad("s1"), 1.0);
  // app gets ~4x the share; noisy piles up more backlog and loses
  // more work. Compare per-instance loads as a proxy.
  EXPECT_GT(engine_->InstanceLoad(b), 0.9);  // pinned at queue cap
}

TEST_F(DemandTest, MemLoadTracksAllocation) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 10, 0.1)).ok());
  Place("app", "s1");
  TickMinutes(1);
  EXPECT_NEAR(engine_->ServerMemLoad("s1"), 1.0 / 32.0, 1e-9);
  EXPECT_DOUBLE_EQ(engine_->ServerMemLoad("s2"), 0.0);
}

TEST_F(DemandTest, ResetQualityMetricsClearsCounters) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 450, 1.0)).ok());
  Place("app", "s1");
  TickMinutes(30);
  ASSERT_GT(engine_->OverloadMinutes(), 0.0);
  engine_->ResetQualityMetrics();
  EXPECT_DOUBLE_EQ(engine_->OverloadMinutes(), 0.0);
  EXPECT_DOUBLE_EQ(engine_->TotalLostWork(), 0.0);
}

TEST_F(DemandTest, DeterministicGivenSeed) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 100, 0.5)).ok());
  Place("app", "s1");

  Cluster cluster2;
  ASSERT_TRUE(cluster2.AddServer(MakeServer("s1", 1)).ok());
  ASSERT_TRUE(cluster2.AddServer(MakeServer("s2", 2)).ok());
  ASSERT_TRUE(cluster2.AddService(MakeService("app")).ok());
  DemandEngine engine2(&cluster2, Rng(7));
  ServiceDemandSpec noisy = InteractiveSpec("app", 100, 0.5);
  noisy.noise_stddev = 0.05;
  ASSERT_TRUE(engine2.AddService(noisy).ok());
  ASSERT_TRUE(cluster2.PlaceInstance("app", "s1", SimTime::Start()).ok());

  // Same seed, same landscape => identical trajectories.
  Cluster cluster3;
  ASSERT_TRUE(cluster3.AddServer(MakeServer("s1", 1)).ok());
  ASSERT_TRUE(cluster3.AddServer(MakeServer("s2", 2)).ok());
  ASSERT_TRUE(cluster3.AddService(MakeService("app")).ok());
  DemandEngine engine3(&cluster3, Rng(7));
  ASSERT_TRUE(engine3.AddService(noisy).ok());
  ASSERT_TRUE(cluster3.PlaceInstance("app", "s1", SimTime::Start()).ok());

  for (int i = 1; i <= 50; ++i) {
    SimTime t = SimTime::Start() + Duration::Minutes(i);
    engine2.Tick(t);
    engine3.Tick(t);
    ASSERT_DOUBLE_EQ(engine2.ServerCpuLoad("s1"),
                     engine3.ServerCpuLoad("s1"))
        << "diverged at minute " << i;
  }
}


// --- Restore on hostile images -------------------------------------------

// Bytes in front of the first count of a SaveState image: the xoshiro
// words and cached normal, the philox state, the draw-discipline byte.
constexpr size_t kRngStateBytes = 4 * 8 + 1 + 8 + (2 * 4 + 3 * 8 + 1) + 1;

// Array lengths of a hand-built demand image; the defaults are
// consistent with one tracked-id bound of 3, two servers and one spec.
struct ImageShape {
  uint64_t users = 3;
  uint64_t per_instance = 3;  // backlog, demand, served, load
  uint64_t tracked = 3;
  uint64_t names = 2;
  uint64_t cpu = 2;
  uint64_t mem = 2;
  uint64_t queue = 1;
};

std::string DemandImage(std::string_view rng_state, const ImageShape& shape) {
  ByteWriter w;
  w.Raw(rng_state.data(), rng_state.size());
  auto doubles = [&w](uint64_t count) {
    w.U64(count);
    for (uint64_t i = 0; i < count; ++i) w.F64(0.0);
  };
  doubles(shape.users);
  for (int i = 0; i < 4; ++i) doubles(shape.per_instance);
  w.U64(shape.tracked);
  for (uint64_t i = 0; i < shape.tracked; ++i) w.U8(0);
  w.U64(shape.names);
  for (uint64_t i = 0; i < shape.names; ++i) {
    w.Str("s" + std::to_string(i + 1));
  }
  doubles(shape.cpu);
  doubles(shape.mem);
  doubles(shape.queue);
  w.F64(0.0);  // lost work
  w.F64(0.0);  // overload minutes
  return w.Take();
}

TEST_F(DemandTest, RestoreRejectsACountTheImageCannotHold) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 450, 1.0)).ok());
  Place("app", "s1");
  TickMinutes(5);
  const double cpu = engine_->ServerCpuLoad("s1");
  ByteWriter w;
  engine_->SaveState(&w);
  std::string image = w.Take();
  ASSERT_GT(image.size(), kRngStateBytes + 8);

  // A users count of 2^61 doubles must fail before anything is sized
  // from it.
  ByteWriter count;
  count.U64(uint64_t{1} << 61);
  image.replace(kRngStateBytes, 8, count.data());
  ByteReader r(image);
  Status status = engine_->RestoreState(&r);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;

  // A rejected image leaves the run state as it was.
  EXPECT_EQ(engine_->ServerCpuLoad("s1"), cpu);
  TickMinutes(1, SimTime::Start() + Duration::Minutes(5));
}

TEST_F(DemandTest, RestoreRejectsAnUnknownRngKind) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 100, 0.5)).ok());
  Place("app", "s1");
  TickMinutes(2);
  ByteWriter w;
  engine_->SaveState(&w);
  std::string image = w.Take();
  {  // The untouched image restores, so the rejection below is real.
    ByteReader r(image);
    ASSERT_TRUE(engine_->RestoreState(&r).ok());
  }
  // The draw-discipline byte ends the RNG state; 2 is one past kPhilox.
  image[kRngStateBytes - 1] = 2;
  ByteReader r(image);
  Status status = engine_->RestoreState(&r);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
  EXPECT_EQ(engine_->rng_kind(), RngKind::kXoshiro);
}

TEST_F(DemandTest, RestoreRejectsArraysOfDisagreeingLengths) {
  ASSERT_TRUE(engine_->AddService(InteractiveSpec("app", 100, 0.5)).ok());
  Place("app", "s1");
  Place("app", "s2");
  ByteWriter w;
  engine_->SaveState(&w);
  const std::string rng_state = w.data().substr(0, kRngStateBytes);

  {  // The consistent shape restores, so the rejections below are real.
    std::string image = DemandImage(rng_state, {});
    ByteReader r(image);
    ASSERT_TRUE(engine_->RestoreState(&r).ok());
    EXPECT_TRUE(r.AtEnd());
  }
  auto expect_rejected = [&](const ImageShape& shape, const char* what) {
    std::string image = DemandImage(rng_state, shape);
    ByteReader r(image);
    Status status = engine_->RestoreState(&r);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << what << ": "
                                                      << status;
  };
  expect_rejected({.users = 2}, "users shorter than tracked");
  expect_rejected({.per_instance = 4}, "backlog longer than tracked");
  expect_rejected({.tracked = 2}, "tracked shorter than the arrays");
  expect_rejected({.cpu = 1}, "cpu loads shorter than the names");
  expect_rejected({.mem = 3}, "mem loads longer than the names");
  expect_rejected({.names = 3}, "more names than loads");
  expect_rejected({.queue = 2}, "more queues than specs");
  TickMinutes(1);
}

// --- The checkpoint image ------------------------------------------------

// FNV-1a over a SaveState image.
uint64_t ImageHash(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Offset of the philox cache-valid flag: after the xoshiro state and
// the philox keys, counter, cache block and cached value.
constexpr size_t kPhiloxCacheValidByte = 4 * 8 + 1 + 8 + 2 * 4 + 3 * 8;

// Pins the bytes SaveState writes for a small noisy, overloaded world
// on each RNG plane: checkpoints written by one build must restore in
// the next. The philox run stops with a cached normal pending, and
// the last xoshiro run follows a philox one, so its image carries the
// philox cache words a re-seed leaves behind.
TEST_F(DemandTest, SaveImageBytesArePinned) {
  ASSERT_TRUE(cluster_.AddService(MakeService("bw")).ok());
  ServiceDemandSpec app = InteractiveSpec("app", 600, 1.0);
  app.base_load_wu = 0.02;
  app.noise_stddev = 0.05;
  ASSERT_TRUE(engine_->AddService(app).ok());
  ServiceDemandSpec bw;
  bw.service = "bw";
  bw.pattern = LoadPattern::Flat(1.0);
  bw.batch = true;
  bw.batch_load_wu = 1.5;
  bw.shared_queue = true;
  bw.backlog_cap_wu = 4.0;
  bw.noise_stddev = 0.1;
  ASSERT_TRUE(engine_->AddService(bw).ok());
  Place("app", "s1");
  Place("app", "s2");
  Place("bw", "s2");

  std::vector<uint64_t> hashes;
  for (RngKind kind :
       {RngKind::kXoshiro, RngKind::kPhilox, RngKind::kXoshiro}) {
    engine_->ResetLanes();
    engine_->SeedRng(11, kind);
    TickMinutes(7);  // three draws a tick: an odd count in total
    ByteWriter w;
    engine_->SaveState(&w);
    const std::string& image = w.data();
    ASSERT_GT(image.size(), kPhiloxCacheValidByte);
    EXPECT_EQ(image[kPhiloxCacheValidByte],
              kind == RngKind::kPhilox ? 1 : 0);
    hashes.push_back(ImageHash(image));
  }
  EXPECT_GT(engine_->TotalLostWork(), 0.0);
  // Recorded from the engine that wrote these images first.
  EXPECT_EQ(hashes,
            (std::vector<uint64_t>{0xee27b05356b99639ull,
                                   0x1d7b7aa53adffe32ull,
                                   0x7ffd44031789f065ull}));
}

}  // namespace
}  // namespace autoglobe::workload
