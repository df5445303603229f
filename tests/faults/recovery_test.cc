#include "faults/recovery.h"

#include <gtest/gtest.h>

#include "controller/controller.h"
#include "faults/availability.h"
#include "infra/cluster.h"
#include "infra/executor.h"
#include "sim/simulator.h"

namespace autoglobe::faults {
namespace {

using infra::Action;
using infra::ActionType;
using infra::Cluster;
using infra::InstanceId;
using infra::InstanceState;
using infra::ServerSpec;
using infra::ServiceSpec;

/// Scripted load view: every subject reports a calm 0.1 unless a test
/// overrides it, so server selection ranks on headroom.
class FakeView : public controller::LoadView {
 public:
  explicit FakeView(const Cluster* cluster) : cluster_(cluster) {}

  double ServerCpuLoad(infra::DenseId server) const override {
    auto it = server_cpu_.find(cluster_->Index().ServerName(server));
    return it == server_cpu_.end() ? 0.1 : it->second;
  }
  double ServerMemLoad(infra::DenseId) const override { return 0.1; }
  double InstanceLoad(InstanceId) const override { return 0.1; }
  double ServiceLoad(std::string_view) const override { return 0.1; }

  std::map<std::string, double, std::less<>> server_cpu_;

 private:
  const Cluster* cluster_;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 1; i <= 3; ++i) {
      ServerSpec spec;
      spec.name = "small" + std::to_string(i);
      spec.performance_index = 1;
      spec.num_cpus = 1;
      spec.memory_gb = 2;
      ASSERT_TRUE(cluster_.AddServer(spec).ok());
    }
    ServerSpec big;
    big.name = "big";
    big.performance_index = 9;
    big.num_cpus = 9;
    big.memory_gb = 12;
    ASSERT_TRUE(cluster_.AddServer(big).ok());

    ServiceSpec app;
    app.name = "app";
    app.memory_footprint_gb = 1.0;
    app.min_instances = 1;
    app.max_instances = 4;
    app.allowed_actions = {ActionType::kScaleIn, ActionType::kScaleOut,
                           ActionType::kMove};
    ASSERT_TRUE(cluster_.AddService(app).ok());

    ServiceSpec db;
    db.name = "db";
    db.memory_footprint_gb = 1.0;
    db.min_instances = 1;
    db.max_instances = 2;
    ASSERT_TRUE(cluster_.AddService(db).ok());

    executor_ = std::make_unique<infra::ActionExecutor>(&cluster_,
                                                        &simulator_);
    auto controller = controller::Controller::Create(
        &cluster_, executor_.get(), &view_);
    ASSERT_TRUE(controller.ok()) << controller.status();
    controller_ = std::make_unique<controller::Controller>(
        std::move(*controller));

    recovery_ = std::make_unique<RecoveryManager>(
        &cluster_, &simulator_, executor_.get(), controller_.get());
    recovery_->set_availability_tracker(&tracker_);
    recovery_->set_alert_callback(
        [this](SimTime, const std::string& reason) {
          alerts_.push_back(reason);
        });
  }

  InstanceId Place(const std::string& server) {
    auto id = cluster_.PlaceInstance("app", server, simulator_.now());
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or(0);
  }

  /// Crashes `id` and reports it the way the runner would: tracker
  /// first, then the confirmed-failure trigger into recovery.
  void Fail(InstanceId id) {
    ASSERT_TRUE(
        cluster_.SetInstanceState(id, InstanceState::kFailed).ok());
    tracker_.OnInstanceDown(id, "app", simulator_.now());
    recovery_->OnInstanceFailed(id, simulator_.now());
  }

  Cluster cluster_;
  sim::Simulator simulator_;
  FakeView view_{&cluster_};
  AvailabilityTracker tracker_;
  std::unique_ptr<infra::ActionExecutor> executor_;
  std::unique_ptr<controller::Controller> controller_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::vector<std::string> alerts_;
};

TEST_F(RecoveryTest, RestartInPlaceRecovers) {
  InstanceId id = Place("small1");
  Fail(id);
  simulator_.RunAll();

  auto instance = cluster_.FindInstance(id);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->state, InstanceState::kRunning);
  EXPECT_EQ((*instance)->server, "small1");
  EXPECT_EQ(recovery_->stats().restarts_attempted, 1);
  EXPECT_EQ(recovery_->stats().restarts_succeeded, 1);
  EXPECT_EQ(recovery_->stats().recovered, 1);
  EXPECT_EQ(recovery_->stats().relocations, 0);
  EXPECT_FALSE(tracker_.IsOpen(id));
  // Failure at t=0, instantly detected here, serving after the boot
  // delay: MTTR is exactly start_delay.
  AvailabilityReport report = tracker_.Report(simulator_.now());
  EXPECT_DOUBLE_EQ(report.mttr_minutes_mean,
                   executor_->config().start_delay.minutes());
  EXPECT_TRUE(alerts_.empty());
}

TEST_F(RecoveryTest, BackoffThenEscalatesToRelocation) {
  InstanceId id = Place("small1");
  // The host keeps rejecting restarts (transient fault pinned to
  // small1); launches elsewhere succeed.
  executor_->set_failure_injector([](const Action& action) {
    if (action.target_server == "small1") {
      return Status::Unavailable("small1 stuck");
    }
    return Status::OK();
  });
  Fail(id);
  simulator_.RunAll();

  // Attempts at t=0, t=1min, t=3min (backoff 1, then 2), then the
  // escalation relocates and the replacement boots in 2 minutes.
  EXPECT_EQ(recovery_->stats().restarts_attempted, 3);
  EXPECT_EQ(recovery_->stats().restarts_succeeded, 0);
  EXPECT_EQ(recovery_->stats().relocations, 1);
  EXPECT_EQ(recovery_->stats().recovered, 1);
  EXPECT_EQ(simulator_.now().seconds(), Duration::Minutes(5).seconds());

  EXPECT_FALSE(cluster_.FindInstance(id).ok());  // replaced, not kept
  std::vector<const infra::ServiceInstance*> instances =
      cluster_.InstancesOf("app");
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_NE(instances[0]->server, "small1");
  EXPECT_EQ(instances[0]->state, InstanceState::kRunning);
  EXPECT_FALSE(tracker_.IsOpen(id));
  AvailabilityReport report = tracker_.Report(simulator_.now());
  EXPECT_DOUBLE_EQ(report.mttr_minutes_mean, 5.0);
}

TEST_F(RecoveryTest, DeadServerEvacuationMovesEveryInstance) {
  InstanceId a = Place("small1");
  auto placed = cluster_.PlaceInstance("db", "small1", simulator_.now());
  ASSERT_TRUE(placed.ok()) << placed.status();
  InstanceId b = *placed;
  ASSERT_TRUE(cluster_.SetServerUp("small1", false).ok());
  ASSERT_TRUE(cluster_.SetInstanceState(a, InstanceState::kFailed).ok());
  ASSERT_TRUE(cluster_.SetInstanceState(b, InstanceState::kFailed).ok());
  recovery_->OnServerFailed("small1", simulator_.now());
  simulator_.RunAll();

  EXPECT_EQ(recovery_->stats().evacuations, 2);
  EXPECT_EQ(recovery_->stats().relocations, 2);
  EXPECT_EQ(recovery_->stats().recovered, 2);
  EXPECT_TRUE(cluster_.InstancesOn("small1").empty());
  for (const std::string& service : {std::string("app"), std::string("db")}) {
    std::vector<const infra::ServiceInstance*> instances =
        cluster_.InstancesOf(service);
    ASSERT_EQ(instances.size(), 1u) << service;
    EXPECT_NE(instances[0]->server, "small1");
    EXPECT_EQ(instances[0]->state, InstanceState::kRunning);
  }
}

TEST_F(RecoveryTest, FalsePositiveEvacuationNeedsNothingFromTheHost) {
  // Monitor dropout: small1 is healthy but silent, so its running
  // instance is reported failed. Evacuation must still work.
  InstanceId id = Place("small1");
  recovery_->OnServerFailed("small1", simulator_.now());
  simulator_.RunAll();

  EXPECT_EQ(recovery_->stats().evacuations, 1);
  EXPECT_EQ(recovery_->stats().recovered, 1);
  EXPECT_TRUE(cluster_.InstancesOn("small1").empty());
  EXPECT_EQ(cluster_.InstancesOf("app").size(), 1u);
  EXPECT_FALSE(tracker_.IsOpen(id));
}

TEST_F(RecoveryTest, AbandonsAndAlertsWhenNoHostAccepts) {
  InstanceId id = Place("small1");
  // Every start everywhere fails: restarts exhaust, every relocation
  // candidate rejects, recovery runs out of autonomic options.
  executor_->set_failure_injector([](const Action&) {
    return Status::Unavailable("management network gone");
  });
  Fail(id);
  simulator_.RunAll();

  EXPECT_EQ(recovery_->stats().restarts_attempted, 3);
  EXPECT_EQ(recovery_->stats().relocations, 0);
  EXPECT_EQ(recovery_->stats().recovered, 0);
  EXPECT_EQ(recovery_->stats().abandoned, 1);
  ASSERT_EQ(alerts_.size(), 1u);
  EXPECT_NE(alerts_[0].find("app"), std::string::npos);
  EXPECT_FALSE(tracker_.IsOpen(id));
  EXPECT_EQ(tracker_.Report(simulator_.now()).abandoned, 1);
  // The failed instance was removed for replacement; nothing serves.
  EXPECT_TRUE(cluster_.InstancesOf("app").empty());
}

TEST_F(RecoveryTest, RepeatedPlacementFailuresBlacklistHosts) {
  executor_->set_failure_injector([](const Action&) {
    return Status::Unavailable("management network gone");
  });
  // Two abandoned episodes give every ranked candidate two placement
  // failures — past the default threshold.
  Fail(Place("small1"));
  simulator_.RunAll();
  EXPECT_TRUE(recovery_->BlacklistedHosts(simulator_.now()).empty());
  Fail(Place("small2"));
  simulator_.RunAll();

  EXPECT_EQ(recovery_->stats().abandoned, 2);
  EXPECT_GT(recovery_->stats().blacklist_entries, 0);
  std::vector<std::string> blacklisted =
      recovery_->BlacklistedHosts(simulator_.now());
  ASSERT_FALSE(blacklisted.empty());
  EXPECT_FALSE(recovery_->FilterHost(blacklisted[0]).ok());
  EXPECT_TRUE(recovery_->FilterHost("no-such-host").ok());
  // Blacklisting expires.
  SimTime later = simulator_.now() +
                  recovery_->config().blacklist_duration +
                  Duration::Minutes(1);
  EXPECT_TRUE(recovery_->BlacklistedHosts(later).empty());
}

TEST_F(RecoveryTest, IgnoresHealthyOrUnknownInstances) {
  InstanceId id = Place("small1");
  recovery_->OnInstanceFailed(id, simulator_.now());    // still running
  recovery_->OnInstanceFailed(9999, simulator_.now());  // unknown
  simulator_.RunAll();
  EXPECT_EQ(recovery_->stats().restarts_attempted, 0);
  EXPECT_EQ(recovery_->stats().recovered, 0);
}

}  // namespace
}  // namespace autoglobe::faults
