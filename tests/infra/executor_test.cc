#include "infra/executor.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "common/bytes.h"

namespace autoglobe::infra {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerSpec small;
    small.name = "small";
    small.performance_index = 1;
    small.memory_gb = 4;
    ServerSpec mid = small;
    mid.name = "mid";
    mid.performance_index = 2;
    ServerSpec big = small;
    big.name = "big";
    big.performance_index = 9;
    big.memory_gb = 12;
    ASSERT_TRUE(cluster_.AddServer(small).ok());
    ASSERT_TRUE(cluster_.AddServer(mid).ok());
    ASSERT_TRUE(cluster_.AddServer(big).ok());

    ServiceSpec app;
    app.name = "app";
    app.memory_footprint_gb = 1.0;
    app.min_instances = 1;
    app.max_instances = 3;
    app.allowed_actions = {ActionType::kStart,    ActionType::kStop,
                           ActionType::kScaleIn,  ActionType::kScaleOut,
                           ActionType::kScaleUp,  ActionType::kScaleDown,
                           ActionType::kMove,     ActionType::kIncreasePriority,
                           ActionType::kReducePriority};
    ASSERT_TRUE(cluster_.AddService(app).ok());

    ServiceSpec frozen;
    frozen.name = "frozen";  // supports nothing (a CM database)
    frozen.memory_footprint_gb = 1.0;
    ASSERT_TRUE(cluster_.AddService(frozen).ok());

    executor_ = std::make_unique<ActionExecutor>(&cluster_, &simulator_);
  }

  InstanceId Place(const std::string& service, const std::string& server) {
    auto id = cluster_.PlaceInstance(service, server, simulator_.now());
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or(0);
  }

  Cluster cluster_;
  sim::Simulator simulator_;
  std::unique_ptr<ActionExecutor> executor_;
};

TEST_F(ExecutorTest, ScaleOutStartsWithBootDelay) {
  Place("app", "small");
  Action action{ActionType::kScaleOut, "app", 0, "", "mid"};
  ASSERT_TRUE(executor_->Execute(action).ok());
  // Immediately: instance exists but is starting.
  ASSERT_EQ(cluster_.InstancesOn("mid").size(), 1u);
  EXPECT_EQ(cluster_.InstancesOn("mid")[0]->state, InstanceState::kStarting);
  EXPECT_EQ(cluster_.RunningInstanceCount("app"), 1);
  // After the start delay it runs.
  simulator_.RunUntil(simulator_.now() + executor_->config().start_delay);
  EXPECT_EQ(cluster_.RunningInstanceCount("app"), 2);
}

TEST_F(ExecutorTest, SuccessfulActionProtectsInvolvedEntities) {
  Place("app", "small");
  Action action{ActionType::kScaleOut, "app", 0, "", "mid"};
  ASSERT_TRUE(executor_->Execute(action).ok());
  SimTime now = simulator_.now();
  EXPECT_TRUE(cluster_.IsServiceProtected("app", now));
  EXPECT_TRUE(cluster_.IsServerProtected("mid", now));
  EXPECT_FALSE(cluster_.IsServerProtected("big", now));
  EXPECT_FALSE(cluster_.IsServiceProtected(
      "app", now + executor_->config().protection_time));
}

TEST_F(ExecutorTest, DisallowedActionRejected) {
  Place("frozen", "small");
  Action action{ActionType::kScaleOut, "frozen", 0, "", "mid"};
  Status status = executor_->Execute(action);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // A failed action protects nothing.
  EXPECT_FALSE(cluster_.IsServiceProtected("frozen", simulator_.now()));
}

TEST_F(ExecutorTest, MissingTargetServerRejected) {
  Place("app", "small");
  Action action{ActionType::kScaleOut, "app", 0, "", ""};
  EXPECT_FALSE(executor_->Execute(action).ok());
}

TEST_F(ExecutorTest, ScaleInRemovesInstance) {
  Place("app", "small");
  InstanceId second = Place("app", "mid");
  Action action{ActionType::kScaleIn, "app", second, "mid", ""};
  ASSERT_TRUE(executor_->Execute(action).ok());
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
  EXPECT_TRUE(cluster_.IsServerProtected("mid", simulator_.now()));
}

TEST_F(ExecutorTest, ScaleInRespectsMinimum) {
  InstanceId only = Place("app", "small");
  Action action{ActionType::kScaleIn, "app", only, "small", ""};
  EXPECT_FALSE(executor_->Execute(action).ok());
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
}

TEST_F(ExecutorTest, StopRemovesAllInstances) {
  Place("app", "small");
  Place("app", "mid");
  Action action{ActionType::kStop, "app", 0, "", ""};
  ASSERT_TRUE(executor_->Execute(action).ok());
  EXPECT_EQ(cluster_.InstancesOf("app").size(), 0u);
  // Stopping again fails: nothing to stop.
  EXPECT_FALSE(executor_->Execute(action).ok());
}

TEST_F(ExecutorTest, MoveHasBriefDowntime) {
  InstanceId id = Place("app", "small");
  Action action{ActionType::kMove, "app", id, "small", "mid"};
  ASSERT_TRUE(executor_->Execute(action).ok());
  auto instance = cluster_.FindInstance(id);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->server, "mid");
  EXPECT_EQ((*instance)->state, InstanceState::kStarting);
  simulator_.RunUntil(simulator_.now() + executor_->config().move_downtime);
  EXPECT_EQ((*cluster_.FindInstance(id))->state, InstanceState::kRunning);
}

TEST_F(ExecutorTest, ScaleUpRequiresMorePowerfulHost) {
  InstanceId id = Place("app", "mid");
  Action down_as_up{ActionType::kScaleUp, "app", id, "mid", "small"};
  EXPECT_FALSE(executor_->Execute(down_as_up).ok());
  Action up{ActionType::kScaleUp, "app", id, "mid", "big"};
  EXPECT_TRUE(executor_->Execute(up).ok());
  EXPECT_EQ((*cluster_.FindInstance(id))->server, "big");
}

TEST_F(ExecutorTest, ScaleDownRequiresLessPowerfulHost) {
  InstanceId id = Place("app", "mid");
  Action up_as_down{ActionType::kScaleDown, "app", id, "mid", "big"};
  EXPECT_FALSE(executor_->Execute(up_as_down).ok());
  Action down{ActionType::kScaleDown, "app", id, "mid", "small"};
  EXPECT_TRUE(executor_->Execute(down).ok());
}

TEST_F(ExecutorTest, InstanceServiceMismatchRejected) {
  Place("app", "small");
  InstanceId frozen_id = Place("frozen", "mid");
  Action action{ActionType::kScaleIn, "app", frozen_id, "mid", ""};
  EXPECT_FALSE(executor_->Execute(action).ok());
}

TEST_F(ExecutorTest, PriorityActionsAdjustWeight) {
  Place("app", "small");
  Action up{ActionType::kIncreasePriority, "app", 0, "", ""};
  ASSERT_TRUE(executor_->Execute(up).ok());
  EXPECT_GT(cluster_.ServicePriority("app"), 1.0);
  Action down{ActionType::kReducePriority, "app", 0, "", ""};
  ASSERT_TRUE(executor_->Execute(down).ok());
  EXPECT_NEAR(cluster_.ServicePriority("app"), 1.0, 1e-12);
}

TEST_F(ExecutorTest, FailureInjectorSimulatesBrokenActions) {
  Place("app", "small");
  executor_->set_failure_injector([](const Action& action) {
    if (action.target_server == "mid") {
      return Status::Internal("mid is on fire");
    }
    return Status::OK();
  });
  Action to_mid{ActionType::kScaleOut, "app", 0, "", "mid"};
  EXPECT_FALSE(executor_->Execute(to_mid).ok());
  EXPECT_TRUE(cluster_.InstancesOn("mid").empty());
  Action to_big{ActionType::kScaleOut, "app", 0, "", "big"};
  EXPECT_TRUE(executor_->Execute(to_big).ok());
}

TEST_F(ExecutorTest, LogRecordsSuccessAndFailure) {
  Place("app", "small");
  int listener_calls = 0;
  executor_->AddListener(
      [&listener_calls](const ActionRecord&) { ++listener_calls; });
  Action good{ActionType::kScaleOut, "app", 0, "", "mid"};
  Action bad{ActionType::kScaleOut, "frozen", 0, "", "big"};
  ASSERT_TRUE(executor_->Execute(good).ok());
  ASSERT_FALSE(executor_->Execute(bad).ok());
  ASSERT_EQ(executor_->log().size(), 2u);
  EXPECT_TRUE(executor_->log()[0].status.ok());
  EXPECT_FALSE(executor_->log()[1].status.ok());
  EXPECT_EQ(listener_calls, 2);
}

TEST_F(ExecutorTest, RestartRecoversFailedInstance) {
  InstanceId id = Place("app", "small");
  // Restart of a healthy instance is refused.
  EXPECT_FALSE(executor_->RestartInstance(id).ok());
  ASSERT_TRUE(cluster_.SetInstanceState(id, InstanceState::kFailed).ok());
  ASSERT_TRUE(executor_->RestartInstance(id).ok());
  EXPECT_EQ((*cluster_.FindInstance(id))->state, InstanceState::kStarting);
  simulator_.RunUntil(simulator_.now() + executor_->config().start_delay);
  EXPECT_EQ((*cluster_.FindInstance(id))->state, InstanceState::kRunning);
}

TEST_F(ExecutorTest, LaunchInstanceBypassesActionCapabilities) {
  // "frozen" supports no actions, but failure remediation may still
  // place a replacement instance.
  ASSERT_TRUE(executor_->LaunchInstance("frozen", "big").ok());
  EXPECT_EQ(cluster_.InstancesOn("big").size(), 1u);
}

TEST_F(ExecutorTest, StoppedStartingInstanceDoesNotResurrect) {
  Place("app", "small");
  Action scale_out{ActionType::kScaleOut, "app", 0, "", "mid"};
  ASSERT_TRUE(executor_->Execute(scale_out).ok());
  InstanceId starting = cluster_.InstancesOn("mid")[0]->id;
  ASSERT_TRUE(cluster_.RemoveInstance(starting, false).ok());
  // The pending "instance running" event must not blow up.
  simulator_.RunAll();
  EXPECT_TRUE(cluster_.InstancesOn("mid").empty());
}

// --- Failure injection: retries, metrics, audit -----------------------

TEST_F(ExecutorTest, TransientInjectedFailuresAreRetriedAndRecorded) {
  Place("app", "small");
  ExecutorConfig config;
  config.max_retries = 2;
  executor_ = std::make_unique<ActionExecutor>(&cluster_, &simulator_,
                                               config);
  obs::MetricsRegistry registry;
  executor_->set_metrics(registry.AddCounter("failed"),
                         registry.AddCounter("retries"));
  obs::AuditLog audit;
  executor_->set_audit_log(&audit);

  int calls = 0;
  executor_->set_failure_injector([&calls](const Action&) {
    return ++calls <= 2 ? Status::Unavailable("blip") : Status::OK();
  });

  Action action{ActionType::kScaleOut, "app", 0, "", "mid"};
  EXPECT_TRUE(executor_->Execute(action).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(registry.AddCounter("retries").value(), 2u);
  EXPECT_EQ(registry.AddCounter("failed").value(), 0u);
  // Audit trail: each rejection plus each retry announcement.
  ASSERT_EQ(audit.executor_events().size(), 4u);
  EXPECT_NE(audit.executor_events()[0].detail.find("injected failure"),
            std::string::npos);
  EXPECT_NE(audit.executor_events()[1].detail.find("retry 1/2"),
            std::string::npos);
  EXPECT_EQ(audit.executor_events()[3].attempt, 2);
}

TEST_F(ExecutorTest, DeterministicInjectedFailureIsNotRetried) {
  Place("app", "small");
  ExecutorConfig config;
  config.max_retries = 5;
  executor_ = std::make_unique<ActionExecutor>(&cluster_, &simulator_,
                                               config);
  obs::MetricsRegistry registry;
  executor_->set_metrics(registry.AddCounter("failed"),
                         registry.AddCounter("retries"));
  obs::AuditLog audit;
  executor_->set_audit_log(&audit);
  int calls = 0;
  executor_->set_failure_injector([&calls](const Action&) {
    ++calls;
    return Status::FailedPrecondition("would fail again");
  });

  Action action{ActionType::kScaleOut, "app", 0, "", "mid"};
  EXPECT_FALSE(executor_->Execute(action).ok());
  EXPECT_EQ(calls, 1);  // retrying a deterministic failure is pointless
  EXPECT_EQ(registry.AddCounter("retries").value(), 0u);
  EXPECT_EQ(registry.AddCounter("failed").value(), 1u);
  ASSERT_EQ(audit.executor_events().size(), 1u);
  EXPECT_EQ(audit.executor_events()[0].attempt, 0);
}

TEST_F(ExecutorTest, ExhaustedRetryBudgetCountsAsFailure) {
  Place("app", "small");
  ExecutorConfig config;
  config.max_retries = 1;
  executor_ = std::make_unique<ActionExecutor>(&cluster_, &simulator_,
                                               config);
  obs::MetricsRegistry registry;
  executor_->set_metrics(registry.AddCounter("failed"),
                         registry.AddCounter("retries"));
  executor_->set_failure_injector(
      [](const Action&) { return Status::Unavailable("still down"); });

  Action action{ActionType::kScaleOut, "app", 0, "", "mid"};
  Status status = executor_->Execute(action);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(registry.AddCounter("retries").value(), 1u);
  EXPECT_EQ(registry.AddCounter("failed").value(), 1u);
  // The action log keeps the final verdict too.
  ASSERT_FALSE(executor_->log().empty());
  EXPECT_FALSE(executor_->log().back().status.ok());
  // Nothing was placed.
  EXPECT_TRUE(cluster_.InstancesOn("mid").empty());
}

TEST_F(ExecutorTest, LaunchAndRestartConsultTheInjector) {
  InstanceId id = Place("app", "small");
  executor_->set_failure_injector(
      [](const Action&) { return Status::Unavailable("no management"); });
  EXPECT_FALSE(executor_->LaunchInstance("app", "mid").ok());
  EXPECT_TRUE(cluster_.InstancesOn("mid").empty());
  ASSERT_TRUE(cluster_.SetInstanceState(id, InstanceState::kFailed).ok());
  EXPECT_FALSE(executor_->RestartInstance(id).ok());
  EXPECT_EQ(cluster_.FindInstance(id).value()->state,
            InstanceState::kFailed);

  // With the blip gone both paths work again.
  executor_->set_failure_injector(nullptr);
  EXPECT_TRUE(executor_->RestartInstance(id).ok());
  auto launched = executor_->LaunchInstance("app", "mid");
  ASSERT_TRUE(launched.ok()) << launched.status();
  simulator_.RunAll();
  EXPECT_EQ(cluster_.FindInstance(id).value()->state,
            InstanceState::kRunning);
  EXPECT_EQ(cluster_.FindInstance(*launched).value()->state,
            InstanceState::kRunning);
}

TEST_F(ExecutorTest, RestoreRejectsACountTheImageCannotHold) {
  ByteWriter w;
  w.U64(uint64_t{1} << 61);  // action-log length, no records behind it
  ByteReader r(w.data());
  Status status = executor_->RestoreState(&r);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
}

}  // namespace
}  // namespace autoglobe::infra
