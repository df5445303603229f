#include "controller/controller.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "controller/rule_bases.h"
#include "obs/audit.h"
#include "sim/simulator.h"

namespace autoglobe::controller {
namespace {

using infra::ActionType;
using infra::Cluster;
using infra::InstanceId;
using infra::ServerSpec;
using infra::ServiceSpec;
using monitor::Trigger;
using monitor::TriggerKind;

class OverrideView : public LoadView {
 public:
  double ServerCpuLoad(infra::DenseId) const override { return load_; }
  double ServerMemLoad(infra::DenseId) const override { return load_; }
  double InstanceLoad(InstanceId) const override { return load_; }
  double ServiceLoad(std::string_view) const override { return load_; }
  double load_ = 0.9;
};

class WeightOverrideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 1; i <= 3; ++i) {
      ServerSpec spec;
      spec.name = "srv" + std::to_string(i);
      spec.performance_index = 2;
      spec.num_cpus = 2;
      spec.memory_gb = 8;
      ASSERT_TRUE(cluster_.AddServer(spec).ok());
    }
    ServiceSpec app;
    app.name = "app";
    app.memory_footprint_gb = 1.0;
    app.min_instances = 1;
    app.max_instances = 4;
    app.allowed_actions = {ActionType::kScaleIn, ActionType::kScaleOut,
                           ActionType::kMove};
    ASSERT_TRUE(cluster_.AddService(app).ok());
    ASSERT_TRUE(cluster_.PlaceInstance("app", "srv1",
                                       simulator_.now()).ok());

    executor_ = std::make_unique<infra::ActionExecutor>(&cluster_,
                                                        &simulator_);
    auto controller =
        Controller::Create(&cluster_, executor_.get(), &view_);
    ASSERT_TRUE(controller.ok()) << controller.status();
    controller_ = std::make_unique<Controller>(std::move(*controller));
  }

  Trigger Overload() {
    return Trigger{TriggerKind::kServiceOverloaded, "app",
                   simulator_.now(), 0.9};
  }

  Cluster cluster_;
  sim::Simulator simulator_;
  OverrideView view_;
  std::unique_ptr<infra::ActionExecutor> executor_;
  std::unique_ptr<Controller> controller_;
};

TEST_F(WeightOverrideTest, OverrideMustMatchRuleCount) {
  auto count = controller_->ActionRuleCount(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(count.ok());
  ASSERT_GT(*count, 0u);
  EXPECT_FALSE(controller_
                   ->SetActionWeightOverride(TriggerKind::kServiceOverloaded,
                                             std::vector<double>(*count + 1,
                                                                 1.0))
                   .ok());
  EXPECT_TRUE(controller_
                  ->SetActionWeightOverride(TriggerKind::kServiceOverloaded,
                                            std::vector<double>(*count, 1.0))
                  .ok());
  EXPECT_NE(controller_->ActionWeightOverride(
                TriggerKind::kServiceOverloaded),
            nullptr);
}

TEST_F(WeightOverrideTest, UnitOverrideKeepsDecisionsIdentical) {
  auto baseline = controller_->RankActions(Overload());
  ASSERT_TRUE(baseline.ok());

  auto weights =
      controller_->ActionRuleWeights(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(weights.ok());
  ASSERT_TRUE(controller_
                  ->SetActionWeightOverride(TriggerKind::kServiceOverloaded,
                                            *weights)
                  .ok());
  auto overridden = controller_->RankActions(Overload());
  ASSERT_TRUE(overridden.ok());
  ASSERT_EQ(baseline->size(), overridden->size());
  for (size_t i = 0; i < baseline->size(); ++i) {
    EXPECT_EQ((*baseline)[i].action.type, (*overridden)[i].action.type);
    EXPECT_EQ((*baseline)[i].applicability, (*overridden)[i].applicability);
  }
}

// Satellite regression: swapping a rule base mid-run recompiles the
// base, which must rebuild the cached slot/scratch sizing in the one
// shared place AND drop any weight override sized for the old rule
// count — a stale override (or stale scratch) would index out of
// bounds on the next evaluation.
TEST_F(WeightOverrideTest, RuleBaseSwapInvalidatesOverrideAndScratch) {
  auto count = controller_->ActionRuleCount(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(controller_
                  ->SetActionWeightOverride(TriggerKind::kServiceOverloaded,
                                            std::vector<double>(*count, 1.5))
                  .ok());

  // Swap in a base with a different rule count (one rule).
  fuzzy::RuleBase replacement = MakeActionSelectionVariables("swap");
  ASSERT_TRUE(replacement
                  .AddRulesFromText(
                      "IF serviceLoad IS high THEN scaleOut IS applicable")
                  .ok());
  ASSERT_TRUE(controller_
                  ->SetActionRuleBase(TriggerKind::kServiceOverloaded,
                                      std::move(replacement))
                  .ok());

  // The override sized for the old base is gone, not applied askew.
  EXPECT_EQ(controller_->ActionWeightOverride(
                TriggerKind::kServiceOverloaded),
            nullptr);
  auto new_count =
      controller_->ActionRuleCount(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(new_count.ok());
  EXPECT_EQ(*new_count, 1u);

  // Decisions still work against the recompiled base (fresh slots and
  // scratch), repeatedly and after another swap back and forth.
  for (int i = 0; i < 3; ++i) {
    auto outcome = controller_->HandleTrigger(Overload());
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }
  fuzzy::RuleBase richer = MakeActionSelectionVariables("swap2");
  ASSERT_TRUE(richer
                  .AddRulesFromText(
                      "IF serviceLoad IS high THEN scaleOut IS applicable\n"
                      "IF serviceLoad IS low THEN scaleIn IS applicable\n"
                      "IF cpuLoad IS high THEN move IS applicable")
                  .ok());
  ASSERT_TRUE(controller_
                  ->SetActionRuleBase(TriggerKind::kServiceOverloaded,
                                      std::move(richer))
                  .ok());
  auto richer_count =
      controller_->ActionRuleCount(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(richer_count.ok());
  EXPECT_EQ(*richer_count, 3u);
  auto outcome = controller_->HandleTrigger(Overload());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
}

TEST_F(WeightOverrideTest, AuditRecordsStrategyLabelAndWeights) {
  obs::AuditLog log(8);
  controller_->set_audit_log(&log);
  controller_->set_strategy_label("fuzzy-qlearning");
  auto count = controller_->ActionRuleCount(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(count.ok());
  std::vector<double> weights(*count, 0.5);
  ASSERT_TRUE(controller_
                  ->SetActionWeightOverride(TriggerKind::kServiceOverloaded,
                                            weights)
                  .ok());
  auto outcome = controller_->HandleTrigger(Overload());
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(log.records().empty());
  const obs::DecisionAudit& record = log.records().back();
  EXPECT_EQ(record.strategy, "fuzzy-qlearning");
  std::string rendered = obs::RenderExplain(record);
  EXPECT_NE(rendered.find("strategy: fuzzy-qlearning"), std::string::npos);
  bool saw_weight = false;
  for (const obs::InferenceRecord& inference : record.action_inference) {
    for (const obs::RuleActivation& rule : inference.rules) {
      if (rule.weight == 0.5) saw_weight = true;
    }
  }
  EXPECT_TRUE(saw_weight);
}

}  // namespace
}  // namespace autoglobe::controller
