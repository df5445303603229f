#include "strategy/qlearn.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace autoglobe::strategy {
namespace {

using infra::ActionType;
using infra::Cluster;
using infra::InstanceId;
using infra::ServerSpec;
using infra::ServiceSpec;
using monitor::Trigger;
using monitor::TriggerKind;

class FlatView : public controller::LoadView {
 public:
  explicit FlatView(const Cluster* cluster) : cluster_(cluster) {}

  double ServerCpuLoad(infra::DenseId server) const override {
    auto it = server_cpu_.find(cluster_->Index().ServerName(server));
    return it == server_cpu_.end() ? 0.2 : it->second;
  }
  double ServerMemLoad(infra::DenseId) const override { return 0.2; }
  double InstanceLoad(InstanceId) const override { return 0.7; }
  double ServiceLoad(std::string_view) const override { return 0.7; }
  std::map<std::string, double> server_cpu_;

 private:
  const Cluster* cluster_;
};

/// One self-contained control stack (cluster + controller + learner)
/// so determinism tests can run two in parallel and diff them.
struct Stack {
  Cluster cluster;
  sim::Simulator simulator;
  FlatView view{&cluster};
  std::unique_ptr<infra::ActionExecutor> executor;
  std::unique_ptr<controller::Controller> controller;
  StrategyEnv env;
  double penalty = 0.0;
  std::unique_ptr<FuzzyQLearningStrategy> learner;

  Status Init(const QLearnConfig& config, uint64_t seed) {
    for (int i = 1; i <= 4; ++i) {
      ServerSpec spec;
      spec.name = "srv" + std::to_string(i);
      spec.performance_index = 2;
      spec.num_cpus = 2;
      spec.memory_gb = 8;
      AG_RETURN_IF_ERROR(cluster.AddServer(spec));
    }
    ServiceSpec app;
    app.name = "app";
    app.memory_footprint_gb = 1.0;
    app.min_instances = 1;
    app.max_instances = 4;
    app.allowed_actions = {ActionType::kScaleIn, ActionType::kScaleOut,
                           ActionType::kMove};
    AG_RETURN_IF_ERROR(cluster.AddService(app));
    AG_RETURN_IF_ERROR(
        cluster.PlaceInstance("app", "srv1", simulator.now()).status());
    executor = std::make_unique<infra::ActionExecutor>(&cluster,
                                                       &simulator);
    AG_ASSIGN_OR_RETURN(controller::Controller built,
                        controller::Controller::Create(
                            &cluster, executor.get(), &view));
    controller =
        std::make_unique<controller::Controller>(std::move(built));
    env.controller = controller.get();
    env.cluster = &cluster;
    env.executor = executor.get();
    env.view = &view;
    env.seed = seed;
    env.penalty = [this] { return penalty; };
    AG_ASSIGN_OR_RETURN(learner,
                        FuzzyQLearningStrategy::Create(config, env));
    return Status::OK();
  }

  Trigger Overload() {
    return Trigger{TriggerKind::kServiceOverloaded, "app",
                   simulator.now(), 0.9};
  }
};

TEST(FuzzyQLearningTest, SameSeedGivesBitIdenticalWeightTrajectories) {
  QLearnConfig config;
  Stack a, b;
  ASSERT_TRUE(a.Init(config, 42).ok());
  ASSERT_TRUE(b.Init(config, 42).ok());
  for (int step = 0; step < 20; ++step) {
    a.penalty += step * 0.5;
    b.penalty += step * 0.5;
    ASSERT_TRUE(a.learner->HandleTrigger(a.Overload(), false).ok());
    ASSERT_TRUE(b.learner->HandleTrigger(b.Overload(), false).ok());
    std::vector<double> wa =
        a.learner->WeightsFor(TriggerKind::kServiceOverloaded);
    std::vector<double> wb =
        b.learner->WeightsFor(TriggerKind::kServiceOverloaded);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t r = 0; r < wa.size(); ++r) {
      ASSERT_EQ(wa[r], wb[r]) << "step " << step << " rule " << r;
    }
    ASSERT_EQ(a.learner->epsilon(), b.learner->epsilon());
  }
  EXPECT_EQ(a.learner->reward_updates(), b.learner->reward_updates());
  EXPECT_EQ(a.learner->weight_updates(), b.learner->weight_updates());
  EXPECT_GT(a.learner->reward_updates(), 0);
}

TEST(FuzzyQLearningTest, DifferentSeedsExploreDifferently) {
  QLearnConfig config;
  config.epsilon = 0.9;  // near-pure exploration: divergence is quick
  Stack a, b;
  ASSERT_TRUE(a.Init(config, 1).ok());
  ASSERT_TRUE(b.Init(config, 2).ok());
  bool diverged = false;
  for (int step = 0; step < 10 && !diverged; ++step) {
    ASSERT_TRUE(a.learner->HandleTrigger(a.Overload(), false).ok());
    ASSERT_TRUE(b.learner->HandleTrigger(b.Overload(), false).ok());
    diverged = a.learner->WeightsFor(TriggerKind::kServiceOverloaded) !=
               b.learner->WeightsFor(TriggerKind::kServiceOverloaded);
  }
  EXPECT_TRUE(diverged);
}

TEST(FuzzyQLearningTest, RewardSignalMovesQValues) {
  QLearnConfig config;
  config.epsilon = 0.0;  // pure greedy: no rng at all
  config.epsilon_decay = 0.0;
  Stack stack;
  ASSERT_TRUE(stack.Init(config, 42).ok());
  // First decision arms the pending reward; rising penalty then
  // punishes it on settlement.
  ASSERT_TRUE(stack.learner->HandleTrigger(stack.Overload(), false).ok());
  stack.penalty += 25.0;
  ASSERT_TRUE(stack.learner->HandleTrigger(stack.Overload(), false).ok());
  EXPECT_EQ(stack.learner->reward_updates(), 1);
}

TEST(FuzzyQLearningTest, SaveLoadRoundTripIsExact) {
  const std::string path = testing::TempDir() + "qlearn_weights.xml";
  QLearnConfig config;
  config.epsilon = 0.8;
  Stack trained;
  ASSERT_TRUE(trained.Init(config, 42).ok());
  for (int step = 0; step < 15; ++step) {
    trained.penalty += 1.0;
    ASSERT_TRUE(
        trained.learner->HandleTrigger(trained.Overload(), false).ok());
  }
  ASSERT_TRUE(trained.learner->SaveWeights(path).ok());

  Stack restored;
  ASSERT_TRUE(restored.Init(config, 42).ok());
  ASSERT_TRUE(restored.learner->LoadWeights(path).ok());
  EXPECT_EQ(restored.learner->epsilon(), trained.learner->epsilon());
  for (TriggerKind kind :
       {TriggerKind::kServerOverloaded, TriggerKind::kServerIdle,
        TriggerKind::kServiceOverloaded, TriggerKind::kServiceIdle}) {
    EXPECT_EQ(restored.learner->WeightsFor(kind),
              trained.learner->WeightsFor(kind));
  }

  // Saving the restored state reproduces the file byte for byte.
  const std::string path2 = testing::TempDir() + "qlearn_weights2.xml";
  ASSERT_TRUE(restored.learner->SaveWeights(path2).ok());
  auto doc1 = xml::Document::LoadFile(path);
  auto doc2 = xml::Document::LoadFile(path2);
  ASSERT_TRUE(doc1.ok());
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc1->ToString(), doc2->ToString());
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(FuzzyQLearningTest, LoadRejectsMismatchedTables) {
  QLearnConfig config;
  Stack stack;
  ASSERT_TRUE(stack.Init(config, 42).ok());
  const std::string path = testing::TempDir() + "qlearn_bad.xml";
  {
    xml::Document doc;
    xml::Element* root = doc.SetRoot("strategyWeights");
    xml::Element* base = root->AddChild("base");
    base->SetAttribute("trigger", "serviceOverloaded");
    xml::Element* rule = base->AddChild("rule");
    rule->SetAttribute("index", "0");
    rule->SetAttribute("weight", "1.0");
    rule->SetAttribute("qDown", "0");
    rule->SetAttribute("qHold", "0");
    rule->SetAttribute("qUp", "0");
    ASSERT_TRUE(doc.SaveFile(path).ok());
  }
  // One rule in the file vs the controller's full rule base.
  EXPECT_FALSE(stack.learner->LoadWeights(path).ok());
  std::remove(path.c_str());
}

TEST(FuzzyQLearningTest, GreedyUntrainedLearnerKeepsAuthoredWeights) {
  QLearnConfig config;
  config.epsilon = 0.0;
  config.epsilon_decay = 0.0;
  Stack stack;
  ASSERT_TRUE(stack.Init(config, 42).ok());
  auto authored = stack.controller->ActionRuleWeights(
      TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(authored.ok());
  ASSERT_TRUE(stack.learner->HandleTrigger(stack.Overload(), false).ok());
  // Greedy over all-zero Q rows prefers "hold": weights untouched.
  EXPECT_EQ(stack.learner->WeightsFor(TriggerKind::kServiceOverloaded),
            *authored);
  EXPECT_EQ(stack.learner->weight_updates(), 0);
}

}  // namespace
}  // namespace autoglobe::strategy
