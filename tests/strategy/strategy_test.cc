#include "strategy/strategy.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "strategy/proportional.h"

namespace autoglobe::strategy {
namespace {

using infra::ActionType;
using infra::Cluster;
using infra::InstanceId;
using infra::ServerSpec;
using infra::ServiceSpec;
using monitor::Trigger;
using monitor::TriggerKind;

TEST(StrategyKindTest, NamesRoundTrip) {
  for (StrategyKind kind :
       {StrategyKind::kStaticFuzzy, StrategyKind::kProportionalThreshold,
        StrategyKind::kFuzzyQLearning}) {
    auto parsed = ParseStrategyKind(StrategyKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseStrategyKind("definitely-not-a-strategy").ok());
}

TEST(StrategyKindTest, AcceptsShortAliases) {
  EXPECT_EQ(*ParseStrategyKind("static"), StrategyKind::kStaticFuzzy);
  EXPECT_EQ(*ParseStrategyKind("proportional"),
            StrategyKind::kProportionalThreshold);
  EXPECT_EQ(*ParseStrategyKind("qlearn"), StrategyKind::kFuzzyQLearning);
}

TEST(StrategyConfigTest, XmlRoundTripPreservesEveryField) {
  StrategyConfig config;
  config.kind = StrategyKind::kFuzzyQLearning;
  config.proportional.target_load = 0.61;
  config.proportional.high_water = 0.83;
  config.proportional.low_water = 0.17;
  config.proportional.max_step = 3;
  config.qlearn.learning_rate = 0.31;
  config.qlearn.epsilon = 0.4;
  config.qlearn.epsilon_decay = 0.99;
  config.qlearn.epsilon_min = 0.02;
  config.qlearn.step = 0.21;
  config.qlearn.min_weight = 0.11;
  config.qlearn.max_weight = 1.9;
  config.qlearn.seed = 77;
  config.load_weights_path = "in.xml";
  config.save_weights_path = "out.xml";

  xml::Document doc;
  StrategyConfigToXml(config, doc.SetRoot("strategy"));
  auto round = StrategyConfigFromXml(*doc.root());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->kind, config.kind);
  EXPECT_DOUBLE_EQ(round->proportional.target_load,
                   config.proportional.target_load);
  EXPECT_DOUBLE_EQ(round->proportional.high_water,
                   config.proportional.high_water);
  EXPECT_DOUBLE_EQ(round->proportional.low_water,
                   config.proportional.low_water);
  EXPECT_EQ(round->proportional.max_step, config.proportional.max_step);
  EXPECT_DOUBLE_EQ(round->qlearn.learning_rate,
                   config.qlearn.learning_rate);
  EXPECT_DOUBLE_EQ(round->qlearn.epsilon, config.qlearn.epsilon);
  EXPECT_DOUBLE_EQ(round->qlearn.epsilon_decay,
                   config.qlearn.epsilon_decay);
  EXPECT_DOUBLE_EQ(round->qlearn.epsilon_min, config.qlearn.epsilon_min);
  EXPECT_DOUBLE_EQ(round->qlearn.step, config.qlearn.step);
  EXPECT_DOUBLE_EQ(round->qlearn.min_weight, config.qlearn.min_weight);
  EXPECT_DOUBLE_EQ(round->qlearn.max_weight, config.qlearn.max_weight);
  EXPECT_EQ(round->qlearn.seed, config.qlearn.seed);
  EXPECT_EQ(round->load_weights_path, config.load_weights_path);
  EXPECT_EQ(round->save_weights_path, config.save_weights_path);
}

// ---------------------------------------------------------------------------
// Proportional/threshold baseline behavior
// ---------------------------------------------------------------------------

class FlatView : public controller::LoadView {
 public:
  explicit FlatView(const Cluster* cluster) : cluster_(cluster) {}

  double ServerCpuLoad(infra::DenseId server) const override {
    auto it = server_cpu_.find(cluster_->Index().ServerName(server));
    return it == server_cpu_.end() ? 0.1 : it->second;
  }
  double ServerMemLoad(infra::DenseId) const override { return 0.1; }
  double InstanceLoad(InstanceId id) const override {
    auto it = instance_load_.find(id);
    return it == instance_load_.end() ? 0.1 : it->second;
  }
  double ServiceLoad(std::string_view) const override { return 0.1; }

  std::map<std::string, double> server_cpu_;
  std::map<InstanceId, double> instance_load_;

 private:
  const Cluster* cluster_;
};

class ProportionalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 1; i <= 4; ++i) {
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

    executor_ = std::make_unique<infra::ActionExecutor>(&cluster_,
                                                        &simulator_);
    auto controller = controller::Controller::Create(
        &cluster_, executor_.get(), &view_);
    ASSERT_TRUE(controller.ok()) << controller.status();
    controller_ = std::make_unique<controller::Controller>(
        std::move(*controller));

    env_.controller = controller_.get();
    env_.cluster = &cluster_;
    env_.executor = executor_.get();
    env_.view = &view_;
    env_.seed = 7;
    strategy_ = std::make_unique<ProportionalThresholdStrategy>(
        ProportionalConfig{}, env_);
  }

  InstanceId Place(const std::string& server) {
    auto id = cluster_.PlaceInstance("app", server, simulator_.now());
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or(0);
  }

  Trigger Make(TriggerKind kind, const std::string& subject, double load) {
    return Trigger{kind, subject, simulator_.now(), load};
  }

  Cluster cluster_;
  sim::Simulator simulator_;
  FlatView view_{&cluster_};
  std::unique_ptr<infra::ActionExecutor> executor_;
  std::unique_ptr<controller::Controller> controller_;
  StrategyEnv env_;
  std::unique_ptr<ProportionalThresholdStrategy> strategy_;
};

TEST_F(ProportionalTest, ScalesOutProportionallyToLoad) {
  Place("srv1");
  // 1 instance at 0.9: desired = ceil(0.9 / 0.55) = 2, so add one.
  auto outcome = strategy_->HandleTrigger(
      Make(TriggerKind::kServiceOverloaded, "app", 0.9), false);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->executed.has_value());
  EXPECT_EQ(outcome->executed->type, ActionType::kScaleOut);
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 2);
}

TEST_F(ProportionalTest, HoldsInsideTheHysteresisBand) {
  Place("srv1");
  auto outcome = strategy_->HandleTrigger(
      Make(TriggerKind::kServiceOverloaded, "app", 0.5), false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->executed.has_value());
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
}

TEST_F(ProportionalTest, ScalesInIdleFleetsTowardsTarget) {
  Place("srv1");
  Place("srv2");
  Place("srv3");
  // 3 instances at 0.1: desired = max(ceil(0.3/0.55), 1) = 1, capped
  // to max_step = 2 removals.
  auto outcome = strategy_->HandleTrigger(
      Make(TriggerKind::kServiceIdle, "app", 0.1), false);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->executed.has_value());
  EXPECT_EQ(outcome->executed->type, ActionType::kScaleIn);
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
}

TEST_F(ProportionalTest, RespectsProtectionUnlessUrgent) {
  Place("srv1");
  cluster_.ProtectService("app", simulator_.now() + Duration::Minutes(30));
  auto held = strategy_->HandleTrigger(
      Make(TriggerKind::kServiceOverloaded, "app", 0.9), false);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(held->skipped_protected);
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);

  auto urgent = strategy_->HandleTrigger(
      Make(TriggerKind::kServiceOverloaded, "app", 0.9), true);
  ASSERT_TRUE(urgent.ok());
  EXPECT_TRUE(urgent->executed.has_value());
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 2);
}

TEST_F(ProportionalTest, MovesHottestInstanceOffOverloadedServer) {
  // A second service so two instances share srv1 (one per service).
  ServiceSpec bg;
  bg.name = "bg";
  bg.memory_footprint_gb = 1.0;
  bg.min_instances = 1;
  bg.max_instances = 4;
  bg.allowed_actions = {ActionType::kScaleIn, ActionType::kScaleOut,
                        ActionType::kMove};
  ASSERT_TRUE(cluster_.AddService(bg).ok());
  InstanceId hot = Place("srv1");
  auto warm_id = cluster_.PlaceInstance("bg", "srv1", simulator_.now());
  ASSERT_TRUE(warm_id.ok()) << warm_id.status();
  InstanceId warm = *warm_id;
  view_.instance_load_[hot] = 0.8;
  view_.instance_load_[warm] = 0.3;
  view_.server_cpu_["srv1"] = 0.95;
  view_.server_cpu_["srv2"] = 0.05;
  auto outcome = strategy_->HandleTrigger(
      Make(TriggerKind::kServerOverloaded, "srv1", 0.95), false);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->executed.has_value());
  EXPECT_EQ(outcome->executed->type, ActionType::kMove);
  EXPECT_EQ(outcome->executed->instance, hot);
  EXPECT_EQ(outcome->executed->source_server, "srv1");
  EXPECT_NE(outcome->executed->target_server, "srv1");
}

TEST_F(ProportionalTest, IdleServersAreLeftAlone) {
  Place("srv1");
  auto outcome = strategy_->HandleTrigger(
      Make(TriggerKind::kServerIdle, "srv1", 0.02), false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->executed.has_value());
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST_F(ProportionalTest, MakeStrategyBuildsEveryKindAndStampsLabel) {
  for (StrategyKind kind :
       {StrategyKind::kStaticFuzzy, StrategyKind::kProportionalThreshold,
        StrategyKind::kFuzzyQLearning}) {
    StrategyConfig config;
    config.kind = kind;
    auto built = MakeStrategy(config, env_);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_EQ((*built)->kind(), kind);
    EXPECT_EQ(controller_->strategy_label(), StrategyKindName(kind));
  }
}

TEST_F(ProportionalTest, StaticStrategyDelegatesToTheController) {
  StrategyConfig config;
  auto built = MakeStrategy(config, env_);
  ASSERT_TRUE(built.ok());
  Place("srv1");
  view_.server_cpu_["srv1"] = 0.9;
  auto outcome = (*built)->HandleTrigger(
      Make(TriggerKind::kServiceOverloaded, "app", 0.9), false);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // The fuzzy controller decided; its telemetry hooks stay silent.
  EXPECT_EQ((*built)->reward_updates(), 0);
  EXPECT_EQ((*built)->weight_updates(), 0);
  EXPECT_FALSE((*built)->SaveWeights("/tmp/never.xml").ok());
}

}  // namespace
}  // namespace autoglobe::strategy
