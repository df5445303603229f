#include "controller/controller.h"

#include "controller/rule_bases.h"

#include <gtest/gtest.h>

#include "fuzzy/compiled.h"
#include "obs/audit.h"
#include "sim/simulator.h"

namespace autoglobe::controller {
namespace {

using infra::Action;
using infra::ActionType;
using infra::Cluster;
using infra::InstanceId;
using infra::ServerSpec;
using infra::ServiceSpec;
using monitor::Trigger;
using monitor::TriggerKind;

/// Scripted load view: tests set exact values per subject (servers by
/// name, resolved from the controller's dense ids through the cluster).
class FakeView : public LoadView {
 public:
  explicit FakeView(const Cluster* cluster) : cluster_(cluster) {}

  double ServerCpuLoad(infra::DenseId server) const override {
    return Get(server_cpu_, cluster_->Index().ServerName(server), 0.1);
  }
  double ServerMemLoad(infra::DenseId server) const override {
    return Get(server_mem_, cluster_->Index().ServerName(server), 0.1);
  }
  double InstanceLoad(InstanceId id) const override {
    auto it = instance_load_.find(id);
    return it == instance_load_.end() ? 0.1 : it->second;
  }
  double ServiceLoad(std::string_view service) const override {
    return Get(service_load_, service, 0.1);
  }

  std::map<std::string, double, std::less<>> server_cpu_;
  std::map<std::string, double, std::less<>> server_mem_;
  std::map<InstanceId, double> instance_load_;
  std::map<std::string, double, std::less<>> service_load_;

 private:
  const Cluster* cluster_;

  static double Get(const std::map<std::string, double, std::less<>>& map,
                    std::string_view key, double fallback) {
    auto it = map.find(key);
    return it == map.end() ? fallback : it->second;
  }
};

class ControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three small blades, one mid blade, one big server.
    for (int i = 1; i <= 3; ++i) {
      AddServer("small" + std::to_string(i), 1, 2);
    }
    AddServer("mid", 2, 4);
    AddServer("big", 9, 12);

    ServiceSpec app;
    app.name = "app";
    app.memory_footprint_gb = 1.0;
    app.min_instances = 1;
    app.max_instances = 4;
    app.allowed_actions = {ActionType::kScaleIn, ActionType::kScaleOut,
                           ActionType::kScaleUp, ActionType::kScaleDown,
                           ActionType::kMove};
    ASSERT_TRUE(cluster_.AddService(app).ok());

    ServiceSpec rigid;
    rigid.name = "rigid";  // no actions allowed (a CM database)
    rigid.memory_footprint_gb = 1.0;
    ASSERT_TRUE(cluster_.AddService(rigid).ok());

    executor_ = std::make_unique<infra::ActionExecutor>(&cluster_,
                                                        &simulator_);
    auto controller =
        Controller::Create(&cluster_, executor_.get(), &view_);
    ASSERT_TRUE(controller.ok()) << controller.status();
    controller_ = std::make_unique<Controller>(std::move(*controller));
  }

  void AddServer(const std::string& name, double pi, double memory) {
    ServerSpec spec;
    spec.name = name;
    spec.performance_index = pi;
    spec.num_cpus = static_cast<int>(pi);
    spec.memory_gb = memory;
    ASSERT_TRUE(cluster_.AddServer(spec).ok());
  }

  InstanceId Place(const std::string& service, const std::string& server) {
    auto id = cluster_.PlaceInstance(service, server, simulator_.now());
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or(0);
  }

  void MakeServiceHot(const std::string& service, double load = 0.9) {
    view_.service_load_[service] = load;
    for (const auto* instance : cluster_.InstancesOf(service)) {
      view_.instance_load_[instance->id] = load;
      view_.server_cpu_[instance->server] = load;
    }
  }

  Trigger ServiceOverload(const std::string& service) {
    return Trigger{TriggerKind::kServiceOverloaded, service,
                   simulator_.now(), 0.9};
  }

  Cluster cluster_;
  sim::Simulator simulator_;
  FakeView view_{&cluster_};
  std::unique_ptr<infra::ActionExecutor> executor_;
  std::unique_ptr<Controller> controller_;
};

TEST_F(ControllerTest, DefaultRuleBasesInstalled) {
  EXPECT_GE(controller_->TotalActionRules(), 20u);
}

TEST_F(ControllerTest, OverloadedServiceScalesOutToAnIdleHost) {
  Place("app", "small1");
  MakeServiceHot("app");
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->executed.has_value());
  EXPECT_FALSE(outcome->considered.empty());
  // A new instance exists somewhere that is not small1.
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 2);
  EXPECT_NE(outcome->executed->target_server, "small1");
}

TEST_F(ControllerTest, RanksBigIdleHostHighestForScaleOut) {
  InstanceId id = Place("app", "small1");
  (void)id;
  MakeServiceHot("app");
  Action probe{ActionType::kScaleOut, "app", 0, "small1", ""};
  auto hosts = controller_->RankServers(probe, simulator_.now());
  ASSERT_TRUE(hosts.ok()) << hosts.status();
  ASSERT_FALSE(hosts->empty());
  EXPECT_EQ(hosts->front().server, "big");
}

// The audited overload records each ranked host once, in ranking
// order (recovery relocations and `autoglobectl explain` print it).
TEST_F(ControllerTest, AuditedRankingListsEachHostOnce) {
  Place("app", "small1");
  MakeServiceHot("app");
  cluster_.ProtectServer("mid", simulator_.now() + Duration::Minutes(30));
  Action probe{ActionType::kScaleOut, "app", 0, "small1", ""};
  obs::HostSelectionAudit selection;
  auto ranked = controller_->RankServers(probe, simulator_.now(), &selection);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_FALSE(ranked->empty());
  EXPECT_EQ(selection.action, probe.ToString());
  ASSERT_EQ(selection.ranked.size(), ranked->size());
  for (size_t i = 0; i < ranked->size(); ++i) {
    EXPECT_EQ(selection.ranked[i].name, (*ranked)[i].server);
    EXPECT_EQ(selection.ranked[i].value, (*ranked)[i].score);
  }
  bool mid_rejected = false;
  for (const obs::CandidateRejection& rejection : selection.rejections) {
    mid_rejected |= rejection.candidate == "mid" &&
                    rejection.reason == "server is in protection mode";
  }
  EXPECT_TRUE(mid_rejected);
}

TEST_F(ControllerTest, ProtectedSubjectIsSkipped) {
  Place("app", "small1");
  MakeServiceHot("app");
  cluster_.ProtectService("app",
                          simulator_.now() + Duration::Minutes(30));
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->skipped_protected);
  EXPECT_FALSE(outcome->executed.has_value());
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 1);
}

TEST_F(ControllerTest, ProtectedServersAreNotSelectedAsTargets) {
  Place("app", "small1");
  MakeServiceHot("app");
  cluster_.ProtectServer("big", simulator_.now() + Duration::Minutes(30));
  Action probe{ActionType::kScaleOut, "app", 0, "small1", ""};
  auto hosts = controller_->RankServers(probe, simulator_.now());
  ASSERT_TRUE(hosts.ok());
  for (const ScoredServer& host : *hosts) {
    EXPECT_NE(host.server, "big");
  }
}

TEST_F(ControllerTest, ConstraintViolatingActionsNeverProposed) {
  Place("rigid", "small1");
  MakeServiceHot("rigid");
  auto outcome = controller_->HandleTrigger(ServiceOverload("rigid"));
  ASSERT_TRUE(outcome.ok());
  // "The fuzzy controller only considers actions that do not violate
  //  any given constraint" — rigid supports nothing.
  EXPECT_TRUE(outcome->considered.empty());
  EXPECT_TRUE(outcome->alerted);
  EXPECT_FALSE(outcome->executed.has_value());
}

TEST_F(ControllerTest, AlertCallbackFiresWhenNothingWorks) {
  Place("rigid", "small1");
  MakeServiceHot("rigid");
  int alerts = 0;
  std::string reason;
  controller_->set_alert_callback(
      [&](const Trigger&, const std::string& r) {
        ++alerts;
        reason = r;
      });
  ASSERT_TRUE(controller_->HandleTrigger(ServiceOverload("rigid")).ok());
  EXPECT_EQ(alerts, 1);
  EXPECT_EQ(reason, "no applicable action");
}

TEST_F(ControllerTest, MaxInstancesBlocksScaleOutAtVerification) {
  // Fill the service to its maximum; scale-out must be rejected by
  // the §4.1 re-verification even though rules propose it.
  Place("app", "small1");
  Place("app", "small2");
  Place("app", "small3");
  Place("app", "mid");
  MakeServiceHot("app");
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  if (outcome->executed.has_value()) {
    // If something ran, it cannot have been a scale-out.
    EXPECT_NE(outcome->executed->type, ActionType::kScaleOut);
  }
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 4);
}

TEST_F(ControllerTest, FallsBackToNextHostOnExecutionFailure) {
  Place("app", "small1");
  MakeServiceHot("app");
  // The best host ("big") fails at execution time; Figure 6 says try
  // the next host.
  executor_->set_failure_injector([](const Action& action) {
    if (action.target_server == "big") {
      return Status::Internal("big is down");
    }
    return Status::OK();
  });
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->executed.has_value());
  EXPECT_NE(outcome->executed->target_server, "big");
  EXPECT_EQ(cluster_.ActiveInstanceCount("app"), 2);
}

TEST_F(ControllerTest, FallsBackToNextActionWhenAllHostsFail) {
  Place("app", "small1");
  MakeServiceHot("app");
  // Every placement-type action fails; priority actions would still
  // succeed if proposed. Alert may fire instead — either way the
  // controller must terminate and report.
  executor_->set_failure_injector([](const Action& action) {
    if (infra::ActionNeedsTargetServer(action.type)) {
      return Status::Internal("network partition");
    }
    return Status::OK();
  });
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  if (!outcome->executed.has_value()) {
    EXPECT_TRUE(outcome->alerted);
  }
}

TEST_F(ControllerTest, SemiAutomaticModeRequiresApproval) {
  Place("app", "small1");
  MakeServiceHot("app");
  ControllerConfig config;
  config.mode = ControllerMode::kSemiAutomatic;
  controller_->set_config(config);

  // Without an approval callback nothing runs.
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->executed.has_value());

  // A rejecting administrator blocks everything.
  int asked = 0;
  controller_->set_approval_callback([&asked](const Action&) {
    ++asked;
    return false;
  });
  outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->executed.has_value());
  EXPECT_GT(asked, 0);

  // An approving administrator lets the action through.
  controller_->set_approval_callback([](const Action&) { return true; });
  outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->executed.has_value());
}

TEST_F(ControllerTest, ServerTriggerEvaluatesAllTenants) {
  Place("app", "mid");
  Place("rigid", "mid");
  view_.server_cpu_["mid"] = 0.95;
  MakeServiceHot("app", 0.9);
  Trigger trigger{TriggerKind::kServerOverloaded, "mid", simulator_.now(),
                  0.95};
  auto actions = controller_->RankActions(trigger);
  ASSERT_TRUE(actions.ok()) << actions.status();
  // Only "app" can act; all proposals concern it.
  ASSERT_FALSE(actions->empty());
  for (const ScoredAction& scored : *actions) {
    EXPECT_EQ(scored.action.service, "app");
  }
}

TEST_F(ControllerTest, RankActionsSortedAndThresholded) {
  Place("app", "small1");
  MakeServiceHot("app");
  auto actions = controller_->RankActions(ServiceOverload("app"));
  ASSERT_TRUE(actions.ok());
  ASSERT_FALSE(actions->empty());
  for (size_t i = 1; i < actions->size(); ++i) {
    EXPECT_GE((*actions)[i - 1].applicability, (*actions)[i].applicability);
  }
  for (const ScoredAction& scored : *actions) {
    EXPECT_GE(scored.applicability, controller_->config().min_applicability);
  }
}

TEST_F(ControllerTest, ScaleUpOnlyOffersMorePowerfulHosts) {
  InstanceId id = Place("app", "mid");
  MakeServiceHot("app");
  Action probe{ActionType::kScaleUp, "app", id, "mid", ""};
  auto hosts = controller_->RankServers(probe, simulator_.now());
  ASSERT_TRUE(hosts.ok());
  ASSERT_FALSE(hosts->empty());
  for (const ScoredServer& host : *hosts) {
    EXPECT_EQ(host.server, "big");  // the only PI > 2 host
  }
}

TEST_F(ControllerTest, ScaleDownOnlyOffersLessPowerfulHosts) {
  InstanceId id = Place("app", "big");
  Action probe{ActionType::kScaleDown, "app", id, "big", ""};
  auto hosts = controller_->RankServers(probe, simulator_.now());
  ASSERT_TRUE(hosts.ok());
  for (const ScoredServer& host : *hosts) {
    EXPECT_NE(host.server, "big");
    auto spec = cluster_.FindServer(host.server);
    ASSERT_TRUE(spec.ok());
    EXPECT_LT((*spec)->performance_index, 9);
  }
}

TEST_F(ControllerTest, ServiceSpecificRuleBaseOverrides) {
  Place("app", "small1");
  MakeServiceHot("app");
  // Mission-critical override (§4.1): this service may only ever
  // increase its priority. Note increasePriority is not in the
  // service's allowed actions, so nothing at all is proposed.
  fuzzy::RuleBase special = MakeActionSelectionVariables("special");
  ASSERT_TRUE(special
                  .AddRulesFromText(
                      "IF serviceLoad IS high THEN increasePriority IS "
                      "applicable")
                  .ok());
  ASSERT_TRUE(controller_
                  ->SetServiceActionRuleBase(
                      "app", TriggerKind::kServiceOverloaded,
                      std::move(special))
                  .ok());
  auto actions = controller_->RankActions(ServiceOverload("app"));
  ASSERT_TRUE(actions.ok());
  EXPECT_TRUE(actions->empty());
}

TEST_F(ControllerTest, RuleBaseSettersValidate) {
  fuzzy::RuleBase empty("empty");
  EXPECT_FALSE(controller_
                   ->SetActionRuleBase(TriggerKind::kServiceIdle,
                                       std::move(empty))
                   .ok());
  fuzzy::RuleBase for_ghost = MakeActionSelectionVariables("x");
  ASSERT_TRUE(for_ghost
                  .AddRulesFromText(
                      "IF cpuLoad IS high THEN move IS applicable")
                  .ok());
  EXPECT_FALSE(controller_
                   ->SetServiceActionRuleBase(
                       "ghost", TriggerKind::kServiceIdle,
                       std::move(for_ghost))
                   .ok());
  fuzzy::RuleBase server_rb = MakeServerSelectionVariables("y");
  ASSERT_TRUE(server_rb
                  .AddRulesFromText(
                      "IF cpuLoad IS low THEN suitability IS applicable")
                  .ok());
  // scaleIn takes no target server.
  EXPECT_FALSE(controller_
                   ->SetServerRuleBase(ActionType::kScaleIn,
                                       std::move(server_rb))
                   .ok());
}

TEST_F(ControllerTest, DecisionAuditMatchesCompiledInference) {
  obs::AuditLog audit_log(8);
  controller_->set_audit_log(&audit_log);
  Place("app", "small1");
  MakeServiceHot("app");
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->executed.has_value());

  ASSERT_EQ(audit_log.records().size(), 1u);
  const obs::DecisionAudit& audit = audit_log.records().front();
  EXPECT_EQ(audit.trigger_kind, "serviceOverloaded");
  EXPECT_EQ(audit.subject, "app");
  EXPECT_TRUE(audit.executed);
  EXPECT_EQ(audit.verdict,
            "executed " + outcome->executed->ToString());

  // One action-rule-base evaluation for the single hot instance.
  ASSERT_EQ(audit.action_inference.size(), 1u);
  const obs::InferenceRecord& record = audit.action_inference.front();
  EXPECT_EQ(record.subject, "app@small1");

  // Replay the identical inference through an independently compiled
  // copy of the default rule base: the recorded activation degrees
  // must be exactly what the inference kernel computes.
  auto rb = MakeDefaultActionRuleBase(TriggerKind::kServiceOverloaded);
  ASSERT_TRUE(rb.ok()) << rb.status();
  auto compiled = fuzzy::CompiledRuleBase::Compile(*rb);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(record.rules.size(), compiled->num_rules());
  ASSERT_EQ(record.inputs.size(), compiled->inputs().size());

  std::vector<double> slots(compiled->inputs().size(), 0.0);
  for (const obs::NamedValue& input : record.inputs) {
    int slot = compiled->inputs().SlotOf(input.name);
    ASSERT_GE(slot, 0) << input.name;
    slots[static_cast<size_t>(slot)] = input.value;
  }
  fuzzy::CompiledRuleBase::Scratch scratch = compiled->MakeScratch();
  compiled->Evaluate(slots.data(), fuzzy::Defuzzifier::kLeftmostMax,
                     &scratch);

  const std::vector<uint32_t>& source = compiled->source_indices();
  bool any_fired = false;
  for (size_t r = 0; r < compiled->num_rules(); ++r) {
    EXPECT_DOUBLE_EQ(record.rules[r].activation, scratch.truth[r]) << r;
    EXPECT_EQ(record.rules[r].rule, rb->rules()[source[r]].ToString());
    any_fired = any_fired || record.rules[r].activation > 0.0;
  }
  EXPECT_TRUE(any_fired);
  for (const obs::NamedValue& output : record.outputs) {
    int slot = compiled->OutputSlot(output.name);
    ASSERT_GE(slot, 0) << output.name;
    EXPECT_DOUBLE_EQ(output.value,
                     scratch.crisp[static_cast<size_t>(slot)]);
  }

  // Ranked actions mirror the outcome, and the executed action's host
  // selection recorded the chosen target on top.
  ASSERT_FALSE(audit.ranked_actions.empty());
  EXPECT_EQ(audit.ranked_actions.front().name,
            outcome->considered.front().action.ToString());
  ASSERT_FALSE(audit.host_selections.empty());
  ASSERT_FALSE(audit.host_selections.front().ranked.empty());
  EXPECT_EQ(audit.host_selections.front().ranked.front().name,
            outcome->executed->target_server);
  EXPECT_FALSE(audit.host_selections.front().evaluations.empty());
}

TEST_F(ControllerTest, DecisionAuditRecordsProtectionSkip) {
  obs::AuditLog audit_log(8);
  controller_->set_audit_log(&audit_log);
  Place("app", "small1");
  MakeServiceHot("app");
  cluster_.ProtectService("app",
                          simulator_.now() + Duration::Minutes(30));
  ASSERT_TRUE(controller_->HandleTrigger(ServiceOverload("app")).ok());

  ASSERT_EQ(audit_log.records().size(), 1u);
  const obs::DecisionAudit& audit = audit_log.records().front();
  EXPECT_TRUE(audit.skipped_protected);
  EXPECT_EQ(audit.verdict, "skipped: subject in protection mode");
  EXPECT_TRUE(audit.action_inference.empty());
}

TEST_F(ControllerTest, DecisionAuditRecordsVerificationRejections) {
  obs::AuditLog audit_log(8);
  controller_->set_audit_log(&audit_log);
  // Saturate max_instances so every scaleOut proposal fails
  // verification and the rejection reasons land in the audit trail.
  Place("app", "small1");
  Place("app", "small2");
  Place("app", "small3");
  Place("app", "mid");
  MakeServiceHot("app");
  auto outcome = controller_->HandleTrigger(ServiceOverload("app"));
  ASSERT_TRUE(outcome.ok());

  ASSERT_EQ(audit_log.records().size(), 1u);
  const obs::DecisionAudit& audit = audit_log.records().front();
  bool saw_verification_failure = false;
  for (const obs::CandidateRejection& rejection :
       audit.action_rejections) {
    if (rejection.reason.find("verification failed") !=
        std::string::npos) {
      saw_verification_failure = true;
    }
  }
  EXPECT_TRUE(saw_verification_failure);
  EXPECT_FALSE(audit.verdict.empty());
}

}  // namespace
}  // namespace autoglobe::controller
