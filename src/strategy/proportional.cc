#include "strategy/proportional.h"

#include <algorithm>
#include <cmath>

namespace autoglobe::strategy {

using controller::ControllerOutcome;
using controller::ScoredAction;
using infra::Action;
using infra::ActionType;
using infra::ServiceInstance;
using monitor::Trigger;
using monitor::TriggerKind;

std::string ProportionalThresholdStrategy::PickHost(
    const std::string& service, SimTime now,
    std::string_view exclude) const {
  std::string best;
  double best_load = 0.0;
  const infra::LandscapeIndex& index = env_.cluster->Index();
  for (size_t s = 0; s < index.num_servers(); ++s) {
    const infra::DenseId id = static_cast<infra::DenseId>(s);
    const std::string& server = index.ServerName(id);
    if (server == exclude) continue;
    if (env_.cluster->IsServerProtected(server, now)) continue;
    if (!env_.cluster->CanPlace(service, server, 0).ok()) continue;
    double load = env_.view->ServerCpuLoad(id);
    // Dense ids enumerate sorted names, so "first strictly lighter
    // wins" is the lexicographic tie-break.
    if (best.empty() || load < best_load) {
      best = server;
      best_load = load;
    }
  }
  return best;
}

Result<ControllerOutcome> ProportionalThresholdStrategy::HandleService(
    const Trigger& trigger) {
  ControllerOutcome outcome;
  const std::string& service = trigger.subject;
  AG_ASSIGN_OR_RETURN(const infra::ServiceSpec* spec,
                      env_.cluster->FindService(service));
  int n = env_.cluster->ActiveInstanceCount(service);
  if (n <= 0) return outcome;
  double load = trigger.average_load;

  if (load >= config_.high_water) {
    // Proportional scale-out: grow towards ceil(n * L / target).
    int desired = static_cast<int>(
        std::ceil(static_cast<double>(n) * load /
                  std::max(config_.target_load, 1e-9)));
    int add = std::min({desired - n, config_.max_step,
                        spec->max_instances - n});
    if (add <= 0 || !spec->Allows(ActionType::kScaleOut)) return outcome;
    std::vector<const ServiceInstance*> instances =
        env_.cluster->InstancesOf(service);
    std::string source =
        instances.empty() ? std::string() : instances.front()->server;
    for (int i = 0; i < add; ++i) {
      std::string host = PickHost(service, trigger.at, /*exclude=*/"");
      if (host.empty()) break;
      Action action;
      action.type = ActionType::kScaleOut;
      action.service = service;
      action.source_server = source;
      action.target_server = host;
      outcome.considered.push_back(ScoredAction{action, load});
      if (env_.executor->Execute(action).ok() &&
          !outcome.executed.has_value()) {
        outcome.executed = action;
      }
    }
    return outcome;
  }

  if (load <= config_.low_water && spec->Allows(ActionType::kScaleIn)) {
    int desired = std::max(
        static_cast<int>(
            std::ceil(static_cast<double>(n) * load /
                      std::max(config_.target_load, 1e-9))),
        spec->min_instances);
    int remove = std::min(n - desired, config_.max_step);
    for (int i = 0; i < remove; ++i) {
      // Retire the least-loaded instance (sorted enumeration; first
      // strictly lighter wins on ties).
      const ServiceInstance* victim = nullptr;
      double victim_load = 0.0;
      for (const ServiceInstance* instance :
           env_.cluster->InstancesOf(service)) {
        if (instance->state == infra::InstanceState::kFailed) continue;
        double il = env_.view->InstanceLoad(instance->id);
        if (victim == nullptr || il < victim_load) {
          victim = instance;
          victim_load = il;
        }
      }
      if (victim == nullptr) break;
      Action action;
      action.type = ActionType::kScaleIn;
      action.service = service;
      action.instance = victim->id;
      action.source_server = victim->server;
      outcome.considered.push_back(ScoredAction{action, 1.0 - load});
      if (env_.executor->Execute(action).ok() &&
          !outcome.executed.has_value()) {
        outcome.executed = action;
      }
    }
    return outcome;
  }

  return outcome;  // inside the hysteresis band: hold
}

Result<ControllerOutcome> ProportionalThresholdStrategy::HandleServer(
    const Trigger& trigger) {
  ControllerOutcome outcome;
  if (trigger.kind != TriggerKind::kServerOverloaded) {
    return outcome;  // idle servers: no consolidation in this baseline
  }
  // Move the hottest unprotected instance off the overloaded host.
  const ServiceInstance* hottest = nullptr;
  double hottest_load = 0.0;
  for (const ServiceInstance* instance :
       env_.cluster->InstancesOn(trigger.subject)) {
    if (instance->state == infra::InstanceState::kFailed) continue;
    if (env_.cluster->IsServiceProtected(instance->service, trigger.at)) {
      continue;
    }
    const infra::ServiceSpec* spec =
        env_.cluster->FindService(instance->service).value_or(nullptr);
    if (spec == nullptr || !spec->Allows(ActionType::kMove)) continue;
    double il = env_.view->InstanceLoad(instance->id);
    if (hottest == nullptr || il > hottest_load) {
      hottest = instance;
      hottest_load = il;
    }
  }
  if (hottest == nullptr) return outcome;
  std::string host =
      PickHost(hottest->service, trigger.at, trigger.subject);
  if (host.empty()) return outcome;
  Action action;
  action.type = ActionType::kMove;
  action.service = hottest->service;
  action.instance = hottest->id;
  action.source_server = hottest->server;
  action.target_server = host;
  outcome.considered.push_back(
      ScoredAction{action, trigger.average_load});
  if (env_.executor->Execute(action).ok()) outcome.executed = action;
  return outcome;
}

Result<ControllerOutcome> ProportionalThresholdStrategy::HandleTrigger(
    const Trigger& trigger, bool urgent) {
  ControllerOutcome outcome;
  bool server_trigger = trigger.kind == TriggerKind::kServerOverloaded ||
                        trigger.kind == TriggerKind::kServerIdle;
  // Protection semantics mirror the fuzzy controller: the subject's
  // own window holds unless the escalation is urgent.
  if (!urgent &&
      (server_trigger
           ? env_.cluster->IsServerProtected(trigger.subject, trigger.at)
           : env_.cluster->IsServiceProtected(trigger.subject,
                                              trigger.at))) {
    outcome.skipped_protected = true;
    return outcome;
  }
  switch (trigger.kind) {
    case TriggerKind::kServiceOverloaded:
    case TriggerKind::kServiceIdle:
      return HandleService(trigger);
    case TriggerKind::kServerOverloaded:
    case TriggerKind::kServerIdle:
      return HandleServer(trigger);
    default:
      return outcome;  // failure triggers never reach a strategy
  }
}

}  // namespace autoglobe::strategy
