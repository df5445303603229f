#include "infra/executor.h"

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::infra {

ActionExecutor::ActionExecutor(Cluster* cluster, sim::Simulator* simulator,
                               ExecutorConfig config)
    : cluster_(cluster), simulator_(simulator), config_(config) {
  AG_CHECK(cluster_ != nullptr);
  AG_CHECK(simulator_ != nullptr);
}

Status ActionExecutor::Execute(const Action& action) {
  for (int attempt = 0;; ++attempt) {
    Status injected = Inject(action, attempt);
    if (injected.ok()) {
      return Record(action, ExecuteValidated(action));
    }
    // Only transient faults (host briefly unreachable, action timed
    // out) are worth retrying; everything else is deterministic.
    if (injected.code() != StatusCode::kUnavailable ||
        attempt >= config_.max_retries) {
      return Record(action, std::move(injected));
    }
    retries_counter_.Increment();
    if (audit_ != nullptr) {
      audit_->AddExecutorEvent({simulator_->now(), action.ToString(),
                                StrFormat("retry %d/%d after: %s",
                                          attempt + 1, config_.max_retries,
                                          injected.ToString().c_str()),
                                attempt + 1});
    }
  }
}

Status ActionExecutor::Inject(const Action& action, int attempt) {
  if (!failure_injector_) return Status::OK();
  Status injected = failure_injector_(action);
  if (!injected.ok() && audit_ != nullptr) {
    audit_->AddExecutorEvent({simulator_->now(), action.ToString(),
                              "injected failure: " + injected.ToString(),
                              attempt});
  }
  return injected;
}

Status ActionExecutor::ExecuteValidated(const Action& action) {
  AG_ASSIGN_OR_RETURN(const ServiceSpec* spec,
                      cluster_->FindService(action.service));
  if (!spec->Allows(action.type)) {
    return Status::FailedPrecondition(StrFormat(
        "service \"%s\" does not support action %.*s",
        spec->name.c_str(),
        static_cast<int>(ActionTypeName(action.type).size()),
        ActionTypeName(action.type).data()));
  }
  if (ActionNeedsTargetServer(action.type) && action.target_server.empty()) {
    return Status::InvalidArgument(StrFormat(
        "action %s requires a target server", action.ToString().c_str()));
  }

  switch (action.type) {
    case ActionType::kStart:
    case ActionType::kScaleOut: {
      AG_RETURN_IF_ERROR(
          StartInstanceOn(action.service, action.target_server).status());
      Protect(action);
      return Status::OK();
    }
    case ActionType::kStop: {
      std::vector<InstanceId> ids;
      for (const ServiceInstance* instance :
           cluster_->InstancesOf(action.service)) {
        ids.push_back(instance->id);
      }
      if (ids.empty()) {
        return Status::FailedPrecondition(StrFormat(
            "service \"%s\" has no instances to stop", spec->name.c_str()));
      }
      for (InstanceId id : ids) {
        AG_RETURN_IF_ERROR(
            cluster_->RemoveInstance(id, /*enforce_min=*/false));
      }
      Protect(action);
      return Status::OK();
    }
    case ActionType::kScaleIn: {
      AG_ASSIGN_OR_RETURN(const ServiceInstance* instance,
                          cluster_->FindInstance(action.instance));
      if (instance->service != action.service) {
        return Status::InvalidArgument(StrFormat(
            "instance %llu belongs to \"%s\", not \"%s\"",
            static_cast<unsigned long long>(action.instance),
            instance->service.c_str(), action.service.c_str()));
      }
      std::string server = instance->server;
      AG_RETURN_IF_ERROR(
          cluster_->RemoveInstance(action.instance, /*enforce_min=*/true));
      Action protected_action = action;
      protected_action.source_server = server;
      Protect(protected_action);
      return Status::OK();
    }
    case ActionType::kScaleUp:
    case ActionType::kScaleDown:
    case ActionType::kMove: {
      AG_ASSIGN_OR_RETURN(const ServiceInstance* instance,
                          cluster_->FindInstance(action.instance));
      if (instance->service != action.service) {
        return Status::InvalidArgument(StrFormat(
            "instance %llu belongs to \"%s\", not \"%s\"",
            static_cast<unsigned long long>(action.instance),
            instance->service.c_str(), action.service.c_str()));
      }
      AG_ASSIGN_OR_RETURN(const ServerSpec* source,
                          cluster_->FindServer(instance->server));
      AG_ASSIGN_OR_RETURN(const ServerSpec* target,
                          cluster_->FindServer(action.target_server));
      if (action.type == ActionType::kScaleUp &&
          target->performance_index <= source->performance_index) {
        return Status::FailedPrecondition(StrFormat(
            "scale-up requires a more powerful host (%s PI %g -> %s PI %g)",
            source->name.c_str(), source->performance_index,
            target->name.c_str(), target->performance_index));
      }
      if (action.type == ActionType::kScaleDown &&
          target->performance_index >= source->performance_index) {
        return Status::FailedPrecondition(StrFormat(
            "scale-down requires a less powerful host (%s PI %g -> %s PI "
            "%g)",
            source->name.c_str(), source->performance_index,
            target->name.c_str(), target->performance_index));
      }
      AG_RETURN_IF_ERROR(cluster_->MoveInstance(
          action.instance, action.target_server, simulator_->now()));
      // The instance is briefly unavailable while its state moves and
      // the service IP is rebound.
      AG_RETURN_IF_ERROR(cluster_->SetInstanceState(
          action.instance, InstanceState::kStarting));
      ScheduleRunning(action.instance, config_.move_downtime);
      Protect(action);
      return Status::OK();
    }
    case ActionType::kIncreasePriority: {
      AG_RETURN_IF_ERROR(cluster_->AdjustServicePriority(
          action.service, config_.priority_step));
      Protect(action);
      return Status::OK();
    }
    case ActionType::kReducePriority: {
      AG_RETURN_IF_ERROR(cluster_->AdjustServicePriority(
          action.service, 1.0 / config_.priority_step));
      Protect(action);
      return Status::OK();
    }
  }
  return Status::Internal("unhandled action type");
}

Result<InstanceId> ActionExecutor::StartInstanceOn(
    std::string_view service, std::string_view target_server) {
  AG_ASSIGN_OR_RETURN(
      InstanceId id,
      cluster_->PlaceInstance(service, target_server, simulator_->now(),
                              InstanceState::kStarting));
  ScheduleRunning(id, config_.start_delay);
  return id;
}

Result<InstanceId> ActionExecutor::LaunchInstance(
    std::string_view service, std::string_view target_server) {
  // Recovery launches face the same injected transient faults as
  // policy actions; bounded retry applies identically.
  Action probe;
  probe.type = ActionType::kStart;
  probe.service = std::string(service);
  probe.target_server = std::string(target_server);
  for (int attempt = 0;; ++attempt) {
    Status injected = Inject(probe, attempt);
    if (injected.ok()) break;
    if (injected.code() != StatusCode::kUnavailable ||
        attempt >= config_.max_retries) {
      actions_failed_counter_.Increment();
      return injected;
    }
    retries_counter_.Increment();
  }
  return StartInstanceOn(service, target_server);
}

Status ActionExecutor::RestartInstance(InstanceId id) {
  AG_ASSIGN_OR_RETURN(const ServiceInstance* instance,
                      cluster_->FindInstance(id));
  if (instance->state != InstanceState::kFailed) {
    return Status::FailedPrecondition(StrFormat(
        "instance %s is %.*s, not failed", instance->Name().c_str(),
        static_cast<int>(InstanceStateName(instance->state).size()),
        InstanceStateName(instance->state).data()));
  }
  if (!cluster_->IsServerUp(instance->server)) {
    actions_failed_counter_.Increment();
    return Status::Unavailable(StrFormat(
        "cannot restart %s: server \"%s\" is down",
        instance->Name().c_str(), instance->server.c_str()));
  }
  Action probe;
  probe.type = ActionType::kStart;
  probe.service = instance->service;
  probe.source_server = instance->server;
  probe.target_server = instance->server;
  probe.instance = id;
  Status injected = Inject(probe, 0);
  if (!injected.ok()) {
    actions_failed_counter_.Increment();
    return injected;
  }
  AG_RETURN_IF_ERROR(
      cluster_->SetInstanceState(id, InstanceState::kStarting));
  ScheduleRunning(id, config_.start_delay);
  return Status::OK();
}

sim::Simulator::Callback ActionExecutor::MakeRunningCallback(
    InstanceId id) const {
  return [cluster = cluster_, simulator = simulator_, trace = trace_, id] {
    // The instance may have been stopped in the meantime; that is
    // fine — the state change simply no longer applies.
    auto found = cluster->FindInstance(id);
    if (found.ok() && (*found)->state == InstanceState::kStarting) {
      AG_CHECK_OK(cluster->SetInstanceState(id, InstanceState::kRunning));
      if (trace != nullptr) {
        trace->Record(simulator->now(),
                      obs::TraceEventKind::kInstanceLifecycle,
                      "instance-running", (*found)->Name(),
                      static_cast<int64_t>(id));
      }
    }
  };
}

void ActionExecutor::ScheduleRunning(InstanceId id, Duration delay) {
  sim::EventDesc desc;
  desc.kind = "executor.running";
  desc.a = id;
  auto scheduled = simulator_->ScheduleAfter(
      delay,
      StrFormat("instance-%llu-running",
                static_cast<unsigned long long>(id)),
      desc, MakeRunningCallback(id));
  AG_CHECK_OK(scheduled.status());
}

void ActionExecutor::SaveState(ByteWriter* w) const {
  w->U64(log_.size());
  for (const ActionRecord& record : log_) {
    w->I64(record.at.seconds());
    w->U8(static_cast<uint8_t>(record.action.type));
    w->Str(record.action.service);
    w->U64(record.action.instance);
    w->Str(record.action.source_server);
    w->Str(record.action.target_server);
    w->U8(static_cast<uint8_t>(record.status.code()));
    w->Str(record.status.message());
  }
}

Status ActionExecutor::RestoreState(ByteReader* r) {
  log_.clear();
  AG_ASSIGN_OR_RETURN(uint64_t count, r->U64());
  // Two fixed-width words, two bytes and four string prefixes.
  AG_RETURN_IF_ERROR(r->CheckCount(count, 2 * 8 + 2 + 4 * 4));
  log_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ActionRecord record;
    AG_ASSIGN_OR_RETURN(int64_t at_s, r->I64());
    AG_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    AG_ASSIGN_OR_RETURN(record.action.service, r->Str());
    AG_ASSIGN_OR_RETURN(record.action.instance, r->U64());
    AG_ASSIGN_OR_RETURN(record.action.source_server, r->Str());
    AG_ASSIGN_OR_RETURN(record.action.target_server, r->Str());
    AG_ASSIGN_OR_RETURN(uint8_t code, r->U8());
    AG_ASSIGN_OR_RETURN(std::string message, r->Str());
    if (type > static_cast<uint8_t>(ActionType::kReducePriority)) {
      return Status::ParseError(StrFormat("invalid action type %d", type));
    }
    if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
      return Status::ParseError(StrFormat("invalid status code %d", code));
    }
    record.at = SimTime::FromSeconds(at_s);
    record.action.type = static_cast<ActionType>(type);
    record.status = Status(static_cast<StatusCode>(code),
                           std::move(message));
    log_.push_back(std::move(record));
  }
  return Status::OK();
}

void ActionExecutor::Protect(const Action& action) {
  SimTime until = simulator_->now() + config_.protection_time;
  cluster_->ProtectService(action.service, until);
  if (!action.source_server.empty()) {
    cluster_->ProtectServer(action.source_server, until);
  }
  if (!action.target_server.empty()) {
    cluster_->ProtectServer(action.target_server, until);
  }
}

Status ActionExecutor::Record(const Action& action, Status status) {
  ActionRecord record{simulator_->now(), action, status};
  log_.push_back(record);
  if (!status.ok()) actions_failed_counter_.Increment();
  if (trace_ != nullptr) {
    if (status.ok()) {
      trace_->Record(record.at, obs::TraceEventKind::kActionExecuted,
                     ActionTypeName(action.type), action.ToString());
    } else {
      trace_->Record(record.at, obs::TraceEventKind::kActionFailed,
                     ActionTypeName(action.type),
                     action.ToString() + ": " + status.ToString());
    }
  }
  for (const Listener& listener : listeners_) listener(record);
  return status;
}

}  // namespace autoglobe::infra
