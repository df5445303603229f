#include "faults/injector.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::faults {

FaultInjector::FaultInjector(infra::Cluster* cluster,
                             sim::Simulator* simulator, uint64_t seed)
    : cluster_(cluster),
      simulator_(simulator),
      victim_rng_(seed ^ 0xbadc0ffee0ddf00dULL) {}

Status FaultInjector::Arm(const FaultPlan& plan) {
  AG_RETURN_IF_ERROR(plan.Validate());
  for (const FaultEvent& event : plan.events) {
    // Subjects named in the plan must exist so a typo fails loudly at
    // arm time, not silently mid-run.
    if (event.kind == FaultKind::kServerFailure ||
        event.kind == FaultKind::kMonitorDropout) {
      AG_RETURN_IF_ERROR(cluster_->FindServer(event.subject).status());
    }
    if (event.kind == FaultKind::kInstanceCrash &&
        !event.subject.empty()) {
      AG_RETURN_IF_ERROR(cluster_->FindService(event.subject).status());
    }
    // The re-arm descriptor carries the whole FaultEvent (kind in x,
    // subject in str, duration in dur) so a snapshot restore can
    // rebuild the callback without re-reading the plan.
    sim::EventDesc desc;
    desc.kind = "injector.fault";
    if (!event.subject.empty()) {
      desc.str = sim::EventLabel(event.subject).view();
    }
    desc.x = static_cast<int64_t>(event.kind);
    desc.dur = event.duration;
    AG_RETURN_IF_ERROR(simulator_
                           ->ScheduleAt(event.at, "fault", desc,
                                        MakeFaultCallback(event))
                           .status());
  }
  return Status::OK();
}

Status FaultInjector::CheckAction(const infra::Action& action) const {
  (void)action;
  if (simulator_->now() < action_fail_until_) {
    return Status::Unavailable(
        "injected action failure: management network window open");
  }
  return Status::OK();
}

bool FaultInjector::IsReporting(std::string_view server,
                                SimTime now) const {
  auto it = dropout_until_.find(server);
  return it == dropout_until_.end() || now >= it->second;
}

void FaultInjector::Execute(const FaultEvent& event) {
  if (tracker_ != nullptr) {
    tracker_->OnFaultInjected(event.kind, simulator_->now());
  }
  switch (event.kind) {
    case FaultKind::kInstanceCrash:
      CrashInstance(event);
      break;
    case FaultKind::kServerFailure:
      FailServer(event);
      break;
    case FaultKind::kActionFailure: {
      SimTime until = simulator_->now() + event.duration;
      action_fail_until_ = std::max(action_fail_until_, until);
      ++stats_.action_windows_opened;
      Trace("action-failure-window",
            StrFormat("actions fail until %s",
                      action_fail_until_.ToString().c_str()));
      break;
    }
    case FaultKind::kMonitorDropout: {
      SimTime until = simulator_->now() + event.duration;
      SimTime& slot = dropout_until_[event.subject];
      slot = std::max(slot, until);
      ++stats_.dropouts_opened;
      Trace("monitor-dropout",
            StrFormat("%s silent until %s", event.subject.c_str(),
                      slot.ToString().c_str()));
      break;
    }
  }
}

void FaultInjector::CrashInstance(const FaultEvent& event) {
  // Victim pool: running instances — of the subject service, or of
  // the whole landscape when the subject is empty. Built in ascending
  // id order (cluster maps iterate sorted), so the uniform draw below
  // is reproducible.
  std::vector<const infra::ServiceInstance*> pool;
  auto add_running = [&pool](
                         const std::vector<const infra::ServiceInstance*>&
                             instances) {
    for (const infra::ServiceInstance* instance : instances) {
      if (instance->state == infra::InstanceState::kRunning) {
        pool.push_back(instance);
      }
    }
  };
  if (!event.subject.empty()) {
    add_running(cluster_->InstancesOf(event.subject));
  } else {
    for (const infra::ServiceSpec* service : cluster_->Services()) {
      add_running(cluster_->InstancesOf(service->name));
    }
  }
  if (pool.empty()) {
    ++stats_.fizzled;
    Trace("instance-crash-fizzled",
          StrFormat("no running instance%s%s", event.subject.empty()
                                                   ? ""
                                                   : " of ",
                    event.subject.c_str()));
    return;
  }
  const infra::ServiceInstance* victim = pool[static_cast<size_t>(
      victim_rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  infra::InstanceId id = victim->id;
  std::string service = victim->service;
  std::string server = victim->server;
  AG_CHECK_OK(
      cluster_->SetInstanceState(id, infra::InstanceState::kFailed));
  ++stats_.instances_crashed;
  if (tracker_ != nullptr) {
    tracker_->OnInstanceDown(id, service, simulator_->now());
  }
  Trace("instance-crash",
        StrFormat("%s@%s", service.c_str(), server.c_str()),
        static_cast<int64_t>(id));
}

void FaultInjector::FailServer(const FaultEvent& event) {
  const std::string& server = event.subject;
  if (!cluster_->IsServerUp(server)) {
    ++stats_.fizzled;
    Trace("server-failure-fizzled",
          StrFormat("%s already down", server.c_str()));
    return;
  }
  AG_CHECK_OK(cluster_->SetServerUp(server, false));
  ++stats_.servers_failed;
  int crashed = 0;
  for (const infra::ServiceInstance* instance :
       cluster_->InstancesOn(server)) {
    if (instance->state == infra::InstanceState::kFailed) continue;
    infra::InstanceId id = instance->id;
    std::string service = instance->service;
    AG_CHECK_OK(
        cluster_->SetInstanceState(id, infra::InstanceState::kFailed));
    ++crashed;
    if (tracker_ != nullptr) {
      tracker_->OnInstanceDown(id, service, simulator_->now());
    }
  }
  Trace("server-failure",
        StrFormat("%s down, %d instance(s) crashed%s", server.c_str(),
                  crashed,
                  event.duration > Duration::Zero() ? "" : ", permanent"),
        crashed);
  if (event.duration > Duration::Zero()) {
    sim::EventDesc desc;
    desc.kind = "injector.repair";
    desc.str = sim::EventLabel(server).view();
    AG_CHECK_OK(simulator_
                    ->ScheduleAfter(event.duration, "fault-repair", desc,
                                    MakeRepairCallback(server))
                    .status());
  }
}

void FaultInjector::RepairServer(const std::string& server) {
  if (cluster_->IsServerUp(server)) return;
  AG_CHECK_OK(cluster_->SetServerUp(server, true));
  ++stats_.servers_repaired;
  // Instances that died with the server stay kFailed — repair returns
  // the empty host to the placement pool, it does not resurrect
  // processes. Recovery (or the legacy remedy path) deals with them.
  Trace("server-repair", StrFormat("%s back up", server.c_str()));
}

sim::Simulator::Callback FaultInjector::MakeFaultCallback(
    FaultEvent event) {
  return [this, event = std::move(event)] { Execute(event); };
}

sim::Simulator::Callback FaultInjector::MakeRepairCallback(
    std::string server) {
  return [this, server = std::move(server)] { RepairServer(server); };
}

void FaultInjector::SaveState(ByteWriter* w) const {
  Rng::State rng = victim_rng_.SaveState();
  for (uint64_t word : rng.words) w->U64(word);
  w->U8(rng.have_cached_normal ? 1 : 0);
  w->F64(rng.cached_normal);
  w->I64(action_fail_until_.seconds());
  w->U64(dropout_until_.size());
  for (const auto& [server, until] : dropout_until_) {
    w->Str(server);
    w->I64(until.seconds());
  }
  w->I64(stats_.instances_crashed);
  w->I64(stats_.servers_failed);
  w->I64(stats_.servers_repaired);
  w->I64(stats_.action_windows_opened);
  w->I64(stats_.dropouts_opened);
  w->I64(stats_.fizzled);
}

Status FaultInjector::RestoreState(ByteReader* r) {
  Rng::State rng;
  for (uint64_t& word : rng.words) {
    AG_ASSIGN_OR_RETURN(word, r->U64());
  }
  uint8_t have_cached = 0;
  AG_ASSIGN_OR_RETURN(have_cached, r->U8());
  rng.have_cached_normal = have_cached != 0;
  AG_ASSIGN_OR_RETURN(rng.cached_normal, r->F64());
  victim_rng_.RestoreState(rng);
  int64_t seconds = 0;
  AG_ASSIGN_OR_RETURN(seconds, r->I64());
  action_fail_until_ = SimTime::FromSeconds(seconds);
  uint64_t dropouts = 0;
  AG_ASSIGN_OR_RETURN(dropouts, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(dropouts, 4 + 8));
  dropout_until_.clear();
  for (uint64_t i = 0; i < dropouts; ++i) {
    std::string server;
    AG_ASSIGN_OR_RETURN(server, r->Str());
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    dropout_until_[std::move(server)] = SimTime::FromSeconds(seconds);
  }
  AG_ASSIGN_OR_RETURN(stats_.instances_crashed, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.servers_failed, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.servers_repaired, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.action_windows_opened, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.dropouts_opened, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.fizzled, r->I64());
  return Status::OK();
}

void FaultInjector::Trace(std::string_view name, std::string detail,
                          int64_t value) {
  if (trace_ == nullptr) return;
  trace_->Record(simulator_->now(), obs::TraceEventKind::kFault, name,
                 std::move(detail), value);
}

}  // namespace autoglobe::faults
