#include "faults/recovery.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::faults {

RecoveryManager::RecoveryManager(infra::Cluster* cluster,
                                 sim::Simulator* simulator,
                                 infra::ActionExecutor* executor,
                                 controller::Controller* controller,
                                 RecoveryConfig config)
    : cluster_(cluster),
      simulator_(simulator),
      executor_(executor),
      controller_(controller),
      config_(config) {}

void RecoveryManager::OnInstanceFailed(infra::InstanceId id,
                                       SimTime now) {
  auto instance = cluster_->FindInstance(id);
  if (!instance.ok() ||
      (*instance)->state != infra::InstanceState::kFailed) {
    // Already removed or already healthy (e.g. the legacy remedy path
    // got there first) — nothing to heal.
    return;
  }
  if (tracker_ != nullptr) tracker_->OnFailureDetected(id, now);
  Episode& episode = episodes_[id];
  episode.service = (*instance)->service;
  episode.backoff = config_.initial_backoff;
  AttemptRestart(id, id, now);
}

void RecoveryManager::OnServerFailed(const std::string& server,
                                     SimTime now) {
  // Works for both a really-dead host and a false positive (monitor
  // dropout): evacuation removes the instance record and launches a
  // replacement elsewhere, which needs nothing from the source host.
  std::vector<const infra::ServiceInstance*> hosted =
      cluster_->InstancesOn(server);
  if (hosted.empty()) return;
  Trace(now, "recovery-evacuate",
        StrFormat("%s: %zu instance(s)", server.c_str(), hosted.size()),
        static_cast<int64_t>(hosted.size()));
  for (const infra::ServiceInstance* instance : hosted) {
    uint64_t token = instance->id;
    Episode& episode = episodes_[token];
    episode.service = instance->service;
    episode.backoff = config_.initial_backoff;
    if (tracker_ != nullptr) {
      // A healthy instance evacuated off a falsely-accused server
      // still loses capacity for the boot time of its replacement.
      tracker_->OnInstanceDown(token, instance->service, now);
      tracker_->OnFailureDetected(token, now);
    }
    ++stats_.evacuations;
    Relocate(token, instance->id, now);
  }
}

Status RecoveryManager::FilterHost(const std::string& server) const {
  auto it = hosts_.find(server);
  if (it != hosts_.end() &&
      simulator_->now() < it->second.blacklisted_until) {
    return Status::Unavailable(StrFormat(
        "host \"%s\" blacklisted after repeated placement failures",
        server.c_str()));
  }
  return Status::OK();
}

std::vector<std::string> RecoveryManager::BlacklistedHosts(
    SimTime now) const {
  std::vector<std::string> out;
  for (const auto& [name, record] : hosts_) {
    if (now < record.blacklisted_until) out.push_back(name);
  }
  return out;
}

void RecoveryManager::AttemptRestart(uint64_t token,
                                     infra::InstanceId id, SimTime now) {
  auto instance = cluster_->FindInstance(id);
  if (!instance.ok() ||
      (*instance)->state != infra::InstanceState::kFailed) {
    return;  // gone or healed by someone else
  }
  Episode& episode = episodes_[token];
  if (!cluster_->IsServerUp((*instance)->server)) {
    // Restarting on a dead host can never work; skip straight to
    // relocation.
    Relocate(token, id, now);
    return;
  }
  ++episode.restart_attempts;
  ++stats_.restarts_attempted;
  Status restarted = executor_->RestartInstance(id);
  if (restarted.ok()) {
    ++stats_.restarts_succeeded;
    Trace(now, "recovery-restart",
          StrFormat("%s attempt %d", (*instance)->Name().c_str(),
                    episode.restart_attempts),
          static_cast<int64_t>(id));
    WatchBoot(token, id);
    return;
  }
  Trace(now, "recovery-restart-failed",
        StrFormat("%s attempt %d: %s", (*instance)->Name().c_str(),
                  episode.restart_attempts,
                  std::string(restarted.message()).c_str()),
        static_cast<int64_t>(id));
  if (episode.restart_attempts >= config_.max_restart_attempts) {
    Relocate(token, id, now);
    return;
  }
  // Capped exponential backoff before the next in-place attempt.
  Duration wait = episode.backoff;
  episode.backoff = std::min(config_.max_backoff, episode.backoff * 2);
  sim::EventDesc desc;
  desc.kind = "recovery.backoff";
  desc.a = token;
  desc.b = static_cast<uint64_t>(id);
  AG_CHECK_OK(simulator_
                  ->ScheduleAfter(wait, "recovery-backoff", desc,
                                  MakeBackoffCallback(token, id))
                  .status());
}

void RecoveryManager::WatchBoot(uint64_t token, infra::InstanceId id) {
  // The executor schedules the starting->running flip at
  // now + start_delay; FIFO ordering at equal timestamps guarantees
  // that flip runs before this watchdog, so at watchdog time the
  // instance is either serving or something went wrong in between.
  sim::EventDesc desc;
  desc.kind = "recovery.watchdog";
  desc.a = token;
  desc.b = static_cast<uint64_t>(id);
  AG_CHECK_OK(simulator_
                  ->ScheduleAfter(executor_->config().start_delay,
                                  "recovery-watchdog", desc,
                                  MakeWatchdogCallback(token, id))
                  .status());
}

sim::Simulator::Callback RecoveryManager::MakeBackoffCallback(
    uint64_t token, infra::InstanceId id) {
  return [this, token, id] { AttemptRestart(token, id, simulator_->now()); };
}

sim::Simulator::Callback RecoveryManager::MakeWatchdogCallback(
    uint64_t token, infra::InstanceId id) {
  return [this, token, id] {
    SimTime now = simulator_->now();
    auto instance = cluster_->FindInstance(id);
    if (instance.ok() &&
        (*instance)->state == infra::InstanceState::kRunning) {
      Recovered(token, id, now);
      return;
    }
    // Crashed again (or was removed) before serving: the episode
    // continues.
    Episode& episode = episodes_[token];
    if (episode.restart_attempts >= config_.max_restart_attempts) {
      Relocate(token, id, now);
    } else {
      AttemptRestart(token, id, now);
    }
  };
}

void RecoveryManager::Relocate(uint64_t token, infra::InstanceId id,
                               SimTime now) {
  Episode& episode = episodes_[token];
  std::string service = episode.service;

  // Rank replacement hosts through the server-selection fuzzy
  // controller while the failed instance still exists — a kMove probe
  // excludes its current host and discounts its own footprint.
  infra::Action probe;
  auto instance = cluster_->FindInstance(id);
  if (instance.ok()) {
    probe.type = infra::ActionType::kMove;
    probe.service = service;
    probe.source_server = (*instance)->server;
    probe.instance = id;
  } else {
    probe.type = infra::ActionType::kStart;
    probe.service = service;
  }

  obs::HostSelectionAudit selection;
  auto ranked = controller_->RankServers(probe, now, &selection);

  if (audit_ != nullptr) {
    obs::DecisionAudit decision;
    decision.at = now;
    decision.trigger_kind = "recovery";
    decision.subject = service;
    decision.host_selections.push_back(selection);
    decision.verdict =
        ranked.ok() && !ranked->empty()
            ? StrFormat("relocating %s (token %llu)", service.c_str(),
                        static_cast<unsigned long long>(token))
            : "no candidate host for relocation";
    decision.executed = ranked.ok() && !ranked->empty();
    audit_->Add(std::move(decision));
  }

  if (!ranked.ok() || ranked->empty()) {
    Abandon(token, now,
            StrFormat("no host accepts a replacement %s instance",
                      service.c_str()));
    return;
  }

  // Free the slot (and its memory claim) before placing the
  // replacement. Never enforce the minimum: recovery is allowed to
  // transiently dip below it while the replacement boots.
  if (instance.ok()) {
    AG_CHECK_OK(cluster_->RemoveInstance(id, /*enforce_min=*/false));
  }

  for (const controller::ScoredServer& candidate : *ranked) {
    auto launched = executor_->LaunchInstance(service, candidate.server);
    if (launched.ok()) {
      ++stats_.relocations;
      Trace(now, "recovery-relocate",
            StrFormat("%s -> %s", service.c_str(),
                      candidate.server.c_str()),
            static_cast<int64_t>(*launched));
      WatchBoot(token, *launched);
      return;
    }
    Trace(now, "recovery-relocate-failed",
          StrFormat("%s -> %s: %s", service.c_str(),
                    candidate.server.c_str(),
                    std::string(launched.status().message()).c_str()));
    NotePlacementFailure(candidate.server, now);
  }
  Abandon(token, now,
          StrFormat("every candidate host rejected a replacement %s "
                    "instance",
                    service.c_str()));
}

void RecoveryManager::Abandon(uint64_t token, SimTime now,
                              const std::string& reason) {
  ++stats_.abandoned;
  if (tracker_ != nullptr) tracker_->OnAbandoned(token, now);
  Trace(now, "recovery-abandoned", reason);
  // Out of autonomic options: alert the administrator (the paper's
  // last-resort escalation, Figure 6).
  if (alert_) alert_(now, reason);
  episodes_.erase(token);
}

void RecoveryManager::Recovered(uint64_t token, infra::InstanceId id,
                                SimTime now) {
  ++stats_.recovered;
  if (tracker_ != nullptr) tracker_->OnRecovered(token, now);
  Trace(now, "recovery-recovered",
        StrFormat("token %llu serving again",
                  static_cast<unsigned long long>(token)),
        static_cast<int64_t>(id));
  episodes_.erase(token);
}

void RecoveryManager::NotePlacementFailure(const std::string& server,
                                           SimTime now) {
  HostRecord& record = hosts_[server];
  ++record.failures;
  if (record.failures >= config_.blacklist_threshold &&
      now >= record.blacklisted_until) {
    record.blacklisted_until = now + config_.blacklist_duration;
    record.failures = 0;
    ++stats_.blacklist_entries;
    Trace(now, "recovery-blacklist",
          StrFormat("%s until %s", server.c_str(),
                    record.blacklisted_until.ToString().c_str()));
  }
}

void RecoveryManager::SaveState(ByteWriter* w) const {
  w->U64(episodes_.size());
  for (const auto& [token, episode] : episodes_) {
    w->U64(token);
    w->Str(episode.service);
    w->I64(episode.restart_attempts);
    w->I64(episode.backoff.seconds());
  }
  w->U64(hosts_.size());
  for (const auto& [server, record] : hosts_) {
    w->Str(server);
    w->I64(record.failures);
    w->I64(record.blacklisted_until.seconds());
  }
  w->I64(stats_.restarts_attempted);
  w->I64(stats_.restarts_succeeded);
  w->I64(stats_.relocations);
  w->I64(stats_.evacuations);
  w->I64(stats_.recovered);
  w->I64(stats_.abandoned);
  w->I64(stats_.blacklist_entries);
}

Status RecoveryManager::RestoreState(ByteReader* r) {
  uint64_t episode_count = 0;
  AG_ASSIGN_OR_RETURN(episode_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(episode_count, 8 + 4 + 2 * 8));
  episodes_.clear();
  for (uint64_t i = 0; i < episode_count; ++i) {
    uint64_t token = 0;
    AG_ASSIGN_OR_RETURN(token, r->U64());
    Episode episode;
    AG_ASSIGN_OR_RETURN(episode.service, r->Str());
    int64_t attempts = 0;
    AG_ASSIGN_OR_RETURN(attempts, r->I64());
    episode.restart_attempts = static_cast<int>(attempts);
    int64_t seconds = 0;
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    episode.backoff = Duration::Seconds(seconds);
    episodes_.emplace(token, std::move(episode));
  }
  uint64_t host_count = 0;
  AG_ASSIGN_OR_RETURN(host_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(host_count, 4 + 2 * 8));
  hosts_.clear();
  for (uint64_t i = 0; i < host_count; ++i) {
    std::string server;
    AG_ASSIGN_OR_RETURN(server, r->Str());
    HostRecord record;
    int64_t failures = 0;
    AG_ASSIGN_OR_RETURN(failures, r->I64());
    record.failures = static_cast<int>(failures);
    int64_t seconds = 0;
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    record.blacklisted_until = SimTime::FromSeconds(seconds);
    hosts_.emplace(std::move(server), record);
  }
  AG_ASSIGN_OR_RETURN(stats_.restarts_attempted, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.restarts_succeeded, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.relocations, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.evacuations, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.recovered, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.abandoned, r->I64());
  AG_ASSIGN_OR_RETURN(stats_.blacklist_entries, r->I64());
  return Status::OK();
}

void RecoveryManager::Trace(SimTime at, std::string_view name,
                            std::string detail, int64_t value) {
  if (trace_ == nullptr) return;
  trace_->Record(at, obs::TraceEventKind::kFault, name,
                 std::move(detail), value);
}

}  // namespace autoglobe::faults
