#include "monitor/monitoring.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe::monitor {

std::string_view TriggerKindName(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kServerOverloaded:
      return "serverOverloaded";
    case TriggerKind::kServerIdle:
      return "serverIdle";
    case TriggerKind::kServiceOverloaded:
      return "serviceOverloaded";
    case TriggerKind::kServiceIdle:
      return "serviceIdle";
    case TriggerKind::kInstanceFailed:
      return "instanceFailed";
    case TriggerKind::kServerFailed:
      return "serverFailed";
  }
  return "?";
}

LoadMonitoringSystem::LoadMonitoringSystem(LoadArchive* archive,
                                           MonitorConfig config)
    : archive_(archive), config_(config) {
  AG_CHECK(archive_ != nullptr);
}

namespace {

std::string_view KeyPrefix(TriggerKind kind) {
  bool is_server = kind == TriggerKind::kServerOverloaded ||
                   kind == TriggerKind::kServerIdle;
  return is_server ? "server/" : "service/";
}

}  // namespace

std::string LoadMonitoringSystem::ArchiveKey(TriggerKind overload_kind,
                                             std::string_view name) {
  std::string_view prefix = KeyPrefix(overload_kind);
  std::string key;
  key.reserve(prefix.size() + name.size());
  key.append(prefix).append(name);
  return key;
}

std::string_view LoadMonitoringSystem::NameOf(SubjectId subject) const {
  const SubjectState& state = subjects_[static_cast<size_t>(subject)];
  return std::string_view(state.key).substr(
      KeyPrefix(state.overload_kind).size());
}

Status LoadMonitoringSystem::RegisterSubject(
    TriggerKind overload_kind, std::string_view name, double idle_divisor,
    std::optional<Duration> watch_override) {
  if (overload_kind != TriggerKind::kServerOverloaded &&
      overload_kind != TriggerKind::kServiceOverloaded) {
    return Status::InvalidArgument(
        "register subjects with their overload kind");
  }
  if (idle_divisor <= 0) {
    return Status::InvalidArgument("idle divisor must be positive");
  }
  if (watch_override.has_value() && *watch_override <= Duration::Zero()) {
    return Status::InvalidArgument("watchTime override must be positive");
  }
  SubjectId id = static_cast<SubjectId>(subjects_.size());
  SubjectState& state = subjects_.emplace_back();
  state.overload_kind = overload_kind;
  state.key = ArchiveKey(overload_kind, name);
  state.idle_threshold = config_.idle_threshold_base / idle_divisor;
  state.overload_watch =
      watch_override.value_or(config_.overload_watch_time);
  // The index compares through subjects_, so the new subject goes in
  // after its state. A hint that is right costs no search; a taken
  // name leaves the set as it was.
  auto hint = last_registered_ == by_name_.end() ? by_name_.end()
                                                 : std::next(last_registered_);
  size_t before = by_name_.size();
  auto it = by_name_.emplace_hint(hint, id);
  if (by_name_.size() == before) {
    subjects_.pop_back();
    return Status::AlreadyExists(StrFormat(
        "subject \"%.*s\" already registered",
        static_cast<int>(name.size()), name.data()));
  }
  last_registered_ = it;
  return Status::OK();
}

Result<SubjectId> LoadMonitoringSystem::SubjectIdOf(
    std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound(StrFormat("unregistered subject \"%.*s\"",
                                      static_cast<int>(name.size()),
                                      name.data()));
  }
  return *it;
}

Status LoadMonitoringSystem::Observe(SimTime now, std::string_view name,
                                     double load,
                                     std::optional<double> detection_load) {
  AG_ASSIGN_OR_RETURN(SubjectId id, SubjectIdOf(name));
  return ObserveById(now, id, load, detection_load);
}

Status LoadMonitoringSystem::ObserveById(
    SimTime now, SubjectId subject, double load,
    std::optional<double> detection_load) {
  if (subject < 0 || static_cast<size_t>(subject) >= subjects_.size()) {
    return Status::NotFound(
        StrFormat("unregistered subject id %d", subject));
  }
  SubjectState& state = subjects_[static_cast<size_t>(subject)];
  // Quiescent fast path: the sample equals the carried value, cannot
  // arm a watch (in-band), and extends the uniform cadence — record it
  // as one more pending copy and skip evaluation.
  if (config_.dirty_tracking && state.phase == Phase::kNormal &&
      !detection_load.has_value() && state.has_last &&
      load == state.last_value &&
      !(load > config_.overload_threshold) &&
      !(load < state.idle_threshold) &&
      (state.pending_count == 0 ||
       now - state.last_at == state.pending_interval)) {
    if (state.pending_count == 0) {
      state.pending_first = now;
      state.pending_interval = now - state.last_at;
    }
    ++state.pending_count;
    state.last_at = now;
    ++skips_;
    return Status::OK();
  }
  AG_RETURN_IF_ERROR(MaterializeSubject(subject));
  ++evaluations_;
  if (!state.series) state.series = archive_->Acquire(state.key);
  AG_RETURN_IF_ERROR(archive_->Append(state.series, now, load));
  state.last_value = load;
  state.last_at = now;
  state.has_last = true;
  if (detection_load.has_value()) load = *detection_load;

  switch (state.phase) {
    case Phase::kNormal:
      // A threshold crossing arms the observation window; reaction is
      // deferred so that "immediate reaction on these peaks" cannot
      // destabilize the system (§2).
      if (load > config_.overload_threshold) {
        state.phase = Phase::kWatchingOverload;
        state.watch_started = now;
      } else if (load < state.idle_threshold) {
        state.phase = Phase::kWatchingIdle;
        state.watch_started = now;
      }
      return Status::OK();
    case Phase::kWatchingOverload: {
      Duration watch = state.overload_watch;
      if (now - state.watch_started < watch) return Status::OK();
      state.phase = Phase::kNormal;
      AG_ASSIGN_OR_RETURN(double average,
                          archive_->Average(state.series, watch, now));
      if (average > config_.overload_threshold) {
        Confirm(Trigger{state.overload_kind, std::string(NameOf(subject)),
                        now, average});
      }
      return Status::OK();
    }
    case Phase::kWatchingIdle: {
      Duration watch = config_.idle_watch_time;
      if (now - state.watch_started < watch) return Status::OK();
      state.phase = Phase::kNormal;
      AG_ASSIGN_OR_RETURN(double average,
                          archive_->Average(state.series, watch, now));
      if (average < state.idle_threshold) {
        TriggerKind idle_kind =
            state.overload_kind == TriggerKind::kServerOverloaded
                ? TriggerKind::kServerIdle
                : TriggerKind::kServiceIdle;
        Confirm(Trigger{idle_kind, std::string(NameOf(subject)), now,
                        average});
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad monitoring phase");
}

LoadArchive::Handle LoadMonitoringSystem::SeriesOf(SubjectId subject) {
  SubjectState& state = subjects_[static_cast<size_t>(subject)];
  if (!state.series) state.series = archive_->Find(state.key);
  return state.series;
}

Status LoadMonitoringSystem::MaterializeSubject(SubjectId subject) {
  if (subject < 0 || static_cast<size_t>(subject) >= subjects_.size()) {
    return Status::NotFound(
        StrFormat("unregistered subject id %d", subject));
  }
  SubjectState& state = subjects_[static_cast<size_t>(subject)];
  if (state.pending_count == 0) return Status::OK();
  // AppendRun leaves the archive exactly as the Append calls of the
  // skipped ticks would have — same values, same times, same order —
  // so retention eviction and aggregate folding stay bit-identical.
  if (!state.series) state.series = archive_->Acquire(state.key);
  int64_t count = state.pending_count;
  state.pending_count = 0;
  return archive_->AppendRun(state.series, state.pending_first,
                             state.pending_interval, count,
                             state.last_value);
}

Status LoadMonitoringSystem::MaterializeAll() {
  for (size_t i = 0; i < subjects_.size(); ++i) {
    AG_RETURN_IF_ERROR(MaterializeSubject(static_cast<SubjectId>(i)));
  }
  return Status::OK();
}

bool LoadMonitoringSystem::IsSubject(SubjectId subject,
                                     TriggerKind overload_kind) const {
  return subject >= 0 && static_cast<size_t>(subject) < subjects_.size() &&
         subjects_[static_cast<size_t>(subject)].overload_kind ==
             overload_kind;
}

std::vector<LoadMonitoringSystem::InstanceWatch>::iterator
LoadMonitoringSystem::InstanceWatchAtOrAfter(uint64_t instance) {
  return std::lower_bound(instance_watches_.begin(), instance_watches_.end(),
                          instance,
                          [](const InstanceWatch& watch, uint64_t id) {
                            return watch.instance < id;
                          });
}

namespace {

Status InstanceNotWatched(uint64_t instance) {
  return Status::NotFound(
      StrFormat("instance %llu not watched",
                static_cast<unsigned long long>(instance)));
}

}  // namespace

Status LoadMonitoringSystem::WatchServer(SubjectId server, SimTime now) {
  if (!IsSubject(server, TriggerKind::kServerOverloaded)) {
    return Status::InvalidArgument(
        StrFormat("subject %d is not a registered server", server));
  }
  if (!server_watches_.empty() && server_watches_.back().server >= server) {
    return Status::InvalidArgument(StrFormat(
        "server %d watched out of ascending subject order", server));
  }
  server_watches_.push_back(ServerWatch{server, Heartbeat{now}});
  return Status::OK();
}

Status LoadMonitoringSystem::WatchInstance(uint64_t instance,
                                           SubjectId service, SimTime now) {
  if (!IsSubject(service, TriggerKind::kServiceOverloaded)) {
    return Status::InvalidArgument(
        StrFormat("subject %d is not a registered service", service));
  }
  auto it = InstanceWatchAtOrAfter(instance);
  if (it != instance_watches_.end() && it->instance == instance) {
    return Status::AlreadyExists(StrFormat(
        "instance %llu already watched",
        static_cast<unsigned long long>(instance)));
  }
  instance_watches_.insert(it,
                           InstanceWatch{instance, service, Heartbeat{now}});
  return Status::OK();
}

Status LoadMonitoringSystem::UnwatchInstance(uint64_t instance) {
  auto it = InstanceWatchAtOrAfter(instance);
  if (it == instance_watches_.end() || it->instance != instance) {
    return InstanceNotWatched(instance);
  }
  instance_watches_.erase(it);
  return Status::OK();
}

Status LoadMonitoringSystem::RecordServerHeartbeat(SubjectId server,
                                                   SimTime now) {
  auto it = std::lower_bound(
      server_watches_.begin(), server_watches_.end(), server,
      [](const ServerWatch& watch, SubjectId id) { return watch.server < id; });
  if (it == server_watches_.end() || it->server != server) {
    return Status::NotFound(StrFormat("server %d not watched", server));
  }
  it->beat = Heartbeat{now};
  return Status::OK();
}

Status LoadMonitoringSystem::RecordInstanceHeartbeat(uint64_t instance,
                                                     SimTime now) {
  auto it = InstanceWatchAtOrAfter(instance);
  if (it == instance_watches_.end() || it->instance != instance) {
    return InstanceNotWatched(instance);
  }
  it->beat = Heartbeat{now};
  return Status::OK();
}

void LoadMonitoringSystem::CheckHeartbeats(SimTime now) {
  Duration deadline = config_.heartbeat_interval *
                      static_cast<int64_t>(config_.heartbeat_miss_threshold);
  // Marks a beat reported when it is newly past the deadline.
  auto newly_silent = [&](Heartbeat& beat) {
    if (beat.reported || now - beat.last_seen < deadline) return false;
    beat.reported = true;
    return true;
  };
  for (ServerWatch& watch : server_watches_) {
    if (!newly_silent(watch.beat)) continue;
    Confirm(Trigger{TriggerKind::kServerFailed,
                    std::string(NameOf(watch.server)), now});
  }
  for (InstanceWatch& watch : instance_watches_) {
    if (!newly_silent(watch.beat)) continue;
    Confirm(Trigger{TriggerKind::kInstanceFailed,
                    std::string(NameOf(watch.service)), now, 0.0,
                    watch.instance});
  }
}

void LoadMonitoringSystem::SaveState(ByteWriter* w) const {
  w->U64(subjects_.size());
  for (size_t i = 0; i < subjects_.size(); ++i) {
    const SubjectState& subject = subjects_[i];
    w->Str(NameOf(static_cast<SubjectId>(i)));
    w->U8(static_cast<uint8_t>(subject.phase));
    w->I64(subject.watch_started.seconds());
    w->F64(subject.last_value);
    w->I64(subject.last_at.seconds());
    w->U8(subject.has_last ? 1 : 0);
    w->I64(subject.pending_first.seconds());
    w->I64(subject.pending_interval.seconds());
    w->I64(subject.pending_count);
  }
  w->U64(server_watches_.size());
  for (const ServerWatch& watch : server_watches_) {
    w->I64(watch.beat.last_seen.seconds());
    w->U8(watch.beat.reported ? 1 : 0);
  }
  w->U64(instance_watches_.size());
  for (const InstanceWatch& watch : instance_watches_) {
    w->U64(watch.instance);
    w->U32(static_cast<uint32_t>(watch.service));
    w->I64(watch.beat.last_seen.seconds());
    w->U8(watch.beat.reported ? 1 : 0);
  }
  w->I64(triggers_fired_);
  w->I64(evaluations_);
  w->I64(skips_);
}

Status LoadMonitoringSystem::RestoreState(ByteReader* r) {
  uint64_t subject_count = 0;
  AG_ASSIGN_OR_RETURN(subject_count, r->U64());
  // Name prefix, two flags and six fixed-width words.
  AG_RETURN_IF_ERROR(r->CheckCount(subject_count, 4 + 2 + 6 * 8));
  if (subject_count != subjects_.size()) {
    return Status::ParseError(StrFormat(
        "snapshot has %llu monitoring subjects, landscape has %zu",
        static_cast<unsigned long long>(subject_count), subjects_.size()));
  }
  for (uint64_t i = 0; i < subject_count; ++i) {
    std::string name;
    AG_ASSIGN_OR_RETURN(name, r->Str());
    // A system registered like the one that saved lists the subject
    // at its own id; any other order falls back to the name index.
    SubjectId id = static_cast<SubjectId>(i);
    if (NameOf(id) != name) {
      auto it = by_name_.find(name);
      if (it == by_name_.end()) {
        return Status::ParseError(StrFormat(
            "snapshot subject \"%s\" is not registered", name.c_str()));
      }
      id = *it;
    }
    SubjectState& subject = subjects_[static_cast<size_t>(id)];
    uint8_t phase = 0;
    AG_ASSIGN_OR_RETURN(phase, r->U8());
    if (phase > static_cast<uint8_t>(Phase::kWatchingIdle)) {
      return Status::ParseError(
          StrFormat("bad monitoring phase %u", unsigned{phase}));
    }
    subject.phase = static_cast<Phase>(phase);
    int64_t seconds = 0;
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    subject.watch_started = SimTime::FromSeconds(seconds);
    AG_ASSIGN_OR_RETURN(subject.last_value, r->F64());
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    subject.last_at = SimTime::FromSeconds(seconds);
    uint8_t has_last = 0;
    AG_ASSIGN_OR_RETURN(has_last, r->U8());
    subject.has_last = has_last != 0;
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    subject.pending_first = SimTime::FromSeconds(seconds);
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    subject.pending_interval = Duration::Seconds(seconds);
    AG_ASSIGN_OR_RETURN(subject.pending_count, r->I64());
  }
  auto read_beat = [r](Heartbeat* beat) -> Status {
    AG_ASSIGN_OR_RETURN(int64_t seconds, r->I64());
    beat->last_seen = SimTime::FromSeconds(seconds);
    AG_ASSIGN_OR_RETURN(uint8_t reported, r->U8());
    beat->reported = reported != 0;
    return Status::OK();
  };
  AG_ASSIGN_OR_RETURN(uint64_t server_count, r->U64());
  if (server_count != server_watches_.size()) {
    return Status::ParseError(StrFormat(
        "snapshot has %llu server watches, landscape has %zu",
        static_cast<unsigned long long>(server_count),
        server_watches_.size()));
  }
  for (ServerWatch& watch : server_watches_) {
    AG_RETURN_IF_ERROR(read_beat(&watch.beat));
  }
  AG_ASSIGN_OR_RETURN(uint64_t instance_count, r->U64());
  // Id, service subject, last beat and the reported flag.
  AG_RETURN_IF_ERROR(r->CheckCount(instance_count, 8 + 4 + 8 + 1));
  std::vector<InstanceWatch> instances(instance_count);
  for (uint64_t i = 0; i < instance_count; ++i) {
    InstanceWatch& watch = instances[i];
    AG_ASSIGN_OR_RETURN(watch.instance, r->U64());
    if (i > 0 && watch.instance <= instances[i - 1].instance) {
      return Status::ParseError(StrFormat(
          "instance watch %llu does not ascend",
          static_cast<unsigned long long>(watch.instance)));
    }
    AG_ASSIGN_OR_RETURN(uint32_t service, r->U32());
    watch.service = static_cast<SubjectId>(service);
    if (!IsSubject(watch.service, TriggerKind::kServiceOverloaded)) {
      return Status::ParseError(StrFormat(
          "instance watch %llu names subject %u, not a service",
          static_cast<unsigned long long>(watch.instance), service));
    }
    AG_RETURN_IF_ERROR(read_beat(&watch.beat));
  }
  instance_watches_ = std::move(instances);
  AG_ASSIGN_OR_RETURN(triggers_fired_, r->I64());
  AG_ASSIGN_OR_RETURN(evaluations_, r->I64());
  AG_ASSIGN_OR_RETURN(skips_, r->I64());
  return Status::OK();
}

void LoadMonitoringSystem::Confirm(Trigger trigger) {
  ++triggers_fired_;
  if (trace_ != nullptr) {
    trace_->Record(trigger.at, obs::TraceEventKind::kTriggerConfirmed,
                   TriggerKindName(trigger.kind),
                   StrFormat("%s avg=%.4f", trigger.subject.c_str(),
                             trigger.average_load));
  }
  if (callback_) callback_(std::move(trigger));
}

}  // namespace autoglobe::monitor
