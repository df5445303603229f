#include "monitor/monitoring.h"

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

Status LoadMonitoringSystem::WatchHeartbeat(TriggerKind failed_kind,
                                            std::string key,
                                            std::string subject,
                                            SimTime now,
                                            uint64_t instance) {
  if (failed_kind != TriggerKind::kInstanceFailed &&
      failed_kind != TriggerKind::kServerFailed) {
    return Status::InvalidArgument(
        "watch heartbeats with a failure trigger kind");
  }
  auto it = heartbeat_ids_.find(key);
  if (it != heartbeat_ids_.end()) {
    HeartbeatState& state = heartbeats_[it->second];
    if (state.active) {
      return Status::AlreadyExists(
          StrFormat("heartbeat \"%s\" already watched", key.c_str()));
    }
    state.failed_kind = failed_kind;
    state.subject = std::move(subject);
    state.instance = instance;
    state.last_seen = now;
    state.active = true;
    state.reported = false;
    return Status::OK();
  }
  HeartbeatState state;
  state.failed_kind = failed_kind;
  state.key = key;
  state.subject = std::move(subject);
  state.instance = instance;
  state.last_seen = now;
  heartbeat_ids_.emplace(std::move(key), heartbeats_.size());
  heartbeats_.push_back(std::move(state));
  return Status::OK();
}

Status LoadMonitoringSystem::UnwatchHeartbeat(std::string_view key) {
  auto it = heartbeat_ids_.find(key);
  if (it == heartbeat_ids_.end() || !heartbeats_[it->second].active) {
    return Status::NotFound(StrFormat("heartbeat \"%.*s\" not watched",
                                      static_cast<int>(key.size()),
                                      key.data()));
  }
  heartbeats_[it->second].active = false;
  return Status::OK();
}

Status LoadMonitoringSystem::RecordHeartbeat(std::string_view key,
                                             SimTime now) {
  auto it = heartbeat_ids_.find(key);
  if (it == heartbeat_ids_.end() || !heartbeats_[it->second].active) {
    return Status::NotFound(StrFormat("heartbeat \"%.*s\" not watched",
                                      static_cast<int>(key.size()),
                                      key.data()));
  }
  HeartbeatState& state = heartbeats_[it->second];
  state.last_seen = now;
  state.reported = false;
  return Status::OK();
}

Result<size_t> LoadMonitoringSystem::HeartbeatIdOf(
    std::string_view key) const {
  auto it = heartbeat_ids_.find(key);
  if (it == heartbeat_ids_.end()) {
    return Status::NotFound(StrFormat("heartbeat \"%.*s\" not watched",
                                      static_cast<int>(key.size()),
                                      key.data()));
  }
  return it->second;
}

Status LoadMonitoringSystem::RecordHeartbeatById(size_t id, SimTime now) {
  if (id >= heartbeats_.size() || !heartbeats_[id].active) {
    return Status::NotFound(
        StrFormat("heartbeat slot %zu not watched", id));
  }
  HeartbeatState& state = heartbeats_[id];
  state.last_seen = now;
  state.reported = false;
  return Status::OK();
}

void LoadMonitoringSystem::CheckHeartbeats(SimTime now) {
  Duration deadline = config_.heartbeat_interval *
                      static_cast<int64_t>(config_.heartbeat_miss_threshold);
  for (HeartbeatState& state : heartbeats_) {
    if (!state.active || state.reported) continue;
    if (now - state.last_seen < deadline) continue;
    state.reported = true;
    Trigger trigger{state.failed_kind, state.subject, now, 0.0,
                    state.instance};
    Confirm(std::move(trigger));
  }
}

size_t LoadMonitoringSystem::active_heartbeat_watches() const {
  size_t count = 0;
  for (const HeartbeatState& state : heartbeats_) {
    if (state.active) ++count;
  }
  return count;
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
  w->U64(heartbeats_.size());
  for (const HeartbeatState& state : heartbeats_) {
    w->U8(static_cast<uint8_t>(state.failed_kind));
    w->Str(state.key);
    w->Str(state.subject);
    w->U64(state.instance);
    w->I64(state.last_seen.seconds());
    w->U8(state.active ? 1 : 0);
    w->U8(state.reported ? 1 : 0);
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
  uint64_t heartbeat_count = 0;
  AG_ASSIGN_OR_RETURN(heartbeat_count, r->U64());
  // Three flags, two string prefixes and two fixed-width words.
  AG_RETURN_IF_ERROR(r->CheckCount(heartbeat_count, 3 + 2 * 4 + 2 * 8));
  std::vector<HeartbeatState> heartbeats;
  std::map<std::string, size_t, std::less<>> heartbeat_ids;
  heartbeats.reserve(heartbeat_count);
  for (uint64_t i = 0; i < heartbeat_count; ++i) {
    HeartbeatState state;
    uint8_t kind = 0;
    AG_ASSIGN_OR_RETURN(kind, r->U8());
    if (kind != static_cast<uint8_t>(TriggerKind::kInstanceFailed) &&
        kind != static_cast<uint8_t>(TriggerKind::kServerFailed)) {
      return Status::ParseError(
          StrFormat("bad heartbeat trigger kind %u", unsigned{kind}));
    }
    state.failed_kind = static_cast<TriggerKind>(kind);
    AG_ASSIGN_OR_RETURN(state.key, r->Str());
    AG_ASSIGN_OR_RETURN(state.subject, r->Str());
    AG_ASSIGN_OR_RETURN(state.instance, r->U64());
    int64_t seconds = 0;
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    state.last_seen = SimTime::FromSeconds(seconds);
    uint8_t flag = 0;
    AG_ASSIGN_OR_RETURN(flag, r->U8());
    state.active = flag != 0;
    AG_ASSIGN_OR_RETURN(flag, r->U8());
    state.reported = flag != 0;
    if (!heartbeat_ids.emplace(state.key, heartbeats.size()).second) {
      return Status::ParseError(StrFormat(
          "duplicate heartbeat key \"%s\"", state.key.c_str()));
    }
    heartbeats.push_back(std::move(state));
  }
  heartbeats_ = std::move(heartbeats);
  heartbeat_ids_ = std::move(heartbeat_ids);
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
