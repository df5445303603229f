// Checkpoint/restore for SimulationRunner: the runner's complete live
// state as named sections of raw bytes. Each subsystem serializes
// itself (SaveState/RestoreState in its own translation unit); this
// file owns the section layout, the runner-level state (metrics,
// histories, degraded-mode posture; the per-server rings are the
// overload ledger's), and the callback factory that re-arms pending
// simulator events from their descriptors. Framing, checksums, and
// generation rotation live one layer up, in src/persist.

#include <algorithm>
#include <utility>

#include "autoglobe/runner.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe {

namespace {

/// Bumped when any section's encoding changes shape. The snapshot
/// container has its own format version; this one guards the runner's
/// section layout specifically.
constexpr uint64_t kSectionLayoutVersion = 3;

/// Every state section in save order ("faults" exists only with a fault
/// plan). The container stores sections in this order; restore reads
/// them by name, in its own dependency order.
constexpr std::string_view kSectionOrder[] = {
    "sim",      "cluster",  "demand",  "archive", "monitor", "pool_stats",
    "executor", "sla",      "strategy", "faults", "runner",  "metrics"};

void WriteMetricsSnapshot(ByteWriter* w, const obs::MetricsSnapshot& snap) {
  w->U32(static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w->Str(name);
    w->U64(value);
  }
  w->U32(static_cast<uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    w->Str(name);
    w->F64(value);
  }
  w->U32(static_cast<uint32_t>(snap.histograms.size()));
  for (const obs::HistogramSnapshot& histogram : snap.histograms) {
    w->Str(histogram.name);
    w->U32(static_cast<uint32_t>(histogram.bounds.size()));
    for (double bound : histogram.bounds) w->F64(bound);
    w->U32(static_cast<uint32_t>(histogram.counts.size()));
    for (uint64_t count : histogram.counts) w->U64(count);
    w->U64(histogram.count);
    w->F64(histogram.sum);
  }
}

Status ReadMetricsSnapshot(ByteReader* r, obs::MetricsSnapshot* snap) {
  AG_ASSIGN_OR_RETURN(uint32_t counter_count, r->U32());
  AG_RETURN_IF_ERROR(r->CheckCount(counter_count, 4 + 8));
  snap->counters.reserve(counter_count);
  for (uint32_t i = 0; i < counter_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    AG_ASSIGN_OR_RETURN(uint64_t value, r->U64());
    snap->counters.emplace_back(std::move(name), value);
  }
  AG_ASSIGN_OR_RETURN(uint32_t gauge_count, r->U32());
  AG_RETURN_IF_ERROR(r->CheckCount(gauge_count, 4 + 8));
  snap->gauges.reserve(gauge_count);
  for (uint32_t i = 0; i < gauge_count; ++i) {
    AG_ASSIGN_OR_RETURN(std::string name, r->Str());
    AG_ASSIGN_OR_RETURN(double value, r->F64());
    snap->gauges.emplace_back(std::move(name), value);
  }
  AG_ASSIGN_OR_RETURN(uint32_t histogram_count, r->U32());
  // Name prefix, two array counts, the total count and the sum.
  AG_RETURN_IF_ERROR(r->CheckCount(histogram_count, 3 * 4 + 2 * 8));
  snap->histograms.reserve(histogram_count);
  for (uint32_t i = 0; i < histogram_count; ++i) {
    obs::HistogramSnapshot histogram;
    AG_ASSIGN_OR_RETURN(histogram.name, r->Str());
    AG_ASSIGN_OR_RETURN(uint32_t bound_count, r->U32());
    AG_RETURN_IF_ERROR(r->CheckCount(bound_count, sizeof(double)));
    histogram.bounds.resize(bound_count);
    for (double& bound : histogram.bounds) {
      AG_ASSIGN_OR_RETURN(bound, r->F64());
    }
    AG_ASSIGN_OR_RETURN(uint32_t bucket_count, r->U32());
    AG_RETURN_IF_ERROR(r->CheckCount(bucket_count, sizeof(uint64_t)));
    histogram.counts.resize(bucket_count);
    for (uint64_t& count : histogram.counts) {
      AG_ASSIGN_OR_RETURN(count, r->U64());
    }
    AG_ASSIGN_OR_RETURN(histogram.count, r->U64());
    AG_ASSIGN_OR_RETURN(histogram.sum, r->F64());
    snap->histograms.push_back(std::move(histogram));
  }
  return Status::OK();
}

}  // namespace

uint64_t SimulationRunner::StateFingerprint() const {
  // Identity of a snapshot: landscape names and the config axes that
  // change what the serialized state *means*. A snapshot taken under
  // one fingerprint refuses to restore under another.
  ByteWriter w;
  w.Str("autoglobe-runner");
  w.U64(kSectionLayoutVersion);
  w.U32(static_cast<uint32_t>(server_names_.size()));
  for (std::string_view server : server_names_) w.Str(server);
  w.U32(static_cast<uint32_t>(service_names_.size()));
  for (std::string_view service : service_names_) w.Str(service);
  w.U64(config_.seed);
  w.U8(static_cast<uint8_t>(config_.rng_kind));
  w.U8(static_cast<uint8_t>(config_.strategy.kind));
  w.U8(config_.fault_plan.has_value() ? 1 : 0);
  w.I64(config_.tick.seconds());
  w.U32(static_cast<uint32_t>(config_.slas.size()));
  return Fnv1a64(w.data());
}

std::vector<std::string_view> SimulationRunner::StateSectionNames() const {
  std::vector<std::string_view> names;
  for (std::string_view name : kSectionOrder) {
    if (name == "faults" && !config_.fault_plan.has_value()) continue;
    names.push_back(name);
  }
  return names;
}

Status SimulationRunner::SaveStateSections(const SectionSink& sink) const {
  if (!initialized_) {
    return Status::FailedPrecondition("runner not initialized");
  }
  ByteWriter w;
  for (std::string_view name : StateSectionNames()) {
    w.Clear();
    AG_RETURN_IF_ERROR(SaveSection(name, &w));
    AG_RETURN_IF_ERROR(sink(name, w.data()));
  }
  return Status::OK();
}

Status SimulationRunner::SaveStateSections(
    std::vector<std::pair<std::string, std::string>>* sections) const {
  return SaveStateSections(
      [sections](std::string_view name, std::string_view payload) {
        sections->emplace_back(name, payload);
        return Status::OK();
      });
}

Status SimulationRunner::SaveSection(std::string_view name,
                                     ByteWriter* w) const {
  if (name == "sim") return simulator_.SaveState(w);
  if (name == "cluster") {
    cluster_.SaveState(w);
  } else if (name == "demand") {
    demand_->SaveState(w);
  } else if (name == "archive") {
    archive_.SaveState(w);
  } else if (name == "monitor") {
    monitoring_->SaveState(w);
  } else if (name == "pool_stats") {
    pool_stats_.SaveState(w);
  } else if (name == "executor") {
    executor_->SaveState(w);
  } else if (name == "sla") {
    slas_.SaveState(w);
  } else if (name == "strategy") {
    strategy_->SaveState(w);
  } else if (name == "faults") {
    fault_injector_->SaveState(w);
    recovery_->SaveState(w);
    availability_->SaveState(w);
  } else if (name == "runner") {
    SaveRunnerSection(w);
  } else if (name == "metrics") {
    WriteMetricsSnapshot(w, metrics_snapshot());
  } else {
    return Status::Internal(StrFormat("no state section \"%s\"",
                                      std::string(name).c_str()));
  }
  return Status::OK();
}

void SimulationRunner::SaveRunnerSection(ByteWriter* w) const {
  // RunMetrics, declaration order; the overload totals are the
  // ledger's live values (metrics_ holds them as of the last fold).
  w->F64(ledger_.overload_minutes(0));
  w->F64(ledger_.max_streak(0));
  w->F64(metrics_.overload_fraction);
  w->F64(metrics_.lost_work_wu);
  w->F64(metrics_.average_cpu_load);
  w->I64(metrics_.triggers);
  w->I64(metrics_.actions_executed);
  w->I64(metrics_.actions_failed);
  w->I64(metrics_.alerts);
  w->I64(metrics_.failures_injected);
  w->I64(metrics_.failures_remedied);
  w->F64(metrics_.sla_violation_minutes);
  w->I64(metrics_.oscillations);
  w->I64(metrics_.strategy_reward_updates);
  w->I64(metrics_.strategy_weight_updates);
  // Message log (the console view must survive a restore).
  w->U32(static_cast<uint32_t>(messages_.size()));
  for (const std::string& message : messages_) w->Str(message);
  // Oscillation-detection history.
  w->U32(static_cast<uint32_t>(action_history_.size()));
  for (const auto& [service, history] : action_history_) {
    w->Str(service);
    w->U8(static_cast<uint8_t>(history.last_scale));
    w->I64(history.last_scale_at.seconds());
    w->U8(static_cast<uint8_t>(history.last_priority));
    w->I64(history.last_priority_at.seconds());
    w->Str(history.last_move_source);
    w->Str(history.last_move_target);
    w->I64(history.last_move_at.seconds());
  }
  // Per-server smoothing rings (stored in physical ring order; head
  // and count reproduce the exact eviction sequence) and load sums.
  ledger_.SaveState(w);
  // Heartbeat reconciliation: the epoch the monitor's instance
  // watches reflect (the watches are the monitor's).
  w->U64(watched_epoch_);
  degraded_.SaveState(w);
}

Result<sim::Simulator::Callback> SimulationRunner::RebuildCallback(
    const sim::EventDesc& desc) {
  if (desc.kind == "runner.tick") {
    return sim::Simulator::Callback([this] { OnTick(); });
  }
  if (desc.kind == "runner.warmup_end") {
    return sim::Simulator::Callback([this] { OnWarmupEnd(); });
  }
  if (desc.kind == "executor.running") {
    return executor_->MakeRunningCallback(
        static_cast<infra::InstanceId>(desc.a));
  }
  if (desc.kind == "injector.fault" || desc.kind == "injector.repair") {
    if (fault_injector_ == nullptr) {
      return Status::ParseError(
          "snapshot carries fault-injector events but the fault "
          "subsystem is off (fault plan mismatch)");
    }
    if (desc.kind == "injector.repair") {
      return fault_injector_->MakeRepairCallback(std::string(desc.str));
    }
    faults::FaultEvent event;
    event.at = simulator_.now();  // unused by Execute; armed for clarity
    event.kind = static_cast<faults::FaultKind>(desc.x);
    event.subject = std::string(desc.str);
    event.duration = desc.dur;
    return fault_injector_->MakeFaultCallback(std::move(event));
  }
  if (desc.kind == "recovery.backoff" || desc.kind == "recovery.watchdog") {
    if (recovery_ == nullptr) {
      return Status::ParseError(
          "snapshot carries recovery events but the fault subsystem "
          "is off (fault plan mismatch)");
    }
    if (desc.kind == "recovery.backoff") {
      return recovery_->MakeBackoffCallback(
          desc.a, static_cast<infra::InstanceId>(desc.b));
    }
    return recovery_->MakeWatchdogCallback(
        desc.a, static_cast<infra::InstanceId>(desc.b));
  }
  return Status::ParseError(StrFormat(
      "unknown event descriptor kind \"%s\"",
      std::string(desc.kind).c_str()));
}

Status SimulationRunner::RestoreStateSections(SectionSource* source) {
  if (!initialized_) {
    return Status::FailedPrecondition("runner not initialized");
  }
  auto find = [source](std::string_view name) -> Result<std::string_view> {
    if (!source->Has(name)) {
      return Status::ParseError(
          StrFormat("snapshot is missing section \"%s\"",
                    std::string(name).c_str()));
    }
    return source->Read(name);
  };
  const bool has_faults_section = source->Has("faults");
  if (has_faults_section != config_.fault_plan.has_value()) {
    return Status::ParseError(
        has_faults_section
            ? "snapshot has a faults section but this config has no "
              "fault plan"
            : "config has a fault plan but the snapshot has no faults "
              "section");
  }

  // Order matters: topology before anything that references it, the
  // archive before the monitor (subjects hold series handles), and the
  // simulator last — its callback factory needs every subsystem
  // already restored.
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("cluster"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(cluster_.RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("demand"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(demand_->RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("archive"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(archive_.RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("monitor"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(monitoring_->RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("pool_stats"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(pool_stats_.RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("executor"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(executor_->RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("sla"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(slas_.RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("strategy"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(strategy_->RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  if (config_.fault_plan.has_value()) {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("faults"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(fault_injector_->RestoreState(&r));
    AG_RETURN_IF_ERROR(recovery_->RestoreState(&r));
    AG_RETURN_IF_ERROR(availability_->RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("runner"));
    ByteReader r(payload);
    AG_ASSIGN_OR_RETURN(metrics_.overload_server_minutes, r.F64());
    AG_ASSIGN_OR_RETURN(metrics_.max_overload_streak_minutes, r.F64());
    AG_ASSIGN_OR_RETURN(metrics_.overload_fraction, r.F64());
    AG_ASSIGN_OR_RETURN(metrics_.lost_work_wu, r.F64());
    AG_ASSIGN_OR_RETURN(metrics_.average_cpu_load, r.F64());
    AG_ASSIGN_OR_RETURN(metrics_.triggers, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.actions_executed, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.actions_failed, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.alerts, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.failures_injected, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.failures_remedied, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.sla_violation_minutes, r.F64());
    AG_ASSIGN_OR_RETURN(metrics_.oscillations, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.strategy_reward_updates, r.I64());
    AG_ASSIGN_OR_RETURN(metrics_.strategy_weight_updates, r.I64());
    AG_ASSIGN_OR_RETURN(uint32_t message_count, r.U32());
    AG_RETURN_IF_ERROR(r.CheckCount(message_count, 4));
    messages_.clear();
    messages_.reserve(message_count);
    for (uint32_t i = 0; i < message_count; ++i) {
      AG_ASSIGN_OR_RETURN(std::string message, r.Str());
      messages_.push_back(std::move(message));
    }
    AG_ASSIGN_OR_RETURN(uint32_t history_count, r.U32());
    // Service prefix, two bytes, three timestamps, two string prefixes.
    AG_RETURN_IF_ERROR(r.CheckCount(history_count, 4 + 2 + 3 * 8 + 2 * 4));
    action_history_.clear();
    for (uint32_t i = 0; i < history_count; ++i) {
      AG_ASSIGN_OR_RETURN(std::string service, r.Str());
      ActionHistory history;
      AG_ASSIGN_OR_RETURN(uint8_t last_scale, r.U8());
      history.last_scale = static_cast<infra::ActionType>(last_scale);
      AG_ASSIGN_OR_RETURN(int64_t scale_at, r.I64());
      history.last_scale_at = SimTime::FromSeconds(scale_at);
      AG_ASSIGN_OR_RETURN(uint8_t last_priority, r.U8());
      history.last_priority = static_cast<infra::ActionType>(last_priority);
      AG_ASSIGN_OR_RETURN(int64_t priority_at, r.I64());
      history.last_priority_at = SimTime::FromSeconds(priority_at);
      AG_ASSIGN_OR_RETURN(history.last_move_source, r.Str());
      AG_ASSIGN_OR_RETURN(history.last_move_target, r.Str());
      AG_ASSIGN_OR_RETURN(int64_t move_at, r.I64());
      history.last_move_at = SimTime::FromSeconds(move_at);
      action_history_.emplace(std::move(service), std::move(history));
    }
    AG_RETURN_IF_ERROR(ledger_.RestoreState(&r));
    ledger_.RestoreTotals(metrics_.overload_server_minutes,
                          metrics_.max_overload_streak_minutes);
    AG_ASSIGN_OR_RETURN(watched_epoch_, r.U64());
    AG_RETURN_IF_ERROR(degraded_.RestoreState(&r));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  // Watches that claim to reflect the restored topology must be its
  // instances: the heartbeat feed beats each instance's watch without
  // reconciling first.
  if (fault_injector_ != nullptr &&
      watched_epoch_ == cluster_.topology_epoch() &&
      !std::ranges::equal(
          monitoring_->instance_watches(), cluster_.Index().Instances(), {},
          &monitor::LoadMonitoringSystem::InstanceWatch::instance,
          &infra::InstanceRef::id)) {
    return Status::ParseError(
        "heartbeat instance watches differ from the restored instances");
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("metrics"));
    ByteReader r(payload);
    obs::MetricsSnapshot snapshot;
    AG_RETURN_IF_ERROR(ReadMetricsSnapshot(&r, &snapshot));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
    // The registry takes back its own instruments. Every other counter
    // is a copy of a book restored above, and must agree with it.
    const std::vector<std::pair<std::string, uint64_t>> owners =
        OwnerCounters();
    std::vector<std::pair<std::string, uint64_t>> counters =
        std::move(snapshot.counters);
    snapshot.counters.clear();
    for (auto& [name, value] : counters) {
      auto owner = std::find_if(
          owners.begin(), owners.end(),
          [&name](const auto& counter) { return counter.first == name; });
      if (owner == owners.end()) {
        snapshot.counters.emplace_back(std::move(name), value);
      } else if (owner->second != value) {
        return Status::ParseError(StrFormat(
            "metrics counter \"%s\" is %llu but its owner's restored "
            "state counts %llu",
            name.c_str(), static_cast<unsigned long long>(value),
            static_cast<unsigned long long>(owner->second)));
      }
    }
    AG_RETURN_IF_ERROR(registry_.Restore(snapshot));
  }
  {
    AG_ASSIGN_OR_RETURN(std::string_view payload, find("sim"));
    ByteReader r(payload);
    AG_RETURN_IF_ERROR(simulator_.RestoreState(
        &r, [this](const sim::EventDesc& desc) {
          return RebuildCallback(desc);
        }));
    AG_RETURN_IF_ERROR(r.ExpectEnd());
  }
  return Status::OK();
}

}  // namespace autoglobe
