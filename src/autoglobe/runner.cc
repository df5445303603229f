#include "autoglobe/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe {

using monitor::LoadMonitoringSystem;
using monitor::Trigger;
using monitor::TriggerKind;

/// LoadView backed by the archive (watch-time means per §4.1) and the
/// live demand engine; optionally replaces server/service loads with
/// forecasts for the proactive-controller ablation. Server ids are the
/// cluster index's dense ids — the ranks of `server_names_`, fixed
/// after Init — and so are the servers' monitoring subject ids, so a
/// candidate host's load is read through the subject's cached archive
/// handle and the monitor's key, with no name search.
class SimulationRunner::View : public controller::LoadView {
 public:
  View(SimulationRunner* runner) : runner_(runner) {}

  double ServerCpuLoad(infra::DenseId server) const override {
    return SubjectLoad(server, runner_->demand_->ServerCpuLoadById(server));
  }
  double ServerMemLoad(infra::DenseId server) const override {
    // Memory load changes stepwise with placements; the live value is
    // the honest signal.
    return runner_->demand_->ServerMemLoadById(server);
  }
  double InstanceLoad(infra::InstanceId id) const override {
    return runner_->demand_->InstanceLoad(id);
  }
  double ServiceLoad(std::string_view service) const override {
    infra::DenseId id = runner_->cluster_.Index().ServiceIdOf(service);
    double live = runner_->demand_->ServiceLoadById(id);
    if (id == infra::kNoDenseId) return live;
    return SubjectLoad(runner_->ServiceSubject(id), live);
  }

 private:
  double SubjectLoad(monitor::SubjectId subject, double live) const {
    SimTime now = runner_->simulator_.now();
    // Dirty tracking may hold a quiescent subject's recent samples
    // compressed outside the archive — replay them before reading, so
    // the watch-time mean is computed over the complete series.
    AG_CHECK_OK(runner_->monitoring_->MaterializeSubject(subject));
    monitor::LoadArchive::Handle series =
        runner_->monitoring_->SeriesOf(subject);
    double current = live;
    if (series) {
      auto mean = runner_->archive_.Average(
          series, runner_->config_.monitor.overload_watch_time, now);
      if (mean.ok()) current = *mean;
    }
    if (runner_->config_.use_forecast && runner_->forecaster_ != nullptr) {
      // Proactive mode reacts to *imminent* overloads: the controller
      // sees whichever is worse, the trailing mean or the prediction —
      // forecasting must never hide a live overload.
      auto forecast = runner_->forecaster_->Forecast(
          runner_->monitoring_->Key(subject), now);
      if (forecast.ok()) return std::max(current, *forecast);
    }
    return current;
  }

  SimulationRunner* runner_;
};

namespace {

/// The archive capacity hints of a run: the raw samples one window can
/// hold (the shorter of retention and duration at one sample per tick,
/// both ends included) and the run's aggregate buckets, each plus two.
/// Needs a positive tick and bucket.
size_t ArchiveRawHint(const RunnerConfig& config) {
  return static_cast<size_t>(
             std::min(config.archive_retention, config.duration).seconds() /
             config.tick.seconds()) +
         2;
}

size_t ArchiveAggregateHint(const RunnerConfig& config) {
  return static_cast<size_t>(config.duration.seconds() /
                             config.archive_bucket.seconds()) +
         2;
}

}  // namespace

Status RunnerConfig::Validate() const {
  if (duration <= Duration::Zero()) {
    return Status::InvalidArgument("duration must be positive");
  }
  if (!std::isfinite(user_scale) || user_scale < 0) {
    return Status::InvalidArgument(
        "user_scale must be finite and non-negative");
  }
  // The hints below divide by the tick and the bucket width, and a
  // negative retention would evict every sample as it arrives.
  if (tick <= Duration::Zero()) {
    return Status::InvalidArgument("tick must be positive");
  }
  if (archive_bucket <= Duration::Zero()) {
    return Status::InvalidArgument("archive_bucket must be positive");
  }
  if (archive_retention < Duration::Zero()) {
    return Status::InvalidArgument("archive_retention must not be negative");
  }
  // A run too long for its history to be reserved is refused here
  // rather than dying of bad_alloc at the first spill.
  return monitor::LoadArchive::CheckCapacityHints(
      ArchiveRawHint(*this), ArchiveAggregateHint(*this));
}

SimulationRunner::SimulationRunner(RunnerConfig config)
    : config_(config),
      archive_(config.archive_retention, config.archive_bucket),
      degraded_(config.degraded) {}

SimulationRunner::~SimulationRunner() = default;

Result<std::unique_ptr<SimulationRunner>> SimulationRunner::Create(
    const Landscape& landscape, RunnerConfig config) {
  std::unique_ptr<SimulationRunner> runner(new SimulationRunner(config));
  AG_RETURN_IF_ERROR(runner->Init(landscape));
  return runner;
}

Status SimulationRunner::Init(const Landscape& landscape) {
  AG_RETURN_IF_ERROR(config_.Validate());
  // Observability first: the registry is always on (inert-handle cost
  // only), tracing/audit are created on demand and handed to every
  // component below as it is built.
  server_cpu_load_ = registry_.AddHistogram(
      "server_cpu_load",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  if (config_.observability.enable_tracing) {
    trace_ = std::make_unique<obs::TraceBuffer>(
        config_.observability.trace_capacity);
    simulator_.set_trace_buffer(trace_.get());
  }
  if (config_.observability.enable_audit) {
    audit_ = std::make_unique<obs::AuditLog>(
        config_.observability.audit_capacity);
  }

  demand_ = std::make_unique<workload::DemandEngine>(&cluster_,
                                                     Rng(config_.seed));
  demand_->SeedRng(config_.seed, config_.rng_kind);
  AG_RETURN_IF_ERROR(landscape.Build(&cluster_, demand_.get()));
  demand_->set_user_scale(config_.user_scale);
  demand_->set_distribution(config_.distribution);
  demand_->set_fluctuation_per_minute(config_.fluctuation_per_minute);
  demand_->set_overload_threshold(config_.overload_threshold);

  // The overload books, per server in dense-id order.
  AG_RETURN_IF_ERROR(ledger_.Init(cluster_.Index().num_servers(),
                                  /*lanes=*/1,
                                  config_.tick, config_.overload_smoothing,
                                  config_.overload_threshold));
  // A series whose raw or aggregate runs spill reserves the samples
  // one window can hold, or the whole run's buckets, at once, so
  // steady-state appends never grow its runs. Quiescent series keep
  // their runs inline and reserve nothing.
  archive_.set_capacity_hints(ArchiveRawHint(config_),
                              ArchiveAggregateHint(config_));
  // The proactive ablation reads forecasts (hence the archive) before
  // every observation — carry-forward compression would serve it
  // stale series, so it runs with the exhaustive evaluation path.
  if (config_.use_forecast) config_.monitor.dirty_tracking = false;

  monitoring_ = std::make_unique<LoadMonitoringSystem>(&archive_,
                                                       config_.monitor);
  // Subjects in dense-id order, servers first: server i becomes
  // subject i and service j subject servers + j (ServiceSubject), so
  // the per-tick loops need no id lookups.
  const infra::LandscapeIndex& index = cluster_.Index();
  server_names_.reserve(index.num_servers());
  for (size_t i = 0; i < index.num_servers(); ++i) {
    const infra::ServerSpec& server =
        index.Server(static_cast<infra::DenseId>(i));
    AG_RETURN_IF_ERROR(monitoring_->RegisterSubject(
        TriggerKind::kServerOverloaded, server.name,
        server.performance_index));
    server_names_.push_back(server.name);
  }
  service_names_.reserve(index.num_services());
  for (size_t j = 0; j < index.num_services(); ++j) {
    const infra::ServiceSpec& service =
        index.Service(static_cast<infra::DenseId>(j));
    std::optional<Duration> watch_override;
    if (service.watch_time_minutes > 0) {
      watch_override = Duration::Minutes(service.watch_time_minutes);
    }
    AG_RETURN_IF_ERROR(monitoring_->RegisterSubject(
        TriggerKind::kServiceOverloaded, service.name, 1.0,
        watch_override));
    service_names_.push_back(service.name);
  }
  monitoring_->set_trigger_callback(
      [this](const Trigger& trigger) { OnTrigger(trigger); });
  monitoring_->set_trace_buffer(trace_.get());

  executor_ = std::make_unique<infra::ActionExecutor>(&cluster_,
                                                      &simulator_,
                                                      config_.executor);
  executor_->set_trace_buffer(trace_.get());
  executor_->set_audit_log(audit_.get());
  // Two statements: the registration order is the published order.
  obs::Counter failed = registry_.AddCounter("executor_actions_failed_total");
  obs::Counter retries = registry_.AddCounter("executor_retries_total");
  executor_->set_metrics(failed, retries);
  executor_->AddListener([this](const infra::ActionRecord& record) {
    if (record.status.ok()) {
      ++metrics_.actions_executed;
      TrackOscillation(record);
      messages_.push_back(StrFormat("%s  EXEC %s",
                                    record.at.ToString().c_str(),
                                    record.action.ToString().c_str()));
    } else {
      ++metrics_.actions_failed;
    }
  });

  view_ = std::make_unique<View>(this);
  forecaster_ = std::make_unique<forecast::LoadForecaster>(
      &archive_, config_.forecast);
  AG_ASSIGN_OR_RETURN(
      controller::Controller controller,
      controller::Controller::Create(&cluster_, executor_.get(),
                                     view_.get(), config_.controller));
  controller_ =
      std::make_unique<controller::Controller>(std::move(controller));
  controller_->set_audit_log(audit_.get());
  // Hierarchical per-pool aggregates: fed every tick from the
  // smoothed server loads; the controller consults them when its
  // pool prescreen is enabled. The pool layout is fixed after Init
  // (the server set never changes mid-run), so one Reset suffices.
  pool_stats_.Reset(&cluster_.Index());
  controller_->set_pool_stats(&pool_stats_);
  controller_->set_alert_callback(
      [this](const Trigger& trigger, const std::string& reason) {
        ++metrics_.alerts;
        if (trace_ != nullptr) {
          trace_->Record(trigger.at, obs::TraceEventKind::kAlert,
                         "administrator-alert",
                         StrFormat("%s(%s): %s",
                                   std::string(monitor::TriggerKindName(
                                                   trigger.kind))
                                       .c_str(),
                                   trigger.subject.c_str(),
                                   reason.c_str()));
        }
        messages_.push_back(StrFormat(
            "%s  ALERT %s(%s): %s", trigger.at.ToString().c_str(),
            std::string(monitor::TriggerKindName(trigger.kind)).c_str(),
            trigger.subject.c_str(), reason.c_str()));
      });

  // The decide-per-trigger strategy. Always constructed — the default
  // static-fuzzy one is a pass-through wrapper around controller_, so
  // default runs stay bit-identical to the pre-strategy engine. The
  // penalty closure is the learner's reward signal: cumulative
  // SLA-violation minutes plus overload minutes plus a small per-
  // action cost (discourages thrash; reversals also show up in the
  // oscillation metric).
  strategy::StrategyEnv strategy_env;
  strategy_env.controller = controller_.get();
  strategy_env.cluster = &cluster_;
  strategy_env.executor = executor_.get();
  strategy_env.view = view_.get();
  strategy_env.seed = config_.seed;
  strategy_env.penalty = [this] {
    return slas_.TotalViolationMinutes() + ledger_.overload_minutes(0) +
           0.1 * static_cast<double>(metrics_.actions_executed +
                                     metrics_.actions_failed);
  };
  AG_ASSIGN_OR_RETURN(strategy_,
                      strategy::MakeStrategy(config_.strategy,
                                             strategy_env));

  for (const SlaSpec& sla : config_.slas) {
    AG_RETURN_IF_ERROR(cluster_.FindService(sla.service).status());
    AG_RETURN_IF_ERROR(slas_.AddSla(sla));
  }
  if (!config_.reservations.empty()) {
    for (const controller::Reservation& reservation :
         config_.reservations) {
      AG_RETURN_IF_ERROR(
          cluster_.FindServer(reservation.server).status());
      AG_RETURN_IF_ERROR(reservations_.Add(reservation).status());
    }
    controller_->set_reservations(&reservations_);
  }

  if (config_.fault_plan.has_value()) {
    // Fault subsystem: injector (breaks things), heartbeat detection
    // (notices), recovery manager (heals), availability tracker
    // (keeps score). All of it event-driven, so fault runs stay
    // bit-identical at any parallelism.
    availability_ =
        std::make_unique<faults::AvailabilityTracker>(config_.availability);
    fault_injector_ = std::make_unique<faults::FaultInjector>(
        &cluster_, &simulator_, config_.seed);
    fault_injector_->set_trace_buffer(trace_.get());
    fault_injector_->set_availability_tracker(availability_.get());
    AG_RETURN_IF_ERROR(fault_injector_->Arm(*config_.fault_plan));
    executor_->set_failure_injector([this](const infra::Action& action) {
      return fault_injector_->CheckAction(action);
    });

    recovery_ = std::make_unique<faults::RecoveryManager>(
        &cluster_, &simulator_, executor_.get(), controller_.get(),
        config_.recovery);
    recovery_->set_trace_buffer(trace_.get());
    recovery_->set_audit_log(audit_.get());
    recovery_->set_availability_tracker(availability_.get());
    recovery_->set_alert_callback(
        [this](SimTime at, const std::string& reason) {
          ++metrics_.alerts;
          messages_.push_back(StrFormat("%s  ALERT recovery: %s",
                                        at.ToString().c_str(),
                                        reason.c_str()));
        });
    controller_->set_host_filter([this](const std::string& server) {
      return recovery_->FilterHost(server);
    });

    // Heartbeat watches: every server (a server's dense id is its
    // subject id), then the initial instances through the
    // reconciliation that keeps the watches in step with the topology
    // during the run.
    for (size_t i = 0; i < server_names_.size(); ++i) {
      AG_RETURN_IF_ERROR(monitoring_->WatchServer(
          static_cast<monitor::SubjectId>(i), SimTime::Start()));
    }
    ReconcileInstanceWatches(SimTime::Start());
  }

  // The periodic tick re-arms in place; pre-sizing the event heap
  // keeps occasional action/fault scheduling from regrowing it.
  simulator_.ReserveEvents(64);
  sim::EventDesc tick_desc;
  tick_desc.kind = "runner.tick";
  AG_RETURN_IF_ERROR(simulator_
                         .SchedulePeriodic(config_.tick, "tick", tick_desc,
                                           [this] { OnTick(); })
                         .status());
  if (config_.metrics_warmup > Duration::Zero()) {
    sim::EventDesc warmup_desc;
    warmup_desc.kind = "runner.warmup_end";
    AG_RETURN_IF_ERROR(
        simulator_
            .ScheduleAfter(config_.metrics_warmup, "metrics-warmup-end",
                           warmup_desc, [this] { OnWarmupEnd(); })
            .status());
  }
  initialized_ = true;
  return Status::OK();
}

void SimulationRunner::OnWarmupEnd() {
  demand_->ResetQualityMetrics();
  ledger_.ResetWarmup();
}

void SimulationRunner::OnTick() {
  SimTime now = simulator_.now();
  // Wall-clock tick deadline (degraded mode): sampled only when the
  // deadline is configured — it reads the host's real clock, so runs
  // with it enabled are not deterministic.
  std::chrono::steady_clock::time_point tick_started{};
  if (config_.degraded.enabled && config_.degraded.tick_deadline_ms > 0.0) {
    tick_started = std::chrono::steady_clock::now();
  }

  demand_->Tick(now, config_.tick);

  // Metrics and monitoring feeds. The overload verdict uses a
  // smoothed load so that a single noisy sample does not count as an
  // "overloaded" minute (the paper's criterion is sustained load).
  // The dense server ids enumerate sorted names — the exact layout of
  // server_names_ and the ledger resolved at Init. Names come from the
  // runner's own snapshot (not the landscape index) because a trigger
  // fired inside Observe can mutate topology and rebuild the index
  // mid-loop; the server/service *sets* are fixed after Init, so the
  // dense ids themselves stay stable.
  for (size_t position = 0; position < server_names_.size(); ++position) {
    infra::DenseId server_id = static_cast<infra::DenseId>(position);
    // The ledger reads the engine's 1-lane row in place.
    const double* cpu_row = demand_->ServerCpuRow(server_id);
    double cpu = *cpu_row;
    server_cpu_load_.Observe(cpu);
    // The pool stats and any trigger fired by this observation see the
    // books as of this server, exactly as the tick reaches it.
    ledger_.Step(position, cpu_row);
    pool_stats_.Update(server_id, ledger_.Smoothed(position, 0));
    // A server's dense id is its subject id.
    AG_CHECK_OK(monitoring_->ObserveById(now, server_id, cpu,
                                         DetectionLoad(server_id, cpu)));
  }
  ledger_.EndTick();
  for (size_t position = 0; position < service_names_.size(); ++position) {
    infra::DenseId service_id = static_cast<infra::DenseId>(position);
    double service_load = demand_->ServiceLoadById(service_id);
    monitor::SubjectId subject = ServiceSubject(service_id);
    AG_CHECK_OK(monitoring_->ObserveById(
        now, subject, service_load, DetectionLoad(subject, service_load)));
  }

  // Heartbeats + failure detection (fault subsystem only). Fed after
  // the load observes so detections fire on a fully updated picture.
  if (fault_injector_ != nullptr) FeedHeartbeats(now);

  // Degraded-mode watchdog: when the control plane itself is unwell —
  // a monitor-dropout storm blinds detection, or this tick overran its
  // wall-clock deadline — flip to the urgent-only posture before any
  // more decisions are made. SLA escalations (below) and failure
  // recovery stay live either way.
  if (config_.degraded.enabled) {
    int silent_servers = 0;
    if (fault_injector_ != nullptr) {
      for (std::string_view server : server_names_) {
        if (cluster_.IsServerUp(server) &&
            !fault_injector_->IsReporting(server, now)) {
          ++silent_servers;
        }
      }
    }
    double tick_wall_ms = 0.0;
    if (config_.degraded.tick_deadline_ms > 0.0) {
      tick_wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - tick_started)
                         .count();
    }
    int change = degraded_.ObserveTick(silent_servers, tick_wall_ms);
    if (change != 0) {
      const char* verb = change > 0 ? "ENTER" : "EXIT";
      messages_.push_back(StrFormat(
          "%s  %s degraded mode (%d silent server(s), tick %.1f ms)",
          now.ToString().c_str(), verb, silent_servers, tick_wall_ms));
      if (audit_ != nullptr) {
        obs::DecisionAudit record;
        record.at = now;
        record.trigger_kind = "degraded-mode";
        record.subject = "control-plane";
        record.strategy = "watchdog";
        record.verdict = StrFormat(
            "%s degraded mode: %d silent server(s), tick %.1f ms "
            "(storm threshold %d, deadline %.1f ms)",
            change > 0 ? "entered" : "exited", silent_servers,
            tick_wall_ms, config_.degraded.dropout_storm_threshold,
            config_.degraded.tick_deadline_ms);
        audit_->Add(std::move(record));
      }
    }
  }

  // SLA monitoring and enforcement (QoS extension, §7).
  for (const SlaSpec& sla : config_.slas) {
    auto entered = slas_.Observe(
        now, sla.service, demand_->ServiceSatisfaction(sla.service),
        config_.tick);
    if (!entered.ok() || !*entered) continue;
    double satisfaction =
        (*slas_.StatusOf(sla.service))->current_satisfaction;
    if (trace_ != nullptr) {
      trace_->Record(now, obs::TraceEventKind::kSlaViolation, sla.service,
                     StrFormat("satisfaction %.1f%% < %.1f%%",
                               satisfaction * 100.0,
                               sla.min_satisfaction * 100.0));
    }
    messages_.push_back(StrFormat("%s  SLA-VIOLATION %s (%.1f%% < %.1f%%)",
                                  now.ToString().c_str(),
                                  sla.service.c_str(),
                                  satisfaction * 100.0,
                                  sla.min_satisfaction * 100.0));
    if (config_.enforce_slas && config_.controller_enabled) {
      // The breach is confirmed harm; escalate without a watchTime and
      // override the subject's own protection window.
      Trigger trigger{TriggerKind::kServiceOverloaded, sla.service, now,
                      demand_->ServiceLoad(sla.service)};
      ++metrics_.triggers;
      auto outcome = strategy_->HandleTrigger(trigger, /*urgent=*/true);
      if (!outcome.ok()) {
        messages_.push_back(StrFormat(
            "%s  ERROR handling SLA escalation: %s",
            now.ToString().c_str(),
            outcome.status().ToString().c_str()));
      }
    }
  }

  if (sample_hook_) sample_hook_(now, *demand_, cluster_);
}

std::optional<double> SimulationRunner::DetectionLoad(
    monitor::SubjectId subject, double live) const {
  if (!config_.use_forecast || forecaster_ == nullptr) return std::nullopt;
  auto forecast =
      forecaster_->Forecast(monitoring_->Key(subject), simulator_.now());
  if (!forecast.ok()) return std::nullopt;
  // Imminent overloads arm the watch early; live overloads always do.
  return std::max(live, *forecast);
}

void SimulationRunner::OnTrigger(const Trigger& trigger) {
  ++metrics_.triggers;
  if (trigger.kind == TriggerKind::kInstanceFailed ||
      trigger.kind == TriggerKind::kServerFailed) {
    // Failure triggers bypass the fuzzy action selection: recovery is
    // procedural (restart, relocate, evacuate), not a policy
    // trade-off. The self-healing path works even with the load
    // controller disabled — availability is not negotiable.
    if (recovery_ == nullptr) return;
    messages_.push_back(StrFormat(
        "%s  DETECT %s(%s)", trigger.at.ToString().c_str(),
        std::string(monitor::TriggerKindName(trigger.kind)).c_str(),
        trigger.subject.c_str()));
    if (trigger.kind == TriggerKind::kInstanceFailed) {
      recovery_->OnInstanceFailed(trigger.instance, trigger.at);
    } else {
      recovery_->OnServerFailed(trigger.subject, trigger.at);
    }
    return;
  }
  if (!config_.controller_enabled) return;
  // Urgent-only posture: speculative rebalancing (overload/idle load
  // triggers) is frozen while degraded. Failure triggers never reach
  // this point, and SLA escalations call the strategy with urgent=true
  // directly — both stay live.
  if (degraded_.ShouldSuppress(/*urgent=*/false)) {
    degraded_.NoteSuppressed();
    messages_.push_back(StrFormat(
        "%s  SUPPRESS %s(%s): degraded mode, urgent-only posture",
        trigger.at.ToString().c_str(),
        std::string(monitor::TriggerKindName(trigger.kind)).c_str(),
        trigger.subject.c_str()));
    return;
  }
  auto outcome = strategy_->HandleTrigger(trigger, /*urgent=*/false);
  if (!outcome.ok()) {
    messages_.push_back(StrFormat("%s  ERROR handling trigger: %s",
                                  trigger.at.ToString().c_str(),
                                  outcome.status().ToString().c_str()));
    return;
  }
  if (trace_ != nullptr) {
    std::string detail;
    if (outcome->executed.has_value()) {
      detail = StrFormat("executed %s",
                         outcome->executed->ToString().c_str());
    } else if (outcome->skipped_protected) {
      detail = "skipped (subject protected)";
    } else if (outcome->alerted) {
      detail = "alerted";
    } else {
      detail = "no action";
    }
    trace_->Record(trigger.at, obs::TraceEventKind::kDecision,
                   "controller-decision",
                   StrFormat("%s(%s): %s",
                             std::string(monitor::TriggerKindName(
                                             trigger.kind))
                                 .c_str(),
                             trigger.subject.c_str(), detail.c_str()));
  }
}

void SimulationRunner::ReconcileInstanceWatches(SimTime now) {
  if (watched_epoch_ == cluster_.topology_epoch()) return;
  watched_epoch_ = cluster_.topology_epoch();
  // The index lists every live instance, and the monitor its instance
  // watches, in ascending id order, so one merge unwatches the gone
  // (removed or relocated away: the monitor must never raise a
  // trigger for a dead subject) and watches the new.
  auto watches = [this] { return monitoring_->instance_watches(); };
  size_t next = 0;  // the watch the merge is at
  for (const infra::InstanceRef& ref : cluster_.Index().Instances()) {
    while (next < watches().size() && watches()[next].instance < ref.id) {
      AG_CHECK_OK(monitoring_->UnwatchInstance(watches()[next].instance));
    }
    if (next == watches().size() || watches()[next].instance != ref.id) {
      AG_CHECK_OK(monitoring_->WatchInstance(
          ref.id, ServiceSubject(ref.service), now));
    }
    ++next;
  }
  while (watches().size() > next) {
    AG_CHECK_OK(monitoring_->UnwatchInstance(watches().back().instance));
  }
}

void SimulationRunner::FeedHeartbeats(SimTime now) {
  ReconcileInstanceWatches(now);
  // Server heartbeats: a down server is silent; a server in a
  // monitor-dropout window is healthy but silent (the false-positive
  // path detection must survive). A server's dense id is its subject
  // id.
  for (size_t position = 0; position < server_names_.size(); ++position) {
    std::string_view server = server_names_[position];
    if (cluster_.IsServerUp(server) &&
        fault_injector_->IsReporting(server, now)) {
      AG_CHECK_OK(monitoring_->RecordServerHeartbeat(
          static_cast<monitor::SubjectId>(position), now));
    }
  }
  // Instance heartbeats: an instance reports while its process lives
  // (starting or running) and its host's monitoring path is up. After
  // the reconcile the watches are exactly the index's instances.
  for (const infra::InstanceRef& ref : cluster_.Index().Instances()) {
    if (ref.instance->state == infra::InstanceState::kFailed) continue;
    const std::string& server = ref.instance->server;
    if (cluster_.IsServerUp(server) &&
        fault_injector_->IsReporting(server, now)) {
      AG_CHECK_OK(monitoring_->RecordInstanceHeartbeat(ref.id, now));
    }
  }
  monitoring_->CheckHeartbeats(now);
}

faults::AvailabilityReport SimulationRunner::availability_report() const {
  if (availability_ == nullptr) return faults::AvailabilityReport{};
  return availability_->Report(simulator_.now());
}

Status SimulationRunner::Run() {
  return RunUntil(SimTime::Start() + config_.duration);
}

Status SimulationRunner::RunUntil(SimTime end) {
  if (!initialized_) {
    return Status::FailedPrecondition("runner not initialized");
  }
  simulator_.RunUntil(end);
  // Flush carry-forward runs so everything downstream of the run —
  // console views, archive Save, figure benches — sees the complete
  // series.
  AG_RETURN_IF_ERROR(monitoring_->MaterializeAll());
  // Fold engine-level metrics.
  metrics_.lost_work_wu = demand_->TotalLostWork();
  if (config_.fault_plan.has_value()) {
    metrics_.failures_injected = fault_injector_->stats().instances_crashed;
    metrics_.failures_remedied = recovery_->stats().recovered;
  }
  metrics_.sla_violation_minutes = slas_.TotalViolationMinutes();
  double total_minutes =
      static_cast<double>(
          (simulator_.now() - (SimTime::Start() + config_.metrics_warmup))
              .seconds()) /
      60.0;
  ledger_.Fold(0, total_minutes, &metrics_);
  metrics_.strategy_reward_updates = strategy_->reward_updates();
  metrics_.strategy_weight_updates = strategy_->weight_updates();
  return Status::OK();
}

std::vector<std::pair<std::string, uint64_t>>
SimulationRunner::OwnerCounters() const {
  auto count = [](int64_t value) { return static_cast<uint64_t>(value); };
  int64_t sla_violations_entered = 0;
  for (const SlaStatus* status : slas_.Report()) {
    sla_violations_entered += status->violation_episodes;
  }
  faults::RecoveryStats recovery;
  if (recovery_ != nullptr) recovery = recovery_->stats();
  return {
      {"triggers_fired", count(metrics_.triggers)},
      {"actions_executed", count(metrics_.actions_executed)},
      {"actions_failed", count(metrics_.actions_failed)},
      {"alerts", count(metrics_.alerts)},
      {"sla_violations_entered", count(sla_violations_entered)},
      {"recoveries_total", count(recovery.recovered)},
      {"recovery_abandoned_total", count(recovery.abandoned)},
      {"oscillations", count(metrics_.oscillations)},
      {"strategy_reward_updates", count(metrics_.strategy_reward_updates)},
      {"strategy_weight_updates", count(metrics_.strategy_weight_updates)},
      {"degraded_mode_entries", count(degraded_.entries())},
      {"degraded_mode_ticks", count(degraded_.degraded_ticks())},
      {"degraded_mode_suppressed_triggers",
       count(degraded_.suppressed_triggers())},
  };
}

obs::MetricsSnapshot SimulationRunner::metrics_snapshot() const {
  obs::MetricsSnapshot snapshot = registry_.Snapshot();
  std::vector<std::pair<std::string, uint64_t>> counters = OwnerCounters();
  // The registry's own counters (the executor's) follow
  // sla_violations_entered, the fifth, as the published order has them.
  counters.insert(counters.begin() + 5, snapshot.counters.begin(),
                  snapshot.counters.end());
  snapshot.counters = std::move(counters);
  return snapshot;
}

void SimulationRunner::TrackOscillation(const infra::ActionRecord& record) {
  using infra::ActionType;
  const infra::Action& action = record.action;
  ActionHistory& history = action_history_[action.service];
  auto within_window = [&](SimTime then) {
    return record.at - then <= config_.oscillation_window;
  };
  switch (action.type) {
    case ActionType::kScaleOut:
    case ActionType::kScaleIn: {
      ActionType opposite = action.type == ActionType::kScaleOut
                                ? ActionType::kScaleIn
                                : ActionType::kScaleOut;
      if (history.last_scale == opposite &&
          within_window(history.last_scale_at)) {
        ++metrics_.oscillations;
      }
      history.last_scale = action.type;
      history.last_scale_at = record.at;
      break;
    }
    case ActionType::kIncreasePriority:
    case ActionType::kReducePriority: {
      ActionType opposite = action.type == ActionType::kIncreasePriority
                                ? ActionType::kReducePriority
                                : ActionType::kIncreasePriority;
      if (history.last_priority == opposite &&
          within_window(history.last_priority_at)) {
        ++metrics_.oscillations;
      }
      history.last_priority = action.type;
      history.last_priority_at = record.at;
      break;
    }
    case ActionType::kMove: {
      // A move that returns an instance of this service to the host a
      // previous move took it from is a ping-pong.
      if (!history.last_move_source.empty() &&
          action.target_server == history.last_move_source &&
          action.source_server == history.last_move_target &&
          within_window(history.last_move_at)) {
        ++metrics_.oscillations;
      }
      history.last_move_source = action.source_server;
      history.last_move_target = action.target_server;
      history.last_move_at = record.at;
      break;
    }
    default:
      break;
  }
}

}  // namespace autoglobe
