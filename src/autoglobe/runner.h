#ifndef AUTOGLOBE_AUTOGLOBE_RUNNER_H_
#define AUTOGLOBE_AUTOGLOBE_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "autoglobe/landscape.h"
#include "autoglobe/overload_ledger.h"
#include "autoglobe/sla.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/rng_kind.h"
#include "controller/controller.h"
#include "controller/degraded.h"
#include "faults/availability.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "faults/recovery.h"
#include "forecast/forecaster.h"
#include "infra/cluster.h"
#include "infra/executor.h"
#include "monitor/load_archive.h"
#include "monitor/monitoring.h"
#include "monitor/pool_stats.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"
#include "workload/demand.h"

namespace autoglobe {

class ByteWriter;

/// All knobs of one simulation run. Defaults follow paper §5.1: 1-min
/// sampling, 80 simulated hours, 70 % overload threshold with a
/// 10-min watchTime, idle threshold 12.5 %/PI with a 20-min
/// watchTime, 30-min protection.
struct RunnerConfig {
  Duration tick = Duration::Minutes(1);
  Duration duration = Duration::Hours(80);
  double user_scale = 1.0;
  uint64_t seed = 42;
  /// Which draw discipline produces workload noise. kXoshiro is the
  /// legacy sequential stream (all pinned goldens); kPhilox is the
  /// counter-based stream whose draws are a pure function of
  /// (seed, draw index) — order-independent, O(1) skip-ahead, and
  /// bit-identical between scalar, batched, and SIMD evaluation
  /// (DESIGN.md §16).
  RngKind rng_kind = RngKind::kXoshiro;

  monitor::MonitorConfig monitor;
  infra::ExecutorConfig executor;
  controller::ControllerConfig controller;

  /// Load-archive shape. Retention bounds each subject's raw window
  /// (retention / tick samples, held as runs of repeated values); a
  /// varying subject reserves room for the whole window once, so
  /// hyperscale sweeps shrink it. The runner sizes every series' spill
  /// from these at Init, so steady-state archive appends never touch
  /// the heap.
  Duration archive_retention = Duration::Hours(48);
  Duration archive_bucket = Duration::Minutes(15);

  /// False disables the whole control loop (the static scenario).
  bool controller_enabled = true;
  /// Sticky sessions (static/CM) vs dynamic redistribution (FM).
  workload::UserDistribution distribution =
      workload::UserDistribution::kStickySessions;
  /// Fraction of users per minute re-logging to the least-loaded
  /// instance (sticky-session scenarios).
  double fluctuation_per_minute = 0.01;

  /// Feed the controller forecasted loads instead of watch-time means
  /// (the proactive extension, ablation A5).
  bool use_forecast = false;
  forecast::ForecastConfig forecast;

  /// Evaluation threshold for the "overloaded" verdict (the paper
  /// calls a server overloaded at "more than 80 %" CPU "for a long
  /// time", §5.2). Judged on a smoothed (trailing-window mean) load
  /// so single noisy samples do not count.
  double overload_threshold = 0.8;
  /// Smoothing window for the overload verdict.
  Duration overload_smoothing = Duration::Minutes(15);

  /// Fault injection & self-healing — the simulator's only failure
  /// model (§2: "a program crash [is] remedied for example with a
  /// restart"). With a plan set, the FaultInjector arms it at Init,
  /// heartbeat-based failure detection is enabled in the monitor, and
  /// the RecoveryManager heals detected failures (restart with
  /// backoff, relocation, evacuation). Unset = all of it off, and the
  /// run is byte-identical to a build without the fault subsystem.
  std::optional<faults::FaultPlan> fault_plan;
  faults::RecoveryConfig recovery;
  faults::AvailabilityConfig availability;

  /// Quality metrics collected before this offset are discarded — the
  /// paper attributes the "remaining short overload peaks at the
  /// beginning" to watchTime cold start; verdicts judge steady state.
  Duration metrics_warmup = Duration::Zero();

  /// Service-level agreements to monitor (QoS extension, §7).
  std::vector<SlaSpec> slas;
  /// Explicit resource reservations for registered tasks (§7): the
  /// host-selection process treats reserved capacity as spoken-for.
  std::vector<controller::Reservation> reservations;
  /// With enforcement on, *entering* an SLA violation immediately
  /// escalates to the controller (synthetic overload trigger — the
  /// breach is confirmed harm, no watchTime needed); off = track only.
  bool enforce_slas = true;

  /// Structured tracing and the controller decision audit trail (both
  /// off by default; the metrics registry is always on — its disabled
  /// cost is a handful of plain single-writer adds per tick).
  obs::ObservabilityConfig observability;

  /// Degraded-mode watchdog (off by default): when monitor-dropout
  /// storms blind detection or ticks overrun their wall-clock
  /// deadline, the controller drops to an urgent-only posture — SLA
  /// escalations and failure recovery still run, speculative
  /// rebalancing is frozen until a hysteresis window of healthy ticks.
  controller::DegradedModeConfig degraded;

  /// Which decide-per-trigger policy drives the control loop. The
  /// default (static fuzzy) is the paper's controller, bit-identical
  /// to the pre-strategy engine; see src/strategy for the
  /// proportional baseline and the fuzzy Q-learner.
  strategy::StrategyConfig strategy;
  /// Window for the oscillation metric: a scale/priority reversal or
  /// a move back to the previous host within this window counts as
  /// one oscillation (the instability §4's protection mode exists to
  /// prevent).
  Duration oscillation_window = Duration::Minutes(60);

  /// InvalidArgument when no run could use this config: a duration or
  /// tick that is not positive, a user scale that is not a finite
  /// non-negative factor, an archive bucket that is not positive, a
  /// negative archive retention, or archive capacity hints one series
  /// could not reserve (LoadArchive::CheckCapacityHints). Both
  /// runners' Create call it before building anything.
  Status Validate() const;
};

/// Aggregate quality metrics of a run.
struct RunMetrics {
  /// Server-minutes with CPU load above the overload threshold.
  double overload_server_minutes = 0.0;
  /// Longest uninterrupted overload streak of any single server.
  double max_overload_streak_minutes = 0.0;
  /// Share of (server x minute) samples above the threshold.
  double overload_fraction = 0.0;
  /// Work dropped because instance backlogs overflowed (wu).
  double lost_work_wu = 0.0;
  /// Mean CPU load over all servers and ticks.
  double average_cpu_load = 0.0;
  int64_t triggers = 0;
  int64_t actions_executed = 0;
  int64_t actions_failed = 0;
  int64_t alerts = 0;
  /// Fault-plan instance crashes injected and failures healed by the
  /// RecoveryManager (0 without a fault plan).
  int64_t failures_injected = 0;
  int64_t failures_remedied = 0;
  /// Cumulative minutes any SLA spent in violation (QoS extension).
  double sla_violation_minutes = 0.0;
  /// Action reversals within the oscillation window: scale-out after
  /// scale-in (or vice versa), a priority raise after a cut (or vice
  /// versa), or a move back to the previous host — per service.
  int64_t oscillations = 0;
  /// Learner telemetry (0 unless the fuzzy Q-learning strategy ran).
  int64_t strategy_reward_updates = 0;
  int64_t strategy_weight_updates = 0;
};

/// Wires the full AutoGlobe stack — cluster, demand engine, load
/// monitors/archive, fuzzy controller, action executor — around the
/// simulation kernel and runs a scenario (the architecture of
/// Figure 2 driving the controlled infrastructure of Figure 4). Its
/// overload metrics come from a 1-lane OverloadLedger, the books
/// BatchRunner keeps with one lane per run.
class SimulationRunner {
 public:
  /// Called every tick after loads are updated; drives figure benches.
  using SampleHook =
      std::function<void(SimTime, const workload::DemandEngine&,
                         const infra::Cluster&)>;

  static Result<std::unique_ptr<SimulationRunner>> Create(
      const Landscape& landscape, RunnerConfig config);

  ~SimulationRunner();  // out-of-line: View is an incomplete type here

  /// Runs the configured duration to completion.
  Status Run();
  /// Runs until the given simulated time (incremental; may be called
  /// repeatedly).
  Status RunUntil(SimTime end);

  void set_sample_hook(SampleHook hook) { sample_hook_ = std::move(hook); }

  const RunMetrics& metrics() const { return metrics_; }
  const RunnerConfig& config() const { return config_; }

  infra::Cluster& cluster() { return cluster_; }
  const infra::Cluster& cluster() const { return cluster_; }
  workload::DemandEngine& demand() { return *demand_; }
  const workload::DemandEngine& demand() const { return *demand_; }
  monitor::LoadArchive& archive() { return archive_; }
  const monitor::LoadArchive& archive() const { return archive_; }
  monitor::LoadMonitoringSystem& monitoring() { return *monitoring_; }
  const monitor::LoadMonitoringSystem& monitoring() const {
    return *monitoring_;
  }
  /// Per-pool load aggregates, fed every tick (drives the
  /// controller's optional pool prescreen).
  const monitor::PoolLoadStats& pool_stats() const { return pool_stats_; }
  infra::ActionExecutor& executor() { return *executor_; }
  const infra::ActionExecutor& executor() const { return *executor_; }
  controller::Controller& controller() { return *controller_; }
  /// The strategy driving the control loop (always constructed; the
  /// default wraps the fuzzy controller unchanged).
  strategy::ControllerStrategy& strategy() { return *strategy_; }
  const strategy::ControllerStrategy& strategy() const {
    return *strategy_;
  }
  sim::Simulator& simulator() { return simulator_; }
  const sim::Simulator& simulator() const { return simulator_; }

  /// Messages emitted by the controller (action log + alerts), for
  /// the console's message view.
  const std::vector<std::string>& messages() const { return messages_; }

  /// SLA report (empty when no SLAs are configured).
  const SlaTracker& slas() const { return slas_; }

  /// The run's metrics as one snapshot, for BENCH_* sidecars or to
  /// merge across the FindCapacityAll worker pool. Each counter is read
  /// from its one book: the run counters from RunMetrics, the SLA
  /// tracker, the recovery stats and the degraded-mode watchdog; the
  /// executor's failure/retry counters and the server CPU-load
  /// histogram from the always-on registry, which keeps nothing else.
  obs::MetricsSnapshot metrics_snapshot() const;
  /// Trace buffer / audit log, or nullptr when the corresponding
  /// ObservabilityConfig switch is off.
  obs::TraceBuffer* trace_buffer() { return trace_.get(); }
  const obs::TraceBuffer* trace_buffer() const { return trace_.get(); }
  obs::AuditLog* audit_log() { return audit_.get(); }
  const obs::AuditLog* audit_log() const { return audit_.get(); }

  /// Fault subsystem handles, or nullptr when no fault plan is set.
  faults::FaultInjector* fault_injector() { return fault_injector_.get(); }
  faults::RecoveryManager* recovery_manager() { return recovery_.get(); }
  const faults::AvailabilityTracker* availability_tracker() const {
    return availability_.get();
  }
  /// Availability scorecard as of the current simulated time (empty
  /// report when the fault subsystem is off).
  faults::AvailabilityReport availability_report() const;

  /// Degraded-mode watchdog (inert unless RunnerConfig::degraded is
  /// enabled).
  const controller::DegradedModeController& degraded_mode() const {
    return degraded_;
  }

  // --- Checkpoint/restore (src/autoglobe/runner_persist.cc) -----------
  //
  // The runner's complete live state as named, independently
  // checksummable sections. A runner restored from the sections of a
  // checkpoint at tick T and run to the end is bit-identical to an
  // uninterrupted run — including RNG draws, pending simulator events,
  // learner state, and fault/recovery bookkeeping. The section payloads
  // are raw bytes; framing, checksums, and rotation live in src/persist.

  /// The state sections' names, in the order SaveStateSections emits
  /// them ("faults" only with a fault plan).
  std::vector<std::string_view> StateSectionNames() const;
  /// Receives one section: its name and payload. The payload view is
  /// valid only during the call.
  using SectionSink =
      std::function<Status(std::string_view name, std::string_view payload)>;
  /// Serializes each state section, in StateSectionNames() order, into
  /// one reused buffer and hands it to `sink`; the first error a sink
  /// returns stops the walk. Fails (FailedPrecondition) if a pending
  /// simulator event carries no re-arm descriptor — every schedule site
  /// in this codebase attaches one, so this only fires for foreign
  /// callbacks.
  Status SaveStateSections(const SectionSink& sink) const;
  /// Appends every state section as (name, payload) pairs.
  Status SaveStateSections(
      std::vector<std::pair<std::string, std::string>>* sections) const;

  /// Where RestoreStateSections reads a checkpoint's sections from.
  /// Read() may reuse one buffer for every section: RestoreState never
  /// keeps a view into a payload past its own section.
  class SectionSource {
   public:
    virtual ~SectionSource() = default;
    virtual bool Has(std::string_view name) const = 0;
    /// The named section's payload, valid until the next Read().
    virtual Result<std::string_view> Read(std::string_view name) = 0;
  };
  /// Restores from sections produced by SaveStateSections on a runner
  /// Create()d from the *same* landscape and config. Everything Init
  /// set up is overwritten; pending events are re-armed from their
  /// descriptors.
  Status RestoreStateSections(SectionSource* source);
  /// Fingerprint of the identity-defining configuration (landscape
  /// names, seed, rng plane, strategy kind, fault-plan presence) — a
  /// snapshot taken under one fingerprint refuses to restore under
  /// another.
  uint64_t StateFingerprint() const;

 private:
  explicit SimulationRunner(RunnerConfig config);

  Status Init(const Landscape& landscape);
  void OnTick();
  /// Warmup-end reset (one-shot event): discards quality metrics
  /// accumulated during the controller's cold start.
  void OnWarmupEnd();
  /// Serializes the named section into `w` (see StateSectionNames).
  Status SaveSection(std::string_view name, ByteWriter* w) const;
  void SaveRunnerSection(ByteWriter* w) const;
  /// Rebuilds pending-event callbacks from their re-arm descriptors
  /// during RestoreStateSections.
  Result<sim::Simulator::Callback> RebuildCallback(
      const sim::EventDesc& desc);
  std::optional<double> DetectionLoad(monitor::SubjectId subject,
                                      double live) const;
  /// Monitoring subject of a service (see server_names_).
  monitor::SubjectId ServiceSubject(infra::DenseId service) const {
    return static_cast<monitor::SubjectId>(server_names_.size()) + service;
  }
  void OnTrigger(const monitor::Trigger& trigger);
  /// Oscillation detection on every successfully executed action (see
  /// RunnerConfig::oscillation_window).
  void TrackOscillation(const infra::ActionRecord& record);
  /// The metrics-snapshot counters whose books live outside the
  /// registry, by name, in published order; the registry's own
  /// counters follow the fifth (sla_violations_entered).
  std::vector<std::pair<std::string, uint64_t>> OwnerCounters() const;
  /// Heartbeat-watch reconciliation against the topology epoch: new
  /// instances get a watch, removed instances are unwatched, so the
  /// monitor never holds a live reference to a dead subject.
  void ReconcileInstanceWatches(SimTime now);
  /// Records this tick's heartbeats (honoring server health and
  /// monitor-dropout windows) and runs failure detection.
  void FeedHeartbeats(SimTime now);

  /// LoadView implementation: watch-time means from the archive (or
  /// forecasts when configured), live instance loads from the engine.
  class View;

  RunnerConfig config_;
  sim::Simulator simulator_;
  infra::Cluster cluster_;
  monitor::LoadArchive archive_;
  std::unique_ptr<workload::DemandEngine> demand_;
  std::unique_ptr<monitor::LoadMonitoringSystem> monitoring_;
  std::unique_ptr<infra::ActionExecutor> executor_;
  std::unique_ptr<View> view_;
  std::unique_ptr<forecast::LoadForecaster> forecaster_;
  std::unique_ptr<controller::Controller> controller_;
  std::unique_ptr<strategy::ControllerStrategy> strategy_;
  /// Fault subsystem (all nullptr when config_.fault_plan is unset).
  std::unique_ptr<faults::AvailabilityTracker> availability_;
  std::unique_ptr<faults::FaultInjector> fault_injector_;
  std::unique_ptr<faults::RecoveryManager> recovery_;
  /// The topology epoch the monitor's instance watches reflect.
  uint64_t watched_epoch_ = 0;
  controller::ReservationBook reservations_;
  monitor::PoolLoadStats pool_stats_;
  /// Urgent-only posture watchdog (inert when not enabled).
  controller::DegradedModeController degraded_;
  SlaTracker slas_;
  SampleHook sample_hook_;
  RunMetrics metrics_;
  std::vector<std::string> messages_;

  /// Observability: the registry lives here (one per runner, so the
  /// parallel capacity sweeps each own one and merge snapshots) and
  /// holds only what no other component counts; trace/audit are
  /// heap-allocated only when enabled.
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::AuditLog> audit_;
  obs::Histogram server_cpu_load_;
  /// Oscillation detection state: per service, the last executed
  /// scale direction, priority direction, and move (source -> target)
  /// with their times.
  struct ActionHistory {
    infra::ActionType last_scale = infra::ActionType::kMove;  // none
    SimTime last_scale_at;
    infra::ActionType last_priority = infra::ActionType::kMove;
    SimTime last_priority_at;
    std::string last_move_source;
    std::string last_move_target;
    SimTime last_move_at;
  };
  std::map<std::string, ActionHistory> action_history_;

  /// Sorted server/service names, viewing the cluster's specs (the
  /// server and service sets are fixed after Init). A name's rank is
  /// its dense id in the cluster index, and the monitoring subject id
  /// follows from it: servers are registered first, then services,
  /// each in this order, so server i is subject i and service j is
  /// subject `server_names_.size() + j`. The per-tick loop pairs
  /// `server_names_[i]` with the engine's `...ById(i)` views — no
  /// string-keyed lookups, and no references into index storage that
  /// a mid-loop topology change could move.
  std::vector<std::string_view> server_names_;   // sorted
  std::vector<std::string_view> service_names_;  // sorted
  /// The smoothed-overload books (1 lane), servers in the order of
  /// server_names_.
  OverloadLedger ledger_;
  bool initialized_ = false;
};

}  // namespace autoglobe

#endif  // AUTOGLOBE_AUTOGLOBE_RUNNER_H_
