#ifndef AUTOGLOBE_MONITOR_MONITORING_H_
#define AUTOGLOBE_MONITOR_MONITORING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "monitor/load_archive.h"
#include "obs/trace.h"

namespace autoglobe::monitor {

/// What kind of entity raised an exceptional situation (paper §4.1
/// distinguishes four triggers with dedicated rule bases).
enum class TriggerKind {
  kServerOverloaded,
  kServerIdle,
  kServiceOverloaded,
  kServiceIdle,
  /// Heartbeat failure detection (the self-healing extension): an
  /// instance or a whole server stopped reporting for the configured
  /// number of intervals. These triggers bypass fuzzy action
  /// selection and go straight to recovery.
  kInstanceFailed,
  kServerFailed,
};

std::string_view TriggerKindName(TriggerKind kind);

/// A confirmed exceptional situation handed to the fuzzy controller.
struct Trigger {
  TriggerKind kind;
  std::string subject;  // server or service name
  SimTime at;
  /// Arithmetic mean of the load during the watch time — the value
  /// the controller's load variables are initialized with (§4.1).
  double average_load = 0.0;
  /// For kInstanceFailed: the id of the silent instance.
  uint64_t instance = 0;
};

/// Tunables of the detection pipeline (paper §2 / §5.1).
struct MonitorConfig {
  /// "we set the threshold value for a CPU overload to 70%".
  double overload_threshold = 0.70;
  /// "the controller monitors the load values ... for 10 minutes".
  Duration overload_watch_time = Duration::Minutes(10);
  /// "The threshold value for an idle situation ... is 12.5% divided
  /// by the performance index of the server." The divisor is supplied
  /// per subject at registration.
  double idle_threshold_base = 0.125;
  /// "An idle situation is recognized after a watchTime of 20 min."
  Duration idle_watch_time = Duration::Minutes(20);
  /// Expected spacing of heartbeats (normally the sampling tick).
  Duration heartbeat_interval = Duration::Minutes(1);
  /// Consecutive missed heartbeats before a subject is declared
  /// failed — a single dropped report must not trigger recovery.
  int heartbeat_miss_threshold = 3;
  /// Dirty-subject tracking: a quiescent subject — phase kNormal, no
  /// forecast signal, load bitwise equal to its last archived value,
  /// in-band (neither above the overload nor below the idle
  /// threshold), ticks uniformly spaced — is not re-evaluated. The
  /// run of skipped samples is held as (value, start, interval,
  /// count) and replayed into the archive verbatim before anything
  /// reads it, so the archive stays bit-identical.
  bool dirty_tracking = true;
};

/// Dense id of a registered monitoring subject: its registration
/// rank. Stable for the system's lifetime. A caller that registers
/// its entities in its own dense order (the runner: servers, then
/// services, each in name order) can use that order as the id
/// without asking.
using SubjectId = int32_t;

/// The load monitoring system of Figure 2: short peaks are common in
/// real systems, so a threshold crossing only *arms* an observation
/// window; the fuzzy controller is triggered when the average load
/// over the watch time confirms a real overload (or idle) situation.
///
/// One instance supervises any number of subjects (servers and
/// services); per-subject state machines are independent. Subjects
/// live in a dense array: callers on the per-tick hot path feed
/// ObserveById with the SubjectId — no string lookup, and the archive
/// series handle is cached per subject.
class LoadMonitoringSystem {
 public:
  using TriggerCallback = std::function<void(const Trigger&)>;

  LoadMonitoringSystem(LoadArchive* archive, MonitorConfig config);
  // The name index holds a pointer to this system.
  LoadMonitoringSystem(const LoadMonitoringSystem&) = delete;
  LoadMonitoringSystem& operator=(const LoadMonitoringSystem&) = delete;

  /// Registers a subject. `idle_divisor` divides the idle threshold
  /// base (the server's performance index; 1.0 for services).
  /// `watch_override` replaces the global overload watchTime for this
  /// subject (§4.1 speaks of "the service specific watchTime" — a
  /// jittery service can be observed longer than a steady one).
  /// Subject names are unique across kinds. The next id is
  /// `num_subjects()`.
  Status RegisterSubject(TriggerKind overload_kind, std::string_view name,
                         double idle_divisor = 1.0,
                         std::optional<Duration> watch_override =
                             std::nullopt);

  /// Dense id of a registered subject; NotFound if unknown.
  Result<SubjectId> SubjectIdOf(std::string_view name) const;
  size_t num_subjects() const { return subjects_.size(); }
  /// Archive key of a registered subject (ArchiveKey of its kind and
  /// name), e.g. for forecast lookups.
  const std::string& Key(SubjectId subject) const {
    return subjects_[static_cast<size_t>(subject)].key;
  }

  /// Feeds one measurement; appends to the archive and advances the
  /// detection state machine. Fires the callback on confirmation.
  /// `detection_load` optionally drives the threshold logic with a
  /// different signal than the archived measurement — the proactive
  /// extension passes max(measured, forecast) so imminent overloads
  /// arm the watch early while the archive keeps the true loads.
  Status Observe(SimTime now, std::string_view name, double load,
                 std::optional<double> detection_load = std::nullopt);
  /// Hot-path twin keyed by SubjectId (no string lookup).
  Status ObserveById(SimTime now, SubjectId subject, double load,
                     std::optional<double> detection_load = std::nullopt);

  /// Replays a subject's carried-forward (skipped) samples into the
  /// archive. Anything that reads the subject's series directly —
  /// console views, forecasts, the controller's load variables — must
  /// materialize first; ObserveById does it itself before any full
  /// evaluation. No-op for clean subjects.
  Status MaterializeSubject(SubjectId subject);
  /// Materializes every subject (e.g. before saving the archive).
  Status MaterializeAll();
  /// The archive series of a registered subject (the handle the
  /// monitor appends through), for id-keyed readers; materialize
  /// first to see every sample. A null Handle while the archive holds
  /// no series for the subject — looking does not create one.
  LoadArchive::Handle SeriesOf(SubjectId subject);


  /// Full evaluations performed (arming checks + archive appends).
  int64_t evaluations() const { return evaluations_; }
  /// Observations compressed away by dirty tracking.
  int64_t skips() const { return skips_; }

  // --- Heartbeat failure detection ------------------------------------
  // Watches are addressed by what they watch: a server watch by its
  // server subject, an instance watch by its instance id. A watched
  // subject counts as alive at its watch time.

  /// One heartbeat source's state.
  struct Heartbeat {
    SimTime last_seen;
    bool reported = false;
  };
  /// A watched instance: its id, and its service's subject, whose
  /// name is the trigger subject.
  struct InstanceWatch {
    uint64_t instance = 0;
    SubjectId service = 0;
    Heartbeat beat;
  };

  /// Starts watching a registered server subject. Servers are watched
  /// in ascending subject order.
  Status WatchServer(SubjectId server, SimTime now);
  /// Starts watching an instance of a registered service subject.
  Status WatchInstance(uint64_t instance, SubjectId service, SimTime now);
  /// Stops watching an instance (its watch is erased).
  Status UnwatchInstance(uint64_t instance);
  /// Feed one heartbeat each; a fresh beat clears a previous failure
  /// report so a recovered subject can fail again later.
  Status RecordServerHeartbeat(SubjectId server, SimTime now);
  Status RecordInstanceHeartbeat(uint64_t instance, SimTime now);
  /// The instance watches, in ascending instance id.
  std::span<const InstanceWatch> instance_watches() const {
    return instance_watches_;
  }
  /// Fires a failure trigger (via the trigger callback) for every
  /// watch silent for heartbeat_interval * miss_threshold or longer:
  /// servers in subject order, then instances in ascending id. Each
  /// failure is reported once until a fresh heartbeat arrives.
  void CheckHeartbeats(SimTime now);
  /// Server plus instance watches.
  size_t heartbeat_watches() const {
    return server_watches_.size() + instance_watches_.size();
  }

  void set_trigger_callback(TriggerCallback callback) {
    callback_ = std::move(callback);
  }

  /// Structured tracing sink (nullptr clears): every confirmed
  /// trigger is recorded as a kTriggerConfirmed event before the
  /// callback runs.
  void set_trace_buffer(obs::TraceBuffer* trace) { trace_ = trace; }

  const MonitorConfig& config() const { return config_; }

  /// Archive key used for a subject ("server/x" or "service/x").
  static std::string ArchiveKey(TriggerKind overload_kind,
                                std::string_view name);

  /// Number of confirmed triggers fired so far.
  int64_t triggers_fired() const { return triggers_fired_; }

  // --- Checkpoint/restore ----------------------------------------------
  /// Serializes the dynamic per-subject detection state (phase, watch
  /// window, carry-forward run), the server watches' heartbeats, the
  /// instance watches, and the counters. Static registration data
  /// (thresholds, watch times, the watched servers) is rebuilt from
  /// the configuration and only validated here.
  void SaveState(ByteWriter* w) const;
  /// Restores onto an identically-registered system: every snapshot
  /// subject must already be registered and every snapshot server
  /// watch already made (same landscape). The instance watches are
  /// replaced.
  Status RestoreState(ByteReader* r);

 private:
  enum class Phase { kNormal, kWatchingOverload, kWatchingIdle };

  struct SubjectState {
    TriggerKind overload_kind;  // kServerOverloaded or kServiceOverloaded
    /// Archive key, "<kind>/<name>": the subject's one string. Its
    /// name (the trigger subject) is the part after the prefix.
    std::string key;
    /// Archive series, resolved on first observation (lazily, so the
    /// archive's key set still reflects only subjects that actually
    /// reported data).
    LoadArchive::Handle series;
    double idle_threshold = 0.125;
    Duration overload_watch = Duration::Zero();  // effective watchTime
    Phase phase = Phase::kNormal;
    SimTime watch_started;
    /// Carry-forward compression (dirty tracking): `last_value` /
    /// `last_at` describe the newest sample (appended or skipped); a
    /// run of skipped samples is `pending_count` copies of
    /// `last_value` at `pending_first + i * pending_interval`.
    /// `last_value` cannot change while a run is open — a differing
    /// load forces a full evaluation, which materializes first.
    double last_value = 0.0;
    SimTime last_at;
    bool has_last = false;
    SimTime pending_first;
    Duration pending_interval = Duration::Zero();
    int64_t pending_count = 0;
  };

  /// A watched server subject.
  struct ServerWatch {
    SubjectId server = 0;
    Heartbeat beat;
  };

  LoadArchive* archive_;
  MonitorConfig config_;
  /// Traces and fires a confirmed trigger.
  void Confirm(Trigger trigger);

  /// The name of a subject: its key without the kind prefix.
  std::string_view NameOf(SubjectId subject) const;
  /// Whether `subject` is registered with `overload_kind`.
  bool IsSubject(SubjectId subject, TriggerKind overload_kind) const;
  /// The first instance watch whose id is not below `instance`.
  std::vector<InstanceWatch>::iterator InstanceWatchAtOrAfter(
      uint64_t instance);

  /// Orders subject ids by name, and finds them by name.
  struct ByName {
    using is_transparent = void;
    const LoadMonitoringSystem* system;
    bool operator()(SubjectId a, SubjectId b) const {
      return system->NameOf(a) < system->NameOf(b);
    }
    bool operator()(SubjectId a, std::string_view b) const {
      return system->NameOf(a) < b;
    }
    bool operator()(std::string_view a, SubjectId b) const {
      return a < system->NameOf(b);
    }
  };

  /// Dense subject storage, and the ids ordered by name.
  std::vector<SubjectState> subjects_;
  std::set<SubjectId, ByName> by_name_{ByName{this}};
  /// Where the last registration went in by_name_: a caller
  /// registering in name order inserts right after it, with no search.
  std::set<SubjectId, ByName>::iterator last_registered_ = by_name_.end();
  /// Heartbeat watches, by subject and by instance id.
  std::vector<ServerWatch> server_watches_;
  std::vector<InstanceWatch> instance_watches_;
  TriggerCallback callback_;
  obs::TraceBuffer* trace_ = nullptr;
  int64_t triggers_fired_ = 0;
  int64_t evaluations_ = 0;
  int64_t skips_ = 0;
};

}  // namespace autoglobe::monitor

#endif  // AUTOGLOBE_MONITOR_MONITORING_H_
