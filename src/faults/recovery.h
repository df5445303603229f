#ifndef AUTOGLOBE_FAULTS_RECOVERY_H_
#define AUTOGLOBE_FAULTS_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "controller/controller.h"
#include "faults/availability.h"
#include "infra/cluster.h"
#include "infra/executor.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace autoglobe::faults {

/// Policy of the self-healing pipeline.
struct RecoveryConfig {
  /// Delay before the second restart attempt; doubles per attempt.
  Duration initial_backoff = Duration::Minutes(1);
  Duration max_backoff = Duration::Minutes(16);
  /// Restart attempts (including the first, immediate one) before
  /// escalating to relocation on another host.
  int max_restart_attempts = 3;
  /// Placement failures on one host before it is blacklisted from
  /// server selection.
  int blacklist_threshold = 2;
  Duration blacklist_duration = Duration::Hours(1);
};

/// Counters of everything the recovery pipeline did.
struct RecoveryStats {
  int64_t restarts_attempted = 0;
  int64_t restarts_succeeded = 0;
  int64_t relocations = 0;
  int64_t evacuations = 0;
  int64_t recovered = 0;
  int64_t abandoned = 0;
  int64_t blacklist_entries = 0;
};

/// Self-healing engine (the autonomic "remedy failure situations"
/// loop of §2, grown into a full pipeline): restart in place with
/// capped exponential backoff, escalation to relocation via the
/// server-selection fuzzy controller, evacuation of dead servers, and
/// blacklisting of hosts whose placements repeatedly fail. All delays
/// run through the simulation kernel, so recovery is as deterministic
/// as the rest of the run.
class RecoveryManager {
 public:
  using AlertCallback =
      std::function<void(SimTime, const std::string& reason)>;

  RecoveryManager(infra::Cluster* cluster, sim::Simulator* simulator,
                  infra::ActionExecutor* executor,
                  controller::Controller* controller,
                  RecoveryConfig config = {});

  /// Entry point for a confirmed instanceFailed trigger.
  void OnInstanceFailed(infra::InstanceId id, SimTime now);
  /// Entry point for a confirmed serverFailed trigger: evacuates
  /// every hosted instance to ranked replacement hosts. Also handles
  /// the false-positive case (monitor dropout on a healthy server) —
  /// evacuation never needs the source host's cooperation.
  void OnServerFailed(const std::string& server, SimTime now);

  /// Host filter for controller server selection: rejects blacklisted
  /// hosts. Install with controller->set_host_filter(...).
  Status FilterHost(const std::string& server) const;

  void set_trace_buffer(obs::TraceBuffer* trace) { trace_ = trace; }
  void set_audit_log(obs::AuditLog* audit) { audit_ = audit; }
  void set_availability_tracker(AvailabilityTracker* tracker) {
    tracker_ = tracker;
  }
  void set_alert_callback(AlertCallback alert) {
    alert_ = std::move(alert);
  }

  const RecoveryStats& stats() const { return stats_; }
  const RecoveryConfig& config() const { return config_; }
  /// Hosts currently blacklisted (sorted), for reports and tests.
  std::vector<std::string> BlacklistedHosts(SimTime now) const;

  // --- Checkpoint/restore ----------------------------------------------
  /// Serializes open episodes, host placement-failure records, and the
  /// stats. Pending backoff timers and boot watchdogs live in the
  /// simulator's heap and are rebuilt there via the callback builders.
  void SaveState(ByteWriter* w) const;
  Status RestoreState(ByteReader* r);

  /// Rebuilds the callback of a scheduled "recovery-backoff" event
  /// (desc kind "recovery.backoff", a = token, b = instance id).
  sim::Simulator::Callback MakeBackoffCallback(uint64_t token,
                                               infra::InstanceId id);
  /// Rebuilds the callback of a scheduled "recovery-watchdog" event
  /// (desc kind "recovery.watchdog", a = token, b = instance id).
  sim::Simulator::Callback MakeWatchdogCallback(uint64_t token,
                                                infra::InstanceId id);

 private:
  /// Per-episode recovery state, keyed by the token (the originally
  /// failed instance's id).
  struct Episode {
    std::string service;
    int restart_attempts = 0;
    Duration backoff;
  };
  struct HostRecord {
    int failures = 0;
    SimTime blacklisted_until;
  };

  void AttemptRestart(uint64_t token, infra::InstanceId id, SimTime now);
  /// Schedules a boot watchdog at the moment `id` should be running;
  /// closes the episode or continues recovery.
  void WatchBoot(uint64_t token, infra::InstanceId id);
  void Relocate(uint64_t token, infra::InstanceId id, SimTime now);
  void Abandon(uint64_t token, SimTime now, const std::string& reason);
  void Recovered(uint64_t token, infra::InstanceId id, SimTime now);
  void NotePlacementFailure(const std::string& server, SimTime now);
  void Trace(SimTime at, std::string_view name, std::string detail,
             int64_t value = 0);

  infra::Cluster* cluster_;
  sim::Simulator* simulator_;
  infra::ActionExecutor* executor_;
  controller::Controller* controller_;
  RecoveryConfig config_;
  RecoveryStats stats_;

  std::map<uint64_t, Episode> episodes_;
  std::map<std::string, HostRecord, std::less<>> hosts_;

  obs::TraceBuffer* trace_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
  AvailabilityTracker* tracker_ = nullptr;
  AlertCallback alert_;
};

}  // namespace autoglobe::faults

#endif  // AUTOGLOBE_FAULTS_RECOVERY_H_
