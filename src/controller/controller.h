#ifndef AUTOGLOBE_CONTROLLER_CONTROLLER_H_
#define AUTOGLOBE_CONTROLLER_CONTROLLER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "fuzzy/compiled.h"
#include "fuzzy/inference.h"
#include "infra/cluster.h"
#include "controller/reservations.h"
#include "infra/executor.h"
#include "monitor/monitoring.h"
#include "monitor/pool_stats.h"
#include "obs/audit.h"

namespace autoglobe::controller {

/// Read-only view of the load situation, decoupling the controller
/// from the workload engine. Server- and service-level values should
/// be the arithmetic means over the subject's watchTime (paper §4.1:
/// "All variables of the fuzzy controller regarding CPU or memory
/// load are set to the arithmetic means of the load values during the
/// service specific watchTime"); instance values may be current
/// measurements.
///
/// Servers are keyed by the cluster's LandscapeIndex dense ids. The
/// server set is fixed once the landscape is set up, so an id keeps
/// naming the same server for the whole run; host ranking reads every
/// candidate's loads without a name search.
class LoadView {
 public:
  virtual ~LoadView() = default;
  virtual double ServerCpuLoad(infra::DenseId server) const = 0;
  virtual double ServerMemLoad(infra::DenseId server) const = 0;
  virtual double InstanceLoad(infra::InstanceId id) const = 0;
  virtual double ServiceLoad(std::string_view service) const = 0;
};

/// Controller operating mode (§4.3).
enum class ControllerMode {
  /// Actions are logged and then executed.
  kAutomatic,
  /// The human administrator is asked to confirm each action.
  kSemiAutomatic,
};

/// Tunables of the decision process.
struct ControllerConfig {
  /// "Actions whose applicability value is lower than an
  /// administrator-controlled minimum threshold are discarded."
  double min_applicability = 0.30;
  /// Hosts scoring below this are not considered.
  double min_host_score = 0.15;
  fuzzy::Defuzzifier defuzzifier = fuzzy::Defuzzifier::kLeftmostMax;
  ControllerMode mode = ControllerMode::kAutomatic;
  /// Hierarchical server selection (needs set_pool_stats): rank the
  /// landscape's server pools by mean load first and evaluate hosts
  /// pool by pool, lightest pool first, stopping at the first pool
  /// that yields a candidate — O(pools + pool-size) instead of
  /// O(fleet) per trigger. Falls back to scanning every pool when
  /// none yields a host. Off by default: the exhaustive scan ranks
  /// *all* feasible hosts, which the paper-landscape goldens pin.
  bool pool_prescreen = false;
};

/// An action together with its defuzzified applicability (0..1).
struct ScoredAction {
  infra::Action action;
  double applicability = 0.0;
};

/// A candidate target host with its suitability score.
struct ScoredServer {
  std::string server;
  double score = 0.0;
};

/// Result of handling one trigger.
struct ControllerOutcome {
  /// The executed action, if any.
  std::optional<infra::Action> executed;
  /// All candidate actions that were considered (ranked).
  std::vector<ScoredAction> considered;
  /// True when no action/host combination worked and the
  /// administrator was alerted.
  bool alerted = false;
  /// True when the subject was in protection mode and nothing ran.
  bool skipped_protected = false;
};

/// The AutoGlobe fuzzy controller module (§4): an action-selection
/// fuzzy controller reacting to exceptional situations, and a
/// server-selection fuzzy controller choosing target hosts; wired
/// together with constraint verification and the fallback loop of
/// Figure 6 (next host, next action, alert administrator).
class Controller {
 public:
  /// Returns true to approve an action (semi-automatic mode).
  using ApprovalCallback = std::function<bool(const infra::Action&)>;
  /// Invoked when the controller needs human interaction.
  using AlertCallback = std::function<void(const monitor::Trigger&,
                                           const std::string& reason)>;

  /// Builds a controller with the default rule bases installed.
  static Result<Controller> Create(infra::Cluster* cluster,
                                   infra::ActionExecutor* executor,
                                   const LoadView* view,
                                   ControllerConfig config = {});

  Controller(Controller&&) = default;
  Controller& operator=(Controller&&) = default;

  // --- Rule-base management (§4.1: "an administrator can add
  // service-specific rule bases for mission critical services") ------
  Status SetActionRuleBase(monitor::TriggerKind kind, fuzzy::RuleBase rb);
  Status SetServiceActionRuleBase(std::string service,
                                  monitor::TriggerKind kind,
                                  fuzzy::RuleBase rb);
  Status SetServerRuleBase(infra::ActionType action, fuzzy::RuleBase rb);

  // --- Consequent-weight overrides (adaptive strategies) ----------------
  /// Replaces the authored consequent weights of the *generic* action
  /// base for `kind` with `weights` (one per compiled rule, compiled
  /// rule order — see ActionRuleWeights for the layout). The compiled
  /// base itself stays untouched; the override rides along each
  /// Evaluate call, so clearing it restores bit-identical static
  /// behaviour. Service-specific bases are never overridden (their
  /// rule layout differs). Errors on a size mismatch.
  Status SetActionWeightOverride(monitor::TriggerKind kind,
                                 std::vector<double> weights);
  /// Drops every installed override (back to authored weights).
  void ClearActionWeightOverrides() { action_weight_overrides_.clear(); }
  /// The active override for `kind`, or nullptr when none installed.
  const std::vector<double>* ActionWeightOverride(
      monitor::TriggerKind kind) const;

  /// Number of compiled rules in the generic action base for `kind`.
  Result<size_t> ActionRuleCount(monitor::TriggerKind kind) const;
  /// Authored consequent weights of that base, compiled rule order —
  /// the identity starting point for a learner's weight table.
  Result<std::vector<double>> ActionRuleWeights(
      monitor::TriggerKind kind) const;
  /// Rendered rule text per compiled rule of that base (parallel to
  /// ActionRuleWeights), for explain output and saved weight tables.
  Result<std::vector<std::string>> ActionRuleTexts(
      monitor::TriggerKind kind) const;

  // --- Main entry point -------------------------------------------------
  /// Runs the complete Figure 6 flow for a confirmed trigger. With
  /// `urgent`, the subject's own protection window is overridden —
  /// used by the QoS extension when an SLA breach is already
  /// confirmed harm (target servers stay protected either way).
  Result<ControllerOutcome> HandleTrigger(const monitor::Trigger& trigger,
                                          bool urgent = false);

  // --- Introspection (drives the controller console) --------------------
  /// Ranks actions for a trigger without executing anything.
  Result<std::vector<ScoredAction>> RankActions(
      const monitor::Trigger& trigger) const;
  /// Ranks candidate hosts for an action (excluding unsuitable and
  /// protected servers).
  Result<std::vector<ScoredServer>> RankServers(
      const infra::Action& action, SimTime now) const;
  /// Audited overload: fills `audit` with evaluations, rejections and
  /// the final ranking — lets recovery relocations leave the same
  /// trail as policy decisions.
  Result<std::vector<ScoredServer>> RankServers(
      const infra::Action& action, SimTime now,
      obs::HostSelectionAudit* audit) const;

  /// Extra veto over candidate hosts during server selection: return
  /// non-OK (the message becomes the audit rejection reason) to
  /// exclude a server. The recovery manager installs its blacklist of
  /// hosts with repeated placement failures here.
  using HostFilter = std::function<Status(const std::string& server)>;
  void set_host_filter(HostFilter filter) {
    host_filter_ = std::move(filter);
  }

  /// Installs a reservation book (§7 future work): during server
  /// selection, reserved CPU inflates a host's load picture and
  /// reserved memory shrinks its placement headroom, for reservations
  /// active now or starting within `lookahead`.
  void set_reservations(const ReservationBook* reservations,
                        Duration lookahead = Duration::Hours(1)) {
    reservations_ = reservations;
    reservation_lookahead_ = lookahead;
  }

  /// Installs the per-pool load aggregates driving the pool
  /// prescreen (nullptr clears; the prescreen also needs
  /// ControllerConfig::pool_prescreen). The stats must be fed from
  /// the same landscape the controller ranks over.
  void set_pool_stats(const monitor::PoolLoadStats* stats) {
    pool_stats_ = stats;
  }

  /// Installs a decision audit trail (nullptr clears): every
  /// HandleTrigger run records the fuzzified inputs, per-rule
  /// activation degrees from the compiled inference kernel, ranked
  /// actions/hosts, constraint rejections, and the final verdict.
  /// With no log installed the decision path pays only null checks.
  void set_audit_log(obs::AuditLog* log) { audit_ = log; }
  const obs::AuditLog* audit_log() const { return audit_; }

  /// Name of the strategy driving this controller, stamped into every
  /// decision audit record (empty = no stamp, the pre-strategy
  /// rendering).
  void set_strategy_label(std::string label) {
    strategy_label_ = std::move(label);
  }
  const std::string& strategy_label() const { return strategy_label_; }

  void set_config(const ControllerConfig& config) { config_ = config; }
  const ControllerConfig& config() const { return config_; }
  void set_approval_callback(ApprovalCallback cb) {
    approval_ = std::move(cb);
  }
  void set_alert_callback(AlertCallback cb) { alert_ = std::move(cb); }

  /// Total rule count across the four installed action bases.
  size_t TotalActionRules() const;

 private:
  Controller(infra::Cluster* cluster, infra::ActionExecutor* executor,
             const LoadView* view, ControllerConfig config);

  /// A rule base compiled for the hot path, together with its cached
  /// input layout resolution (which controller measurement feeds each
  /// slot), the output slots in deterministic name order, and the
  /// reusable evaluation buffers. The buffers are mutable scratch:
  /// RankActions/RankServers stay logically const but a single
  /// Controller must not run inference concurrently from two threads
  /// (the PR 1 parallel sweeps use one controller per simulation).
  struct CompiledBase {
    fuzzy::CompiledRuleBase compiled;
    /// Per input slot: a Measurement id (see controller.cc).
    std::vector<uint8_t> sources;
    /// Output slots sorted by variable name, mirroring the iteration
    /// order of the interpreted engine's output map.
    std::vector<int> ordered_outputs;
    /// Rendered rule text per *compiled* rule (the audit trail pairs
    /// these with Scratch::truth activation degrees).
    std::vector<std::string> rule_texts;
    mutable std::vector<double> slots;
    mutable fuzzy::CompiledRuleBase::Scratch scratch;
  };

  /// Transparent ordering for (service, trigger-kind) keys so hot
  /// lookups can probe with a string_view without allocating.
  struct ServiceKindLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    }
  };

  /// Compiles `rb` and resolves its input layout against the
  /// controller measurement catalogue.
  static Result<CompiledBase> CompileBase(const fuzzy::RuleBase& rb);

  /// THE single place that (re)builds a compiled base's cached
  /// evaluation state — input slot buffer and Scratch sizing. Every
  /// compile and recompile funnels through here so a swapped rule
  /// base can never run against stale buffer sizes.
  static void ResetEvalBuffers(CompiledBase* base);

  /// Drops cached per-kind derived state (the weight override) that a
  /// freshly installed rule base invalidates — its compiled rule
  /// count/order may differ from what the override was sized for.
  void InvalidateActionDerivedState(monitor::TriggerKind kind) {
    action_weight_overrides_.erase(kind);
  }

  /// Fills the compiled layout's input slots for (instance, host) —
  /// the Table 1 measurements — computing only what the rules read.
  Status FillActionSlots(const infra::ServiceInstance& instance,
                         const CompiledBase& base) const;
  /// Same for a candidate host (Table 3), given by its dense id;
  /// reserved CPU (if a reservation book is installed) inflates
  /// cpuLoad, except for reservations benefitting `requesting_service`.
  Status FillServerSlots(const infra::LandscapeIndex& index,
                         infra::DenseId server, SimTime now,
                         std::string_view requesting_service,
                         const CompiledBase& base) const;

  /// Evaluates the action rule base for one instance and appends
  /// constraint-respecting scored actions. With `audit` set, the
  /// evaluation's inputs, rule activations and outputs are recorded.
  Status CollectActionsForInstance(monitor::TriggerKind kind,
                                   const infra::ServiceInstance& instance,
                                   std::vector<ScoredAction>* out,
                                   obs::DecisionAudit* audit) const;

  /// Audit-aware bodies of the public RankActions/RankServers (which
  /// pass a null audit sink).
  Result<std::vector<ScoredAction>> RankActionsImpl(
      const monitor::Trigger& trigger, obs::DecisionAudit* audit) const;
  Result<std::vector<ScoredServer>> RankServersImpl(
      const infra::Action& action, SimTime now,
      obs::HostSelectionAudit* audit) const;

  /// Copies the just-evaluated state of `base` (inputs, per-rule
  /// activation degrees, crisp outputs) into an InferenceRecord.
  /// `weight_override` (nullable) is the per-rule weight vector the
  /// evaluation actually used, recorded alongside each activation.
  static obs::InferenceRecord MakeInferenceRecord(
      const CompiledBase& base, std::string subject,
      const double* weight_override = nullptr);

  /// Re-verifies an action just before execution (§4.1: the selected
  /// action "is verified once more"). `urgent` waives the protection
  /// check for the triggering subject itself.
  Status VerifyAction(const infra::Action& action, SimTime now,
                      bool urgent) const;

  const CompiledBase* CompiledActionBaseFor(std::string_view service,
                                            monitor::TriggerKind kind) const;

  infra::Cluster* cluster_;
  infra::ActionExecutor* executor_;
  const LoadView* view_;
  ControllerConfig config_;
  // The interpreted rule bases stay installed as the reference
  // implementation (and for introspection); every inference call goes
  // through the compiled twins below, kept in sync by Set*RuleBase.
  std::map<monitor::TriggerKind, fuzzy::RuleBase> action_bases_;
  std::map<std::pair<std::string, monitor::TriggerKind>, fuzzy::RuleBase,
           ServiceKindLess>
      service_action_bases_;
  std::map<infra::ActionType, fuzzy::RuleBase> server_bases_;
  std::map<monitor::TriggerKind, CompiledBase> compiled_action_bases_;
  std::map<std::pair<std::string, monitor::TriggerKind>, CompiledBase,
           ServiceKindLess>
      compiled_service_action_bases_;
  std::map<infra::ActionType, CompiledBase> compiled_server_bases_;
  /// Per-kind consequent-weight override, sized for the generic
  /// compiled action base of that kind; invalidated whenever the base
  /// is recompiled.
  std::map<monitor::TriggerKind, std::vector<double>>
      action_weight_overrides_;
  ApprovalCallback approval_;
  AlertCallback alert_;
  HostFilter host_filter_;
  obs::AuditLog* audit_ = nullptr;
  std::string strategy_label_;
  const monitor::PoolLoadStats* pool_stats_ = nullptr;
  const ReservationBook* reservations_ = nullptr;
  Duration reservation_lookahead_ = Duration::Hours(1);
};

}  // namespace autoglobe::controller

#endif  // AUTOGLOBE_CONTROLLER_CONTROLLER_H_
