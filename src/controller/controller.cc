#include "controller/controller.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "controller/rule_bases.h"

namespace autoglobe::controller {

using infra::Action;
using infra::ActionType;
using infra::InstanceId;
using infra::ServiceInstance;
using monitor::Trigger;
using monitor::TriggerKind;

namespace {

/// The controller's measurement catalogue: every crisp value it can
/// feed a rule base. Resolved once per compiled input slot, so the
/// hot path dispatches on a byte instead of a string.
enum Measurement : uint8_t {
  kCpuLoad,
  kMemLoad,
  kPerformanceIndex,
  kInstanceLoad,
  kServiceLoad,
  kInstancesOnServer,
  kInstancesOfService,
  kNumberOfCpus,
  kCpuClock,
  kCpuCache,
  kMemory,
  kSwapSpace,
  kTempSpace,
  kUnknownMeasurement,
};

uint8_t ResolveMeasurement(std::string_view name) {
  if (name == "cpuLoad") return kCpuLoad;
  if (name == "memLoad") return kMemLoad;
  if (name == "performanceIndex") return kPerformanceIndex;
  if (name == "instanceLoad") return kInstanceLoad;
  if (name == "serviceLoad") return kServiceLoad;
  if (name == "instancesOnServer") return kInstancesOnServer;
  if (name == "instancesOfService") return kInstancesOfService;
  if (name == "numberOfCpus") return kNumberOfCpus;
  if (name == "cpuClock") return kCpuClock;
  if (name == "cpuCache") return kCpuCache;
  if (name == "memory") return kMemory;
  if (name == "swapSpace") return kSwapSpace;
  if (name == "tempSpace") return kTempSpace;
  return kUnknownMeasurement;
}

Status NoMeasurement(const std::string& name) {
  return Status::InvalidArgument(
      StrFormat("no measurement for input variable \"%s\"", name.c_str()));
}

}  // namespace

Controller::Controller(infra::Cluster* cluster,
                       infra::ActionExecutor* executor, const LoadView* view,
                       ControllerConfig config)
    : cluster_(cluster),
      executor_(executor),
      view_(view),
      config_(config) {
  AG_CHECK(cluster_ != nullptr);
  AG_CHECK(executor_ != nullptr);
  AG_CHECK(view_ != nullptr);
}

Result<Controller::CompiledBase> Controller::CompileBase(
    const fuzzy::RuleBase& rb) {
  CompiledBase base;
  AG_ASSIGN_OR_RETURN(base.compiled, fuzzy::CompiledRuleBase::Compile(rb));
  const auto& names = base.compiled.inputs().names();
  base.sources.reserve(names.size());
  for (const std::string& name : names) {
    base.sources.push_back(ResolveMeasurement(name));
  }
  // Iterating outputs in variable-name order mirrors the interpreted
  // engine's std::map, keeping scored-action order (and thus sweep
  // results) bit-identical.
  base.ordered_outputs.resize(base.compiled.num_outputs());
  std::iota(base.ordered_outputs.begin(), base.ordered_outputs.end(), 0);
  const auto& output_names = base.compiled.output_names();
  std::sort(base.ordered_outputs.begin(), base.ordered_outputs.end(),
            [&output_names](int a, int b) {
              return output_names[static_cast<size_t>(a)] <
                     output_names[static_cast<size_t>(b)];
            });
  // Rendered rule text in compiled (output-grouped) order, so the
  // audit trail can pair each Scratch::truth entry with its rule.
  base.rule_texts.reserve(base.compiled.num_rules());
  for (uint32_t src : base.compiled.source_indices()) {
    base.rule_texts.push_back(rb.rules()[src].ToString());
  }
  ResetEvalBuffers(&base);
  return base;
}

void Controller::ResetEvalBuffers(CompiledBase* base) {
  base->slots.assign(base->compiled.inputs().size(), 0.0);
  base->scratch = base->compiled.MakeScratch();
}

obs::InferenceRecord Controller::MakeInferenceRecord(
    const CompiledBase& base, std::string subject,
    const double* weight_override) {
  obs::InferenceRecord record;
  record.rule_base = base.compiled.name();
  record.subject = std::move(subject);
  const auto& names = base.compiled.inputs().names();
  record.inputs.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    record.inputs.push_back(obs::NamedValue{names[i], base.slots[i]});
  }
  record.rules.reserve(base.rule_texts.size());
  for (size_t r = 0; r < base.rule_texts.size(); ++r) {
    double weight = weight_override != nullptr
                        ? weight_override[r]
                        : base.compiled.rule_weight(r);
    record.rules.push_back(obs::RuleActivation{
        base.rule_texts[r], base.scratch.truth[r], weight});
  }
  const auto& output_names = base.compiled.output_names();
  record.outputs.reserve(output_names.size());
  for (int slot : base.ordered_outputs) {
    record.outputs.push_back(
        obs::NamedValue{output_names[static_cast<size_t>(slot)],
                        base.scratch.crisp[static_cast<size_t>(slot)]});
  }
  return record;
}

Result<Controller> Controller::Create(infra::Cluster* cluster,
                                      infra::ActionExecutor* executor,
                                      const LoadView* view,
                                      ControllerConfig config) {
  Controller controller(cluster, executor, view, config);
  for (TriggerKind kind :
       {TriggerKind::kServiceOverloaded, TriggerKind::kServiceIdle,
        TriggerKind::kServerOverloaded, TriggerKind::kServerIdle}) {
    AG_ASSIGN_OR_RETURN(fuzzy::RuleBase rb, MakeDefaultActionRuleBase(kind));
    AG_RETURN_IF_ERROR(controller.SetActionRuleBase(kind, std::move(rb)));
  }
  for (ActionType action : infra::kAllActionTypes) {
    if (!infra::ActionNeedsTargetServer(action)) continue;
    AG_ASSIGN_OR_RETURN(fuzzy::RuleBase rb,
                        MakeDefaultServerRuleBase(action));
    AG_RETURN_IF_ERROR(
        controller.SetServerRuleBase(action, std::move(rb)));
  }
  return controller;
}

Status Controller::SetActionRuleBase(TriggerKind kind, fuzzy::RuleBase rb) {
  if (rb.rules().empty()) {
    return Status::InvalidArgument("rule base has no rules");
  }
  AG_ASSIGN_OR_RETURN(CompiledBase compiled, CompileBase(rb));
  // Recompiling invalidates every cached artifact derived from the
  // old base: eval buffers are rebuilt by CompileBase (through
  // ResetEvalBuffers), and any weight override sized for the old rule
  // layout is dropped here.
  InvalidateActionDerivedState(kind);
  compiled_action_bases_.insert_or_assign(kind, std::move(compiled));
  action_bases_.insert_or_assign(kind, std::move(rb));
  return Status::OK();
}

Status Controller::SetActionWeightOverride(TriggerKind kind,
                                           std::vector<double> weights) {
  auto it = compiled_action_bases_.find(kind);
  if (it == compiled_action_bases_.end()) {
    return Status::FailedPrecondition(StrFormat(
        "no rule base installed for trigger %.*s",
        static_cast<int>(monitor::TriggerKindName(kind).size()),
        monitor::TriggerKindName(kind).data()));
  }
  if (weights.size() != it->second.compiled.num_rules()) {
    return Status::InvalidArgument(StrFormat(
        "weight override has %zu entries, rule base has %zu rules",
        weights.size(), it->second.compiled.num_rules()));
  }
  action_weight_overrides_.insert_or_assign(kind, std::move(weights));
  return Status::OK();
}

const std::vector<double>* Controller::ActionWeightOverride(
    TriggerKind kind) const {
  auto it = action_weight_overrides_.find(kind);
  return it == action_weight_overrides_.end() ? nullptr : &it->second;
}

Result<size_t> Controller::ActionRuleCount(TriggerKind kind) const {
  auto it = compiled_action_bases_.find(kind);
  if (it == compiled_action_bases_.end()) {
    return Status::NotFound("no rule base installed for trigger kind");
  }
  return it->second.compiled.num_rules();
}

Result<std::vector<double>> Controller::ActionRuleWeights(
    TriggerKind kind) const {
  auto it = compiled_action_bases_.find(kind);
  if (it == compiled_action_bases_.end()) {
    return Status::NotFound("no rule base installed for trigger kind");
  }
  std::vector<double> weights(it->second.compiled.num_rules());
  for (size_t r = 0; r < weights.size(); ++r) {
    weights[r] = it->second.compiled.rule_weight(r);
  }
  return weights;
}

Result<std::vector<std::string>> Controller::ActionRuleTexts(
    TriggerKind kind) const {
  auto it = compiled_action_bases_.find(kind);
  if (it == compiled_action_bases_.end()) {
    return Status::NotFound("no rule base installed for trigger kind");
  }
  return it->second.rule_texts;
}

Status Controller::SetServiceActionRuleBase(std::string service,
                                            TriggerKind kind,
                                            fuzzy::RuleBase rb) {
  AG_RETURN_IF_ERROR(cluster_->FindService(service).status());
  if (rb.rules().empty()) {
    return Status::InvalidArgument("rule base has no rules");
  }
  AG_ASSIGN_OR_RETURN(CompiledBase compiled, CompileBase(rb));
  compiled_service_action_bases_.insert_or_assign({service, kind},
                                                  std::move(compiled));
  service_action_bases_.insert_or_assign({std::move(service), kind},
                                         std::move(rb));
  return Status::OK();
}

Status Controller::SetServerRuleBase(ActionType action, fuzzy::RuleBase rb) {
  if (!infra::ActionNeedsTargetServer(action)) {
    return Status::InvalidArgument(StrFormat(
        "action %.*s takes no target server",
        static_cast<int>(infra::ActionTypeName(action).size()),
        infra::ActionTypeName(action).data()));
  }
  if (rb.rules().empty()) {
    return Status::InvalidArgument("rule base has no rules");
  }
  AG_ASSIGN_OR_RETURN(CompiledBase compiled, CompileBase(rb));
  compiled_server_bases_.insert_or_assign(action, std::move(compiled));
  server_bases_.insert_or_assign(action, std::move(rb));
  return Status::OK();
}

const Controller::CompiledBase* Controller::CompiledActionBaseFor(
    std::string_view service, TriggerKind kind) const {
  auto specific =
      compiled_service_action_bases_.find(std::make_pair(service, kind));
  if (specific != compiled_service_action_bases_.end()) {
    return &specific->second;
  }
  auto generic = compiled_action_bases_.find(kind);
  return generic == compiled_action_bases_.end() ? nullptr
                                                 : &generic->second;
}

Status Controller::FillActionSlots(const ServiceInstance& instance,
                                   const CompiledBase& base) const {
  AG_ASSIGN_OR_RETURN(const infra::ServerSpec* server,
                      cluster_->FindServer(instance.server));
  const infra::LandscapeIndex& index = cluster_->Index();
  const infra::DenseId server_id = index.ServerIdOf(instance.server);
  const auto& names = base.compiled.inputs().names();
  for (size_t i = 0; i < names.size(); ++i) {
    double value = 0.0;
    switch (base.sources[i]) {
      case kCpuLoad:
        value = view_->ServerCpuLoad(server_id);
        break;
      case kMemLoad:
        value = view_->ServerMemLoad(server_id);
        break;
      case kPerformanceIndex:
        value = server->performance_index;
        break;
      case kInstanceLoad:
        value = view_->InstanceLoad(instance.id);
        break;
      case kServiceLoad:
        value = view_->ServiceLoad(instance.service);
        break;
      case kInstancesOnServer:
        value = static_cast<double>(index.InstancesOnServer(server_id).size());
        break;
      case kInstancesOfService:
        value = static_cast<double>(
            cluster_->ActiveInstanceCount(instance.service));
        break;
      default:
        // Table 3 server measurements make no sense for an instance
        // subject — same error the interpreted engine raised when the
        // name was absent from its Inputs map.
        return NoMeasurement(names[i]);
    }
    base.slots[i] = value;
  }
  return Status::OK();
}

Status Controller::FillServerSlots(const infra::LandscapeIndex& index,
                                   infra::DenseId server_id, SimTime now,
                                   std::string_view requesting_service,
                                   const CompiledBase& base) const {
  const infra::ServerSpec& server = index.Server(server_id);
  const auto& names = base.compiled.inputs().names();
  for (size_t i = 0; i < names.size(); ++i) {
    double value = 0.0;
    switch (base.sources[i]) {
      case kCpuLoad: {
        double cpu = view_->ServerCpuLoad(server_id);
        if (reservations_ != nullptr && server.performance_index > 0) {
          // Spoken-for capacity counts as load for placement decisions.
          cpu += reservations_->ReservedCpu(server.name, now,
                                            reservation_lookahead_,
                                            requesting_service) /
                 server.performance_index;
        }
        value = std::min(1.0, cpu);
        break;
      }
      case kMemLoad:
        value = view_->ServerMemLoad(server_id);
        break;
      case kInstancesOnServer:
        value = static_cast<double>(index.InstancesOnServer(server_id).size());
        break;
      case kPerformanceIndex:
        value = server.performance_index;
        break;
      case kNumberOfCpus:
        value = static_cast<double>(server.num_cpus);
        break;
      case kCpuClock:
        value = server.cpu_clock_ghz;
        break;
      case kCpuCache:
        value = server.cpu_cache_mb;
        break;
      case kMemory:
        value = server.memory_gb;
        break;
      case kSwapSpace:
        value = server.swap_gb;
        break;
      case kTempSpace:
        value = server.temp_gb;
        break;
      default:
        return NoMeasurement(names[i]);
    }
    base.slots[i] = value;
  }
  return Status::OK();
}

Status Controller::CollectActionsForInstance(
    TriggerKind kind, const ServiceInstance& instance,
    std::vector<ScoredAction>* out, obs::DecisionAudit* audit) const {
  const CompiledBase* base = CompiledActionBaseFor(instance.service, kind);
  if (base == nullptr) {
    return Status::FailedPrecondition(StrFormat(
        "no rule base installed for trigger %.*s",
        static_cast<int>(monitor::TriggerKindName(kind).size()),
        monitor::TriggerKindName(kind).data()));
  }
  AG_ASSIGN_OR_RETURN(const infra::ServiceSpec* spec,
                      cluster_->FindService(instance.service));
  AG_RETURN_IF_ERROR(FillActionSlots(instance, *base));
  // Overrides bind to the generic base for this kind; a
  // service-specific base keeps its authored weights (its rule layout
  // is its own). The size check is belt-and-braces — recompilation
  // already drops stale overrides.
  const double* weights = nullptr;
  if (!action_weight_overrides_.empty()) {
    auto generic = compiled_action_bases_.find(kind);
    if (generic != compiled_action_bases_.end() &&
        base == &generic->second) {
      auto it = action_weight_overrides_.find(kind);
      if (it != action_weight_overrides_.end() &&
          it->second.size() == base->compiled.num_rules()) {
        weights = it->second.data();
      }
    }
  }
  base->compiled.Evaluate(base->slots.data(), config_.defuzzifier,
                          &base->scratch, weights);
  if (audit != nullptr) {
    audit->action_inference.push_back(
        MakeInferenceRecord(*base, instance.Name(), weights));
  }
  const auto& output_names = base->compiled.output_names();
  for (int slot : base->ordered_outputs) {
    auto type = infra::ParseActionType(output_names[static_cast<size_t>(slot)]);
    if (!type.ok()) continue;  // non-action output variable
    double crisp = base->scratch.crisp[static_cast<size_t>(slot)];
    if (crisp <= 0.0) continue;
    // "The fuzzy controller only considers actions that do not
    //  violate any given constraint" (§4.1).
    if (!spec->Allows(*type)) continue;
    Action action;
    action.type = *type;
    action.service = instance.service;
    action.source_server = instance.server;
    if (infra::ActionNeedsInstance(*type)) action.instance = instance.id;
    out->push_back(ScoredAction{std::move(action), crisp});
  }
  return Status::OK();
}

Result<std::vector<ScoredAction>> Controller::RankActions(
    const Trigger& trigger) const {
  return RankActionsImpl(trigger, nullptr);
}

Result<std::vector<ScoredAction>> Controller::RankActionsImpl(
    const Trigger& trigger, obs::DecisionAudit* audit) const {
  bool server_trigger = trigger.kind == TriggerKind::kServerOverloaded ||
                        trigger.kind == TriggerKind::kServerIdle;
  std::vector<const ServiceInstance*> instances;
  if (server_trigger) {
    AG_RETURN_IF_ERROR(cluster_->FindServer(trigger.subject).status());
    // "If a server triggered the fuzzy controller, it takes the
    //  information of all services running on the considered host
    //  into account" (§4.1, Figure 7).
    instances = cluster_->InstancesOn(trigger.subject);
  } else {
    AG_RETURN_IF_ERROR(cluster_->FindService(trigger.subject).status());
    instances = cluster_->InstancesOf(trigger.subject);
  }

  std::vector<ScoredAction> actions;
  for (const ServiceInstance* instance : instances) {
    if (instance->state == infra::InstanceState::kFailed) continue;
    if (server_trigger &&
        cluster_->IsServiceProtected(instance->service, trigger.at)) {
      continue;
    }
    AG_RETURN_IF_ERROR(
        CollectActionsForInstance(trigger.kind, *instance, &actions, audit));
  }

  // Deduplicate identical (type, service, instance) proposals from
  // multiple evaluations, keeping the highest applicability, then sort
  // descending and apply the administrator threshold (§4.1).
  std::sort(actions.begin(), actions.end(),
            [](const ScoredAction& a, const ScoredAction& b) {
              if (a.applicability != b.applicability) {
                return a.applicability > b.applicability;
              }
              if (a.action.service != b.action.service) {
                return a.action.service < b.action.service;
              }
              return a.action.instance < b.action.instance;
            });
  std::vector<ScoredAction> deduped;
  for (ScoredAction& scored : actions) {
    if (scored.applicability < config_.min_applicability) continue;
    bool duplicate = false;
    for (const ScoredAction& kept : deduped) {
      if (kept.action.type == scored.action.type &&
          kept.action.service == scored.action.service &&
          kept.action.instance == scored.action.instance) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) deduped.push_back(std::move(scored));
  }
  if (audit != nullptr) {
    audit->ranked_actions.reserve(deduped.size());
    for (const ScoredAction& scored : deduped) {
      audit->ranked_actions.push_back(
          obs::NamedValue{scored.action.ToString(), scored.applicability});
    }
  }
  return deduped;
}

Status Controller::VerifyAction(const Action& action, SimTime now,
                                bool urgent) const {
  AG_ASSIGN_OR_RETURN(const infra::ServiceSpec* spec,
                      cluster_->FindService(action.service));
  if (!spec->Allows(action.type)) {
    return Status::FailedPrecondition("action no longer allowed");
  }
  if (!urgent && cluster_->IsServiceProtected(action.service, now)) {
    return Status::FailedPrecondition(StrFormat(
        "service \"%s\" is in protection mode", action.service.c_str()));
  }
  switch (action.type) {
    case ActionType::kScaleOut:
    case ActionType::kStart:
      // "if now the maximum number of instances of a service are
      //  running, the controller cannot start another one" (§4.1).
      if (cluster_->ActiveInstanceCount(action.service) >=
          spec->max_instances) {
        return Status::FailedPrecondition(
            StrFormat("service \"%s\" is at its maximum instance count",
                      action.service.c_str()));
      }
      return Status::OK();
    case ActionType::kScaleIn:
      if (cluster_->ActiveInstanceCount(action.service) <=
          spec->min_instances) {
        return Status::FailedPrecondition(
            StrFormat("service \"%s\" is at its minimum instance count",
                      action.service.c_str()));
      }
      return cluster_->FindInstance(action.instance).status();
    case ActionType::kScaleUp:
    case ActionType::kScaleDown:
    case ActionType::kMove:
      return cluster_->FindInstance(action.instance).status();
    default:
      return Status::OK();
  }
}

Result<std::vector<ScoredServer>> Controller::RankServers(
    const Action& action, SimTime now) const {
  return RankServersImpl(action, now, nullptr);
}

Result<std::vector<ScoredServer>> Controller::RankServers(
    const Action& action, SimTime now,
    obs::HostSelectionAudit* audit) const {
  if (audit != nullptr) audit->action = action.ToString();
  return RankServersImpl(action, now, audit);
}

Result<std::vector<ScoredServer>> Controller::RankServersImpl(
    const Action& action, SimTime now,
    obs::HostSelectionAudit* audit) const {
  auto base_it = compiled_server_bases_.find(action.type);
  if (base_it == compiled_server_bases_.end()) {
    return Status::FailedPrecondition(StrFormat(
        "no server-selection rule base for %.*s",
        static_cast<int>(infra::ActionTypeName(action.type).size()),
        infra::ActionTypeName(action.type).data()));
  }
  const CompiledBase& base = base_it->second;
  int suitability_slot = base.compiled.OutputSlot("suitability");
  if (suitability_slot < 0) {
    return Status::NotFound(
        "no rule writes output variable \"suitability\"");
  }

  // Everything about the placed service and the source host is
  // resolved once per call; the candidate loop below runs on dense
  // ids and does no name search.
  const infra::LandscapeIndex& index = cluster_->Index();
  double source_pi = 0.0;
  infra::DenseId source_id = infra::kNoDenseId;
  const infra::InstanceId exclude =
      infra::ActionNeedsInstance(action.type) ? action.instance : 0;
  if (infra::ActionNeedsInstance(action.type)) {
    AG_ASSIGN_OR_RETURN(const ServiceInstance* instance,
                        cluster_->FindInstance(action.instance));
    AG_ASSIGN_OR_RETURN(const infra::ServerSpec* source,
                        cluster_->FindServer(instance->server));
    source_pi = source->performance_index;
    source_id = index.ServerIdOf(source->name);
  }
  // An unknown service fails every placement check with this status.
  const Result<const infra::ServiceSpec*> service =
      cluster_->FindService(action.service);
  const int active_instances =
      cluster_->ActiveInstanceCount(action.service, exclude);

  // "First, a list of all possible servers is determined. Initially,
  //  these are all servers on which an instance of the service can be
  //  started and that are not in protection mode" (§4.2).
  auto reject = [audit](const std::string& server, std::string reason) {
    if (audit != nullptr) {
      audit->rejections.push_back(
          obs::CandidateRejection{server, std::move(reason)});
    }
  };
  // Hosts that pass are kept as (score, dense id). Dense ids enumerate
  // names in sorted order, so ordering ties by id is ordering them by
  // name: the sort compares no strings, and only returned hosts get a
  // name copy.
  struct Candidate {
    double score;
    infra::DenseId server;
  };
  std::vector<Candidate> passed;
  auto consider = [&](infra::DenseId id) -> Status {
    if (id == source_id) return Status::OK();
    const infra::ServerSpec& server = index.Server(id);
    if (cluster_->IsServerProtected(server.name, now)) {
      reject(server.name, "server is in protection mode");
      return Status::OK();
    }
    if (host_filter_) {
      Status allowed = host_filter_(server.name);
      if (!allowed.ok()) {
        reject(server.name, allowed.message());
        return Status::OK();
      }
    }
    Status can_place =
        service.ok() ? cluster_->CanPlaceById(**service, id, exclude,
                                              active_instances)
                     : service.status();
    if (!can_place.ok()) {
      reject(server.name, can_place.message());
      return Status::OK();
    }
    if (action.type == ActionType::kScaleUp &&
        server.performance_index <= source_pi) {
      reject(server.name,
             StrFormat("performance index %.2f not above source %.2f",
                       server.performance_index, source_pi));
      return Status::OK();
    }
    if (action.type == ActionType::kScaleDown &&
        server.performance_index >= source_pi) {
      reject(server.name,
             StrFormat("performance index %.2f not below source %.2f",
                       server.performance_index, source_pi));
      return Status::OK();
    }
    if (reservations_ != nullptr) {
      // Leave reserved memory untouched for the registered task.
      double reserved = reservations_->ReservedMemory(
          server.name, now, reservation_lookahead_, action.service);
      double free =
          server.memory_gb - index.ServerUsedMemoryGb(id) - reserved;
      if ((*service)->memory_footprint_gb > free + 1e-9) {
        reject(server.name,
               StrFormat("insufficient unreserved memory (%.1f GB free, "
                         "%.1f GB reserved)",
                         free, reserved));
        return Status::OK();
      }
    }
    AG_RETURN_IF_ERROR(FillServerSlots(index, id, now, action.service, base));
    base.compiled.Evaluate(base.slots.data(), config_.defuzzifier,
                           &base.scratch);
    if (audit != nullptr) {
      audit->evaluations.push_back(
          MakeInferenceRecord(base, server.name));
    }
    double score =
        base.scratch.crisp[static_cast<size_t>(suitability_slot)];
    if (score < config_.min_host_score) {
      reject(server.name,
             StrFormat("suitability %.4f below minimum %.4f", score,
                       config_.min_host_score));
      return Status::OK();
    }
    passed.push_back(Candidate{score, id});
    return Status::OK();
  };
  // The dense index enumerates servers in sorted-name order — the
  // same order the string-keyed map scan used.
  if (config_.pool_prescreen && pool_stats_ != nullptr &&
      index.num_pools() > 1) {
    // Hierarchical selection: lightest pool (lowest mean load) first,
    // stop at the first pool that yields a candidate. If every pool
    // comes up empty this degenerates into the full scan.
    std::vector<int32_t> pools(index.num_pools());
    for (size_t p = 0; p < pools.size(); ++p) {
      pools[p] = static_cast<int32_t>(p);
    }
    std::sort(pools.begin(), pools.end(), [&](int32_t a, int32_t b) {
      double ma = pool_stats_->PoolMean(a);
      double mb = pool_stats_->PoolMean(b);
      if (ma != mb) return ma < mb;
      return a < b;
    });
    for (int32_t pool : pools) {
      for (infra::DenseId s : index.ServersInPool(pool)) {
        AG_RETURN_IF_ERROR(consider(s));
      }
      if (!passed.empty()) break;
    }
  } else {
    for (size_t s = 0; s < index.num_servers(); ++s) {
      AG_RETURN_IF_ERROR(consider(static_cast<infra::DenseId>(s)));
    }
  }
  std::sort(passed.begin(), passed.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.server < b.server;
            });
  std::vector<ScoredServer> scored;
  scored.reserve(passed.size());
  for (const Candidate& host : passed) {
    scored.push_back(ScoredServer{index.ServerName(host.server), host.score});
  }
  if (audit != nullptr) {
    audit->ranked.reserve(scored.size());
    for (const ScoredServer& host : scored) {
      audit->ranked.push_back(obs::NamedValue{host.server, host.score});
    }
  }
  return scored;
}

Result<ControllerOutcome> Controller::HandleTrigger(const Trigger& trigger,
                                                    bool urgent) {
  ControllerOutcome outcome;
  // The decision audit trail (when installed) mirrors the Figure 6
  // flow: every rejection below records its reason, and `finish`
  // stamps the verdict before each return.
  obs::DecisionAudit audit;
  const bool auditing = audit_ != nullptr;
  if (auditing) {
    audit.at = trigger.at;
    audit.trigger_kind = std::string(monitor::TriggerKindName(trigger.kind));
    audit.subject = trigger.subject;
    audit.average_load = trigger.average_load;
    audit.urgent = urgent;
    audit.strategy = strategy_label_;
  }
  auto finish = [&](std::string verdict) {
    if (!auditing) return;
    audit.verdict = std::move(verdict);
    audit.executed = outcome.executed.has_value();
    audit.alerted = outcome.alerted;
    audit.skipped_protected = outcome.skipped_protected;
    audit_->Add(std::move(audit));
  };

  bool server_trigger = trigger.kind == TriggerKind::kServerOverloaded ||
                        trigger.kind == TriggerKind::kServerIdle;
  // Entities in protection mode are excluded from further actions
  // (§4: "this protection mode prevents the system from oscillation").
  // Urgent escalations (confirmed SLA breaches) override the subject's
  // own protection.
  if (!urgent &&
      (server_trigger
           ? cluster_->IsServerProtected(trigger.subject, trigger.at)
           : cluster_->IsServiceProtected(trigger.subject, trigger.at))) {
    outcome.skipped_protected = true;
    finish("skipped: subject in protection mode");
    return outcome;
  }

  AG_ASSIGN_OR_RETURN(outcome.considered,
                      RankActionsImpl(trigger, auditing ? &audit : nullptr));

  for (const ScoredAction& scored : outcome.considered) {
    Action action = scored.action;
    Status verified = VerifyAction(action, trigger.at, urgent);
    if (!verified.ok()) {
      if (auditing) {
        audit.action_rejections.push_back(obs::CandidateRejection{
            action.ToString(),
            StrFormat("verification failed: %s",
                      verified.message().c_str())});
      }
      continue;
    }
    if (config_.mode == ControllerMode::kSemiAutomatic) {
      // "In semi-automatic mode, the human administrator is contacted
      //  to confirm the action before execution" (§4.3).
      if (!approval_ || !approval_(action)) {
        if (auditing) {
          audit.action_rejections.push_back(obs::CandidateRejection{
              action.ToString(),
              "administrator declined (semi-automatic mode)"});
        }
        continue;
      }
    }
    if (!infra::ActionNeedsTargetServer(action.type)) {
      Status executed = executor_->Execute(action);
      if (executed.ok()) {
        outcome.executed = action;
        finish(StrFormat("executed %s", action.ToString().c_str()));
        return outcome;
      }
      if (auditing) {
        audit.action_rejections.push_back(obs::CandidateRejection{
            action.ToString(),
            StrFormat("execution failed: %s",
                      executed.message().c_str())});
      }
      continue;  // "Another action?" path of Figure 6
    }
    obs::HostSelectionAudit* selection = nullptr;
    if (auditing) {
      audit.host_selections.emplace_back();
      selection = &audit.host_selections.back();
      selection->action = action.ToString();
    }
    AG_ASSIGN_OR_RETURN(std::vector<ScoredServer> hosts,
                        RankServersImpl(action, trigger.at, selection));
    for (const ScoredServer& host : hosts) {
      action.target_server = host.server;
      Status executed = executor_->Execute(action);
      if (executed.ok()) {
        outcome.executed = action;
        finish(StrFormat("executed %s", action.ToString().c_str()));
        return outcome;
      }
      if (selection != nullptr) {
        selection->rejections.push_back(obs::CandidateRejection{
            host.server, StrFormat("execution failed: %s",
                                   executed.message().c_str())});
      }
      // "Another host?" path of Figure 6.
    }
    if (auditing && hosts.empty()) {
      audit.action_rejections.push_back(obs::CandidateRejection{
          action.ToString(), "no suitable target host"});
    }
  }

  // "If there are no possible hosts and actions with a sufficient
  //  applicability, the controller requests human interaction by
  //  alerting the system administrator" (§4.3). Idle situations that
  //  simply have no remedy (e.g. a pinned database with no allowed
  //  actions) are not emergencies and raise no alert.
  bool idle_trigger = trigger.kind == TriggerKind::kServiceIdle ||
                      trigger.kind == TriggerKind::kServerIdle;
  if (idle_trigger && outcome.considered.empty()) {
    finish("no action taken (idle, no remedy)");
    return outcome;
  }
  outcome.alerted = true;
  const char* reason = outcome.considered.empty()
                           ? "no applicable action"
                           : "no action/host combination succeeded";
  if (alert_) alert_(trigger, reason);
  finish(StrFormat("alerted: %s", reason));
  return outcome;
}

size_t Controller::TotalActionRules() const {
  size_t total = 0;
  for (const auto& [kind, base] : action_bases_) total += base.size();
  return total;
}

}  // namespace autoglobe::controller
