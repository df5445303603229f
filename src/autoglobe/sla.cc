#include "autoglobe/sla.h"

#include <algorithm>

#include "common/strings.h"

namespace autoglobe {

Status SlaSpec::Validate() const {
  if (service.empty()) {
    return Status::InvalidArgument("SLA must name a service");
  }
  if (min_satisfaction <= 0.0 || min_satisfaction > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "SLA for \"%s\": min_satisfaction must be in (0, 1]",
        service.c_str()));
  }
  if (window <= Duration::Zero()) {
    return Status::InvalidArgument(StrFormat(
        "SLA for \"%s\": window must be positive", service.c_str()));
  }
  return Status::OK();
}

Status SlaTracker::AddSla(SlaSpec spec) {
  AG_RETURN_IF_ERROR(spec.Validate());
  if (slas_.count(spec.service) > 0) {
    return Status::AlreadyExists(StrFormat(
        "service \"%s\" already has an SLA", spec.service.c_str()));
  }
  State state;
  state.status.spec = spec;
  std::string key = spec.service;
  slas_.emplace(std::move(key), std::move(state));
  return Status::OK();
}

bool SlaTracker::Covers(std::string_view service) const {
  return slas_.find(service) != slas_.end();
}

Result<bool> SlaTracker::Observe(SimTime now, std::string_view service,
                                 double satisfaction, Duration tick) {
  auto it = slas_.find(service);
  if (it == slas_.end()) {
    return Status::NotFound(StrFormat("no SLA for \"%.*s\"",
                                      static_cast<int>(service.size()),
                                      service.data()));
  }
  State& state = it->second;
  satisfaction = std::clamp(satisfaction, 0.0, 1.0);
  state.samples.emplace_back(now, satisfaction);
  state.sample_sum += satisfaction;
  SimTime horizon = now - state.status.spec.window;
  while (!state.samples.empty() && state.samples.front().first <= horizon) {
    state.sample_sum -= state.samples.front().second;
    state.samples.pop_front();
  }
  double rolling =
      state.samples.empty()
          ? 1.0
          : state.sample_sum / static_cast<double>(state.samples.size());
  state.status.current_satisfaction = rolling;

  bool was_violating = state.status.in_violation;
  state.status.in_violation = rolling < state.status.spec.min_satisfaction;
  if (state.status.in_violation) {
    state.status.violation_minutes += tick.seconds() / 60.0;
    if (!was_violating) ++state.status.violation_episodes;
  }
  return state.status.in_violation && !was_violating;
}

Result<const SlaStatus*> SlaTracker::StatusOf(
    std::string_view service) const {
  auto it = slas_.find(service);
  if (it == slas_.end()) {
    return Status::NotFound(StrFormat("no SLA for \"%.*s\"",
                                      static_cast<int>(service.size()),
                                      service.data()));
  }
  return &it->second.status;
}

std::vector<const SlaStatus*> SlaTracker::Report() const {
  std::vector<const SlaStatus*> report;
  report.reserve(slas_.size());
  for (const auto& [service, state] : slas_) {
    report.push_back(&state.status);
  }
  return report;
}

double SlaTracker::TotalViolationMinutes() const {
  double total = 0.0;
  for (const auto& [service, state] : slas_) {
    total += state.status.violation_minutes;
  }
  return total;
}

void SlaTracker::SaveState(ByteWriter* w) const {
  w->U64(slas_.size());
  for (const auto& [service, state] : slas_) {
    w->Str(service);
    w->F64(state.status.current_satisfaction);
    w->U8(state.status.in_violation ? 1 : 0);
    w->F64(state.status.violation_minutes);
    w->I64(state.status.violation_episodes);
    w->U64(state.samples.size());
    for (const auto& [at, value] : state.samples) {
      w->I64(at.seconds());
      w->F64(value);
    }
    w->F64(state.sample_sum);
  }
}

Status SlaTracker::RestoreState(ByteReader* r) {
  uint64_t sla_count = 0;
  AG_ASSIGN_OR_RETURN(sla_count, r->U64());
  if (sla_count != slas_.size()) {
    return Status::ParseError(StrFormat(
        "snapshot has %llu SLAs, configuration has %zu",
        static_cast<unsigned long long>(sla_count), slas_.size()));
  }
  for (uint64_t i = 0; i < sla_count; ++i) {
    std::string service;
    AG_ASSIGN_OR_RETURN(service, r->Str());
    auto it = slas_.find(service);
    if (it == slas_.end()) {
      return Status::ParseError(StrFormat(
          "snapshot SLA for \"%s\" is not configured", service.c_str()));
    }
    State& state = it->second;
    AG_ASSIGN_OR_RETURN(state.status.current_satisfaction, r->F64());
    uint8_t violating = 0;
    AG_ASSIGN_OR_RETURN(violating, r->U8());
    state.status.in_violation = violating != 0;
    AG_ASSIGN_OR_RETURN(state.status.violation_minutes, r->F64());
    AG_ASSIGN_OR_RETURN(state.status.violation_episodes, r->I64());
    uint64_t sample_count = 0;
    AG_ASSIGN_OR_RETURN(sample_count, r->U64());
    AG_RETURN_IF_ERROR(r->CheckCount(sample_count, 2 * 8));
    state.samples.clear();
    for (uint64_t j = 0; j < sample_count; ++j) {
      int64_t seconds = 0;
      double value = 0.0;
      AG_ASSIGN_OR_RETURN(seconds, r->I64());
      AG_ASSIGN_OR_RETURN(value, r->F64());
      state.samples.emplace_back(SimTime::FromSeconds(seconds), value);
    }
    AG_ASSIGN_OR_RETURN(state.sample_sum, r->F64());
  }
  return Status::OK();
}

}  // namespace autoglobe
