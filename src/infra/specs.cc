#include "infra/specs.h"

#include <limits>

#include "common/strings.h"

namespace autoglobe::infra {

namespace {

/// An optional integer attribute that must fit the spec's `int` field
/// (a plain cast would wrap "4294967297" to 1 and pass validation).
Result<int> IntFieldOr(const xml::Element& element, std::string_view name,
                       int fallback) {
  AG_ASSIGN_OR_RETURN(long long value, element.IntAttributeOr(name, fallback));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::ParseError(StrFormat(
        "attribute \"%.*s\": %lld is out of range",
        static_cast<int>(name.size()), name.data(), value));
  }
  return static_cast<int>(value);
}

}  // namespace

Result<ServerSpec> ServerSpec::FromXml(const xml::Element& element) {
  ServerSpec spec;
  AG_ASSIGN_OR_RETURN(spec.name, element.StringAttribute("name"));
  spec.category = std::string(element.AttributeOr("category", ""));
  AG_ASSIGN_OR_RETURN(spec.performance_index,
                      element.DoubleAttributeOr("performanceIndex", 1.0));
  AG_ASSIGN_OR_RETURN(spec.num_cpus, IntFieldOr(element, "cpus", 1));
  AG_ASSIGN_OR_RETURN(spec.cpu_clock_ghz,
                      element.DoubleAttributeOr("clockGhz", 1.0));
  AG_ASSIGN_OR_RETURN(spec.cpu_cache_mb,
                      element.DoubleAttributeOr("cacheMb", 0.5));
  AG_ASSIGN_OR_RETURN(spec.memory_gb,
                      element.DoubleAttributeOr("memoryGb", 2.0));
  AG_ASSIGN_OR_RETURN(spec.swap_gb, element.DoubleAttributeOr("swapGb", 4.0));
  AG_ASSIGN_OR_RETURN(spec.temp_gb,
                      element.DoubleAttributeOr("tempGb", 20.0));
  AG_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

void ServerSpec::ToXml(xml::Element* out) const {
  out->SetAttribute("name", name);
  if (!category.empty()) out->SetAttribute("category", category);
  out->SetAttribute("performanceIndex", StrFormat("%g", performance_index));
  out->SetAttribute("cpus", StrFormat("%d", num_cpus));
  out->SetAttribute("clockGhz", StrFormat("%g", cpu_clock_ghz));
  out->SetAttribute("cacheMb", StrFormat("%g", cpu_cache_mb));
  out->SetAttribute("memoryGb", StrFormat("%g", memory_gb));
  out->SetAttribute("swapGb", StrFormat("%g", swap_gb));
  out->SetAttribute("tempGb", StrFormat("%g", temp_gb));
}

Status ServerSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("server name must not be empty");
  }
  if (performance_index <= 0) {
    return Status::InvalidArgument(StrFormat(
        "server \"%s\": performanceIndex must be positive", name.c_str()));
  }
  if (num_cpus <= 0 || cpu_clock_ghz <= 0 || memory_gb <= 0) {
    return Status::InvalidArgument(StrFormat(
        "server \"%s\": cpus, clock and memory must be positive",
        name.c_str()));
  }
  if (swap_gb < 0 || temp_gb < 0 || cpu_cache_mb < 0) {
    return Status::InvalidArgument(StrFormat(
        "server \"%s\": capacities must be non-negative", name.c_str()));
  }
  return Status::OK();
}

std::string_view ServiceRoleName(ServiceRole role) {
  switch (role) {
    case ServiceRole::kApplicationServer:
      return "applicationServer";
    case ServiceRole::kCentralInstance:
      return "centralInstance";
    case ServiceRole::kDatabase:
      return "database";
  }
  return "?";
}

Result<ServiceRole> ParseServiceRole(std::string_view name) {
  if (EqualsIgnoreCase(name, "applicationServer") ||
      EqualsIgnoreCase(name, "application-server") ||
      EqualsIgnoreCase(name, "appserver")) {
    return ServiceRole::kApplicationServer;
  }
  if (EqualsIgnoreCase(name, "centralInstance") ||
      EqualsIgnoreCase(name, "central-instance") ||
      EqualsIgnoreCase(name, "ci")) {
    return ServiceRole::kCentralInstance;
  }
  if (EqualsIgnoreCase(name, "database") || EqualsIgnoreCase(name, "db")) {
    return ServiceRole::kDatabase;
  }
  return Status::ParseError(StrFormat("unknown service role \"%.*s\"",
                                      static_cast<int>(name.size()),
                                      name.data()));
}

Result<ServiceSpec> ServiceSpec::FromXml(const xml::Element& element) {
  ServiceSpec spec;
  AG_ASSIGN_OR_RETURN(spec.name, element.StringAttribute("name"));
  std::string_view role = element.AttributeOr("role", "applicationServer");
  AG_ASSIGN_OR_RETURN(spec.role, ParseServiceRole(role));
  spec.subsystem = std::string(element.AttributeOr("subsystem", ""));
  AG_ASSIGN_OR_RETURN(spec.exclusive,
                      element.BoolAttributeOr("exclusive", false));
  AG_ASSIGN_OR_RETURN(
      spec.min_performance_index,
      element.DoubleAttributeOr("minPerformanceIndex", 0.0));
  AG_ASSIGN_OR_RETURN(spec.min_instances,
                      IntFieldOr(element, "minInstances", 1));
  AG_ASSIGN_OR_RETURN(spec.max_instances,
                      IntFieldOr(element, "maxInstances", 16));
  AG_ASSIGN_OR_RETURN(
      spec.memory_footprint_gb,
      element.DoubleAttributeOr("memoryFootprintGb", 1.0));
  AG_ASSIGN_OR_RETURN(spec.watch_time_minutes,
                      IntFieldOr(element, "watchTimeMinutes", 0));
  spec.allowed_actions.clear();
  std::string_view actions = element.AttributeOr("actions", "");
  if (!actions.empty()) {
    for (std::string_view piece : Split(actions, ',')) {
      piece = StripWhitespace(piece);
      if (piece.empty()) continue;
      AG_ASSIGN_OR_RETURN(ActionType type, ParseActionType(piece));
      spec.allowed_actions.insert(type);
    }
  }
  AG_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

void ServiceSpec::ToXml(xml::Element* out) const {
  out->SetAttribute("name", name);
  out->SetAttribute("role", std::string(ServiceRoleName(role)));
  if (!subsystem.empty()) out->SetAttribute("subsystem", subsystem);
  out->SetAttribute("exclusive", exclusive ? "true" : "false");
  out->SetAttribute("minPerformanceIndex",
                    StrFormat("%g", min_performance_index));
  out->SetAttribute("minInstances", StrFormat("%d", min_instances));
  out->SetAttribute("maxInstances", StrFormat("%d", max_instances));
  out->SetAttribute("memoryFootprintGb",
                    StrFormat("%g", memory_footprint_gb));
  if (watch_time_minutes > 0) {
    out->SetAttribute("watchTimeMinutes",
                      StrFormat("%d", watch_time_minutes));
  }
  std::vector<std::string> names;
  for (ActionType type : allowed_actions) {
    names.emplace_back(ActionTypeName(type));
  }
  out->SetAttribute("actions", Join(names, ","));
}

Status ServiceSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("service name must not be empty");
  }
  if (min_instances < 0 || max_instances < 1 ||
      min_instances > max_instances) {
    return Status::InvalidArgument(StrFormat(
        "service \"%s\": need 0 <= minInstances <= maxInstances and "
        "maxInstances >= 1",
        name.c_str()));
  }
  if (memory_footprint_gb <= 0) {
    return Status::InvalidArgument(StrFormat(
        "service \"%s\": memoryFootprintGb must be positive", name.c_str()));
  }
  if (watch_time_minutes < 0) {
    return Status::InvalidArgument(StrFormat(
        "service \"%s\": watchTimeMinutes must be non-negative",
        name.c_str()));
  }
  if (min_performance_index < 0) {
    return Status::InvalidArgument(StrFormat(
        "service \"%s\": minPerformanceIndex must be non-negative",
        name.c_str()));
  }
  return Status::OK();
}

}  // namespace autoglobe::infra
