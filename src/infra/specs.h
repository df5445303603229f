#ifndef AUTOGLOBE_INFRA_SPECS_H_
#define AUTOGLOBE_INFRA_SPECS_H_

#include <string>

#include "common/result.h"
#include "infra/action.h"
#include "xmlcfg/xml.h"

namespace autoglobe::infra {

/// Static description of a server, carrying the meta data the
/// server-selection fuzzy controller consumes (Table 3) plus the
/// capacity facts the allocator enforces. Loaded from the declarative
/// XML description language.
struct ServerSpec {
  std::string name;
  std::string category;          // e.g. "FSC-BX300", for console grouping
  double performance_index = 1;  // relative horsepower (paper §5.1)
  int num_cpus = 1;
  double cpu_clock_ghz = 1.0;
  double cpu_cache_mb = 0.5;
  double memory_gb = 2.0;
  double swap_gb = 4.0;
  double temp_gb = 20.0;

  /// Parses a <server .../> element.
  static Result<ServerSpec> FromXml(const xml::Element& element);
  /// Serializes into `out` (attributes of a <server/> element).
  void ToXml(xml::Element* out) const;
  /// Validates invariants (positive capacities etc.).
  Status Validate() const;
};

/// Coarse role of a service in the three-tier landscape (paper §5.1).
/// The workload engine uses the role to propagate request load from
/// application servers through central instances to databases.
enum class ServiceRole {
  kApplicationServer,
  kCentralInstance,
  kDatabase,
};

std::string_view ServiceRoleName(ServiceRole role);
Result<ServiceRole> ParseServiceRole(std::string_view name);

/// Static description of a service with the capability constraints of
/// Tables 5 and 6: which actions the controller may apply, exclusive
/// placement, minimum host performance, and instance-count bounds.
struct ServiceSpec {
  std::string name;              // e.g. "FI"
  ServiceRole role = ServiceRole::kApplicationServer;
  std::string subsystem;         // e.g. "ERP", "CRM", "BW"
  bool exclusive = false;        // no co-located services allowed
  double min_performance_index = 0.0;
  int min_instances = 1;
  int max_instances = 16;
  double memory_footprint_gb = 1.0;  // per instance
  /// Service-specific overload watchTime in minutes (0 = use the
  /// landscape default). Paper §4.1: load variables are averaged over
  /// "the service specific watchTime".
  int watch_time_minutes = 0;
  ActionSet allowed_actions;

  bool Allows(ActionType action) const {
    return allowed_actions.count(action) > 0;
  }

  /// Parses a <service .../> element with an `actions` attribute
  /// holding a comma-separated action list.
  static Result<ServiceSpec> FromXml(const xml::Element& element);
  void ToXml(xml::Element* out) const;
  Status Validate() const;
};

}  // namespace autoglobe::infra

#endif  // AUTOGLOBE_INFRA_SPECS_H_
