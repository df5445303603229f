#ifndef AUTOGLOBE_AUTOGLOBE_LANDSCAPE_H_
#define AUTOGLOBE_AUTOGLOBE_LANDSCAPE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng_kind.h"
#include "infra/cluster.h"
#include "workload/demand_model.h"
#include "xmlcfg/xml.h"

namespace autoglobe {

/// The three evaluation scenarios of paper §5.1.
enum class Scenario {
  /// "a computing environment with all services being static ... the
  /// standard environment used in most computing centers."
  kStatic,
  /// Constrained mobility: application servers support scale-in /
  /// scale-out; databases and central instances stay put; users stick
  /// to their login instance (Table 5).
  kConstrainedMobility,
  /// Full mobility: application servers and central instances are
  /// movable, the BW database scales, and users are redistributed
  /// equally across instances (Table 6).
  kFullMobility,
};

std::string_view ScenarioName(Scenario scenario);
Result<Scenario> ParseScenario(std::string_view name);

/// A complete declarative system description: hardware, services with
/// their constraints, demand model, three-tier wiring, and the
/// initial service-to-server allocation. This is the in-memory form
/// of the XML description language.
struct Landscape {
  std::vector<infra::ServerSpec> servers;
  std::vector<infra::ServiceSpec> services;
  std::vector<workload::ServiceDemandSpec> demand;
  std::vector<workload::SubsystemSpec> subsystems;
  /// Draw discipline of the workload's noise streams (DESIGN.md §16).
  /// Serialized as the `rng` attribute of the `<workload>` element;
  /// absent means the legacy xoshiro stream, so existing landscape
  /// files keep their golden traces.
  RngKind rng_kind = RngKind::kXoshiro;
  /// (service, server) pairs placed at simulation start.
  std::vector<std::pair<std::string, std::string>> initial_allocation;

  /// Materializes servers, services, and the initial allocation into
  /// a cluster, and registers demand specs and subsystems with the
  /// demand model (either pointer may be null to skip that part).
  /// Registration belongs to the shared DemandModel, so any engine
  /// works: DemandEngine (one lane) or BatchDemandEngine (many lanes).
  Status Build(infra::Cluster* cluster,
               workload::DemandModel* engine) const;

  /// Serializes to / parses from the XML description language.
  void ToXml(xml::Element* out) const;
  static Result<Landscape> FromXml(const xml::Element& element);
};

/// Builds the simulated SAP installation of Figure 9/11 and Table 4:
/// ERP + CRM + BW subsystems on 8 FSC-BX300 blades (PI 1), 8 FSC-BX600
/// blades (PI 2), and 3 HP-Proliant BL40p servers (PI 9), with the
/// service constraint set of the chosen scenario (Tables 5/6).
Landscape MakePaperLandscape(Scenario scenario);

}  // namespace autoglobe

#endif  // AUTOGLOBE_AUTOGLOBE_LANDSCAPE_H_
