#include "autoglobe/landscape.h"

#include "common/strings.h"

namespace autoglobe {

using infra::ActionSet;
using infra::ActionType;
using infra::ServerSpec;
using infra::ServiceRole;
using infra::ServiceSpec;
using workload::LoadPattern;
using workload::ServiceDemandSpec;
using workload::SubsystemSpec;

std::string_view ScenarioName(Scenario scenario) {
  switch (scenario) {
    case Scenario::kStatic:
      return "static";
    case Scenario::kConstrainedMobility:
      return "constrained-mobility";
    case Scenario::kFullMobility:
      return "full-mobility";
  }
  return "?";
}

Result<Scenario> ParseScenario(std::string_view name) {
  if (EqualsIgnoreCase(name, "static")) return Scenario::kStatic;
  if (EqualsIgnoreCase(name, "constrained-mobility") ||
      EqualsIgnoreCase(name, "cm")) {
    return Scenario::kConstrainedMobility;
  }
  if (EqualsIgnoreCase(name, "full-mobility") ||
      EqualsIgnoreCase(name, "fm")) {
    return Scenario::kFullMobility;
  }
  return Status::ParseError(StrFormat("unknown scenario \"%.*s\"",
                                      static_cast<int>(name.size()),
                                      name.data()));
}

Status Landscape::Build(infra::Cluster* cluster,
                        workload::DemandModel* engine) const {
  if (cluster != nullptr) {
    for (const ServerSpec& server : servers) {
      AG_RETURN_IF_ERROR(cluster->AddServer(server));
    }
    for (const ServiceSpec& service : services) {
      AG_RETURN_IF_ERROR(cluster->AddService(service));
    }
    for (const auto& [service, server] : initial_allocation) {
      AG_RETURN_IF_ERROR(cluster
                             ->PlaceInstance(service, server,
                                             SimTime::Start(),
                                             infra::InstanceState::kRunning)
                             .status());
    }
  }
  if (engine != nullptr) {
    for (const ServiceDemandSpec& spec : demand) {
      AG_RETURN_IF_ERROR(engine->AddService(spec));
    }
    for (const SubsystemSpec& spec : subsystems) {
      AG_RETURN_IF_ERROR(engine->AddSubsystem(spec));
    }
  }
  return Status::OK();
}

void Landscape::ToXml(xml::Element* out) const {
  xml::Element* servers_el = out->AddChild("servers");
  for (const ServerSpec& server : servers) {
    server.ToXml(servers_el->AddChild("server"));
  }
  xml::Element* services_el = out->AddChild("services");
  for (const ServiceSpec& service : services) {
    service.ToXml(services_el->AddChild("service"));
  }
  xml::Element* workload_el = out->AddChild("workload");
  if (rng_kind != RngKind::kXoshiro) {
    // Only non-default disciplines are serialized, so legacy exports
    // stay byte-identical.
    workload_el->SetAttribute("rng", std::string(RngKindName(rng_kind)));
  }
  for (const ServiceDemandSpec& spec : demand) {
    xml::Element* demand_el = workload_el->AddChild("demand");
    demand_el->SetAttribute("service", spec.service);
    demand_el->SetAttribute("pattern", spec.pattern.name());
    demand_el->SetAttribute("users", StrFormat("%g", spec.base_users));
    demand_el->SetAttribute("requestCost",
                            StrFormat("%g", spec.request_cost));
    demand_el->SetAttribute("baseLoadWu",
                            StrFormat("%g", spec.base_load_wu));
    demand_el->SetAttribute("batch", spec.batch ? "true" : "false");
    demand_el->SetAttribute("batchLoadWu",
                            StrFormat("%g", spec.batch_load_wu));
    demand_el->SetAttribute("noise", StrFormat("%g", spec.noise_stddev));
  }
  for (const SubsystemSpec& spec : subsystems) {
    xml::Element* subsystem_el = workload_el->AddChild("subsystem");
    subsystem_el->SetAttribute("name", spec.name);
    std::vector<std::string> apps(spec.app_services.begin(),
                                  spec.app_services.end());
    subsystem_el->SetAttribute("apps", Join(apps, ","));
    subsystem_el->SetAttribute("centralInstance", spec.central_instance);
    subsystem_el->SetAttribute("database", spec.database);
    subsystem_el->SetAttribute("ciFactor", StrFormat("%g", spec.ci_factor));
    subsystem_el->SetAttribute("dbFactor", StrFormat("%g", spec.db_factor));
  }
  xml::Element* allocation_el = out->AddChild("allocation");
  for (const auto& [service, server] : initial_allocation) {
    xml::Element* place = allocation_el->AddChild("place");
    place->SetAttribute("service", service);
    place->SetAttribute("server", server);
  }
}

Result<Landscape> Landscape::FromXml(const xml::Element& element) {
  Landscape landscape;
  AG_ASSIGN_OR_RETURN(const xml::Element* servers_el,
                      element.RequireChild("servers"));
  for (const xml::Element* server : servers_el->FindChildren("server")) {
    AG_ASSIGN_OR_RETURN(ServerSpec spec, ServerSpec::FromXml(*server));
    landscape.servers.push_back(std::move(spec));
  }
  AG_ASSIGN_OR_RETURN(const xml::Element* services_el,
                      element.RequireChild("services"));
  for (const xml::Element* service : services_el->FindChildren("service")) {
    AG_ASSIGN_OR_RETURN(ServiceSpec spec, ServiceSpec::FromXml(*service));
    landscape.services.push_back(std::move(spec));
  }
  if (const xml::Element* workload_el = element.FindChild("workload")) {
    std::string_view rng = workload_el->AttributeOr("rng", "xoshiro");
    if (!ParseRngKind(rng, &landscape.rng_kind)) {
      return Status::InvalidArgument(
          StrFormat("workload: unknown rng discipline '%s' "
                    "(expected 'xoshiro' or 'philox')",
                    std::string(rng).c_str()));
    }
    for (const xml::Element* demand_el :
         workload_el->FindChildren("demand")) {
      ServiceDemandSpec spec;
      AG_ASSIGN_OR_RETURN(spec.service,
                          demand_el->StringAttribute("service"));
      std::string_view pattern = demand_el->AttributeOr("pattern", "flat:0");
      AG_ASSIGN_OR_RETURN(spec.pattern, LoadPattern::FromName(pattern));
      AG_ASSIGN_OR_RETURN(spec.base_users,
                          demand_el->DoubleAttributeOr("users", 0));
      AG_ASSIGN_OR_RETURN(spec.request_cost,
                          demand_el->DoubleAttributeOr("requestCost", 1.0));
      AG_ASSIGN_OR_RETURN(spec.base_load_wu,
                          demand_el->DoubleAttributeOr("baseLoadWu", 0.02));
      AG_ASSIGN_OR_RETURN(spec.batch,
                          demand_el->BoolAttributeOr("batch", false));
      AG_ASSIGN_OR_RETURN(spec.batch_load_wu,
                          demand_el->DoubleAttributeOr("batchLoadWu", 0));
      AG_ASSIGN_OR_RETURN(spec.noise_stddev,
                          demand_el->DoubleAttributeOr("noise", 0.04));
      landscape.demand.push_back(std::move(spec));
    }
    for (const xml::Element* subsystem_el :
         workload_el->FindChildren("subsystem")) {
      SubsystemSpec spec;
      AG_ASSIGN_OR_RETURN(spec.name, subsystem_el->StringAttribute("name"));
      std::string_view apps = subsystem_el->AttributeOr("apps", "");
      for (std::string_view app : Split(apps, ',')) {
        app = StripWhitespace(app);
        if (!app.empty()) spec.app_services.emplace_back(app);
      }
      spec.central_instance =
          std::string(subsystem_el->AttributeOr("centralInstance", ""));
      spec.database = std::string(subsystem_el->AttributeOr("database", ""));
      AG_ASSIGN_OR_RETURN(spec.ci_factor,
                          subsystem_el->DoubleAttributeOr("ciFactor", 0.05));
      AG_ASSIGN_OR_RETURN(spec.db_factor,
                          subsystem_el->DoubleAttributeOr("dbFactor", 0.25));
      landscape.subsystems.push_back(std::move(spec));
    }
  }
  if (const xml::Element* allocation_el = element.FindChild("allocation")) {
    for (const xml::Element* place : allocation_el->FindChildren("place")) {
      AG_ASSIGN_OR_RETURN(std::string service,
                          place->StringAttribute("service"));
      AG_ASSIGN_OR_RETURN(std::string server,
                          place->StringAttribute("server"));
      landscape.initial_allocation.emplace_back(std::move(service),
                                                std::move(server));
    }
  }
  return landscape;
}

namespace {

/// Action capability sets per scenario (Tables 5 and 6).
ActionSet AppActions(Scenario scenario) {
  switch (scenario) {
    case Scenario::kStatic:
      return {};
    case Scenario::kConstrainedMobility:
      return {ActionType::kScaleIn, ActionType::kScaleOut};
    case Scenario::kFullMobility:
      return {ActionType::kScaleIn, ActionType::kScaleOut,
              ActionType::kScaleUp, ActionType::kScaleDown,
              ActionType::kMove};
  }
  return {};
}

ActionSet CentralInstanceActions(Scenario scenario) {
  if (scenario == Scenario::kFullMobility) {
    return {ActionType::kScaleUp, ActionType::kScaleDown,
            ActionType::kMove};
  }
  return {};
}

ActionSet BwDatabaseActions(Scenario scenario) {
  if (scenario == Scenario::kFullMobility) {
    // Table 6: "database BW ... scale-in, scale-out" — it can be
    // distributed across several servers.
    return {ActionType::kScaleIn, ActionType::kScaleOut};
  }
  return {};
}

ServerSpec Blade(const std::string& name, const std::string& category,
                 double pi, int cpus, double clock_ghz, double cache_mb,
                 double memory_gb) {
  ServerSpec spec;
  spec.name = name;
  spec.category = category;
  spec.performance_index = pi;
  spec.num_cpus = cpus;
  spec.cpu_clock_ghz = clock_ghz;
  spec.cpu_cache_mb = cache_mb;
  spec.memory_gb = memory_gb;
  spec.swap_gb = memory_gb * 2;
  spec.temp_gb = 40;
  return spec;
}

ServiceSpec AppService(const std::string& name,
                       const std::string& subsystem, int min_instances,
                       int max_instances, Scenario scenario) {
  ServiceSpec spec;
  spec.name = name;
  spec.role = ServiceRole::kApplicationServer;
  spec.subsystem = subsystem;
  spec.min_instances = min_instances;
  spec.max_instances = max_instances;
  spec.memory_footprint_gb = 1.25;
  spec.allowed_actions = AppActions(scenario);
  return spec;
}

ServiceSpec CentralInstance(const std::string& name,
                            const std::string& subsystem,
                            Scenario scenario) {
  ServiceSpec spec;
  spec.name = name;
  spec.role = ServiceRole::kCentralInstance;
  spec.subsystem = subsystem;
  spec.min_instances = 1;
  spec.max_instances = 1;
  spec.memory_footprint_gb = 1.0;
  spec.allowed_actions = CentralInstanceActions(scenario);
  return spec;
}

ServiceSpec Database(const std::string& name, const std::string& subsystem,
                     bool exclusive, int max_instances,
                     ActionSet actions) {
  ServiceSpec spec;
  spec.name = name;
  spec.role = ServiceRole::kDatabase;
  spec.subsystem = subsystem;
  spec.exclusive = exclusive;
  spec.min_performance_index = 5.0;  // Tables 5/6: "min. perf. index 5"
  spec.min_instances = 1;
  spec.max_instances = max_instances;
  spec.memory_footprint_gb = 4.0;
  spec.allowed_actions = std::move(actions);
  return spec;
}

ServiceDemandSpec InteractiveDemand(const std::string& service,
                                    double users,
                                    double morning_peak_h) {
  ServiceDemandSpec spec;
  spec.service = service;
  workload::InteractiveParams params;
  params.morning_peak_h = morning_peak_h;
  spec.pattern = LoadPattern::Interactive(params);
  spec.base_users = users;
  spec.request_cost = 1.0;
  spec.base_load_wu = 0.01;
  spec.noise_stddev = 0.02;
  return spec;
}

ServiceDemandSpec DerivedDemand(const std::string& service,
                                double base_load_wu, double backlog_cap) {
  ServiceDemandSpec spec;
  spec.service = service;
  spec.pattern = LoadPattern::Flat(0);
  spec.base_users = 0;
  spec.base_load_wu = base_load_wu;
  spec.noise_stddev = 0.0;
  spec.backlog_cap_wu = backlog_cap;
  spec.shared_queue = true;
  return spec;
}

}  // namespace

Landscape MakePaperLandscape(Scenario scenario) {
  Landscape landscape;

  // --- Hardware (Figure 11) ---------------------------------------------
  for (int i = 1; i <= 8; ++i) {
    landscape.servers.push_back(Blade(StrFormat("Blade%d", i), "FSC-BX300",
                                      1.0, 1, 0.933, 0.25, 2.0));
  }
  for (int i = 9; i <= 16; ++i) {
    landscape.servers.push_back(Blade(StrFormat("Blade%d", i), "FSC-BX600",
                                      2.0, 2, 0.933, 0.25, 4.0));
  }
  for (int i = 1; i <= 3; ++i) {
    landscape.servers.push_back(Blade(StrFormat("DBServer%d", i),
                                      "HP-ProliantBL40p", 9.0, 4, 2.8, 2.0,
                                      12.0));
  }

  // --- Services and constraints (Tables 4, 5, 6) -------------------------
  // Table 5/6: "min. 2 FI instances, min. 2 LES instances".
  landscape.services.push_back(AppService("FI", "ERP", 2, 8, scenario));
  landscape.services.push_back(AppService("LES", "ERP", 2, 8, scenario));
  landscape.services.push_back(AppService("PP", "ERP", 1, 8, scenario));
  landscape.services.push_back(AppService("HR", "ERP", 1, 4, scenario));
  landscape.services.push_back(AppService("CRM", "CRM", 1, 4, scenario));
  landscape.services.push_back(AppService("BW", "BW", 1, 4, scenario));
  landscape.services.push_back(CentralInstance("CI-ERP", "ERP", scenario));
  landscape.services.push_back(CentralInstance("CI-CRM", "CRM", scenario));
  landscape.services.push_back(CentralInstance("CI-BW", "BW", scenario));
  landscape.services.push_back(
      Database("DB-ERP", "ERP", /*exclusive=*/true, 1, {}));
  landscape.services.push_back(
      Database("DB-CRM", "CRM", /*exclusive=*/false, 1, {}));
  landscape.services.push_back(Database("DB-BW", "BW", /*exclusive=*/false,
                                        scenario == Scenario::kFullMobility
                                            ? 3
                                            : 1,
                                        BwDatabaseActions(scenario)));

  // --- Demand model (Table 4 users; Figure 10 curves) ---------------------
  // Morning peaks staggered slightly per department but all well
  // clear of the midday peak, so no service's Gaussians stack into a
  // hotter combined plateau than any other's.
  landscape.demand.push_back(InteractiveDemand("FI", 600, 9.3));
  landscape.demand.push_back(InteractiveDemand("LES", 900, 9.2));
  landscape.demand.push_back(InteractiveDemand("PP", 450, 9.4));
  landscape.demand.push_back(InteractiveDemand("HR", 300, 9.35));
  landscape.demand.push_back(InteractiveDemand("CRM", 300, 9.25));
  {
    // BW processes night batch jobs (60 interactive users are folded
    // into the pattern's small day level).
    ServiceDemandSpec bw;
    bw.service = "BW";
    bw.pattern = LoadPattern::NightBatch();
    bw.batch = true;
    bw.batch_load_wu = 3.0;  // two PI-2 hosts at ~75 % during the night
    bw.base_load_wu = 0.02;
    bw.noise_stddev = 0.05;
    bw.backlog_cap_wu = 20.0;  // batch jobs queue patiently
    bw.shared_queue = true;
    landscape.demand.push_back(std::move(bw));
  }
  landscape.demand.push_back(DerivedDemand("CI-ERP", 0.03, 2.0));
  landscape.demand.push_back(DerivedDemand("CI-CRM", 0.03, 2.0));
  landscape.demand.push_back(DerivedDemand("CI-BW", 0.03, 2.0));
  landscape.demand.push_back(DerivedDemand("DB-ERP", 0.10, 20.0));
  landscape.demand.push_back(DerivedDemand("DB-CRM", 0.10, 20.0));
  landscape.demand.push_back(DerivedDemand("DB-BW", 0.10, 20.0));

  // --- Three-tier wiring (Figure 9) ---------------------------------------
  landscape.subsystems.push_back(SubsystemSpec{
      "ERP", {"FI", "LES", "PP", "HR"}, "CI-ERP", "DB-ERP", 0.05, 0.46});
  landscape.subsystems.push_back(
      SubsystemSpec{"CRM", {"CRM"}, "CI-CRM", "DB-CRM", 0.05, 0.25});
  // BW batch jobs hammer their database ("the database of the BW
  // subsystem uses the resources of DBServer3 heavily", §5.2).
  landscape.subsystems.push_back(
      SubsystemSpec{"BW", {"BW"}, "CI-BW", "DB-BW", 0.02, 1.97});

  // --- Initial allocation (Figure 11) -------------------------------------
  landscape.initial_allocation = {
      {"LES", "Blade1"},    {"LES", "Blade2"},   {"FI", "Blade3"},
      {"PP", "Blade4"},     {"FI", "Blade5"},    {"CI-ERP", "Blade6"},
      {"CI-CRM", "Blade7"}, {"CI-BW", "Blade8"}, {"BW", "Blade9"},
      {"HR", "Blade10"},    {"FI", "Blade11"},   {"LES", "Blade12"},
      {"LES", "Blade13"},   {"PP", "Blade14"},   {"CRM", "Blade15"},
      {"BW", "Blade16"},    {"DB-ERP", "DBServer1"},
      {"DB-CRM", "DBServer2"},                   {"DB-BW", "DBServer3"},
  };
  return landscape;
}

}  // namespace autoglobe
