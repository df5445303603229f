#include "autoglobe/landscape.h"

#include <gtest/gtest.h>

#include "workload/demand.h"

namespace autoglobe {
namespace {

using infra::ActionType;
using infra::Cluster;
using infra::ServiceRole;

TEST(ScenarioTest, NamesAndParsing) {
  EXPECT_EQ(ScenarioName(Scenario::kStatic), "static");
  EXPECT_EQ(ScenarioName(Scenario::kConstrainedMobility),
            "constrained-mobility");
  EXPECT_EQ(ScenarioName(Scenario::kFullMobility), "full-mobility");
  EXPECT_EQ(*ParseScenario("static"), Scenario::kStatic);
  EXPECT_EQ(*ParseScenario("cm"), Scenario::kConstrainedMobility);
  EXPECT_EQ(*ParseScenario("FM"), Scenario::kFullMobility);
  EXPECT_FALSE(ParseScenario("chaos").ok());
}

TEST(LandscapeTest, HardwareMatchesFigure11) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  ASSERT_EQ(landscape.servers.size(), 19u);
  int bx300 = 0;
  int bx600 = 0;
  int bl40p = 0;
  for (const auto& server : landscape.servers) {
    if (server.category == "FSC-BX300") {
      ++bx300;
      EXPECT_DOUBLE_EQ(server.performance_index, 1);
      EXPECT_EQ(server.num_cpus, 1);
      EXPECT_DOUBLE_EQ(server.memory_gb, 2);
    } else if (server.category == "FSC-BX600") {
      ++bx600;
      EXPECT_DOUBLE_EQ(server.performance_index, 2);
      EXPECT_EQ(server.num_cpus, 2);
      EXPECT_DOUBLE_EQ(server.memory_gb, 4);
    } else {
      ++bl40p;
      EXPECT_DOUBLE_EQ(server.performance_index, 9);
      EXPECT_EQ(server.num_cpus, 4);
      EXPECT_DOUBLE_EQ(server.memory_gb, 12);
    }
  }
  // "8 FSC-BX300 blades ... 8 FSC-BX600 blades ... 3 HP-Proliant
  //  BL40p servers" (§5.1).
  EXPECT_EQ(bx300, 8);
  EXPECT_EQ(bx600, 8);
  EXPECT_EQ(bl40p, 3);
}

TEST(LandscapeTest, UsersAndInstancesMatchTable4) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  std::map<std::string, double> users;
  for (const auto& spec : landscape.demand) {
    users[spec.service] = spec.base_users;
  }
  EXPECT_DOUBLE_EQ(users["FI"], 600);
  EXPECT_DOUBLE_EQ(users["LES"], 900);
  EXPECT_DOUBLE_EQ(users["PP"], 450);
  EXPECT_DOUBLE_EQ(users["HR"], 300);
  EXPECT_DOUBLE_EQ(users["CRM"], 300);

  std::map<std::string, int> instances;
  for (const auto& [service, server] : landscape.initial_allocation) {
    ++instances[service];
  }
  EXPECT_EQ(instances["FI"], 3);
  EXPECT_EQ(instances["LES"], 4);
  EXPECT_EQ(instances["PP"], 2);
  EXPECT_EQ(instances["HR"], 1);
  EXPECT_EQ(instances["CRM"], 1);
  EXPECT_EQ(instances["BW"], 2);
  // Every subsystem has its CI and DB placed.
  EXPECT_EQ(instances["CI-ERP"], 1);
  EXPECT_EQ(instances["DB-ERP"], 1);
  EXPECT_EQ(landscape.initial_allocation.size(), 19u);
}

TEST(LandscapeTest, ConstraintsMatchTable5ForCm) {
  Landscape landscape = MakePaperLandscape(Scenario::kConstrainedMobility);
  std::map<std::string, const infra::ServiceSpec*> by_name;
  for (const auto& spec : landscape.services) by_name[spec.name] = &spec;

  // "database ERP: exclusive, min. perf. index 5" with no actions.
  EXPECT_TRUE(by_name["DB-ERP"]->exclusive);
  EXPECT_DOUBLE_EQ(by_name["DB-ERP"]->min_performance_index, 5);
  EXPECT_TRUE(by_name["DB-ERP"]->allowed_actions.empty());
  // "database BW, CRM: min. perf. index 5" static in CM.
  EXPECT_FALSE(by_name["DB-BW"]->exclusive);
  EXPECT_DOUBLE_EQ(by_name["DB-BW"]->min_performance_index, 5);
  EXPECT_TRUE(by_name["DB-BW"]->allowed_actions.empty());
  // "central instances: —".
  EXPECT_TRUE(by_name["CI-ERP"]->allowed_actions.empty());
  // "application server: min. 2 FI instances, min. 2 LES instances,
  //  scale-in, scale-out".
  EXPECT_EQ(by_name["FI"]->min_instances, 2);
  EXPECT_EQ(by_name["LES"]->min_instances, 2);
  infra::ActionSet cm_actions = {ActionType::kScaleIn,
                                 ActionType::kScaleOut};
  EXPECT_EQ(by_name["FI"]->allowed_actions, cm_actions);
  EXPECT_EQ(by_name["CRM"]->allowed_actions, cm_actions);
}

TEST(LandscapeTest, ConstraintsMatchTable6ForFm) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  std::map<std::string, const infra::ServiceSpec*> by_name;
  for (const auto& spec : landscape.services) by_name[spec.name] = &spec;

  // "database BW ... scale-in, scale-out" — distributable.
  infra::ActionSet bw_db = {ActionType::kScaleIn, ActionType::kScaleOut};
  EXPECT_EQ(by_name["DB-BW"]->allowed_actions, bw_db);
  EXPECT_GT(by_name["DB-BW"]->max_instances, 1);
  // "central instances: scale-up, scale-down, move".
  infra::ActionSet ci = {ActionType::kScaleUp, ActionType::kScaleDown,
                         ActionType::kMove};
  EXPECT_EQ(by_name["CI-ERP"]->allowed_actions, ci);
  // "application server: scale-up, scale-down, scale-in, scale-out,
  //  move".
  infra::ActionSet app = {ActionType::kScaleIn, ActionType::kScaleOut,
                          ActionType::kScaleUp, ActionType::kScaleDown,
                          ActionType::kMove};
  EXPECT_EQ(by_name["LES"]->allowed_actions, app);
  // DB-ERP stays pinned even in FM.
  EXPECT_TRUE(by_name["DB-ERP"]->allowed_actions.empty());
}

TEST(LandscapeTest, StaticScenarioAllowsNothing) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  for (const auto& spec : landscape.services) {
    EXPECT_TRUE(spec.allowed_actions.empty()) << spec.name;
  }
}

TEST(LandscapeTest, ThreeSubsystemsWired) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  ASSERT_EQ(landscape.subsystems.size(), 3u);
  const auto& erp = landscape.subsystems[0];
  EXPECT_EQ(erp.name, "ERP");
  EXPECT_EQ(erp.app_services.size(), 4u);
  EXPECT_EQ(erp.central_instance, "CI-ERP");
  EXPECT_EQ(erp.database, "DB-ERP");
  EXPECT_EQ(landscape.subsystems[1].name, "CRM");
  EXPECT_EQ(landscape.subsystems[2].name, "BW");
  // BW batch jobs are database-heavy (§5.2).
  EXPECT_GT(landscape.subsystems[2].db_factor,
            landscape.subsystems[0].db_factor);
}

TEST(LandscapeTest, BuildsIntoClusterAndEngine) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  Cluster cluster;
  workload::DemandEngine engine(&cluster, Rng(1));
  ASSERT_TRUE(landscape.Build(&cluster, &engine).ok());
  EXPECT_EQ(cluster.Servers().size(), 19u);
  EXPECT_EQ(cluster.Services().size(), 12u);
  EXPECT_EQ(cluster.total_instances(), 19u);
  // The initial allocation of Figure 11, spot-checked.
  ASSERT_EQ(cluster.InstancesOn("Blade3").size(), 1u);
  EXPECT_EQ(cluster.InstancesOn("Blade3")[0]->service, "FI");
  EXPECT_EQ(cluster.InstancesOn("DBServer1")[0]->service, "DB-ERP");
  EXPECT_EQ(cluster.InstancesOn("Blade6")[0]->service, "CI-ERP");
}

TEST(LandscapeTest, XmlRoundTrip) {
  Landscape landscape = MakePaperLandscape(Scenario::kConstrainedMobility);
  xml::Document doc;
  landscape.ToXml(doc.SetRoot("landscape"));
  auto reparsed_doc = xml::Document::Parse(doc.ToString());
  ASSERT_TRUE(reparsed_doc.ok()) << reparsed_doc.status();
  auto reparsed = Landscape::FromXml(*reparsed_doc->root());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->servers.size(), landscape.servers.size());
  EXPECT_EQ(reparsed->services.size(), landscape.services.size());
  EXPECT_EQ(reparsed->demand.size(), landscape.demand.size());
  EXPECT_EQ(reparsed->subsystems.size(), landscape.subsystems.size());
  EXPECT_EQ(reparsed->initial_allocation, landscape.initial_allocation);
  // The demand model survives behaviorally, including the per-service
  // morning-peak stagger carried in the pattern name.
  for (size_t i = 0; i < landscape.demand.size(); ++i) {
    EXPECT_EQ(reparsed->demand[i].pattern.name(),
              landscape.demand[i].pattern.name())
        << landscape.demand[i].service;
    SimTime probe = SimTime::Start() + Duration::Hours(9) +
                    Duration::Minutes(20);
    EXPECT_DOUBLE_EQ(reparsed->demand[i].pattern.Activity(probe),
                     landscape.demand[i].pattern.Activity(probe))
        << landscape.demand[i].service;
  }
  // The rebuilt landscape still materializes.
  Cluster cluster;
  ASSERT_TRUE(reparsed->Build(&cluster, nullptr).ok());
  EXPECT_EQ(cluster.total_instances(), 19u);
}

TEST(LandscapeTest, FromXmlRejectsMissingSections) {
  auto doc = xml::Document::Parse("<landscape><servers/></landscape>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(Landscape::FromXml(*doc->root()).ok());
}

TEST(LandscapeTest, RngDisciplineRoundTripsThroughXml) {
  // Default (xoshiro) serializes without an rng attribute so legacy
  // exports stay byte-identical, and parses back as xoshiro.
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  EXPECT_EQ(landscape.rng_kind, RngKind::kXoshiro);
  xml::Document doc;
  landscape.ToXml(doc.SetRoot("landscape"));
  EXPECT_EQ(doc.ToString().find("rng"), std::string::npos);
  auto reparsed = Landscape::FromXml(*doc.root());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->rng_kind, RngKind::kXoshiro);

  // Philox round-trips through the workload element's rng attribute.
  landscape.rng_kind = RngKind::kPhilox;
  xml::Document philox_doc;
  landscape.ToXml(philox_doc.SetRoot("landscape"));
  EXPECT_NE(philox_doc.ToString().find("rng=\"philox\""),
            std::string::npos);
  auto philox_parsed = xml::Document::Parse(philox_doc.ToString());
  ASSERT_TRUE(philox_parsed.ok()) << philox_parsed.status();
  auto philox = Landscape::FromXml(*philox_parsed->root());
  ASSERT_TRUE(philox.ok()) << philox.status();
  EXPECT_EQ(philox->rng_kind, RngKind::kPhilox);
}

TEST(LandscapeTest, FromXmlRejectsUnknownRngDiscipline) {
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  xml::Document doc;
  landscape.ToXml(doc.SetRoot("landscape"));
  std::string xml = doc.ToString();
  size_t pos = xml.find("<workload>");
  ASSERT_NE(pos, std::string::npos);
  xml.replace(pos, 10, "<workload rng=\"mersenne\">");
  auto parsed = xml::Document::Parse(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto result = Landscape::FromXml(*parsed->root());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("mersenne"), std::string::npos);
}

}  // namespace
}  // namespace autoglobe
