#include "infra/specs.h"

#include <gtest/gtest.h>

#include "xmlcfg/xml.h"

namespace autoglobe::infra {
namespace {

TEST(ServerSpecTest, FromXmlReadsAllAttributes) {
  auto doc = xml::Document::Parse(R"(
    <server name="DBServer1" category="HP-ProliantBL40p"
            performanceIndex="9" cpus="4" clockGhz="2.8" cacheMb="2"
            memoryGb="12" swapGb="24" tempGb="40"/>)");
  ASSERT_TRUE(doc.ok());
  auto spec = ServerSpec::FromXml(*doc->root());
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "DBServer1");
  EXPECT_EQ(spec->category, "HP-ProliantBL40p");
  EXPECT_DOUBLE_EQ(spec->performance_index, 9);
  EXPECT_EQ(spec->num_cpus, 4);
  EXPECT_DOUBLE_EQ(spec->cpu_clock_ghz, 2.8);
  EXPECT_DOUBLE_EQ(spec->memory_gb, 12);
}

TEST(ServerSpecTest, DefaultsApplied) {
  auto doc = xml::Document::Parse("<server name=\"Blade1\"/>");
  ASSERT_TRUE(doc.ok());
  auto spec = ServerSpec::FromXml(*doc->root());
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->performance_index, 1.0);
  EXPECT_EQ(spec->num_cpus, 1);
}

TEST(ServerSpecTest, ValidationRejectsBadValues) {
  ServerSpec spec;
  spec.name = "";
  EXPECT_FALSE(spec.Validate().ok());
  spec.name = "x";
  spec.performance_index = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.performance_index = 1;
  spec.memory_gb = -1;
  EXPECT_FALSE(spec.Validate().ok());
  spec.memory_gb = 2;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(ServerSpecTest, NonFiniteValueRejected) {
  // NaN fails every `<= 0` check, so it must not parse at all.
  auto doc = xml::Document::Parse(
      "<server name=\"Blade1\" performanceIndex=\"nan\"/>");
  ASSERT_TRUE(doc.ok());
  auto spec = ServerSpec::FromXml(*doc->root());
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
}

/// Loads `xml` as a server or service spec and expects a ParseError.
template <typename Spec>
void ExpectOutOfIntRange(const std::string& xml) {
  auto doc = xml::Document::Parse(xml);
  ASSERT_TRUE(doc.ok());
  auto spec = Spec::FromXml(*doc->root());
  ASSERT_FALSE(spec.ok()) << xml;
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError) << xml;
}

TEST(ServerSpecTest, CpusOutOfIntRangeRejected) {
  // 2^32 + 1 would narrow to 1 cpu and pass validation.
  ExpectOutOfIntRange<ServerSpec>(
      "<server name=\"Blade1\" cpus=\"4294967297\"/>");
}

TEST(ServerSpecTest, XmlRoundTrip) {
  ServerSpec spec;
  spec.name = "Blade9";
  spec.category = "FSC-BX600";
  spec.performance_index = 2;
  spec.num_cpus = 2;
  spec.memory_gb = 4;
  xml::Document doc;
  spec.ToXml(doc.SetRoot("server"));
  auto reparsed = ServerSpec::FromXml(*doc.root());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->name, spec.name);
  EXPECT_EQ(reparsed->category, spec.category);
  EXPECT_DOUBLE_EQ(reparsed->performance_index, 2);
  EXPECT_EQ(reparsed->num_cpus, 2);
}

TEST(ServiceRoleTest, ParseAndName) {
  EXPECT_EQ(*ParseServiceRole("applicationServer"),
            ServiceRole::kApplicationServer);
  EXPECT_EQ(*ParseServiceRole("ci"), ServiceRole::kCentralInstance);
  EXPECT_EQ(*ParseServiceRole("DATABASE"), ServiceRole::kDatabase);
  EXPECT_FALSE(ParseServiceRole("toaster").ok());
  EXPECT_EQ(ServiceRoleName(ServiceRole::kDatabase), "database");
}

TEST(ServiceSpecTest, FromXmlWithConstraintsAndActions) {
  // The FM application-server row of Table 6.
  auto doc = xml::Document::Parse(R"(
    <service name="FI" role="applicationServer" subsystem="ERP"
             exclusive="false" minPerformanceIndex="0"
             minInstances="2" maxInstances="8" memoryFootprintGb="1.4"
             actions="scaleUp, scaleDown, scaleIn, scaleOut, move"/>)");
  ASSERT_TRUE(doc.ok());
  auto spec = ServiceSpec::FromXml(*doc->root());
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "FI");
  EXPECT_EQ(spec->role, ServiceRole::kApplicationServer);
  EXPECT_EQ(spec->subsystem, "ERP");
  EXPECT_EQ(spec->min_instances, 2);
  EXPECT_EQ(spec->max_instances, 8);
  EXPECT_EQ(spec->allowed_actions.size(), 5u);
  EXPECT_TRUE(spec->Allows(ActionType::kScaleOut));
  EXPECT_TRUE(spec->Allows(ActionType::kMove));
  EXPECT_FALSE(spec->Allows(ActionType::kStop));
}

TEST(ServiceSpecTest, ExclusiveDatabaseRow) {
  // The DB-ERP row of Tables 5/6: exclusive, min. perf. index 5,
  // no actions.
  auto doc = xml::Document::Parse(R"(
    <service name="DB-ERP" role="database" subsystem="ERP"
             exclusive="true" minPerformanceIndex="5"/>)");
  ASSERT_TRUE(doc.ok());
  auto spec = ServiceSpec::FromXml(*doc->root());
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->exclusive);
  EXPECT_DOUBLE_EQ(spec->min_performance_index, 5);
  EXPECT_TRUE(spec->allowed_actions.empty());
}

TEST(ServiceSpecTest, ValidationRejectsBadBounds) {
  ServiceSpec spec;
  spec.name = "x";
  spec.min_instances = 3;
  spec.max_instances = 2;
  EXPECT_FALSE(spec.Validate().ok());
  spec.min_instances = 1;
  spec.max_instances = 2;
  spec.memory_footprint_gb = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.memory_footprint_gb = 1;
  spec.min_performance_index = -1;
  EXPECT_FALSE(spec.Validate().ok());
  spec.min_performance_index = 0;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(ServiceSpecTest, MinInstancesOutOfIntRangeRejected) {
  ExpectOutOfIntRange<ServiceSpec>(
      "<service name=\"FI\" minInstances=\"4294967297\"/>");
}

TEST(ServiceSpecTest, MaxInstancesOutOfIntRangeRejected) {
  ExpectOutOfIntRange<ServiceSpec>(
      "<service name=\"FI\" maxInstances=\"4294967298\"/>");
}

TEST(ServiceSpecTest, WatchTimeOutOfIntRangeRejected) {
  ExpectOutOfIntRange<ServiceSpec>(
      "<service name=\"FI\" watchTimeMinutes=\"-4294967296\"/>");
}

TEST(ServiceSpecTest, BadActionListRejected) {
  auto doc = xml::Document::Parse(
      "<service name=\"FI\" actions=\"scaleOut,fly\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ServiceSpec::FromXml(*doc->root()).ok());
}

TEST(ServiceSpecTest, XmlRoundTripKeepsActions) {
  ServiceSpec spec;
  spec.name = "LES";
  spec.role = ServiceRole::kApplicationServer;
  spec.subsystem = "ERP";
  spec.min_instances = 2;
  spec.max_instances = 8;
  spec.memory_footprint_gb = 1.25;
  spec.allowed_actions = {ActionType::kScaleIn, ActionType::kScaleOut};
  xml::Document doc;
  spec.ToXml(doc.SetRoot("service"));
  auto reparsed = ServiceSpec::FromXml(*doc.root());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->allowed_actions, spec.allowed_actions);
  EXPECT_EQ(reparsed->min_instances, 2);
}

}  // namespace
}  // namespace autoglobe::infra
