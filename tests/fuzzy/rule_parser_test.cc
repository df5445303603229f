#include "fuzzy/rule_parser.h"

#include <gtest/gtest.h>

#include <ostream>

namespace autoglobe::fuzzy {
namespace {

TEST(RuleParserTest, SimpleRule) {
  auto rule = ParseRule("IF cpuLoad IS high THEN scaleOut IS applicable");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->consequent().variable, "scaleOut");
  EXPECT_EQ(rule->consequent().term, "applicable");
  EXPECT_DOUBLE_EQ(rule->weight(), 1.0);
  EXPECT_EQ(rule->antecedent().ToString(), "cpuLoad IS high");
}

TEST(RuleParserTest, PaperSampleRuleWithParentheses) {
  // First sample rule from paper §3.
  auto rule = ParseRule(
      "IF cpuLoad IS high AND (performanceIndex IS low OR "
      "performanceIndex IS medium) THEN scaleUp IS applicable");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->antecedent().ToString(),
            "(cpuLoad IS high AND (performanceIndex IS low OR "
            "performanceIndex IS medium))");
  EXPECT_EQ(rule->consequent().variable, "scaleUp");
}

TEST(RuleParserTest, KeywordsAreCaseInsensitive) {
  auto rule = ParseRule("if cpuLoad is high then scaleOut is applicable");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->consequent().variable, "scaleOut");
}

TEST(RuleParserTest, IsNotNegation) {
  auto rule = ParseRule("IF cpuLoad IS NOT high THEN stop IS applicable");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->antecedent().ToString(), "cpuLoad IS NOT high");
}

TEST(RuleParserTest, HedgesParse) {
  auto very = ParseRule("IF cpuLoad IS VERY high THEN stop IS applicable");
  ASSERT_TRUE(very.ok()) << very.status();
  EXPECT_EQ(very->antecedent().ToString(), "cpuLoad IS VERY high");
  auto somewhat =
      ParseRule("IF cpuLoad IS somewhat high THEN stop IS applicable");
  ASSERT_TRUE(somewhat.ok()) << somewhat.status();
  EXPECT_EQ(somewhat->antecedent().ToString(),
            "cpuLoad IS SOMEWHAT high");
  // Hedge and negation combine: NOT (VERY high).
  auto combined = ParseRule(
      "IF cpuLoad IS NOT VERY high THEN stop IS applicable");
  ASSERT_TRUE(combined.ok()) << combined.status();
  EXPECT_EQ(combined->antecedent().ToString(),
            "cpuLoad IS NOT VERY high");
  // A hedge keyword cannot serve as a term name.
  EXPECT_FALSE(
      ParseRule("IF cpuLoad IS very THEN stop IS applicable").ok());
}

TEST(RuleParserTest, PrefixNotExpression) {
  auto rule = ParseRule(
      "IF NOT (cpuLoad IS high AND memLoad IS high) "
      "THEN reduce-priority IS applicable");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->antecedent().ToString(),
            "NOT (cpuLoad IS high AND memLoad IS high)");
  EXPECT_EQ(rule->consequent().variable, "reduce-priority");
}

TEST(RuleParserTest, OperatorPrecedenceAndBindsTighter) {
  auto rule = ParseRule(
      "IF a IS x OR b IS y AND c IS z THEN out IS applicable");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->antecedent().ToString(),
            "(a IS x OR (b IS y AND c IS z))");
}

TEST(RuleParserTest, WeightClause) {
  auto rule = ParseRule(
      "IF cpuLoad IS high THEN scaleOut IS applicable WITH 0.8");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_DOUBLE_EQ(rule->weight(), 0.8);
  EXPECT_FALSE(
      ParseRule("IF a IS b THEN c IS d WITH 1.5").ok());
  EXPECT_FALSE(
      ParseRule("IF a IS b THEN c IS d WITH x").ok());
}

TEST(RuleParserTest, MultipleRulesAndComments) {
  auto rules = ParseRules(
      "# overload handling\n"
      "IF cpuLoad IS high THEN scaleOut IS applicable\n"
      "// idle handling\n"
      "IF cpuLoad IS low THEN scaleIn IS applicable;\n"
      "IF memLoad IS high THEN move IS applicable\n");
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->size(), 3u);
}

TEST(RuleParserTest, EmptyInputYieldsNoRules) {
  auto rules = ParseRules("   \n # just a comment \n");
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_TRUE(rules->empty());
}

TEST(RuleParserTest, RoundTripThroughToString) {
  const char* text =
      "IF cpuLoad IS high AND (performanceIndex IS low OR "
      "performanceIndex IS medium) THEN scaleUp IS applicable";
  auto rule = ParseRule(text);
  ASSERT_TRUE(rule.ok());
  auto reparsed = ParseRule(rule->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ToString(), rule->ToString());
}

struct BadRuleCase {
  const char* name;
  const char* text;
};

// Without this gtest prints the raw bytes of the two pointers, so the
// listed case names (and the ctest names derived from them) would change
// with every build and every load address.
void PrintTo(const BadRuleCase& c, std::ostream* os) { *os << c.name; }

class RuleParserErrorTest : public ::testing::TestWithParam<BadRuleCase> {};

TEST_P(RuleParserErrorTest, Rejected) {
  auto rule = ParseRule(GetParam().text);
  EXPECT_FALSE(rule.ok()) << "should reject: " << GetParam().text;
  if (!rule.ok()) {
    EXPECT_EQ(rule.status().code(), StatusCode::kParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, RuleParserErrorTest,
    ::testing::Values(
        BadRuleCase{"MissingIf", "cpuLoad IS high THEN x IS y"},
        BadRuleCase{"MissingThen", "IF cpuLoad IS high x IS y"},
        BadRuleCase{"MissingIs", "IF cpuLoad high THEN x IS y"},
        BadRuleCase{"UnbalancedParen", "IF (a IS b THEN x IS y"},
        BadRuleCase{"EmptyAntecedent", "IF THEN x IS y"},
        BadRuleCase{"TrailingGarbage", "IF a IS b THEN x IS y z w"},
        BadRuleCase{"KeywordAsIdent", "IF IF IS b THEN x IS y"},
        BadRuleCase{"DanglingAnd", "IF a IS b AND THEN x IS y"},
        BadRuleCase{"BadChar", "IF a IS b THEN x IS y @"},
        BadRuleCase{"Empty", ""}),
    [](const ::testing::TestParamInfo<BadRuleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace autoglobe::fuzzy
