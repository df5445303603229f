#include "infra/action.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace autoglobe::infra {
namespace {

TEST(ActionTypeTest, NamesMatchTable2OutputVariables) {
  EXPECT_EQ(ActionTypeName(ActionType::kStart), "start");
  EXPECT_EQ(ActionTypeName(ActionType::kStop), "stop");
  EXPECT_EQ(ActionTypeName(ActionType::kScaleIn), "scaleIn");
  EXPECT_EQ(ActionTypeName(ActionType::kScaleOut), "scaleOut");
  EXPECT_EQ(ActionTypeName(ActionType::kScaleUp), "scaleUp");
  EXPECT_EQ(ActionTypeName(ActionType::kScaleDown), "scaleDown");
  EXPECT_EQ(ActionTypeName(ActionType::kMove), "move");
  EXPECT_EQ(ActionTypeName(ActionType::kIncreasePriority),
            "increasePriority");
  EXPECT_EQ(ActionTypeName(ActionType::kReducePriority), "reducePriority");
}

TEST(ActionTypeTest, ParseRoundTripsAllTypes) {
  for (ActionType type : kAllActionTypes) {
    auto parsed = ParseActionType(ActionTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
}

TEST(ActionTypeTest, ParseAcceptsPaperSpellings) {
  EXPECT_EQ(*ParseActionType("scale-out"), ActionType::kScaleOut);
  EXPECT_EQ(*ParseActionType("scale-in"), ActionType::kScaleIn);
  EXPECT_EQ(*ParseActionType("scale-up"), ActionType::kScaleUp);
  EXPECT_EQ(*ParseActionType("scale-down"), ActionType::kScaleDown);
  EXPECT_EQ(*ParseActionType("increase-priority"),
            ActionType::kIncreasePriority);
  EXPECT_EQ(*ParseActionType("reduce-priority"),
            ActionType::kReducePriority);
  EXPECT_EQ(*ParseActionType("SCALEOUT"), ActionType::kScaleOut);
  EXPECT_FALSE(ParseActionType("explode").ok());
}

TEST(ActionTypeTest, TargetServerRequirementMatchesSection42) {
  // "In the case of a scale-out, scale-up, scale-down, move, or
  //  start, an appropriate target server ... must be chosen."
  EXPECT_TRUE(ActionNeedsTargetServer(ActionType::kScaleOut));
  EXPECT_TRUE(ActionNeedsTargetServer(ActionType::kScaleUp));
  EXPECT_TRUE(ActionNeedsTargetServer(ActionType::kScaleDown));
  EXPECT_TRUE(ActionNeedsTargetServer(ActionType::kMove));
  EXPECT_TRUE(ActionNeedsTargetServer(ActionType::kStart));
  EXPECT_FALSE(ActionNeedsTargetServer(ActionType::kStop));
  EXPECT_FALSE(ActionNeedsTargetServer(ActionType::kScaleIn));
  EXPECT_FALSE(ActionNeedsTargetServer(ActionType::kIncreasePriority));
  EXPECT_FALSE(ActionNeedsTargetServer(ActionType::kReducePriority));
}

TEST(ActionTypeTest, InstanceRequirement) {
  EXPECT_TRUE(ActionNeedsInstance(ActionType::kScaleIn));
  EXPECT_TRUE(ActionNeedsInstance(ActionType::kMove));
  EXPECT_TRUE(ActionNeedsInstance(ActionType::kScaleUp));
  EXPECT_TRUE(ActionNeedsInstance(ActionType::kScaleDown));
  EXPECT_FALSE(ActionNeedsInstance(ActionType::kScaleOut));
  EXPECT_FALSE(ActionNeedsInstance(ActionType::kStart));
  EXPECT_FALSE(ActionNeedsInstance(ActionType::kStop));
}

TEST(ActionTest, ToStringFormats) {
  Action scale_out{ActionType::kScaleOut, "FI", 0, "", "Blade6"};
  EXPECT_EQ(scale_out.ToString(), "scaleOut FI -> Blade6");
  Action scale_in{ActionType::kScaleIn, "FI", 7, "Blade5", ""};
  EXPECT_EQ(scale_in.ToString(), "scaleIn FI@Blade5");
  Action move{ActionType::kMove, "LES", 3, "Blade1", "Blade9"};
  EXPECT_EQ(move.ToString(), "move LES@Blade1 -> Blade9");
}

TEST(ActionSetTest, BehavesLikeAnOrderedSetOfActionTypes) {
  // Every subset, inserted in reverse and twice over, holds and visits
  // exactly the members a std::set would, in enum order.
  for (unsigned mask = 0; mask < (1u << 9); ++mask) {
    std::set<ActionType> reference;
    ActionSet set;
    for (int i = 8; i >= 0; --i) {
      if ((mask >> i) & 1u) {
        reference.insert(kAllActionTypes[i]);
        set.insert(kAllActionTypes[i]);
        set.insert(kAllActionTypes[i]);
      }
    }
    EXPECT_EQ(std::vector<ActionType>(set.begin(), set.end()),
              std::vector<ActionType>(reference.begin(), reference.end()))
        << mask;
    EXPECT_EQ(set.size(), reference.size());
    EXPECT_EQ(set.empty(), reference.empty());
    for (ActionType type : kAllActionTypes) {
      EXPECT_EQ(set.count(type), reference.count(type));
    }
  }
  ActionSet set = {ActionType::kMove, ActionType::kScaleIn,
                   ActionType::kScaleIn};
  EXPECT_EQ(set, (ActionSet{ActionType::kScaleIn, ActionType::kMove}));
  EXPECT_NE(set, ActionSet{ActionType::kMove});
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.begin(), set.end());
}

}  // namespace
}  // namespace autoglobe::infra
