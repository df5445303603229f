#include "sim/simulator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace autoglobe::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), SimTime::Start());
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, EventsFireInTimestampOrder) {
  Simulator simulator;
  std::vector<std::string> order;
  ASSERT_TRUE(simulator
                  .ScheduleAt(SimTime::FromSeconds(30), "b",
                              [&] { order.push_back("b"); })
                  .ok());
  ASSERT_TRUE(simulator
                  .ScheduleAt(SimTime::FromSeconds(10), "a",
                              [&] { order.push_back("a"); })
                  .ok());
  ASSERT_TRUE(simulator
                  .ScheduleAt(SimTime::FromSeconds(20), "m",
                              [&] { order.push_back("m"); })
                  .ok());
  simulator.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "m", "b"}));
  EXPECT_EQ(simulator.now(), SimTime::FromSeconds(30));
  EXPECT_EQ(simulator.dispatched_events(), 3u);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(simulator
                    .ScheduleAt(SimTime::FromSeconds(10), "tie",
                                [&order, i] { order.push_back(i); })
                    .ok());
  }
  simulator.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator simulator;
  SimTime fired;
  ASSERT_TRUE(simulator
                  .ScheduleAfter(Duration::Minutes(5), "outer",
                                 [&] {
                                   auto inner = simulator.ScheduleAfter(
                                       Duration::Minutes(2), "inner",
                                       [&] { fired = simulator.now(); });
                                   ASSERT_TRUE(inner.ok());
                                 })
                  .ok());
  simulator.RunAll();
  EXPECT_EQ(fired, SimTime::Start() + Duration::Minutes(7));
}

TEST(SimulatorTest, RejectsPastAndInvalid) {
  Simulator simulator;
  ASSERT_TRUE(
      simulator.ScheduleAt(SimTime::FromSeconds(100), "x", [] {}).ok());
  simulator.RunAll();
  EXPECT_FALSE(
      simulator.ScheduleAt(SimTime::FromSeconds(50), "past", [] {}).ok());
  EXPECT_FALSE(simulator.ScheduleAfter(Duration::Seconds(-1), "neg", [] {})
                   .ok());
  EXPECT_FALSE(
      simulator.ScheduleAt(SimTime::FromSeconds(200), "null", nullptr).ok());
  EXPECT_FALSE(simulator.SchedulePeriodic(Duration::Zero(), "p", [] {}).ok());
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  auto id = simulator.ScheduleAt(SimTime::FromSeconds(10), "x",
                                 [&] { fired = true; });
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(simulator.pending_events(), 1u);
  ASSERT_TRUE(simulator.Cancel(*id).ok());
  EXPECT_EQ(simulator.pending_events(), 0u);
  simulator.RunAll();
  EXPECT_FALSE(fired);
  // Double cancel reports NotFound.
  EXPECT_FALSE(simulator.Cancel(*id).ok());
  EXPECT_FALSE(simulator.Cancel(999).ok());
  EXPECT_FALSE(simulator.Cancel(0).ok());
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator simulator;
  int count = 0;
  auto id = simulator.SchedulePeriodic(Duration::Minutes(1), "tick",
                                       [&] { ++count; });
  ASSERT_TRUE(id.ok());
  simulator.RunUntil(SimTime::Start() + Duration::Minutes(10));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(simulator.now(), SimTime::Start() + Duration::Minutes(10));
}

TEST(SimulatorTest, PeriodicCanCancelItself) {
  Simulator simulator;
  int count = 0;
  EventId id = 0;
  auto handle = simulator.SchedulePeriodic(Duration::Minutes(1), "tick",
                                           [&] {
                                             if (++count == 3) {
                                               EXPECT_TRUE(
                                                   simulator.Cancel(id).ok());
                                             }
                                           });
  ASSERT_TRUE(handle.ok());
  id = *handle;
  simulator.RunUntil(SimTime::Start() + Duration::Hours(1));
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator simulator;
  simulator.RunUntil(SimTime::Start() + Duration::Hours(2));
  EXPECT_EQ(simulator.now(), SimTime::Start() + Duration::Hours(2));
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsPending) {
  Simulator simulator;
  bool fired_late = false;
  ASSERT_TRUE(simulator
                  .ScheduleAt(SimTime::FromSeconds(100), "late",
                              [&] { fired_late = true; })
                  .ok());
  simulator.RunUntil(SimTime::FromSeconds(50));
  EXPECT_FALSE(fired_late);
  EXPECT_EQ(simulator.pending_events(), 1u);
  EXPECT_EQ(simulator.now(), SimTime::FromSeconds(50));
  simulator.RunUntil(SimTime::FromSeconds(100));  // boundary inclusive
  EXPECT_TRUE(fired_late);
}

TEST(SimulatorTest, TraceBufferObservesDispatches) {
  Simulator simulator;
  obs::TraceBuffer trace(16);
  simulator.set_trace_buffer(&trace);
  ASSERT_TRUE(simulator.ScheduleAt(SimTime::FromSeconds(1), "one", [] {}).ok());
  ASSERT_TRUE(simulator.ScheduleAt(SimTime::FromSeconds(2), "two", [] {}).ok());
  simulator.RunAll();
  std::vector<obs::TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "one");
  EXPECT_EQ(events[0].kind, obs::TraceEventKind::kEventDispatch);
  EXPECT_EQ(events[0].at, SimTime::FromSeconds(1));
  EXPECT_EQ(events[1].name, "two");
}

TEST(SimulatorTest, DynamicLabelsOutliveTheirSourceString) {
  Simulator simulator;
  obs::TraceBuffer trace(16);
  simulator.set_trace_buffer(&trace);
  {
    // Build the label dynamically and let the source string die long
    // before dispatch — the interned copy must survive.
    std::string dynamic = "instance-" + std::to_string(17) + "-running";
    ASSERT_TRUE(
        simulator.ScheduleAt(SimTime::FromSeconds(5), dynamic, [] {}).ok());
    dynamic.assign(100, 'x');  // clobber the original buffer
  }
  simulator.RunAll();
  std::vector<obs::TraceEvent> events = trace.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "instance-17-running");
}

TEST(SimulatorTest, CancelledPeriodicSeriesStopsWithoutRearming) {
  Simulator simulator;
  int count = 0;
  auto id = simulator.SchedulePeriodic(Duration::Minutes(1), "tick",
                                       [&] { ++count; });
  ASSERT_TRUE(id.ok());
  simulator.RunUntil(SimTime::Start() + Duration::Minutes(3));
  ASSERT_TRUE(simulator.Cancel(*id).ok());
  EXPECT_EQ(simulator.pending_events(), 0u);
  uint64_t dispatched = simulator.dispatched_events();
  simulator.RunUntil(SimTime::Start() + Duration::Hours(2));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(simulator.dispatched_events(), dispatched);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreDispatched) {
  Simulator simulator;
  std::vector<int> hits;
  ASSERT_TRUE(simulator
                  .ScheduleAt(SimTime::FromSeconds(10), "parent",
                              [&] {
                                hits.push_back(1);
                                ASSERT_TRUE(simulator
                                                .ScheduleAt(
                                                    SimTime::FromSeconds(10),
                                                    "child",
                                                    [&] { hits.push_back(2); })
                                                .ok());
                              })
                  .ok());
  simulator.RunUntil(SimTime::FromSeconds(10));
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
}

// Property: random schedules always dispatch in non-decreasing time
// order and dispatch every non-cancelled event exactly once.
class SimulatorOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderProperty, MonotonicDispatch) {
  Simulator simulator;
  // Simple deterministic pseudo-random schedule derived from the seed.
  uint64_t state = static_cast<uint64_t>(GetParam()) * 2654435761u + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<SimTime> dispatched;
  int scheduled = 0;
  for (int i = 0; i < 200; ++i) {
    SimTime at = SimTime::FromSeconds(static_cast<int64_t>(next() % 10000));
    ASSERT_TRUE(simulator
                    .ScheduleAt(at, "e",
                                [&dispatched, &simulator] {
                                  dispatched.push_back(simulator.now());
                                })
                    .ok());
    ++scheduled;
  }
  simulator.RunAll();
  ASSERT_EQ(dispatched.size(), static_cast<size_t>(scheduled));
  for (size_t i = 1; i < dispatched.size(); ++i) {
    EXPECT_LE(dispatched[i - 1], dispatched[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty,
                         ::testing::Range(1, 11));

TEST(SimulatorTest, RestoreRejectsACountTheImageCannotHold) {
  // Clock, sequence/id/dispatch counters and live count, then a
  // liveness-array length of 2^61 with nothing behind it.
  ByteWriter w;
  w.I64(0);
  for (int i = 0; i < 4; ++i) w.U64(0);
  w.U64(uint64_t{1} << 61);
  Simulator simulator;
  ByteReader r(w.data());
  Status status = simulator.RestoreState(
      &r, [](const EventDesc&) -> Result<Simulator::Callback> {
        return Status::Internal("no pending events expected");
      });
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
}

}  // namespace
}  // namespace autoglobe::sim
