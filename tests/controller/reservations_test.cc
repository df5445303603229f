#include "controller/reservations.h"

#include <gtest/gtest.h>

#include "controller/controller.h"
#include "sim/simulator.h"

namespace autoglobe::controller {
namespace {

SimTime Min(int m) { return SimTime::Start() + Duration::Minutes(m); }

Reservation MakeReservation(const std::string& server, double cpu,
                            double memory, int from_min, int until_min) {
  Reservation r;
  r.task = "month-end-close";
  r.server = server;
  r.cpu_wu = cpu;
  r.memory_gb = memory;
  r.from = Min(from_min);
  r.until = Min(until_min);
  return r;
}

TEST(ReservationTest, Validation) {
  EXPECT_TRUE(MakeReservation("big", 2, 4, 0, 60).Validate().ok());
  Reservation unnamed = MakeReservation("big", 2, 4, 0, 60);
  unnamed.task = "";
  EXPECT_FALSE(unnamed.Validate().ok());
  Reservation nowhere = MakeReservation("", 2, 4, 0, 60);
  EXPECT_FALSE(nowhere.Validate().ok());
  Reservation empty_window = MakeReservation("big", 2, 4, 60, 60);
  EXPECT_FALSE(empty_window.Validate().ok());
  Reservation nothing = MakeReservation("big", 0, 0, 0, 60);
  EXPECT_FALSE(nothing.Validate().ok());
  Reservation negative = MakeReservation("big", -1, 4, 0, 60);
  EXPECT_FALSE(negative.Validate().ok());
}

TEST(ReservationTest, CoversOrImminent) {
  Reservation r = MakeReservation("big", 2, 4, 60, 120);
  Duration lookahead = Duration::Minutes(30);
  EXPECT_FALSE(r.CoversOrImminent(Min(0), lookahead));    // far future
  EXPECT_TRUE(r.CoversOrImminent(Min(30), lookahead));    // imminent
  EXPECT_TRUE(r.CoversOrImminent(Min(90), lookahead));    // active
  EXPECT_FALSE(r.CoversOrImminent(Min(120), lookahead));  // over
}

TEST(ReservationTest, DailyWindowRecursAndWraps) {
  Reservation nightly = MakeReservation("db", 4, 2, 22 * 60, 6 * 60);
  nightly.daily = true;
  ASSERT_TRUE(nightly.Validate().ok());
  Duration la = Duration::Minutes(30);
  // Day 0, 23:00 — inside.
  EXPECT_TRUE(nightly.CoversOrImminent(Min(23 * 60), la));
  // Day 3, 02:00 — inside (recurs and wraps midnight).
  EXPECT_TRUE(nightly.CoversOrImminent(
      SimTime::Start() + Duration::Days(3) + Duration::Hours(2), la));
  // Midday — outside even with lookahead.
  EXPECT_FALSE(nightly.CoversOrImminent(Min(12 * 60), la));
  // 21:45 — the window starts within the 30-min lookahead.
  EXPECT_TRUE(nightly.CoversOrImminent(Min(21 * 60 + 45), la));
  // Daily reservations never expire.
  ReservationBook book;
  ASSERT_TRUE(book.Add(nightly).ok());
  book.ExpireBefore(SimTime::Start() + Duration::Days(30));
  EXPECT_EQ(book.size(), 1u);
  // Degenerate daily window rejected.
  Reservation empty = MakeReservation("db", 4, 2, 300, 300);
  empty.daily = true;
  EXPECT_FALSE(empty.Validate().ok());
}

TEST(ReservationBookTest, DailyXmlRoundTrip) {
  ReservationBook book;
  Reservation nightly = MakeReservation("DBServer2", 6, 4, 22 * 60, 6 * 60);
  nightly.daily = true;
  ASSERT_TRUE(book.Add(nightly).ok());
  xml::Document doc;
  book.SaveXml(doc.SetRoot("reservations"));
  ReservationBook reloaded;
  ASSERT_TRUE(reloaded.LoadXml(*doc.root()).ok());
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.All()[0]->daily);
  EXPECT_DOUBLE_EQ(reloaded.ReservedCpu(
                       "DBServer2",
                       SimTime::Start() + Duration::Days(5) +
                           Duration::Hours(1),
                       Duration::Zero()),
                   6.0);
}

TEST(ReservationBookTest, AddRemoveAggregate) {
  ReservationBook book;
  auto a = book.Add(MakeReservation("big", 2, 4, 0, 120));
  auto b = book.Add(MakeReservation("big", 1, 2, 0, 120));
  auto c = book.Add(MakeReservation("small", 0.5, 1, 0, 120));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(book.size(), 3u);
  Duration la = Duration::Minutes(30);
  EXPECT_DOUBLE_EQ(book.ReservedCpu("big", Min(10), la), 3.0);
  EXPECT_DOUBLE_EQ(book.ReservedMemory("big", Min(10), la), 6.0);
  EXPECT_DOUBLE_EQ(book.ReservedCpu("small", Min(10), la), 0.5);
  EXPECT_DOUBLE_EQ(book.ReservedCpu("other", Min(10), la), 0.0);
  ASSERT_TRUE(book.Remove(*b).ok());
  EXPECT_DOUBLE_EQ(book.ReservedCpu("big", Min(10), la), 2.0);
  EXPECT_FALSE(book.Remove(*b).ok());
  EXPECT_FALSE(book.Add(MakeReservation("", 1, 1, 0, 10)).ok());
}

TEST(ReservationBookTest, ExpireBefore) {
  ReservationBook book;
  ASSERT_TRUE(book.Add(MakeReservation("big", 1, 1, 0, 60)).ok());
  ASSERT_TRUE(book.Add(MakeReservation("big", 1, 1, 0, 240)).ok());
  book.ExpireBefore(Min(120));
  EXPECT_EQ(book.size(), 1u);
  EXPECT_EQ(book.All()[0]->until, Min(240));
}

TEST(ReservationBookTest, XmlRoundTrip) {
  ReservationBook book;
  ASSERT_TRUE(book.Add(MakeReservation("DBServer2", 4, 6, 600, 900)).ok());
  ASSERT_TRUE(book.Add(MakeReservation("Blade9", 1, 1.5, 0, 120)).ok());
  xml::Document doc;
  book.SaveXml(doc.SetRoot("reservations"));
  ReservationBook reloaded;
  ASSERT_TRUE(reloaded.LoadXml(*doc.root()).ok());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_DOUBLE_EQ(
      reloaded.ReservedCpu("DBServer2", Min(700), Duration::Zero()), 4.0);
  EXPECT_DOUBLE_EQ(
      reloaded.ReservedMemory("Blade9", Min(60), Duration::Zero()), 1.5);
}

TEST(ReservationBookTest, LoadXmlRejectsBadEntries) {
  auto doc = xml::Document::Parse(
      "<reservations><reservation task=\"x\" server=\"s\" cpuWu=\"1\" "
      "fromMinutes=\"10\" untilMinutes=\"5\"/></reservations>");
  ASSERT_TRUE(doc.ok());
  ReservationBook book;
  EXPECT_FALSE(book.LoadXml(*doc->root()).ok());
}

// --- Controller integration ----------------------------------------------

class ReservedControllerTest : public ::testing::Test {
 protected:
  class FlatView : public LoadView {
   public:
    double ServerCpuLoad(infra::DenseId) const override { return 0.1; }
    double ServerMemLoad(infra::DenseId) const override { return 0.1; }
    double InstanceLoad(infra::InstanceId) const override { return 0.9; }
    double ServiceLoad(std::string_view) const override { return 0.9; }
  };

  void SetUp() override {
    infra::ServerSpec small;
    small.name = "small";
    small.performance_index = 2;
    small.memory_gb = 4;
    infra::ServerSpec big = small;
    big.name = "big";
    big.performance_index = 9;
    big.memory_gb = 12;
    ASSERT_TRUE(cluster_.AddServer(small).ok());
    ASSERT_TRUE(cluster_.AddServer(big).ok());
    infra::ServiceSpec app;
    app.name = "app";
    app.memory_footprint_gb = 1.0;
    app.min_instances = 1;
    app.max_instances = 4;
    app.allowed_actions = {infra::ActionType::kScaleOut};
    ASSERT_TRUE(cluster_.AddService(app).ok());
    ASSERT_TRUE(cluster_.PlaceInstance("app", "small", SimTime::Start())
                    .ok());
    executor_ = std::make_unique<infra::ActionExecutor>(&cluster_,
                                                        &simulator_);
    auto controller = Controller::Create(&cluster_, executor_.get(),
                                         &view_);
    ASSERT_TRUE(controller.ok());
    controller_ = std::make_unique<Controller>(std::move(*controller));
    controller_->set_reservations(&book_, Duration::Hours(1));
  }

  infra::Cluster cluster_;
  sim::Simulator simulator_;
  FlatView view_;
  ReservationBook book_;
  std::unique_ptr<infra::ActionExecutor> executor_;
  std::unique_ptr<Controller> controller_;
};

TEST_F(ReservedControllerTest, ReservedCpuDemotesTheHost) {
  infra::Action probe{infra::ActionType::kScaleOut, "app", 0, "small", ""};
  auto before = controller_->RankServers(probe, Min(0));
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());
  EXPECT_EQ(before->front().server, "big");
  double unreserved_score = before->front().score;

  // Reserve most of "big"'s CPU for an imminent batch task.
  ASSERT_TRUE(book_.Add(MakeReservation("big", 8.0, 0.0, 30, 240)).ok());
  // (memory 0 would fail validation; reserve a token amount)
  book_ = ReservationBook();
  ASSERT_TRUE(book_.Add(MakeReservation("big", 8.0, 0.5, 30, 240)).ok());
  auto after = controller_->RankServers(probe, Min(0));
  ASSERT_TRUE(after.ok());
  for (const ScoredServer& host : *after) {
    if (host.server == "big") {
      EXPECT_LT(host.score, unreserved_score);
    }
  }
}

TEST_F(ReservedControllerTest, ReservedMemoryBlocksPlacement) {
  // Reserve all but 0.5 GB of "big": the 1-GB app no longer fits.
  ASSERT_TRUE(
      book_.Add(MakeReservation("big", 0.0, 11.5, 0, 600)).ok());
  infra::Action probe{infra::ActionType::kScaleOut, "app", 0, "small", ""};
  auto hosts = controller_->RankServers(probe, Min(0));
  ASSERT_TRUE(hosts.ok());
  for (const ScoredServer& host : *hosts) {
    EXPECT_NE(host.server, "big");
  }
}

TEST_F(ReservedControllerTest, ExpiredReservationFreesTheHost) {
  ASSERT_TRUE(book_.Add(MakeReservation("big", 0.0, 11.5, 0, 60)).ok());
  infra::Action probe{infra::ActionType::kScaleOut, "app", 0, "small", ""};
  auto during = controller_->RankServers(probe, Min(0));
  ASSERT_TRUE(during.ok());
  for (const ScoredServer& host : *during) EXPECT_NE(host.server, "big");
  // Two hours later (beyond window + lookahead) "big" is usable again.
  auto after = controller_->RankServers(probe, Min(180));
  ASSERT_TRUE(after.ok());
  bool found_big = false;
  for (const ScoredServer& host : *after) {
    if (host.server == "big") found_big = true;
  }
  EXPECT_TRUE(found_big);
}

}  // namespace
}  // namespace autoglobe::controller
