#include "monitor/monitoring.h"

#include <gtest/gtest.h>

#include <functional>

#include "common/bytes.h"

namespace autoglobe::monitor {
namespace {

SimTime Min(int m) { return SimTime::Start() + Duration::Minutes(m); }

class MonitoringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MonitorConfig config;  // paper defaults: 0.70 / 10 min / 0.125 / 20 min
    lms_ = std::make_unique<LoadMonitoringSystem>(&archive_, config);
    ASSERT_TRUE(lms_->RegisterSubject(TriggerKind::kServerOverloaded,
                                      "Blade1", /*idle_divisor=*/1.0)
                    .ok());
    lms_->set_trigger_callback(
        [this](const Trigger& trigger) { triggers_.push_back(trigger); });
  }

  // Feeds one sample per minute starting at `start`.
  void Feed(int start_minute, std::initializer_list<double> loads) {
    int m = start_minute;
    for (double load : loads) {
      ASSERT_TRUE(lms_->Observe(Min(m++), "Blade1", load).ok());
    }
  }
  void FeedConstant(int start_minute, int count, double load) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(
          lms_->Observe(Min(start_minute + i), "Blade1", load).ok());
    }
  }

  LoadArchive archive_;
  std::unique_ptr<LoadMonitoringSystem> lms_;
  std::vector<Trigger> triggers_;
};

TEST_F(MonitoringTest, RegistrationValidation) {
  EXPECT_FALSE(
      lms_->RegisterSubject(TriggerKind::kServerIdle, "X", 1.0).ok());
  EXPECT_FALSE(lms_->RegisterSubject(TriggerKind::kServerOverloaded,
                                     "Blade1", 1.0)
                   .ok());  // duplicate
  EXPECT_FALSE(
      lms_->RegisterSubject(TriggerKind::kServerOverloaded, "Y", 0.0).ok());
  EXPECT_FALSE(lms_->Observe(Min(0), "unregistered", 0.5).ok());
}

TEST_F(MonitoringTest, SubjectIdObserveMatchesNameObserve) {
  auto id = lms_->SubjectIdOf("Blade1");
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(lms_->SubjectIdOf("ghost").ok());
  EXPECT_FALSE(lms_->ObserveById(Min(0), SubjectId{99}, 0.5).ok());
  EXPECT_FALSE(lms_->ObserveById(Min(0), SubjectId{-1}, 0.5).ok());
  // The id-keyed hot path drives the same state machine: a sustained
  // overload fed purely through ObserveById confirms a trigger with
  // the subject's *name*.
  for (int m = 0; m <= 11; ++m) {
    ASSERT_TRUE(lms_->ObserveById(Min(m), *id, 0.9).ok());
  }
  ASSERT_EQ(triggers_.size(), 1u);
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kServerOverloaded);
  EXPECT_EQ(triggers_[0].subject, "Blade1");
  // Samples land in the archive under the usual key.
  EXPECT_DOUBLE_EQ(*archive_.Latest("server/Blade1"), 0.9);
}

TEST_F(MonitoringTest, SteadyNormalLoadNeverTriggers) {
  FeedConstant(0, 120, 0.5);
  EXPECT_TRUE(triggers_.empty());
}

TEST_F(MonitoringTest, SustainedOverloadConfirmedAfterWatchTime) {
  FeedConstant(0, 5, 0.5);   // normal
  FeedConstant(5, 12, 0.85);  // above 0.70 threshold
  ASSERT_EQ(triggers_.size(), 1u);
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kServerOverloaded);
  EXPECT_EQ(triggers_[0].subject, "Blade1");
  // Confirmed exactly after the 10-minute watch time.
  EXPECT_EQ(triggers_[0].at, Min(15));
  // "set to the arithmetic means of the load values during the
  //  service specific watchTime" (§4.1).
  EXPECT_NEAR(triggers_[0].average_load, 0.85, 1e-12);
}

TEST_F(MonitoringTest, ShortPeakIsRiddenOut) {
  // "In real systems short load peaks are quite common. Immediate
  //  reaction on these peaks could lead to an unsettled and instable
  //  system" (§2). A 3-minute burst must not trigger.
  FeedConstant(0, 5, 0.5);
  FeedConstant(5, 3, 0.95);  // arms the watch
  FeedConstant(8, 20, 0.4);  // burst over; average sinks below 0.70
  EXPECT_TRUE(triggers_.empty());
}

TEST_F(MonitoringTest, AverageDecidesNotTheArmingSample) {
  // Mixed loads during the watch: average 0.72 > 0.70 -> confirmed.
  FeedConstant(0, 2, 0.5);
  Feed(2, {0.9, 0.72, 0.70, 0.74, 0.71, 0.73, 0.70, 0.71, 0.75, 0.74,
           0.72});
  ASSERT_EQ(triggers_.size(), 1u);
  EXPECT_GT(triggers_[0].average_load, 0.70);
}

TEST_F(MonitoringTest, RetriggersWhileOverloadPersists) {
  FeedConstant(0, 40, 0.9);
  // Watch confirms roughly every watchTime + 1 re-arm minute.
  EXPECT_GE(triggers_.size(), 2u);
  EXPECT_LE(triggers_.size(), 4u);
}

TEST_F(MonitoringTest, IdleDetectionUsesScaledThresholdAndLongerWatch) {
  ASSERT_TRUE(lms_->RegisterSubject(TriggerKind::kServerOverloaded,
                                    "Big", /*idle_divisor=*/9.0)
                  .ok());
  // "The threshold value for an idle situation ... is 12.5% divided
  //  by the performance index": 12.5 % / 9 = 1.39 %.
  for (int m = 0; m < 25; ++m) {
    ASSERT_TRUE(lms_->Observe(Min(m), "Big", 0.05).ok());  // 5 % > 1.39 %
  }
  EXPECT_TRUE(triggers_.empty());
  for (int m = 25; m < 47; ++m) {
    ASSERT_TRUE(lms_->Observe(Min(m), "Big", 0.005).ok());
  }
  ASSERT_EQ(triggers_.size(), 1u);
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kServerIdle);
  EXPECT_EQ(triggers_[0].subject, "Big");
  // Idle watch time is 20 minutes (paper §5.1).
  EXPECT_EQ(triggers_[0].at, Min(25 + 20));
}

TEST_F(MonitoringTest, ServiceSubjectsRaiseServiceTriggers) {
  ASSERT_TRUE(lms_->RegisterSubject(TriggerKind::kServiceOverloaded, "FI",
                                    1.0)
                  .ok());
  for (int m = 0; m < 12; ++m) {
    ASSERT_TRUE(lms_->Observe(Min(m), "FI", 0.9).ok());
  }
  ASSERT_EQ(triggers_.size(), 1u);
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kServiceOverloaded);
  // The overload watch armed at minute 11 must first resolve (no
  // confirmation), then the idle watch arms at minute 22 and confirms
  // 20 minutes later.
  for (int m = 12; m < 45; ++m) {
    ASSERT_TRUE(lms_->Observe(Min(m), "FI", 0.01).ok());
  }
  ASSERT_EQ(triggers_.size(), 2u);
  EXPECT_EQ(triggers_[1].kind, TriggerKind::kServiceIdle);
  EXPECT_EQ(triggers_[1].at, Min(42));
}

TEST_F(MonitoringTest, SamplesLandInTheArchive) {
  FeedConstant(0, 5, 0.5);
  std::string key =
      LoadMonitoringSystem::ArchiveKey(TriggerKind::kServerOverloaded,
                                       "Blade1");
  EXPECT_EQ(key, "server/Blade1");
  EXPECT_DOUBLE_EQ(*archive_.Latest(key), 0.5);
}

TEST_F(MonitoringTest, TriggerKindNames) {
  EXPECT_EQ(TriggerKindName(TriggerKind::kServerOverloaded),
            "serverOverloaded");
  EXPECT_EQ(TriggerKindName(TriggerKind::kServerIdle), "serverIdle");
  EXPECT_EQ(TriggerKindName(TriggerKind::kServiceOverloaded),
            "serviceOverloaded");
  EXPECT_EQ(TriggerKindName(TriggerKind::kServiceIdle), "serviceIdle");
}

TEST_F(MonitoringTest, CountsFiredTriggers) {
  EXPECT_EQ(lms_->triggers_fired(), 0);
  FeedConstant(0, 15, 0.9);
  EXPECT_EQ(lms_->triggers_fired(),
            static_cast<int64_t>(triggers_.size()));
  EXPECT_GE(lms_->triggers_fired(), 1);
}

TEST_F(MonitoringTest, DirtyTrackingSkipsConstantInBandLoads) {
  FeedConstant(0, 30, 0.5);
  // First sample evaluates (no carried value yet); the other 29 are
  // bitwise-equal, in-band, uniformly spaced — all skipped.
  EXPECT_EQ(lms_->evaluations(), 1);
  EXPECT_EQ(lms_->skips(), 29);
}

TEST_F(MonitoringTest, MaterializeReplaysTheExactRun) {
  FeedConstant(1, 10, 0.5);
  auto subject = lms_->SubjectIdOf("Blade1");
  ASSERT_TRUE(subject.ok());
  ASSERT_TRUE(lms_->MaterializeSubject(*subject).ok());
  // RawBetween is from-exclusive, like Average's (now - window, now].
  auto raw = archive_.RawBetween("server/Blade1", Min(0), Min(10));
  ASSERT_EQ(raw.size(), 10u);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].at, Min(static_cast<int>(i) + 1)) << i;
    EXPECT_DOUBLE_EQ(raw[i].value, 0.5) << i;
  }
  // Idempotent: nothing pending after a materialize.
  ASSERT_TRUE(lms_->MaterializeAll().ok());
  EXPECT_EQ(archive_.RawBetween("server/Blade1", Min(0), Min(10)).size(),
            10u);
}

TEST_F(MonitoringTest, DifferingValueMaterializesBeforeAppending) {
  FeedConstant(1, 5, 0.5);
  Feed(6, {0.6});  // breaks the run: replay 0.5s, then append 0.6
  auto raw = archive_.RawBetween("server/Blade1", Min(0), Min(6));
  ASSERT_EQ(raw.size(), 6u);
  EXPECT_DOUBLE_EQ(raw[4].value, 0.5);
  EXPECT_DOUBLE_EQ(raw[5].value, 0.6);
  EXPECT_EQ(lms_->evaluations(), 2);
  EXPECT_EQ(lms_->skips(), 4);
}

TEST_F(MonitoringTest, OutOfBandLoadsAreNeverSkipped) {
  // A constant load above the overload threshold must re-evaluate
  // every tick — skipping would stall the armed watch.
  FeedConstant(0, 15, 0.9);
  EXPECT_EQ(lms_->skips(), 0);
  EXPECT_EQ(lms_->evaluations(), 15);
  EXPECT_GE(triggers_.size(), 1u);
}

TEST_F(MonitoringTest, DirtyTrackingOffEvaluatesEveryObserve) {
  LoadArchive archive;
  MonitorConfig config;
  config.dirty_tracking = false;
  LoadMonitoringSystem lms(&archive, config);
  ASSERT_TRUE(
      lms.RegisterSubject(TriggerKind::kServerOverloaded, "s", 1.0).ok());
  for (int m = 1; m <= 20; ++m) {
    ASSERT_TRUE(lms.Observe(Min(m), "s", 0.5).ok());
  }
  EXPECT_EQ(lms.skips(), 0);
  EXPECT_EQ(lms.evaluations(), 20);
  EXPECT_EQ(archive.RawBetween("server/s", Min(0), Min(20)).size(), 20u);
}

TEST_F(MonitoringTest, NonUniformCadenceBreaksTheRun) {
  FeedConstant(1, 5, 0.5);  // minutes 1..5, interval 1
  ASSERT_TRUE(lms_->Observe(Min(8), "Blade1", 0.5).ok());  // gap
  // The 3-minute gap cannot extend a 1-minute-interval run; the
  // sample evaluates so the archive timeline stays exact.
  EXPECT_EQ(lms_->evaluations(), 2);
  auto raw = archive_.RawBetween("server/Blade1", Min(0), Min(8));
  ASSERT_EQ(raw.size(), 6u);
  EXPECT_EQ(raw[5].at, Min(8));
}

// Property sweep: a constant load strictly between the idle and
// overload thresholds never triggers, for any duration.
class QuietBandProperty : public ::testing::TestWithParam<double> {};

TEST_P(QuietBandProperty, NoTriggerInsideTheBand) {
  LoadArchive archive;
  LoadMonitoringSystem lms(&archive, MonitorConfig{});
  ASSERT_TRUE(
      lms.RegisterSubject(TriggerKind::kServerOverloaded, "s", 1.0).ok());
  int fired = 0;
  lms.set_trigger_callback([&fired](const Trigger&) { ++fired; });
  for (int m = 0; m < 200; ++m) {
    ASSERT_TRUE(lms.Observe(Min(m), "s", GetParam()).ok());
  }
  EXPECT_EQ(fired, 0) << "load " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Band, QuietBandProperty,
                         ::testing::Values(0.13, 0.2, 0.35, 0.5, 0.65,
                                           0.699));

// --- Heartbeat failure detection --------------------------------------

class HeartbeatTest : public ::testing::Test {
 protected:
  // Subjects: server Blade1 (0), service CRM (1), server Blade2 (2).
  static constexpr SubjectId kBlade1 = 0;
  static constexpr SubjectId kCrm = 1;
  static constexpr SubjectId kBlade2 = 2;

  void SetUp() override { lms_ = Make(); }

  std::unique_ptr<LoadMonitoringSystem> Make() {
    auto lms = std::make_unique<LoadMonitoringSystem>(&archive_,
                                                      MonitorConfig{});
    EXPECT_TRUE(
        lms->RegisterSubject(TriggerKind::kServerOverloaded, "Blade1").ok());
    EXPECT_TRUE(
        lms->RegisterSubject(TriggerKind::kServiceOverloaded, "CRM").ok());
    EXPECT_TRUE(
        lms->RegisterSubject(TriggerKind::kServerOverloaded, "Blade2").ok());
    lms->set_trigger_callback(
        [this](const Trigger& trigger) { triggers_.push_back(trigger); });
    return lms;
  }

  // A monitor image of the fixture's subjects whose heartbeat block is
  // what `heartbeats` writes. Call before watching anything: the block
  // of a system with no watches is two zero counts, and three counters
  // follow it.
  std::string ImageWithHeartbeats(
      const std::function<void(ByteWriter*)>& heartbeats) {
    ByteWriter saved;
    lms_->SaveState(&saved);
    std::string image = saved.data().substr(0, saved.data().size() - 5 * 8);
    ByteWriter block;
    heartbeats(&block);
    image += block.data();
    image.append(3 * 8, '\0');
    return image;
  }

  Status Restore(std::string_view image) {
    ByteReader r(image);
    return lms_->RestoreState(&r);
  }

  LoadArchive archive_;
  std::unique_ptr<LoadMonitoringSystem> lms_;
  std::vector<Trigger> triggers_;
};

TEST_F(HeartbeatTest, WatchValidation) {
  // Server watches take server subjects, in ascending order.
  EXPECT_FALSE(lms_->WatchServer(kCrm, Min(0)).ok());
  EXPECT_FALSE(lms_->WatchServer(SubjectId{3}, Min(0)).ok());
  EXPECT_FALSE(lms_->WatchServer(SubjectId{-1}, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchServer(kBlade2, Min(0)).ok());
  EXPECT_FALSE(lms_->WatchServer(kBlade1, Min(0)).ok());
  EXPECT_FALSE(lms_->WatchServer(kBlade2, Min(0)).ok());
  // Instance watches take a service subject and a new id.
  EXPECT_FALSE(lms_->WatchInstance(7, kBlade1, Min(0)).ok());
  EXPECT_FALSE(lms_->WatchInstance(7, SubjectId{3}, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchInstance(7, kCrm, Min(0)).ok());
  EXPECT_EQ(lms_->WatchInstance(7, kCrm, Min(0)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(lms_->RecordServerHeartbeat(kBlade1, Min(0)).ok());
  EXPECT_FALSE(lms_->RecordInstanceHeartbeat(8, Min(0)).ok());
  EXPECT_FALSE(lms_->UnwatchInstance(8).ok());
  EXPECT_EQ(lms_->heartbeat_watches(), 2u);
}

TEST_F(HeartbeatTest, FiresAfterMissedBeatsAndCarriesTheSubject) {
  // Defaults: 1-minute interval, 3 missed beats.
  ASSERT_TRUE(lms_->WatchInstance(/*instance=*/7, kCrm, Min(0)).ok());
  ASSERT_TRUE(lms_->RecordInstanceHeartbeat(7, Min(1)).ok());
  lms_->CheckHeartbeats(Min(3));  // silent 2 min: below the deadline
  EXPECT_TRUE(triggers_.empty());
  lms_->CheckHeartbeats(Min(4));  // silent 3 min: declared failed
  ASSERT_EQ(triggers_.size(), 1u);
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kInstanceFailed);
  EXPECT_EQ(triggers_[0].subject, "CRM");
  EXPECT_EQ(triggers_[0].instance, 7u);
  EXPECT_EQ(triggers_[0].at, Min(4));
}

TEST_F(HeartbeatTest, ReportsOnceUntilAFreshBeatArrives) {
  ASSERT_TRUE(lms_->WatchServer(kBlade1, Min(0)).ok());
  lms_->CheckHeartbeats(Min(10));
  lms_->CheckHeartbeats(Min(20));
  EXPECT_EQ(triggers_.size(), 1u);  // no refire while still silent
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kServerFailed);
  EXPECT_EQ(triggers_[0].subject, "Blade1");
  // A fresh heartbeat rearms the watch; a later silence fires again.
  ASSERT_TRUE(lms_->RecordServerHeartbeat(kBlade1, Min(21)).ok());
  lms_->CheckHeartbeats(Min(22));
  EXPECT_EQ(triggers_.size(), 1u);
  lms_->CheckHeartbeats(Min(30));
  EXPECT_EQ(triggers_.size(), 2u);
}

TEST_F(HeartbeatTest, UnwatchErasesTheInstanceWatch) {
  ASSERT_TRUE(lms_->WatchInstance(7, kCrm, Min(0)).ok());
  ASSERT_TRUE(lms_->UnwatchInstance(7).ok());
  EXPECT_EQ(lms_->heartbeat_watches(), 0u);
  EXPECT_TRUE(lms_->instance_watches().empty());
  lms_->CheckHeartbeats(Min(60));
  EXPECT_TRUE(triggers_.empty());  // gone: never fires
  EXPECT_FALSE(lms_->RecordInstanceHeartbeat(7, Min(60)).ok());
  EXPECT_FALSE(lms_->UnwatchInstance(7).ok());
}

TEST_F(HeartbeatTest, ChecksServersInSubjectOrderThenInstancesById) {
  ASSERT_TRUE(lms_->WatchServer(kBlade1, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchServer(kBlade2, Min(0)).ok());
  // Watched out of id order, kept in id order.
  for (uint64_t id : {9u, 3u, 5u}) {
    ASSERT_TRUE(lms_->WatchInstance(id, kCrm, Min(0)).ok());
  }
  ASSERT_EQ(lms_->instance_watches().size(), 3u);
  EXPECT_EQ(lms_->instance_watches()[0].instance, 3u);
  EXPECT_EQ(lms_->instance_watches()[2].instance, 9u);
  // Beats keep a watch quiet; the silent ones fire in table order.
  for (int m = 1; m < 30; ++m) {
    ASSERT_TRUE(lms_->RecordServerHeartbeat(kBlade2, Min(m)).ok());
    ASSERT_TRUE(lms_->RecordInstanceHeartbeat(5, Min(m)).ok());
  }
  lms_->CheckHeartbeats(Min(30));
  ASSERT_EQ(triggers_.size(), 3u);
  EXPECT_EQ(triggers_[0].subject, "Blade1");
  EXPECT_EQ(triggers_[1].instance, 3u);
  EXPECT_EQ(triggers_[2].instance, 9u);
  triggers_.clear();
  lms_->CheckHeartbeats(Min(33));  // 3 silent minutes for the rest
  ASSERT_EQ(triggers_.size(), 2u);
  EXPECT_EQ(triggers_[0].kind, TriggerKind::kServerFailed);
  EXPECT_EQ(triggers_[0].subject, "Blade2");
  EXPECT_EQ(triggers_[1].kind, TriggerKind::kInstanceFailed);
  EXPECT_EQ(triggers_[1].instance, 5u);
}

TEST_F(HeartbeatTest, RestoreRebuildsBothWatchTables) {
  ASSERT_TRUE(lms_->WatchServer(kBlade1, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchServer(kBlade2, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchInstance(4, kCrm, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchInstance(6, kCrm, Min(2)).ok());
  ASSERT_TRUE(lms_->RecordServerHeartbeat(kBlade2, Min(2)).ok());
  lms_->CheckHeartbeats(Min(3));  // Blade1 and instance 4 report
  ASSERT_EQ(triggers_.size(), 2u);
  ByteWriter saved;
  lms_->SaveState(&saved);

  auto restored = Make();
  ASSERT_TRUE(restored->WatchServer(kBlade1, Min(0)).ok());
  ASSERT_TRUE(restored->WatchServer(kBlade2, Min(0)).ok());
  ByteReader r(saved.data());
  ASSERT_TRUE(restored->RestoreState(&r).ok());
  ByteWriter again;
  restored->SaveState(&again);
  EXPECT_EQ(again.data(), saved.data());
  ASSERT_EQ(restored->instance_watches().size(), 2u);
  EXPECT_EQ(restored->instance_watches()[1].service, kCrm);
  // Reported watches stay quiet; the other two fire as they would have.
  triggers_.clear();
  restored->CheckHeartbeats(Min(5));
  ASSERT_EQ(triggers_.size(), 2u);
  EXPECT_EQ(triggers_[0].subject, "Blade2");
  EXPECT_EQ(triggers_[1].instance, 6u);
}

TEST_F(HeartbeatTest, RestoreRejectsAServerWatchCountThatDoesNotMatch) {
  std::string image = ImageWithHeartbeats([](ByteWriter* w) {
    w->U64(1);  // one server watch; the system watches two
    w->I64(0);
    w->U8(0);
    w->U64(0);
  });
  ASSERT_TRUE(lms_->WatchServer(kBlade1, Min(0)).ok());
  ASSERT_TRUE(lms_->WatchServer(kBlade2, Min(0)).ok());
  Status status = Restore(image);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
}

TEST_F(HeartbeatTest, RestoreRejectsInstanceWatchesThatDoNotAscend) {
  for (uint64_t second : {uint64_t{7}, uint64_t{3}}) {
    std::string image = ImageWithHeartbeats([second](ByteWriter* w) {
      w->U64(0);
      w->U64(2);
      for (uint64_t id : {uint64_t{7}, second}) {
        w->U64(id);
        w->U32(static_cast<uint32_t>(kCrm));
        w->I64(0);
        w->U8(0);
      }
    });
    Status status = Restore(image);
    EXPECT_EQ(status.code(), StatusCode::kParseError)
        << "7 then " << second << ": " << status;
  }
}

TEST_F(HeartbeatTest, RestoreRejectsAnInstanceWatchOutsideTheServices) {
  // Past the last subject, and a server subject.
  for (uint32_t service : {3u, 0xFFFFFFFFu, uint32_t{kBlade1}}) {
    std::string image = ImageWithHeartbeats([service](ByteWriter* w) {
      w->U64(0);
      w->U64(1);
      w->U64(7);
      w->U32(service);
      w->I64(0);
      w->U8(0);
    });
    Status status = Restore(image);
    EXPECT_EQ(status.code(), StatusCode::kParseError)
        << "subject " << service << ": " << status;
  }
}

TEST_F(MonitoringTest, RestoreRejectsACountTheImageCannotHold) {
  // No subjects, no server watches, then 2^61 instance watches with
  // nothing behind them.
  LoadMonitoringSystem fresh(&archive_, MonitorConfig{});
  ByteWriter w;
  w.U64(0);
  w.U64(0);
  w.U64(uint64_t{1} << 61);
  ByteReader r(w.data());
  Status status = fresh.RestoreState(&r);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status;
}

}  // namespace
}  // namespace autoglobe::monitor
