#include "autoglobe/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

#include "autoglobe/availability.h"
#include "autoglobe/capacity.h"
#include "autoglobe/landscape_gen.h"
#include "common/bytes.h"
#include "obs/trace.h"

namespace autoglobe {
namespace {

std::unique_ptr<SimulationRunner> MakeRunner(Scenario scenario,
                                             double scale,
                                             Duration duration,
                                             uint64_t seed = 42) {
  Landscape landscape = MakePaperLandscape(scenario);
  RunnerConfig config = MakeScenarioConfig(scenario, scale, seed);
  config.duration = duration;
  auto runner = SimulationRunner::Create(landscape, config);
  EXPECT_TRUE(runner.ok()) << runner.status();
  return runner.ok() ? std::move(*runner) : nullptr;
}

TEST(RunnerTest, BuildsThePaperLandscape) {
  auto runner =
      MakeRunner(Scenario::kStatic, 1.0, Duration::Hours(1));
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(runner->cluster().Servers().size(), 19u);
  EXPECT_EQ(runner->cluster().total_instances(), 19u);
}

TEST(RunnerTest, LoadsFollowTheDailyPattern) {
  auto runner = MakeRunner(Scenario::kStatic, 1.0, Duration::Hours(24));
  ASSERT_NE(runner, nullptr);
  // 04:00 — night: application servers idle, BW batch hot.
  ASSERT_TRUE(
      runner->RunUntil(SimTime::Start() + Duration::Hours(4)).ok());
  double les_night = runner->demand().ServerCpuLoad("Blade1");
  double bw_night = runner->demand().ServerCpuLoad("Blade9");
  EXPECT_LT(les_night, 0.15);
  EXPECT_GT(bw_night, 0.5);
  // 09:30 — morning peak: LES hosts at 60-80 % (§5.1), BW quiet.
  ASSERT_TRUE(runner
                  ->RunUntil(SimTime::Start() + Duration::Hours(9) +
                             Duration::Minutes(30))
                  .ok());
  double les_peak = runner->demand().ServerCpuLoad("Blade1");
  EXPECT_GT(les_peak, 0.6);
  EXPECT_LT(les_peak, 0.9);
  EXPECT_LT(runner->demand().ServerCpuLoad("Blade9"), 0.3);
}

TEST(RunnerTest, StaticScenarioNeverActs) {
  auto runner = MakeRunner(Scenario::kStatic, 1.2, Duration::Hours(24));
  ASSERT_NE(runner, nullptr);
  ASSERT_TRUE(runner->Run().ok());
  EXPECT_EQ(runner->metrics().actions_executed, 0);
  EXPECT_EQ(runner->metrics().actions_failed, 0);
  // Triggers still fire (monitoring runs), they just go unanswered.
  EXPECT_GT(runner->metrics().triggers, 0);
}

TEST(RunnerTest, ControllerActsUnderOverload) {
  auto runner = MakeRunner(Scenario::kFullMobility, 1.25,
                           Duration::Hours(24));
  ASSERT_NE(runner, nullptr);
  ASSERT_TRUE(runner->Run().ok());
  EXPECT_GT(runner->metrics().actions_executed, 0);
  EXPECT_FALSE(runner->messages().empty());
}

TEST(RunnerTest, ControllerReducesOverloadVersusStatic) {
  auto run = [](Scenario scenario) {
    auto runner = MakeRunner(scenario, 1.15, Duration::Hours(48));
    EXPECT_TRUE(runner->Run().ok());
    return runner->metrics();
  };
  RunMetrics static_run = run(Scenario::kStatic);
  RunMetrics fm_run = run(Scenario::kFullMobility);
  EXPECT_GT(static_run.overload_server_minutes, 100.0);
  EXPECT_LT(fm_run.overload_server_minutes,
            static_run.overload_server_minutes / 2);
}

TEST(RunnerTest, DeterministicAcrossRuns) {
  auto a = MakeRunner(Scenario::kFullMobility, 1.2, Duration::Hours(30));
  auto b = MakeRunner(Scenario::kFullMobility, 1.2, Duration::Hours(30));
  ASSERT_TRUE(a->Run().ok());
  ASSERT_TRUE(b->Run().ok());
  EXPECT_EQ(a->metrics().actions_executed, b->metrics().actions_executed);
  EXPECT_EQ(a->metrics().triggers, b->metrics().triggers);
  EXPECT_DOUBLE_EQ(a->metrics().overload_server_minutes,
                   b->metrics().overload_server_minutes);
  EXPECT_EQ(a->messages(), b->messages());
}

TEST(RunnerTest, SeedChangesTrajectoriesButNotSanity) {
  auto a = MakeRunner(Scenario::kFullMobility, 1.2, Duration::Hours(24),
                      /*seed=*/1);
  auto b = MakeRunner(Scenario::kFullMobility, 1.2, Duration::Hours(24),
                      /*seed=*/2);
  ASSERT_TRUE(a->Run().ok());
  ASSERT_TRUE(b->Run().ok());
  EXPECT_GT(a->metrics().average_cpu_load, 0.05);
  EXPECT_GT(b->metrics().average_cpu_load, 0.05);
}

TEST(RunnerTest, SampleHookFiresEveryTick) {
  auto runner = MakeRunner(Scenario::kStatic, 1.0, Duration::Hours(2));
  int samples = 0;
  runner->set_sample_hook([&samples](SimTime, const workload::DemandEngine&,
                                     const infra::Cluster&) { ++samples; });
  ASSERT_TRUE(runner->Run().ok());
  EXPECT_EQ(samples, 120);
}

TEST(RunnerTest, MetricsWarmupDiscardsColdStart) {
  auto run = [](Duration warmup) {
    Landscape landscape = MakePaperLandscape(Scenario::kStatic);
    RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.3);
    config.duration = Duration::Hours(30);
    config.metrics_warmup = warmup;
    auto runner = SimulationRunner::Create(landscape, config);
    EXPECT_TRUE(runner.ok());
    EXPECT_TRUE((*runner)->Run().ok());
    return (*runner)->metrics();
  };
  RunMetrics full = run(Duration::Zero());
  RunMetrics tail = run(Duration::Hours(26));
  // At 130 % users the whole day overloads; discarding the first 26
  // hours must strictly reduce the counted overload time, and what
  // remains is at most the 4-hour tail across all 19 servers.
  EXPECT_GT(full.overload_server_minutes, tail.overload_server_minutes);
  EXPECT_LE(tail.overload_server_minutes, 4 * 60.0 * 19);
  EXPECT_GT(full.overload_server_minutes,
            tail.overload_server_minutes + 500.0);
}

TEST(RunnerTest, ArchiveAccumulatesHistory) {
  auto runner = MakeRunner(Scenario::kStatic, 1.0, Duration::Hours(3));
  ASSERT_TRUE(runner->Run().ok());
  EXPECT_GE(runner->archive().Keys().size(), 19u + 12u);
  auto latest = runner->archive().Latest("server/Blade1");
  EXPECT_TRUE(latest.ok());
}

TEST(RunnerTest, BadArchiveShapesAreInvalidArguments) {
  // The archive's capacity hints divide by the bucket width: a zero or
  // negative bucket, like a negative retention, must be refused before
  // anything divides by it.
  Landscape landscape = MakePaperLandscape(Scenario::kStatic);
  const std::pair<Duration, Duration> shapes[] = {
      {Duration::Hours(48), Duration::Zero()},
      {Duration::Hours(48), Duration::Minutes(-15)},
      {Duration::Minutes(-1), Duration::Minutes(15)}};
  for (const auto& [retention, bucket] : shapes) {
    RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
    config.duration = Duration::Hours(1);
    config.archive_retention = retention;
    config.archive_bucket = bucket;
    auto runner = SimulationRunner::Create(landscape, config);
    ASSERT_FALSE(runner.ok()) << retention.ToString() << " / "
                              << bucket.ToString();
    EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument)
        << runner.status();
  }
  RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
  config.duration = Duration::Hours(1);
  config.archive_retention = Duration::Zero();
  EXPECT_TRUE(SimulationRunner::Create(landscape, config).ok());
}

TEST(RunnerTest, UnrunnableDurationsAndScalesAreInvalidArguments) {
  // A run needs a positive length whose aggregate history a series can
  // reserve (--hours 99999999999 died of bad_alloc at the first spill),
  // and a user scale that is a real, non-negative factor (--scale -3
  // ran at "-300% users").
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  auto config_with = [](Duration duration, double user_scale) {
    RunnerConfig config =
        MakeScenarioConfig(Scenario::kFullMobility, user_scale);
    config.duration = duration;
    return config;
  };
  const RunnerConfig refused[] = {
      config_with(Duration::Zero(), 1.0),
      config_with(Duration::Minutes(-5), 1.0),
      config_with(Duration::Hours(99999999999), 1.0),
      config_with(Duration::Hours(1), -3.0),
      config_with(Duration::Hours(1), std::nan("")),
      config_with(Duration::Hours(1), HUGE_VAL),
  };
  for (const RunnerConfig& config : refused) {
    auto runner = SimulationRunner::Create(landscape, config);
    ASSERT_FALSE(runner.ok()) << config.duration.ToString() << " at "
                              << config.user_scale;
    EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument)
        << runner.status();
  }
  // Zero users is a valid (idle) run, and so is a second-long one.
  EXPECT_TRUE(
      SimulationRunner::Create(landscape, config_with(Duration::Hours(1), 0.0))
          .ok());
  EXPECT_TRUE(SimulationRunner::Create(
                  landscape, config_with(Duration::Seconds(1), 1.0))
                  .ok());
}

TEST(RunnerTest, LandscapeRefusalsKeepTheirStatus) {
  // Every refusal of a bad landscape reaches Create with its code and
  // message: the cluster's per-entity entries, the demand model and
  // the monitor's name index each keep their checks.
  struct Case {
    const char* what;
    std::function<void(Landscape*)> edit;
    StatusCode code;
    const char* message;
  };
  auto place = [](std::string service, std::string server) {
    return [service, server](Landscape* landscape) {
      landscape->initial_allocation.emplace_back(service, server);
    };
  };
  const Case cases[] = {
      {"duplicate server",
       [](Landscape* l) { l->servers.push_back(l->servers[3]); },
       StatusCode::kAlreadyExists, "server \"Blade4\" already exists"},
      {"duplicate service",
       [](Landscape* l) { l->services.push_back(l->services[1]); },
       StatusCode::kAlreadyExists, "service \"LES\" already exists"},
      {"placement on an unknown server", place("FI", "Ghost"),
       StatusCode::kNotFound, "unknown server \"Ghost\""},
      {"placement of an unknown service", place("Ghost", "Blade1"),
       StatusCode::kNotFound, "unknown service \"Ghost\""},
      {"demand for an unknown service",
       [](Landscape* l) {
         workload::ServiceDemandSpec spec;
         spec.service = "Ghost";
         l->demand.push_back(spec);
       },
       StatusCode::kNotFound, "unknown service \"Ghost\""},
      {"duplicate demand spec",
       [](Landscape* l) { l->demand.push_back(l->demand[0]); },
       StatusCode::kAlreadyExists,
       "demand spec for \"FI\" already registered"},
      {"co-tenant on an exclusive host", place("FI", "DBServer1"),
       StatusCode::kFailedPrecondition,
       "server \"DBServer1\" is exclusively reserved for service "
       "\"DB-ERP\""},
      {"exclusive service on a shared host",
       [](Landscape* l) {
         auto& allocation = l->initial_allocation;
         allocation.erase(std::find(
             allocation.begin(), allocation.end(),
             std::pair<std::string, std::string>("DB-ERP", "DBServer1")));
         allocation.emplace_back("DB-ERP", "DBServer2");
       },
       StatusCode::kFailedPrecondition,
       "exclusive service \"DB-ERP\" cannot share server \"DBServer2\" "
       "with \"DB-CRM\""},
      {"memory", place("FI", "Blade1"), StatusCode::kResourceExhausted,
       "server \"Blade1\": 1.2 GB used + 1.2 GB footprint exceeds 2.0 GB"},
      {"performance index", place("DB-BW", "Blade2"),
       StatusCode::kFailedPrecondition,
       "server \"Blade2\" (PI 1) below minimum performance index 5 of "
       "service \"DB-BW\""},
      {"second instance on one host", place("LES", "Blade1"),
       StatusCode::kFailedPrecondition,
       "service \"LES\" already has an instance on server \"Blade1\""},
      {"instance cap", place("CI-ERP", "DBServer2"),
       StatusCode::kFailedPrecondition,
       "service \"CI-ERP\" already runs its maximum of 1 instances"},
      {"server and service sharing a name",
       [](Landscape* l) {
         l->services.push_back(l->services[2]);
         l->services.back().name = "Blade7";
       },
       StatusCode::kAlreadyExists, "subject \"Blade7\" already registered"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Landscape landscape = MakePaperLandscape(Scenario::kStatic);
    c.edit(&landscape);
    RunnerConfig config = MakeScenarioConfig(Scenario::kStatic, 1.0);
    config.duration = Duration::Hours(1);
    auto runner = SimulationRunner::Create(landscape, config);
    ASSERT_FALSE(runner.ok());
    EXPECT_EQ(runner.status().code(), c.code) << runner.status();
    EXPECT_EQ(runner.status().message(), c.message);
  }
}

TEST(RunnerTest, SubjectIdsAreDenseIds) {
  // The runner feeds the monitor by dense id: server i is subject i and
  // service j is subject servers + j, with the subject's archive key.
  for (const Landscape& landscape :
       {MakePaperLandscape(Scenario::kFullMobility),
        *GenerateLandscape(MakeScaleSpec(100))}) {
    RunnerConfig config = MakeScenarioConfig(Scenario::kFullMobility, 1.0);
    config.duration = Duration::Hours(1);
    auto runner = SimulationRunner::Create(landscape, config);
    ASSERT_TRUE(runner.ok()) << runner.status();
    const infra::LandscapeIndex& index = (*runner)->cluster().Index();
    const monitor::LoadMonitoringSystem& monitoring =
        (*runner)->monitoring();
    const size_t servers = index.num_servers();
    ASSERT_EQ(servers, landscape.servers.size());
    ASSERT_EQ(monitoring.num_subjects(), servers + index.num_services());
    for (size_t i = 0; i < servers; ++i) {
      const std::string& name = index.ServerName(static_cast<int32_t>(i));
      auto id = monitoring.SubjectIdOf(name);
      ASSERT_TRUE(id.ok()) << id.status();
      EXPECT_EQ(*id, static_cast<monitor::SubjectId>(i)) << name;
      EXPECT_EQ(monitoring.Key(*id),
                monitor::LoadMonitoringSystem::ArchiveKey(
                    monitor::TriggerKind::kServerOverloaded, name));
    }
    for (size_t j = 0; j < index.num_services(); ++j) {
      const std::string& name = index.ServiceName(static_cast<int32_t>(j));
      auto id = monitoring.SubjectIdOf(name);
      ASSERT_TRUE(id.ok()) << id.status();
      EXPECT_EQ(*id, static_cast<monitor::SubjectId>(servers + j)) << name;
      EXPECT_EQ(monitoring.Key(*id),
                monitor::LoadMonitoringSystem::ArchiveKey(
                    monitor::TriggerKind::kServiceOverloaded, name));
    }
  }
}

TEST(RunnerTest, ShuffledLandscapeRunsIdentically) {
  // Dense ids are name ranks, not input positions: a 1k-server
  // landscape listing its servers, services and demand specs in a
  // shuffled order (the placements unchanged, so instance ids and IPs
  // match) runs to the same state, metrics and checkpoint bytes.
  Landscape sorted = *GenerateLandscape(MakeScaleSpec(1000));
  Landscape shuffled = sorted;
  std::mt19937_64 rng(2026);
  std::shuffle(shuffled.servers.begin(), shuffled.servers.end(), rng);
  std::shuffle(shuffled.services.begin(), shuffled.services.end(), rng);
  std::shuffle(shuffled.demand.begin(), shuffled.demand.end(), rng);
  ASSERT_NE(shuffled.servers[0].name, sorted.servers[0].name);

  RunnerConfig config;
  config.duration = Duration::Hours(3);
  config.seed = 7;
  config.user_scale = 1.5;
  config.archive_retention = Duration::Hours(1);
  config.controller.pool_prescreen = true;
  auto run = [&config](const Landscape& landscape) {
    auto runner = SimulationRunner::Create(landscape, config);
    EXPECT_TRUE(runner.ok()) << runner.status();
    EXPECT_TRUE((*runner)->Run().ok());
    return std::move(*runner);
  };
  std::unique_ptr<SimulationRunner> a = run(sorted);
  std::unique_ptr<SimulationRunner> b = run(shuffled);
  EXPECT_EQ(a->StateFingerprint(), b->StateFingerprint());

  const RunMetrics& ma = a->metrics();
  const RunMetrics& mb = b->metrics();
  EXPECT_GT(ma.triggers, 0);
  EXPECT_EQ(ma.overload_server_minutes, mb.overload_server_minutes);
  EXPECT_EQ(ma.max_overload_streak_minutes, mb.max_overload_streak_minutes);
  EXPECT_EQ(ma.overload_fraction, mb.overload_fraction);
  EXPECT_EQ(ma.lost_work_wu, mb.lost_work_wu);
  EXPECT_EQ(ma.average_cpu_load, mb.average_cpu_load);
  EXPECT_EQ(ma.triggers, mb.triggers);
  EXPECT_EQ(ma.actions_executed, mb.actions_executed);
  EXPECT_EQ(ma.actions_failed, mb.actions_failed);
  EXPECT_EQ(ma.alerts, mb.alerts);
  EXPECT_EQ(ma.oscillations, mb.oscillations);
  EXPECT_EQ(a->messages(), b->messages());

  std::vector<std::pair<std::string, std::string>> sa, sb;
  ASSERT_TRUE(a->SaveStateSections(&sa).ok());
  ASSERT_TRUE(b->SaveStateSections(&sb).ok());
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].first, sb[i].first);
    EXPECT_TRUE(sa[i].second == sb[i].second) << sa[i].first;
  }
}

TEST(RunnerTest, FaultPlanCrashesAreRemediated) {
  AvailabilityOptions options;
  options.scenario = Scenario::kFullMobility;
  options.duration = Duration::Hours(24);
  options.fault_spec.instance_crashes_per_hour = 0.2;  // ~5 crashes
  auto config = MakeAvailabilityConfig(options, 42);
  ASSERT_TRUE(config.ok()) << config.status();
  auto runner = SimulationRunner::Create(
      MakePaperLandscape(Scenario::kFullMobility), *config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());
  // RunMetrics reports the fault subsystem's books.
  const RunMetrics& metrics = (*runner)->metrics();
  EXPECT_EQ(metrics.failures_injected,
            (*runner)->fault_injector()->stats().instances_crashed);
  EXPECT_EQ(metrics.failures_remedied,
            (*runner)->recovery_manager()->stats().recovered);
  EXPECT_GT(metrics.failures_injected, 0);
  EXPECT_GT(metrics.failures_remedied, 0);
  // The landscape is intact at the end (no service extinct).
  for (const auto* service : (*runner)->cluster().Services()) {
    EXPECT_GE((*runner)->cluster().ActiveInstanceCount(service->name), 1)
        << service->name;
  }
}

TEST(RunnerTest, ObservabilityDisabledByDefault) {
  auto runner = MakeRunner(Scenario::kStatic, 1.0, Duration::Hours(1));
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(runner->trace_buffer(), nullptr);
  EXPECT_EQ(runner->audit_log(), nullptr);
  // The metrics snapshot always exists; without a run its counters
  // stay at zero.
  for (const auto& [name, value] : runner->metrics_snapshot().counters) {
    EXPECT_EQ(value, 0u) << name;
  }
}

TEST(RunnerTest, ObservabilityCapturesAWholeRun) {
  Landscape landscape =
      MakePaperLandscape(Scenario::kConstrainedMobility);
  RunnerConfig config =
      MakeScenarioConfig(Scenario::kConstrainedMobility, 1.2);
  config.duration = Duration::Hours(8);
  config.observability.enable_tracing = true;
  config.observability.enable_audit = true;
  config.observability.audit_capacity = 1 << 12;
  auto created = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(created.ok()) << created.status();
  SimulationRunner& runner = **created;
  ASSERT_TRUE(runner.Run().ok());

  // Tracing: the kernel, the monitor and the controller all left
  // typed events behind.
  ASSERT_NE(runner.trace_buffer(), nullptr);
  const obs::TraceBuffer& trace = *runner.trace_buffer();
  EXPECT_GT(trace.total_recorded(), 0u);
  bool saw_dispatch = false;
  bool saw_trigger = false;
  bool saw_decision = false;
  for (const obs::TraceEvent& event : trace.Events()) {
    saw_dispatch |= event.kind == obs::TraceEventKind::kEventDispatch;
    saw_trigger |= event.kind == obs::TraceEventKind::kTriggerConfirmed;
    saw_decision |= event.kind == obs::TraceEventKind::kDecision;
  }
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_trigger);
  EXPECT_TRUE(saw_decision);

  // The Chrome-trace exporter accepts the buffer as-is.
  std::string path = ::testing::TempDir() + "runner_obs_test_trace.json";
  ASSERT_TRUE(obs::ExportChromeTrace(trace, path).ok());

  // Metrics: the registry agrees with the runner's own counters.
  obs::MetricsSnapshot snapshot = runner.metrics_snapshot();
  uint64_t triggers = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "triggers_fired") triggers = value;
  }
  EXPECT_EQ(triggers,
            static_cast<uint64_t>(runner.metrics().triggers));
  ASSERT_FALSE(snapshot.histograms.empty());
  EXPECT_GT(snapshot.histograms[0].count, 0u);

  // Audit: at least one confirmed serviceOverloaded trigger got a
  // full decision record whose explain report names fired rules.
  ASSERT_NE(runner.audit_log(), nullptr);
  const obs::AuditLog& audit = *runner.audit_log();
  ASSERT_FALSE(audit.records().empty());
  const obs::DecisionAudit* overload = nullptr;
  for (const obs::DecisionAudit& record : audit.records()) {
    if (record.trigger_kind == "serviceOverloaded" &&
        !record.action_inference.empty()) {
      overload = &record;
      break;
    }
  }
  ASSERT_NE(overload, nullptr);
  std::string report = obs::RenderExplain(*overload);
  EXPECT_NE(report.find("fired rules ("), std::string::npos);
  EXPECT_NE(report.find("verdict: "), std::string::npos);
}

TEST(RunnerTest, FaultPlanRunSurvivesMidRunTopologyChurn) {
  // Regression for the cached-handle hardening: a whole-server failure
  // removes instances mid-run (their SubjectIds and archive handles
  // were cached by the monitoring loop), a dropout exercises the
  // false-positive evacuation, and the run must still finish with a
  // consistent landscape and a closed-out availability report.
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = MakeScenarioConfig(Scenario::kFullMobility, 1.0);
  config.duration = Duration::Hours(8);
  faults::FaultPlan plan;
  plan.events.push_back({SimTime::FromSeconds(3600),
                         faults::FaultKind::kInstanceCrash, "CRM",
                         Duration::Zero()});
  plan.events.push_back({SimTime::FromSeconds(7200),
                         faults::FaultKind::kServerFailure, "Blade3",
                         Duration::Hours(1)});
  plan.events.push_back({SimTime::FromSeconds(10800),
                         faults::FaultKind::kMonitorDropout, "Blade5",
                         Duration::Minutes(8)});
  config.fault_plan = plan;
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok()) << runner.status();
  ASSERT_TRUE((*runner)->Run().ok());

  EXPECT_TRUE(
      infra::VerifyClusterInvariants((*runner)->cluster()).ok());
  ASSERT_NE((*runner)->fault_injector(), nullptr);
  EXPECT_EQ((*runner)->fault_injector()->stats().servers_failed, 1);
  faults::AvailabilityReport report = (*runner)->availability_report();
  EXPECT_GE(report.episodes, 1);
  EXPECT_EQ(report.episodes,
            report.recovered + report.abandoned + report.open);
  // Every injected failure was noticed by heartbeat detection.
  EXPECT_EQ(report.detected, report.episodes);
}

TEST(RunnerTest, NoFaultPlanMeansNoFaultMachinery) {
  // RunnerConfig without a fault plan must not even build the fault
  // subsystem — the byte-compat guarantee for existing goldens.
  auto runner =
      MakeRunner(Scenario::kFullMobility, 1.0, Duration::Hours(1));
  ASSERT_NE(runner, nullptr);
  ASSERT_TRUE(runner->Run().ok());
  EXPECT_EQ(runner->fault_injector(), nullptr);
  EXPECT_EQ(runner->recovery_manager(), nullptr);
  faults::AvailabilityReport report = runner->availability_report();
  EXPECT_EQ(report.episodes, 0);
  EXPECT_EQ(report.faults_injected, 0);
}

TEST(RunnerTest, ForecastModeRuns) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = MakeScenarioConfig(Scenario::kFullMobility, 1.2);
  config.duration = Duration::Hours(48);
  config.use_forecast = true;
  auto runner = SimulationRunner::Create(landscape, config);
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->Run().ok());
  EXPECT_GT((*runner)->metrics().actions_executed, 0);
}


// Pins the bytes of the checkpoint's "runner" section (RunMetrics, the
// message log, the oscillation history, the smoothing rings, the load
// sums, the heartbeat reconcile epoch and the degraded-mode posture)
// mid-run, after a metrics warmup, for a static run and a controller
// run: checkpoints written by one build must restore in the next.
TEST(RunnerCheckpointTest, RunnerSectionBytesArePinned) {
  struct Case {
    Scenario scenario;
    uint64_t hash;
  };
  // Recorded at section layout 3, which stores the strategy counts
  // once and leaves the heartbeat watches to the monitor section.
  const Case cases[] = {
      {Scenario::kStatic, 0xda8ea2f185787058ull},
      {Scenario::kConstrainedMobility, 0x9ae01b03894fc1d4ull}};
  for (const Case& c : cases) {
    SCOPED_TRACE(ScenarioName(c.scenario));
    RunnerConfig config = MakeScenarioConfig(c.scenario, 1.3, 42);
    config.duration = Duration::Hours(12);
    config.metrics_warmup = Duration::Hours(2);
    auto runner =
        SimulationRunner::Create(MakePaperLandscape(c.scenario), config);
    ASSERT_TRUE(runner.ok()) << runner.status();
    ASSERT_TRUE(
        (*runner)->RunUntil(SimTime::Start() + Duration::Hours(10)).ok());
    const RunMetrics& m = (*runner)->metrics();
    EXPECT_GT(m.triggers, 0);
    EXPECT_GT(m.overload_server_minutes, 0.0);
    EXPECT_GT(m.max_overload_streak_minutes, 0.0);
    if (c.scenario != Scenario::kStatic) {
      EXPECT_GT(m.actions_executed, 0);
    }
    std::vector<std::pair<std::string, std::string>> sections;
    ASSERT_TRUE((*runner)->SaveStateSections(&sections).ok());
    auto runner_section = std::find_if(
        sections.begin(), sections.end(),
        [](const auto& entry) { return entry.first == "runner"; });
    ASSERT_NE(runner_section, sections.end());
    EXPECT_EQ(Fnv1a64(runner_section->second), c.hash);
  }
}

}  // namespace
}  // namespace autoglobe
