#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/rng.h"
#include "controller/rule_bases.h"
#include "fuzzy/compiled.h"
#include "infra/action.h"
#include "infra/cluster.h"
#include "monitor/load_archive.h"
#include "monitor/monitoring.h"
#include "obs/metrics.h"
#include "persist/checkpoint_store.h"
#include "persist/runner_checkpoint.h"
#include "workload/batch_demand.h"
#include "workload/demand.h"

namespace perfbench {

using namespace autoglobe;

namespace {

// Keeps a computed value alive so the timed loop is not folded away.
volatile double g_sink = 0.0;

// Times `batches` calls of `fn` (each call does `per_call_units` units
// of work) inside a span and returns the median ns per unit.
template <typename Fn>
double MedianNsPerUnit(SpanRecorder* spans, const std::string& name,
                       int batches, double per_call_units, Fn fn) {
  ScopedSpan span(spans, name);
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    int64_t start = NowNs();
    fn(b);
    samples.push_back(static_cast<double>(NowNs() - start) /
                      per_call_units);
  }
  return Median(std::move(samples));
}

// Keeps the first error of a loop that must not branch per call.
void KeepFirst(Status* first, Status status) {
  if (first->ok() && !status.ok()) *first = std::move(status);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

std::vector<std::string> SortedServerNames(const infra::Cluster& cluster) {
  std::vector<std::string> names;
  for (const infra::ServerSpec* server : cluster.Servers()) {
    names.push_back(server->name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status ProbeRng(const ProbeContext& c, SpanRecorder* spans, Metrics* out) {
  Rng rng(c.seed);
  constexpr int kDraws = 4096;
  (*out)["common.rng_normal_ns"] = MedianNsPerUnit(
      spans, "common.Rng::Normal", 256, kDraws, [&](int) {
        double sum = 0.0;
        for (int i = 0; i < kDraws; ++i) sum += rng.Normal(0.0, 1.0);
        g_sink = sum;
      });
  return Status::OK();
}

Status ProbeHistogram(const ProbeContext& c, SpanRecorder* spans,
                      Metrics* out) {
  // The runner's server_cpu_load histogram layout, fed the captured
  // per-server loads in chunks.
  obs::MetricsRegistry registry;
  obs::Histogram histogram = registry.AddHistogram(
      "server_cpu_load",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  std::vector<double> loads;
  for (const CapturedTick& tick : *c.ticks) {
    loads.insert(loads.end(), tick.server_cpu.begin(), tick.server_cpu.end());
  }
  if (loads.empty()) return Status::FailedPrecondition("no captured loads");
  constexpr size_t kChunk = 4096;
  size_t cursor = 0;
  (*out)["obs.histogram_observe_ns"] = MedianNsPerUnit(
      spans, "obs.Histogram::Observe", 256, kChunk, [&](int) {
        for (size_t i = 0; i < kChunk; ++i) {
          histogram.Observe(loads[cursor]);
          if (++cursor == loads.size()) cursor = 0;
        }
      });
  return Status::OK();
}

// Replays the captured ticks through a monitor and an archive built
// exactly like the runner's (same subjects, watch times, retention).
Status ProbeMonitor(const ProbeContext& c, SpanRecorder* spans,
                    Metrics* out) {
  const infra::Cluster& cluster = c.runner->cluster();
  const size_t capacity = static_cast<size_t>(
      c.config.archive_retention.seconds() / c.config.tick.seconds()) + 2;
  const size_t buckets = static_cast<size_t>(
      c.config.duration.seconds() / c.config.archive_bucket.seconds()) + 2;

  monitor::LoadArchive archive(c.config.archive_retention,
                               c.config.archive_bucket);
  archive.set_capacity_hints(capacity, buckets);
  // No trigger callback: the probe times detection, not the controller.
  monitor::LoadMonitoringSystem monitoring(&archive, c.config.monitor);
  // Runner order: servers sorted by name, then services sorted by name.
  std::vector<monitor::SubjectId> subjects;
  std::vector<std::string> keys;
  for (const std::string& name : SortedServerNames(cluster)) {
    AG_ASSIGN_OR_RETURN(const infra::ServerSpec* server,
                        cluster.FindServer(name));
    AG_RETURN_IF_ERROR(monitoring.RegisterSubject(
        monitor::TriggerKind::kServerOverloaded, name,
        server->performance_index));
    AG_ASSIGN_OR_RETURN(monitor::SubjectId id, monitoring.SubjectIdOf(name));
    subjects.push_back(id);
    keys.push_back(monitor::LoadMonitoringSystem::ArchiveKey(
        monitor::TriggerKind::kServerOverloaded, name));
  }
  for (const infra::ServiceSpec* service : cluster.Services()) {
    std::optional<Duration> watch;
    if (service->watch_time_minutes > 0) {
      watch = Duration::Minutes(service->watch_time_minutes);
    }
    AG_RETURN_IF_ERROR(monitoring.RegisterSubject(
        monitor::TriggerKind::kServiceOverloaded, service->name, 1.0, watch));
    AG_ASSIGN_OR_RETURN(monitor::SubjectId id,
                        monitoring.SubjectIdOf(service->name));
    subjects.push_back(id);
    keys.push_back(monitor::LoadMonitoringSystem::ArchiveKey(
        monitor::TriggerKind::kServiceOverloaded, service->name));
  }

  const std::vector<CapturedTick>& ticks = *c.ticks;
  std::vector<double> observe_ns;
  std::vector<double> materialize_ns;
  Status status;
  {
    ScopedSpan span(spans, "monitor.LoadMonitoringSystem::ObserveById");
    for (size_t t = 0; t < ticks.size(); ++t) {
      const CapturedTick& tick = ticks[t];
      int64_t start = NowNs();
      size_t s = 0;
      for (double load : tick.server_cpu) {
        KeepFirst(&status, monitoring.ObserveById(tick.at, subjects[s++], load));
      }
      for (double load : tick.service_load) {
        KeepFirst(&status, monitoring.ObserveById(tick.at, subjects[s++], load));
      }
      observe_ns.push_back(static_cast<double>(NowNs() - start) /
                           static_cast<double>(s));
      if (t % 10 == 9) {
        ScopedSpan materialize(spans,
                               "monitor.LoadMonitoringSystem::MaterializeAll");
        int64_t m_start = NowNs();
        KeepFirst(&status, monitoring.MaterializeAll());
        materialize_ns.push_back(static_cast<double>(NowNs() - m_start));
      }
    }
  }
  AG_RETURN_IF_ERROR(status);
  (*out)["monitor.observe_ns"] = Median(std::move(observe_ns));
  (*out)["monitor.materialize_ns"] = Median(std::move(materialize_ns));

  monitor::LoadArchive append_archive(c.config.archive_retention,
                                      c.config.archive_bucket);
  append_archive.set_capacity_hints(capacity, buckets);
  std::vector<monitor::LoadArchive::Handle> handles;
  for (const std::string& key : keys) {
    handles.push_back(append_archive.Acquire(key));
  }
  std::vector<double> append_ns;
  {
    ScopedSpan span(spans, "monitor.LoadArchive::Append");
    for (const CapturedTick& tick : ticks) {
      int64_t start = NowNs();
      size_t s = 0;
      for (double load : tick.server_cpu) {
        KeepFirst(&status, append_archive.Append(handles[s++], tick.at, load));
      }
      for (double load : tick.service_load) {
        KeepFirst(&status, append_archive.Append(handles[s++], tick.at, load));
      }
      append_ns.push_back(static_cast<double>(NowNs() - start) /
                          static_cast<double>(s));
    }
  }
  AG_RETURN_IF_ERROR(status);
  (*out)["monitor.archive_append_ns"] = Median(std::move(append_ns));
  return Status::OK();
}

// Ranks actions for the hottest servers of the last captured tick, and
// hosts for moving an instance off each of them — the const entry
// points, on the live runner's state.
Status ProbeController(const ProbeContext& c, SpanRecorder* spans,
                       Metrics* out) {
  const CapturedTick& last = c.ticks->back();
  std::vector<std::string> servers = SortedServerNames(c.runner->cluster());
  std::vector<size_t> order(servers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return last.server_cpu[a] > last.server_cpu[b];
  });
  order.resize(std::min<size_t>(order.size(), 16));

  const controller::Controller& controller = c.runner->controller();
  const SimTime now = c.runner->simulator().now();
  std::vector<double> rank_actions_ns;
  std::vector<double> rank_servers_ns;
  double candidates = 0.0;
  int64_t server_ranks = 0;
  for (int round = 0; round < 4; ++round) {
    for (size_t index : order) {
      monitor::Trigger trigger{monitor::TriggerKind::kServerOverloaded,
                               servers[index], now, last.server_cpu[index]};
      {
        ScopedSpan span(spans, "controller.Controller::RankActions");
        int64_t start = NowNs();
        AG_RETURN_IF_ERROR(controller.RankActions(trigger).status());
        rank_actions_ns.push_back(static_cast<double>(NowNs() - start));
      }
      // Host ranking for moving the server's first instance away.
      std::vector<const infra::ServiceInstance*> instances =
          c.runner->cluster().InstancesOn(servers[index]);
      if (instances.empty()) continue;
      infra::Action move;
      move.type = infra::ActionType::kMove;
      move.service = instances.front()->service;
      move.instance = instances.front()->id;
      move.source_server = servers[index];
      ScopedSpan span(spans, "controller.Controller::RankServers");
      int64_t start = NowNs();
      AG_ASSIGN_OR_RETURN(std::vector<controller::ScoredServer> hosts,
                          controller.RankServers(move, now));
      rank_servers_ns.push_back(static_cast<double>(NowNs() - start));
      candidates += static_cast<double>(hosts.size());
      ++server_ranks;
    }
  }
  (*out)["controller.rank_actions_ns"] = Median(std::move(rank_actions_ns));
  (*out)["controller.rank_servers_ns"] = Median(std::move(rank_servers_ns));
  (*out)["controller.candidates_per_rank"] =
      server_ranks > 0 ? candidates / static_cast<double>(server_ranks) : 0.0;
  return Status::OK();
}

// Evaluates the default overload action base and the default move
// host base with input slots filled from the captured loads.
Status ProbeFuzzy(const ProbeContext& c, SpanRecorder* spans,
                  Metrics* out) {
  AG_ASSIGN_OR_RETURN(fuzzy::RuleBase action_base,
                      controller::MakeDefaultActionRuleBase(
                          monitor::TriggerKind::kServerOverloaded));
  AG_ASSIGN_OR_RETURN(
      fuzzy::RuleBase server_base,
      controller::MakeDefaultServerRuleBase(infra::ActionType::kMove));
  AG_ASSIGN_OR_RETURN(fuzzy::CompiledRuleBase action,
                      fuzzy::CompiledRuleBase::Compile(action_base));
  AG_ASSIGN_OR_RETURN(fuzzy::CompiledRuleBase server,
                      fuzzy::CompiledRuleBase::Compile(server_base));
  const fuzzy::CompiledRuleBase* bases[2] = {&action, &server};
  fuzzy::CompiledRuleBase::Scratch scratch[2] = {action.MakeScratch(),
                                                 server.MakeScratch()};

  std::vector<double> loads;
  for (const CapturedTick& tick : *c.ticks) {
    loads.insert(loads.end(), tick.server_cpu.begin(), tick.server_cpu.end());
  }
  // One input row per evaluation, cycling through the captured loads.
  constexpr size_t kRows = 256;
  std::vector<std::vector<double>> rows[2];
  size_t cursor = 0;
  for (int b = 0; b < 2; ++b) {
    for (size_t r = 0; r < kRows; ++r) {
      std::vector<double> row(bases[b]->inputs().size());
      for (double& slot : row) {
        slot = loads[cursor];
        if (++cursor == loads.size()) cursor = 0;
      }
      rows[b].push_back(std::move(row));
    }
  }
  const fuzzy::Defuzzifier method = c.config.controller.defuzzifier;
  (*out)["fuzzy.evaluate_ns"] = MedianNsPerUnit(
      spans, "fuzzy.CompiledRuleBase::Evaluate", 128, 2.0 * kRows, [&](int) {
        double sum = 0.0;
        for (size_t r = 0; r < kRows; ++r) {
          for (int b = 0; b < 2; ++b) {
            bases[b]->Evaluate(rows[b][r].data(), method, &scratch[b]);
            sum += scratch[b].crisp.empty() ? 0.0 : scratch[b].crisp[0];
          }
        }
        g_sink = sum;
      });
  return Status::OK();
}

// Rebuilds the dense index of a fresh cluster built from the
// landscape: one instance moves back and forth, and each Index() call
// after a move re-interns the whole landscape.
Status ProbeIndexRebuild(const ProbeContext& c, SpanRecorder* spans,
                         Metrics* out) {
  infra::Cluster cluster;
  workload::DemandEngine engine(&cluster, Rng(c.seed));
  AG_RETURN_IF_ERROR(c.landscape->Build(&cluster, &engine));
  std::vector<std::string> servers = SortedServerNames(cluster);
  infra::InstanceId mover = 0;
  std::string home;
  std::string away;
  for (const std::string& server : servers) {
    for (const infra::ServiceInstance* instance : cluster.InstancesOn(server)) {
      for (const std::string& target : servers) {
        if (target != server &&
            cluster.CanPlace(instance->service, target, instance->id).ok()) {
          mover = instance->id;
          home = server;
          away = target;
          break;
        }
      }
      if (mover != 0) break;
    }
    if (mover != 0) break;
  }
  if (mover == 0) {
    return Status::FailedPrecondition("no movable instance for the probe");
  }
  const int reps = servers.size() > 1000 ? 24 : 256;
  std::vector<double> samples;
  Status status;
  ScopedSpan span(spans, "infra.LandscapeIndex::Rebuild");
  for (int i = 0; i < reps; ++i) {
    KeepFirst(&status, cluster.MoveInstance(mover, i % 2 == 0 ? away : home,
                                       SimTime::Start()));
    int64_t start = NowNs();
    g_sink = static_cast<double>(cluster.Index().num_servers());
    samples.push_back(static_cast<double>(NowNs() - start));
  }
  AG_RETURN_IF_ERROR(status);
  (*out)["infra.index_rebuild_ns"] = Median(std::move(samples));
  return Status::OK();
}

// Create, checkpoint (encode + write), load and restore of the live
// runner, each repeated and reduced to a median.
Status ProbePersistAndCreate(const ProbeContext& c, SpanRecorder* spans,
                             Metrics* out) {
  std::vector<double> create_s;
  for (int i = 0; i < c.heavy_reps; ++i) {
    ScopedSpan span(spans, "autoglobe.SimulationRunner::Create");
    int64_t start = NowNs();
    auto fresh = SimulationRunner::Create(*c.landscape, c.config);
    AG_RETURN_IF_ERROR(fresh.status());
    create_s.push_back(SecondsSince(start));
  }
  (*out)["autoglobe.create_s"] = Median(std::move(create_s));

  std::error_code ec;
  std::filesystem::remove_all(c.scratch_dir, ec);
  AG_ASSIGN_OR_RETURN(persist::CheckpointStore store,
                      persist::CheckpointStore::Open(c.scratch_dir, 1));
  const uint64_t fingerprint = c.runner->StateFingerprint();
  std::vector<double> encode_s, write_s, load_s, restore_s;
  double bytes = 0.0;
  for (int i = 0; i < c.heavy_reps; ++i) {
    ScopedSpan checkpoint(spans, "persist.checkpoint");
    std::vector<std::pair<std::string, std::string>> sections;
    {
      ScopedSpan span(spans, "persist.SaveStateSections");
      int64_t start = NowNs();
      AG_RETURN_IF_ERROR(c.runner->SaveStateSections(&sections));
      encode_s.push_back(SecondsSince(start));
    }
    std::string path;
    {
      ScopedSpan span(spans, "persist.CheckpointStore::Write");
      int64_t start = NowNs();
      AG_ASSIGN_OR_RETURN(path, store.Write(fingerprint, sections));
      write_s.push_back(SecondsSince(start));
    }
    sections.clear();
    sections.shrink_to_fit();
    bytes = static_cast<double>(std::filesystem::file_size(path));
    persist::CheckpointStore::Loaded loaded;
    {
      ScopedSpan span(spans, "persist.CheckpointStore::LoadLatest");
      int64_t start = NowNs();
      AG_ASSIGN_OR_RETURN(loaded, store.LoadLatest(fingerprint));
      load_s.push_back(SecondsSince(start));
    }
    {
      ScopedSpan span(spans, "persist.RestoreRunner");
      int64_t start = NowNs();
      auto restored =
          persist::RestoreRunner(*c.landscape, c.config, loaded.data);
      AG_RETURN_IF_ERROR(restored.status());
      restore_s.push_back(SecondsSince(start));
    }
  }
  std::filesystem::remove_all(c.scratch_dir, ec);
  (*out)["persist.encode_s"] = Median(std::move(encode_s));
  (*out)["persist.write_s"] = Median(std::move(write_s));
  (*out)["persist.load_s"] = Median(std::move(load_s));
  (*out)["persist.restore_s"] = Median(std::move(restore_s));
  (*out)["persist.bytes"] = bytes;
  return Status::OK();
}

// Batched demand ticks on both RNG planes: a BatchDemandEngine built
// from the landscape with lanes laid out as in the seed batch.
Status ProbeBatchTick(const ProbeContext& c, SpanRecorder* spans,
                      Metrics* out) {
  for (RngKind kind : {RngKind::kXoshiro, RngKind::kPhilox}) {
    infra::Cluster cluster;
    workload::BatchDemandEngine engine(&cluster, c.batch_lanes);
    AG_RETURN_IF_ERROR(c.landscape->Build(&cluster, &engine));
    engine.set_rng_kind(kind);
    engine.set_distribution(c.config.distribution);
    engine.set_fluctuation_per_minute(c.config.fluctuation_per_minute);
    engine.set_overload_threshold(c.config.overload_threshold);
    for (size_t lane = 0; lane < c.batch_lanes; ++lane) {
      engine.SetLaneSeed(lane, c.seed + 17 * static_cast<uint64_t>(lane));
      engine.SetLaneUserScale(
          lane, c.config.user_scale + 0.05 * static_cast<double>(lane % 9));
    }
    const bool philox = kind == RngKind::kPhilox;
    const int ticks = cluster.Servers().size() > 1000 ? 60 : 720;
    int64_t k = 0;
    (*out)[philox ? "workload.batch_tick_ns.philox"
                  : "workload.batch_tick_ns.xoshiro"] =
        MedianNsPerUnit(spans,
                        philox ? "workload.BatchDemandEngine::Tick.philox"
                               : "workload.BatchDemandEngine::Tick.xoshiro",
                        ticks, 1.0, [&](int) {
                          engine.Tick(SimTime::Start() + Duration::Minutes(++k),
                                      c.config.tick);
                        });
  }
  return Status::OK();
}

// Advances the live runner's own demand engine past the end of its
// run. Runs last: it leaves the engine ahead of the runner.
Status ProbeDemandTick(const ProbeContext& c, SpanRecorder* spans,
                       Metrics* out) {
  workload::DemandEngine& demand = c.runner->demand();
  SimTime at = c.runner->simulator().now();
  const int ticks =
      c.runner->cluster().Servers().size() > 1000 ? 120 : 2000;
  (*out)["workload.tick_ns"] = MedianNsPerUnit(
      spans, "workload.DemandEngine::Tick", ticks, 1.0, [&](int) {
        at = at + c.config.tick;
        demand.Tick(at, c.config.tick);
      });
  return Status::OK();
}

}  // namespace

CapturedTick CaptureTick(SimTime now, const workload::DemandEngine& demand,
                         const infra::Cluster& cluster) {
  CapturedTick tick;
  tick.at = now;
  const infra::LandscapeIndex& index = cluster.Index();
  tick.server_cpu.resize(index.num_servers());
  for (size_t i = 0; i < tick.server_cpu.size(); ++i) {
    tick.server_cpu[i] =
        demand.ServerCpuLoadById(static_cast<infra::DenseId>(i));
  }
  tick.service_load.resize(index.num_services());
  for (size_t i = 0; i < tick.service_load.size(); ++i) {
    tick.service_load[i] =
        demand.ServiceLoadById(static_cast<infra::DenseId>(i));
  }
  return tick;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

Metrics ProbeLayers(const ProbeContext& context, SpanRecorder* spans,
                    std::string* error) {
  Metrics out;
  if (context.ticks == nullptr || context.ticks->empty()) {
    *error = "no captured ticks";
    return out;
  }
  using Probe = Status (*)(const ProbeContext&, SpanRecorder*, Metrics*);
  const std::pair<const char*, Probe> probes[] = {
      {"rng", &ProbeRng},
      {"histogram", &ProbeHistogram},
      {"monitor", &ProbeMonitor},
      {"controller", &ProbeController},
      {"fuzzy", &ProbeFuzzy},
      {"index", &ProbeIndexRebuild},
      {"persist", &ProbePersistAndCreate},
      {"batch_tick", &ProbeBatchTick},
      {"demand_tick", &ProbeDemandTick},
  };
  for (const auto& [name, probe] : probes) {
    Status status = probe(context, spans, &out);
    if (!status.ok()) {
      *error = std::string(name) + " probe: " + status.ToString();
      return out;
    }
  }
  return out;
}

}  // namespace perfbench
