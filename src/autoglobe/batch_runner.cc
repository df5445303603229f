#include "autoglobe/batch_runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe {

namespace {

/// InvalidArgument when a lane's user scale is not a finite,
/// non-negative factor (Create and Rerun check every lane).
Status CheckLanes(const std::vector<BatchLane>& lanes) {
  for (size_t i = 0; i < lanes.size(); ++i) {
    if (!std::isfinite(lanes[i].user_scale) || lanes[i].user_scale < 0) {
      return Status::InvalidArgument(StrFormat(
          "lane %zu: user_scale must be finite and non-negative", i));
    }
  }
  return Status::OK();
}

}  // namespace

BatchRunner::BatchRunner(RunnerConfig config, std::vector<BatchLane> lanes)
    : config_(std::move(config)),
      lanes_(std::move(lanes)),
      kernels_(&GetLaneKernels()) {}

Status BatchRunner::CheckEligibility(const RunnerConfig& config) {
  if (config.controller_enabled) {
    return Status::InvalidArgument(
        "batched runs require controller_enabled=false: controller "
        "actions mutate the shared topology per lane");
  }
  if (config.strategy.kind != strategy::StrategyKind::kStaticFuzzy) {
    return Status::InvalidArgument(
        "batched runs only support the static strategy; adaptive "
        "strategies keep per-run learned state");
  }
  if (config.fault_plan.has_value()) {
    return Status::InvalidArgument(
        "batched runs cannot take a fault plan; batch availability "
        "scenarios at the rep level instead");
  }
  if (!config.slas.empty()) {
    return Status::InvalidArgument("batched runs do not track SLAs");
  }
  if (config.use_forecast) {
    return Status::InvalidArgument(
        "batched runs do not replicate the forecast detection signal");
  }
  if (!config.reservations.empty()) {
    return Status::InvalidArgument(
        "reservations only matter to the controller; drop them for "
        "batched runs");
  }
  if (config.observability.enable_tracing ||
      config.observability.enable_audit) {
    return Status::InvalidArgument(
        "batched runs have no trace/audit pipeline");
  }
  if (config.archive_retention < config.monitor.overload_watch_time ||
      config.archive_retention < config.monitor.idle_watch_time) {
    return Status::InvalidArgument(
        "archive retention shorter than a watch window would clip the "
        "watch-time mean; the batch replica assumes full windows");
  }
  return Status::OK();
}

Result<std::unique_ptr<BatchRunner>> BatchRunner::Create(
    const Landscape& landscape, RunnerConfig config,
    std::vector<BatchLane> lanes) {
  AG_RETURN_IF_ERROR(config.Validate());
  AG_RETURN_IF_ERROR(CheckEligibility(config));
  if (lanes.empty()) {
    return Status::InvalidArgument("a batch needs at least one lane");
  }
  AG_RETURN_IF_ERROR(CheckLanes(lanes));
  std::unique_ptr<BatchRunner> runner(
      new BatchRunner(std::move(config), std::move(lanes)));
  AG_RETURN_IF_ERROR(runner->Init(landscape));
  return runner;
}

Status BatchRunner::Init(const Landscape& landscape) {
  const size_t L = lanes_.size();
  engine_ = std::make_unique<workload::BatchDemandEngine>(&cluster_, L);
  AG_RETURN_IF_ERROR(landscape.Build(&cluster_, engine_.get()));
  engine_->set_rng_kind(config_.rng_kind);
  engine_->set_distribution(config_.distribution);
  engine_->set_fluctuation_per_minute(config_.fluctuation_per_minute);
  engine_->set_overload_threshold(config_.overload_threshold);

  tick_sec_ = config_.tick.seconds();
  idle_watch_sec_ = config_.monitor.idle_watch_time.seconds();

  // Subjects in dense-id layout: servers first, then services, each
  // in the index's sorted-name order — the same ranks
  // SimulationRunner's per-tick loops use, so ObserveReplica reads the
  // engine views by position.
  const infra::LandscapeIndex& index = cluster_.Index();
  num_servers_ = index.num_servers();
  // Sized first: it refuses a non-positive tick, which the watch
  // rings below divide by.
  AG_RETURN_IF_ERROR(ledger_.Init(num_servers_, L, config_.tick,
                                  config_.overload_smoothing,
                                  config_.overload_threshold));

  subjects_.clear();
  subjects_.reserve(index.num_servers() + index.num_services());
  auto add_subject = [&](const std::string& name, double idle_divisor,
                         Duration overload_watch) -> Status {
    if (config_.archive_retention < overload_watch) {
      return Status::InvalidArgument(StrFormat(
          "archive retention shorter than the watchTime of \"%s\"",
          name.c_str()));
    }
    Subject subject;
    subject.idle_threshold = config_.monitor.idle_threshold_base / idle_divisor;
    subject.overload_watch_sec = overload_watch.seconds();
    subject.cap = static_cast<size_t>(
                      std::max(subject.overload_watch_sec, idle_watch_sec_) /
                      tick_sec_) +
                  2;
    subject.hist.assign(subject.cap * L, 0.0);
    subject.phase.assign(L, 0);
    subject.watch_started.assign(L, 0);
    subject.normal_mask.assign((L + 63) / 64, ~uint64_t{0});
    subjects_.push_back(std::move(subject));
    return Status::OK();
  };
  for (size_t i = 0; i < index.num_servers(); ++i) {
    const infra::ServerSpec& server =
        index.Server(static_cast<infra::DenseId>(i));
    AG_RETURN_IF_ERROR(add_subject(server.name, server.performance_index,
                                   config_.monitor.overload_watch_time));
  }
  for (size_t j = 0; j < index.num_services(); ++j) {
    const infra::ServiceSpec& service =
        index.Service(static_cast<infra::DenseId>(j));
    Duration watch = config_.monitor.overload_watch_time;
    if (service.watch_time_minutes > 0) {
      watch = Duration::Minutes(service.watch_time_minutes);
    }
    AG_RETURN_IF_ERROR(add_subject(service.name, 1.0, watch));
  }

  metrics_.assign(L, RunMetrics{});
  watch_sum_.assign(L, 0.0);
  expiring_.assign(L, 0);
  ResetRunState();
  return Status::OK();
}

void BatchRunner::ResetRunState() {
  const size_t L = lanes_.size();
  for (size_t lane = 0; lane < L; ++lane) {
    engine_->SetLaneSeed(lane, lanes_[lane].seed);
    engine_->SetLaneUserScale(lane, lanes_[lane].user_scale);
  }
  ledger_.Reset();
  for (Subject& subject : subjects_) {
    std::fill(subject.hist.begin(), subject.hist.end(), 0.0);
    std::fill(subject.phase.begin(), subject.phase.end(), 0);
    std::fill(subject.watch_started.begin(), subject.watch_started.end(),
              int64_t{0});
    subject.watching = 0;
    subject.homogeneous = true;
    subject.next_expiry = Subject::kNoExpiry;
    subject.hist_slot = 0;
    std::fill(subject.normal_mask.begin(), subject.normal_mask.end(),
              ~uint64_t{0});
  }
  std::fill(metrics_.begin(), metrics_.end(), RunMetrics{});
}

Status BatchRunner::Rerun(std::vector<BatchLane> lanes) {
  if (lanes.size() != lanes_.size()) {
    return Status::InvalidArgument(
        "a rerun must keep the batch width (the engine's lane count is "
        "fixed)");
  }
  AG_RETURN_IF_ERROR(CheckLanes(lanes));
  lanes_ = std::move(lanes);
  engine_->ResetLanes();
  ResetRunState();
  return Status::OK();
}

Status BatchRunner::Run() {
  const int64_t end_sec = config_.duration.seconds();
  const int64_t warmup_sec = config_.metrics_warmup.seconds();
  // The kernel orders same-time events by schedule sequence: the
  // periodic tick holds seq 0 for its first fire and fresh (≥ 2) seqs
  // for re-arms, the warmup reset holds seq 1. So a warmup landing on
  // the first tick runs after it; landing on any later tick, before it.
  bool warmup_pending = warmup_sec > 0 && warmup_sec <= end_sec;
  const int64_t k_max = end_sec / tick_sec_;
  for (int64_t k = 1; k <= k_max; ++k) {
    const int64_t t_sec = k * tick_sec_;
    if (warmup_pending &&
        (warmup_sec < t_sec || (warmup_sec == t_sec && k >= 2))) {
      ApplyWarmupReset();
      warmup_pending = false;
    }
    TickOnce(k);
    if (warmup_pending && warmup_sec == t_sec) {
      ApplyWarmupReset();
      warmup_pending = false;
    }
  }
  // A warmup between the last tick and the end of the run still fires.
  if (warmup_pending) ApplyWarmupReset();
  // SimulationRunner::RunUntil's fold, with the clock at the end of the
  // run.
  const double total_minutes =
      static_cast<double>(end_sec - warmup_sec) / 60.0;
  for (size_t lane = 0; lane < lanes_.size(); ++lane) {
    RunMetrics& m = metrics_[lane];
    ledger_.Fold(lane, total_minutes, &m);
    m.lost_work_wu = engine_->TotalLostWork(lane);
    m.sla_violation_minutes = 0.0;
  }
  return Status::OK();
}

void BatchRunner::TickOnce(int64_t k) {
  const size_t L = lanes_.size();
  const SimTime now = SimTime::FromSeconds(k * tick_sec_);
  engine_->Tick(now, config_.tick);

  for (size_t p = 0; p < num_servers_; ++p) {
    Subject& subject = subjects_[p];
    const double* cpu_row =
        engine_->ServerCpuRow(static_cast<infra::DenseId>(p));
    // The per-tick archive sample is the whole lane row at once.
    std::copy_n(cpu_row, L, subject.hist.data() + subject.hist_slot * L);
    // Straight-line math first (the ledger's row kernels, AVX2 where
    // available), the branchy watch state machine in its own pass.
    ledger_.Step(p, cpu_row);
    ObserveRowReplica(subject, cpu_row, k);
    subject.hist_slot =
        subject.hist_slot + 1 == subject.cap ? 0 : subject.hist_slot + 1;
  }
  ledger_.EndTick();
  const size_t num_services = subjects_.size() - num_servers_;
  for (size_t q = 0; q < num_services; ++q) {
    Subject& subject = subjects_[num_servers_ + q];
    // The service row is computed straight into its archive slot and
    // observed from there — no bounce through a scratch row.
    double* hist_row = subject.hist.data() + subject.hist_slot * L;
    engine_->ServiceLoadAll(static_cast<infra::DenseId>(q), hist_row);
    ObserveRowReplica(subject, hist_row, k);
    subject.hist_slot =
        subject.hist_slot + 1 == subject.cap ? 0 : subject.hist_slot + 1;
  }
}

void BatchRunner::ObserveRowReplica(Subject& subject, const double* loads,
                                    int64_t k) {
  enum : uint8_t { kNormal = 0, kWatchingOverload = 1, kWatchingIdle = 2 };
  const size_t L = lanes_.size();
  const double overload = config_.monitor.overload_threshold;
  const double idle = subject.idle_threshold;
  const int64_t now_sec = k * tick_sec_;
  if (subject.homogeneous && subject.watching == 0) {
    // Every lane is in the Normal phase, where the only possible
    // action is arming a watch on an out-of-band load — one branchless
    // scan usually proves the whole row is a no-op.
    size_t over = 0;
    size_t under = 0;
    for (size_t base = 0; base < L; base += 64) {
      uint64_t over_mask = 0;
      uint64_t under_mask = 0;
      kernels_->band_mask_row(&over_mask, &under_mask, loads + base,
                              overload, idle, std::min<size_t>(64, L - base));
      over += static_cast<size_t>(__builtin_popcountll(over_mask));
      under += static_cast<size_t>(__builtin_popcountll(under_mask));
    }
    if (over == 0 && under == 0) return;
    // Lanes usually cross a threshold together (e.g. the whole batch
    // going idle overnight): arm the full row at once and stay
    // homogeneous, so the watch countdown costs one check per tick.
    if (over == L || (over == 0 && under == L)) {
      std::fill(subject.phase.begin(), subject.phase.end(),
                over == L ? kWatchingOverload : kWatchingIdle);
      std::fill(subject.watch_started.begin(),
                subject.watch_started.end(), now_sec);
      std::fill(subject.normal_mask.begin(), subject.normal_mask.end(),
                uint64_t{0});
      if ((L & 63) != 0) {
        subject.normal_mask.back() = ~uint64_t{0} << (L & 63);
      }
      subject.watching = L;
      subject.next_expiry =
          now_sec +
          (over == L ? subject.overload_watch_sec : idle_watch_sec_);
      return;
    }
    subject.homogeneous = false;
  } else if (subject.homogeneous) {
    // Whole row is in the same watch with the same start.
    const bool watching_overload = subject.phase[0] == kWatchingOverload;
    const int64_t watch_sec =
        watching_overload ? subject.overload_watch_sec : idle_watch_sec_;
    if (now_sec - subject.watch_started[0] < watch_sec) return;
    std::fill(subject.phase.begin(), subject.phase.end(), kNormal);
    std::fill(subject.normal_mask.begin(), subject.normal_mask.end(),
              ~uint64_t{0});
    subject.watching = 0;
    subject.next_expiry = Subject::kNoExpiry;
    // Watch-time mean, all lanes at once: the newest-first tick walk
    // is the outer loop, so each lane still sums the exact scalar
    // sequence while the adds vectorize across the row.
    int64_t j_min = (now_sec - watch_sec) / tick_sec_ + 1;
    if (j_min < 1) j_min = 1;
    double* sum = watch_sum_.data();
    kernels_->window_sum_rows(sum, subject.hist.data(), subject.cap,
                              static_cast<size_t>(k - j_min + 1),
                              subject.hist_slot, L);
    const double count = static_cast<double>(k - j_min + 1);
    for (size_t lane = 0; lane < L; ++lane) {
      const double average = sum[lane] / count;
      const bool fired = watching_overload ? average > overload
                                           : average < idle;
      if (fired) ++metrics_[lane].triggers;
    }
    return;
  }
  // Divergent row, columnar: the lanes are independent, so the scalar
  // monitor's per-lane state machine (monitoring.cc) splits into an
  // arm pass and an expiry pass. Arming first is safe — a lane armed
  // this tick cannot also expire this tick (watch times are
  // positive), and an expiring lane returns to Normal without
  // re-arming until the next tick, exactly like the scalar monitor.
  uint8_t* phase = subject.phase.data();
  int64_t* started = subject.watch_started.data();
  // A threshold crossing only *arms* the watch; the trigger decision
  // waits for the watch-time mean (monitoring.cc, Phase::kNormal).
  // Only a lane that is both out of band AND still Normal can arm —
  // masking with normal_mask skips the (typically many) lanes whose
  // loads are out of band because they are already mid-watch.
  uint64_t* normal = subject.normal_mask.data();
  for (size_t base = 0, w = 0; base < L; base += 64, ++w) {
    uint64_t over_mask = 0;
    uint64_t under_mask = 0;
    kernels_->band_mask_row(&over_mask, &under_mask, loads + base,
                            overload, idle, std::min<size_t>(64, L - base));
    uint64_t out = (over_mask | under_mask) & normal[w];
    while (out != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(out));
      out &= out - 1;
      normal[w] &= ~(uint64_t{1} << bit);
      const size_t lane = base + bit;
      if ((over_mask >> bit) & 1) {
        phase[lane] = kWatchingOverload;
        started[lane] = now_sec;
        ++subject.watching;
        subject.next_expiry = std::min(
            subject.next_expiry, now_sec + subject.overload_watch_sec);
      } else {
        phase[lane] = kWatchingIdle;
        started[lane] = now_sec;
        ++subject.watching;
        subject.next_expiry =
            std::min(subject.next_expiry, now_sec + idle_watch_sec_);
      }
    }
  }
  if (now_sec >= subject.next_expiry) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool watching_overload = pass == 0;
      const uint8_t kind =
          watching_overload ? kWatchingOverload : kWatchingIdle;
      const int64_t watch_sec =
          watching_overload ? subject.overload_watch_sec : idle_watch_sec_;
      uint32_t* expiring = expiring_.data();
      size_t n_exp = 0;
      for (size_t base = 0, w = 0; base < L; base += 64, ++w) {
        uint64_t watch = ~normal[w];
        while (watch != 0) {
          const unsigned bit = static_cast<unsigned>(__builtin_ctzll(watch));
          watch &= watch - 1;
          const size_t lane = base + bit;
          if (phase[lane] == kind && now_sec - started[lane] >= watch_sec) {
            expiring[n_exp++] = static_cast<uint32_t>(lane);
          }
        }
      }
      if (n_exp == 0) continue;
      // LoadArchive::Average over (now - watch, now]: the samples sit
      // on the uniform tick grid j * tick, j = 1..k, summed
      // newest-first. Every lane of this kind expiring now shares the
      // same window — j_min depends on the watch length, not the arm
      // time — so when several expire together one row-major walk
      // sums them all at once: each lane still adds its exact scalar
      // sequence while the adds vectorize across the row. For a few
      // stragglers the lane-strided walk is cheaper.
      int64_t j_min = (now_sec - watch_sec) / tick_sec_ + 1;
      if (j_min < 1) j_min = 1;
      const size_t rows = static_cast<size_t>(k - j_min + 1);
      const size_t newest_slot = subject.hist_slot;
      double* sum = watch_sum_.data();
      if (n_exp >= 2) {
        kernels_->window_sum_rows(sum, subject.hist.data(), subject.cap,
                                  rows, newest_slot, L);
      } else {
        const size_t lane = expiring[0];
        double s = 0.0;
        size_t slot = newest_slot;
        for (size_t r = 0; r < rows; ++r) {
          s += subject.hist[slot * L + lane];
          slot = slot == 0 ? subject.cap - 1 : slot - 1;
        }
        sum[lane] = s;
      }
      const double count = static_cast<double>(k - j_min + 1);
      const double threshold = watching_overload ? overload : idle;
      for (size_t e = 0; e < n_exp; ++e) {
        const size_t lane = expiring[e];
        phase[lane] = kNormal;
        normal[lane >> 6] |= uint64_t{1} << (lane & 63);
        --subject.watching;
        const double average = sum[lane] / count;
        const bool fired = watching_overload ? average > threshold
                                             : average < threshold;
        if (fired) ++metrics_[lane].triggers;
      }
    }
    // Re-derive the earliest remaining deadline from the survivors.
    int64_t next = Subject::kNoExpiry;
    for (size_t base = 0, w = 0; base < L; base += 64, ++w) {
      uint64_t watch = ~normal[w];
      while (watch != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(watch));
        watch &= watch - 1;
        const size_t lane = base + bit;
        const int64_t watch_sec = phase[lane] == kWatchingOverload
                                      ? subject.overload_watch_sec
                                      : idle_watch_sec_;
        next = std::min(next, started[lane] + watch_sec);
      }
    }
    subject.next_expiry = next;
  }
  // Divergent rows re-converge once every lane is back in Normal.
  if (subject.watching == 0) subject.homogeneous = true;
}

void BatchRunner::ApplyWarmupReset() {
  // Body of SimulationRunner::OnWarmupEnd, the "metrics-warmup-end"
  // event: quality counters restart, trigger counts do not.
  const size_t L = lanes_.size();
  for (size_t lane = 0; lane < L; ++lane) {
    engine_->ResetQualityMetrics(lane);
  }
  ledger_.ResetWarmup();
}

}  // namespace autoglobe
