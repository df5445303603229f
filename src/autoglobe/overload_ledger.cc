#include "autoglobe/overload_ledger.h"

#include <algorithm>

#include "autoglobe/runner.h"
#include "common/logging.h"
#include "common/strings.h"

namespace autoglobe {

namespace {

// The row kernels compiled into this translation unit (built with the
// kernel TUs' floating-point flags, so they are the same bits as the
// dispatched tiers).
#include "common/lane_kernels_inl.h"

}  // namespace

OverloadLedger::OverloadLedger(const LaneKernels& kernels)
    : kernels_(&kernels) {}

Status OverloadLedger::Init(size_t servers, size_t lanes, Duration tick,
                            Duration smoothing, double threshold) {
  if (tick <= Duration::Zero()) {
    return Status::InvalidArgument("tick must be positive");
  }
  servers_ = servers;
  lanes_ = lanes;
  window_ticks_ = static_cast<size_t>(
      std::max<int64_t>(1, smoothing.seconds() / tick.seconds()));
  threshold_ = threshold;
  tick_minutes_ = tick.seconds() / 60.0;
  window_.assign(servers_ * window_ticks_ * lanes_, 0.0);
  window_sum_.assign(servers_ * lanes_, 0.0);
  streak_minutes_.assign(servers_ * lanes_, 0.0);
  overload_minutes_.assign(lanes_, 0.0);
  max_streak_.assign(lanes_, 0.0);
  load_sum_.assign(lanes_, 0.0);
  load_samples_ = 0;
  SetPosition(0, 0);
  return Status::OK();
}

void OverloadLedger::SetPosition(size_t head, size_t count) {
  head_ = head;
  count_ = count;
  full_ = count_ == window_ticks_;
  write_slot_ = full_ ? head_ : (head_ + count_) % window_ticks_;
  divisor_ = static_cast<double>(full_ ? count_ : count_ + 1);
}

template <size_t kLanes>
void OverloadLedger::StepLanes(size_t server, const double* cpu) {
  const size_t L = LaneCount<kLanes>(lanes_);
  const LaneKernels& rows = RowKernels<kLanes>(kernels_);
  double* sums = &window_sum_[server * L];
  double* ring = &window_[(server * window_ticks_ + write_slot_) * L];
  // Add, then evict the oldest sample once the window is full.
  if (full_) {
    rows.smooth_full_row(load_sum_.data(), sums, ring, cpu, L);
  } else {
    rows.smooth_fill_row(load_sum_.data(), sums, ring, cpu, L);
  }
  rows.streak_row(overload_minutes_.data(), &streak_minutes_[server * L],
                  max_streak_.data(), sums, divisor_, threshold_,
                  tick_minutes_, L);
}

template void OverloadLedger::StepLanes<1>(size_t, const double*);
template void OverloadLedger::StepLanes<kAnyLanes>(size_t, const double*);

void OverloadLedger::EndTick() {
  load_samples_ += static_cast<int64_t>(servers_);
  if (full_) {
    SetPosition(head_ + 1 == window_ticks_ ? 0 : head_ + 1, count_);
  } else {
    SetPosition(head_, count_ + 1);
  }
}

void OverloadLedger::ResetWarmup() {
  std::fill(overload_minutes_.begin(), overload_minutes_.end(), 0.0);
  std::fill(max_streak_.begin(), max_streak_.end(), 0.0);
  std::fill(streak_minutes_.begin(), streak_minutes_.end(), 0.0);
  std::fill(load_sum_.begin(), load_sum_.end(), 0.0);
  load_samples_ = 0;
}

void OverloadLedger::Reset() {
  ResetWarmup();
  std::fill(window_.begin(), window_.end(), 0.0);
  std::fill(window_sum_.begin(), window_sum_.end(), 0.0);
  SetPosition(0, 0);
}

void OverloadLedger::Fold(size_t lane, double elapsed_minutes,
                          RunMetrics* m) const {
  m->overload_server_minutes = overload_minutes_[lane];
  m->max_overload_streak_minutes = max_streak_[lane];
  m->average_cpu_load =
      load_samples_ > 0
          ? load_sum_[lane] / static_cast<double>(load_samples_)
          : 0.0;
  const double denom = static_cast<double>(servers_) * elapsed_minutes;
  m->overload_fraction =
      denom > 0 ? m->overload_server_minutes / denom : 0.0;
}

void OverloadLedger::SaveState(ByteWriter* w) const {
  AG_CHECK(lanes_ == 1);
  w->U32(static_cast<uint32_t>(servers_));
  w->U64(window_ticks_);
  for (size_t p = 0; p < servers_; ++p) {
    w->F64(streak_minutes_[p]);
    w->F64(window_sum_[p]);
    w->U64(head_);
    w->U64(count_);
    for (size_t slot = 0; slot < window_ticks_; ++slot) {
      w->F64(window_[p * window_ticks_ + slot]);
    }
  }
  w->F64(load_sum_[0]);
  w->I64(load_samples_);
}

Status OverloadLedger::RestoreState(ByteReader* r) {
  AG_CHECK(lanes_ == 1);
  AG_ASSIGN_OR_RETURN(uint32_t servers, r->U32());
  AG_ASSIGN_OR_RETURN(uint64_t window_ticks, r->U64());
  if (servers != servers_ || window_ticks != window_ticks_) {
    return Status::ParseError(StrFormat(
        "smoothing-ring layout mismatch: snapshot has %u servers / "
        "window %llu, runner has %zu / %zu",
        servers, static_cast<unsigned long long>(window_ticks), servers_,
        window_ticks_));
  }
  uint64_t first_head = 0;
  uint64_t first_count = 0;
  for (size_t p = 0; p < servers_; ++p) {
    AG_ASSIGN_OR_RETURN(streak_minutes_[p], r->F64());
    AG_ASSIGN_OR_RETURN(window_sum_[p], r->F64());
    AG_ASSIGN_OR_RETURN(uint64_t head, r->U64());
    AG_ASSIGN_OR_RETURN(uint64_t count, r->U64());
    if (p == 0) {
      first_head = head;
      first_count = count;
    }
    // The next tick indexes the ring at `head` once it is full; every
    // server samples on every tick, so all rings stand at one position.
    if (head >= window_ticks_ || count > window_ticks_ ||
        head != first_head || count != first_count) {
      return Status::ParseError(StrFormat(
          "smoothing ring of server %zu at head %llu / count %llu: "
          "outside its window of %zu or off the first server's",
          p, static_cast<unsigned long long>(head),
          static_cast<unsigned long long>(count), window_ticks_));
    }
    for (size_t slot = 0; slot < window_ticks_; ++slot) {
      AG_ASSIGN_OR_RETURN(window_[p * window_ticks_ + slot], r->F64());
    }
  }
  AG_ASSIGN_OR_RETURN(load_sum_[0], r->F64());
  AG_ASSIGN_OR_RETURN(load_samples_, r->I64());
  SetPosition(static_cast<size_t>(first_head),
              static_cast<size_t>(first_count));
  return Status::OK();
}

void OverloadLedger::RestoreTotals(double overload_minutes,
                                   double max_streak) {
  AG_CHECK(lanes_ == 1);
  overload_minutes_[0] = overload_minutes;
  max_streak_[0] = max_streak;
}

}  // namespace autoglobe
