#ifndef AUTOGLOBE_AUTOGLOBE_OVERLOAD_LEDGER_H_
#define AUTOGLOBE_AUTOGLOBE_OVERLOAD_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/lane_kernels.h"
#include "common/sim_time.h"
#include "common/status.h"

namespace autoglobe {

struct RunMetrics;

/// The smoothed-overload books behind the paper's capacity verdict
/// (§5.2, Table 7: a server is overloaded while its trailing-mean CPU
/// load stays above the threshold): per server a ring of the last
/// smoothing-window samples and the current overload streak; per run
/// the overload server-minutes, the longest streak and the average
/// load. SimulationRunner keeps a 1-lane ledger and BatchRunner one
/// lane per run; both score RunMetrics through Fold.
///
/// The books are lane-strided: the ring is `[server][slot][lane]`, the
/// window sums and streaks `[server][lane]`, the run totals `[lane]`.
/// Every lane samples every server on every tick, so the ring position
/// and the sample count behind the average load are shared.
///
/// Per tick the caller Steps every server in dense-id order, then
/// calls EndTick. With one lane, Step is a build with the lane count a
/// compile-time 1 and the portable row kernels inline; with more, it
/// dispatches its rows through a kernel tier. Both run the same row
/// source, so they keep the same bits (DESIGN.md §16).
class OverloadLedger {
 public:
  /// `kernels` is the tier a ledger of more than one lane dispatches
  /// through (parity tests pin one).
  explicit OverloadLedger(const LaneKernels& kernels = GetLaneKernels());

  /// Sizes and clears the books, with a ring of smoothing / tick
  /// samples (at least one). InvalidArgument when the tick is not
  /// positive.
  Status Init(size_t servers, size_t lanes, Duration tick,
              Duration smoothing, double threshold);

  /// Adds this tick's CPU load of `server` (one value per lane) to its
  /// ring, then judges the smoothed load: above the threshold the
  /// streak grows and the run accrues overload minutes, otherwise the
  /// streak ends.
  void Step(size_t server, const double* cpu) {
    // Dispatched here so a 1-lane caller goes straight to its build.
    if (lanes_ == 1) {
      StepLanes<1>(server, cpu);
    } else {
      StepLanes<0>(server, cpu);  // any lane count
    }
  }
  /// The smoothed load the current tick's Step judged.
  double Smoothed(size_t server, size_t lane) const {
    return window_sum_[server * lanes_ + lane] / divisor_;
  }
  /// Advances the shared ring position once every server has stepped.
  void EndTick();

  /// Metrics-warmup end: run totals and streaks restart, rings stay.
  void ResetWarmup();
  /// Clears the books for a new run of the same shape.
  void Reset();

  /// Writes `lane`'s overload minutes, longest streak, average load,
  /// and overload fraction over `elapsed_minutes` of scored time.
  void Fold(size_t lane, double elapsed_minutes, RunMetrics* m) const;

  /// Live run totals (the strategy penalty reads them mid-run).
  double overload_minutes(size_t lane) const {
    return overload_minutes_[lane];
  }
  double max_streak(size_t lane) const { return max_streak_[lane]; }

  /// Checkpoint of a 1-lane ledger: the ring layout, each server's
  /// (streak, window sum, head, count, ring in slot order), the load
  /// sum and the sample count. The run totals travel in RunMetrics.
  void SaveState(ByteWriter* w) const;
  /// ParseError when the layout differs from this ledger's, or a
  /// server's head or count lies outside the window or off the first
  /// server's.
  Status RestoreState(ByteReader* r);
  void RestoreTotals(double overload_minutes, double max_streak);

 private:
  /// Instantiated for 1 and for any (0) lanes in overload_ledger.cc.
  template <size_t kLanes>
  void StepLanes(size_t server, const double* cpu);
  /// Sets the ring position and derives this tick's write slot,
  /// eviction and divisor from it.
  void SetPosition(size_t head, size_t count);

  const LaneKernels* kernels_;
  size_t servers_ = 0;
  size_t lanes_ = 1;
  size_t window_ticks_ = 1;
  double threshold_ = 0.0;
  double tick_minutes_ = 0.0;

  std::vector<double> window_;            // [server][slot][lane]
  std::vector<double> window_sum_;        // [server][lane]
  std::vector<double> streak_minutes_;    // [server][lane]
  std::vector<double> overload_minutes_;  // [lane]
  std::vector<double> max_streak_;        // [lane]
  std::vector<double> load_sum_;          // [lane]
  int64_t load_samples_ = 0;

  size_t head_ = 0;   // slot of the oldest sample
  size_t count_ = 0;  // samples in the window
  size_t write_slot_ = 0;
  bool full_ = false;
  double divisor_ = 1.0;
};

}  // namespace autoglobe

#endif  // AUTOGLOBE_AUTOGLOBE_OVERLOAD_LEDGER_H_
