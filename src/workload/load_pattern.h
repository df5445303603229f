#ifndef AUTOGLOBE_WORKLOAD_LOAD_PATTERN_H_
#define AUTOGLOBE_WORKLOAD_LOAD_PATTERN_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"

namespace autoglobe::workload {

/// Parameters of the interactive office-day pattern (paper §5.1 /
/// Figure 10): activity ramps up when employees start at eight
/// o'clock, shows "three peaks, one in the morning, one before midday
/// and one before the employees leave", dips at lunch, and drops off
/// in the evening.
struct InteractiveParams {
  double night_level = 0.02;   // residual activity outside work hours
  double plateau = 0.53;       // baseline activity during work hours
  double peak_amplitude = 0.22;  // extra height of the three peaks
  double lunch_dip = 0.12;     // depth of the lunch-time dip
  double ramp_up_start_h = 7.5;
  double ramp_up_end_h = 8.5;
  double ramp_down_start_h = 17.0;
  double ramp_down_end_h = 19.0;
  double morning_peak_h = 9.5;
  double midday_peak_h = 11.5;
  double evening_peak_h = 16.0;
  double lunch_dip_h = 12.75;
  double peak_sigma_h = 0.7;   // width of the Gaussian peaks
};

/// Parameters of the BW-style night-batch pattern: "During the night,
/// several heavy-load batch jobs are processed. During the day, only
/// few user requests have to be processed" (paper §5.1).
struct NightBatchParams {
  double day_level = 0.12;
  double night_level = 1.0;
  double batch_start_h = 22.0;  // ramp into the batch window
  double batch_full_h = 23.0;
  double batch_wind_down_h = 5.0;
  double batch_end_h = 6.0;
};

/// A daily activity profile: Activity(t) in [0, 1] gives the fraction
/// of a service's connected users (or of its batch volume) active at
/// simulated time t. Patterns are periodic with a one-day period.
class LoadPattern {
 public:
  /// Constant activity.
  static LoadPattern Flat(double level);
  /// The three-peak office day of Figure 10 (LES-style curve).
  static LoadPattern Interactive(const InteractiveParams& params = {});
  /// The night-batch day of Figure 10 (BW-style curve).
  static LoadPattern NightBatch(const NightBatchParams& params = {});
  /// Piecewise-linear profile through 24 hourly control points
  /// (value i applies at hour i; interpolation wraps at midnight).
  static Result<LoadPattern> FromHourlyPoints(std::vector<double> points);

  /// Named pattern lookup for config files: "interactive",
  /// "nightBatch", "flat:<level>".
  static Result<LoadPattern> FromName(std::string_view name);

  /// Flat(0).
  LoadPattern() : eval_([](SimTime) { return 0.0; }) {}

  /// Activity level at time t, in [0, 1].
  double Activity(SimTime t) const { return eval_(t); }

  /// The config-file name FromName parses back ("flat:0.5",
  /// "interactive", ...). A flat pattern's name is formatted only
  /// here: a generated landscape makes one flat pattern per service
  /// and seldom asks for its name.
  std::string name() const;

 private:
  LoadPattern(std::string name, std::function<double(SimTime)> eval)
      : name_(std::move(name)), eval_(std::move(eval)) {}

  /// Empty for flat patterns, whose name follows from flat_level_.
  std::string name_;
  double flat_level_ = 0.0;
  std::function<double(SimTime)> eval_;
};

}  // namespace autoglobe::workload

#endif  // AUTOGLOBE_WORKLOAD_LOAD_PATTERN_H_
