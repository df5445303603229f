#include "workload/load_pattern.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace autoglobe::workload {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

/// Smooth 0 -> 1 transition between a and b (hours).
double SmoothStep(double h, double a, double b) {
  if (h <= a) return 0.0;
  if (h >= b) return 1.0;
  double t = (h - a) / (b - a);
  return t * t * (3.0 - 2.0 * t);
}

double Gaussian(double h, double center, double sigma) {
  double d = (h - center) / sigma;
  return std::exp(-0.5 * d * d);
}

}  // namespace

LoadPattern LoadPattern::Flat(double level) {
  level = Clamp01(level);
  LoadPattern pattern({}, [level](SimTime) { return level; });
  pattern.flat_level_ = level;
  return pattern;
}

std::string LoadPattern::name() const {
  return name_.empty() ? StrFormat("flat:%g", flat_level_) : name_;
}

LoadPattern LoadPattern::Interactive(const InteractiveParams& params) {
  InteractiveParams p = params;
  // Parameterized name so the XML round-trip keeps the per-service
  // morning-peak stagger (the only knob the landscapes vary).
  InteractiveParams defaults;
  std::string name =
      p.morning_peak_h == defaults.morning_peak_h
          ? "interactive"
          : StrFormat("interactive:%g", p.morning_peak_h);
  return LoadPattern(std::move(name), [p](SimTime t) {
    double h = t.DayFraction() * 24.0;
    double envelope = SmoothStep(h, p.ramp_up_start_h, p.ramp_up_end_h) *
                      (1.0 - SmoothStep(h, p.ramp_down_start_h,
                                        p.ramp_down_end_h));
    double peaks =
        p.peak_amplitude * (Gaussian(h, p.morning_peak_h, p.peak_sigma_h) +
                            Gaussian(h, p.midday_peak_h, p.peak_sigma_h) +
                            Gaussian(h, p.evening_peak_h, p.peak_sigma_h));
    double dip = p.lunch_dip * Gaussian(h, p.lunch_dip_h, p.peak_sigma_h);
    return Clamp01(p.night_level + envelope * (p.plateau + peaks - dip));
  });
}

LoadPattern LoadPattern::NightBatch(const NightBatchParams& params) {
  NightBatchParams p = params;
  return LoadPattern("nightBatch", [p](SimTime t) {
    double h = t.DayFraction() * 24.0;
    // The batch window wraps midnight: ramp up 22->23, full until
    // 05:00, ramp down 05->06.
    double batch;
    if (h >= p.batch_start_h) {
      batch = SmoothStep(h, p.batch_start_h, p.batch_full_h);
    } else if (h <= p.batch_end_h) {
      batch = 1.0 - SmoothStep(h, p.batch_wind_down_h, p.batch_end_h);
    } else {
      batch = 0.0;
    }
    return Clamp01(p.day_level +
                   (p.night_level - p.day_level) * batch);
  });
}

Result<LoadPattern> LoadPattern::FromHourlyPoints(
    std::vector<double> points) {
  if (points.size() != 24) {
    return Status::InvalidArgument(StrFormat(
        "hourly pattern needs exactly 24 points, got %zu", points.size()));
  }
  for (double value : points) {
    if (value < 0.0 || value > 1.0) {
      return Status::InvalidArgument(
          "hourly pattern points must be in [0, 1]");
    }
  }
  // Self-describing name so hourly patterns survive the XML
  // round-trip (FromName parses "hourly:" back into the points).
  std::string name = "hourly:";
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) name += ',';
    name += StrFormat("%g", points[i]);
  }
  return LoadPattern(std::move(name),
                     [points = std::move(points)](SimTime t) {
    double h = t.DayFraction() * 24.0;
    int lo = static_cast<int>(h) % 24;
    int hi = (lo + 1) % 24;
    double frac = h - std::floor(h);
    return points[static_cast<size_t>(lo)] * (1.0 - frac) +
           points[static_cast<size_t>(hi)] * frac;
  });
}

Result<LoadPattern> LoadPattern::FromName(std::string_view name) {
  if (EqualsIgnoreCase(name, "interactive")) return Interactive();
  if (StartsWith(name, "interactive:")) {
    AG_ASSIGN_OR_RETURN(double morning_peak,
                        ParseDouble(name.substr(12)));
    if (morning_peak < 0 || morning_peak >= 24) {
      return Status::InvalidArgument(
          "interactive morning peak must be a valid hour");
    }
    InteractiveParams params;
    params.morning_peak_h = morning_peak;
    return Interactive(params);
  }
  if (EqualsIgnoreCase(name, "nightBatch") ||
      EqualsIgnoreCase(name, "night-batch")) {
    return NightBatch();
  }
  if (StartsWith(name, "hourly:")) {
    std::vector<double> points;
    points.reserve(24);
    std::string_view rest = name.substr(7);
    while (!rest.empty()) {
      size_t comma = rest.find(',');
      std::string_view token = rest.substr(0, comma);
      AG_ASSIGN_OR_RETURN(double value, ParseDouble(token));
      points.push_back(value);
      if (comma == std::string_view::npos) break;
      rest = rest.substr(comma + 1);
    }
    return FromHourlyPoints(std::move(points));
  }
  if (StartsWith(name, "flat:")) {
    AG_ASSIGN_OR_RETURN(double level, ParseDouble(name.substr(5)));
    if (level < 0.0 || level > 1.0) {
      return Status::InvalidArgument("flat level must be in [0, 1]");
    }
    return Flat(level);
  }
  return Status::ParseError(StrFormat("unknown load pattern \"%.*s\"",
                                      static_cast<int>(name.size()),
                                      name.data()));
}

}  // namespace autoglobe::workload
