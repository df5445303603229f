#ifndef AUTOGLOBE_OBS_METRICS_H_
#define AUTOGLOBE_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"

namespace autoglobe::obs {

/// One pillar of the observability subsystem: a metrics registry.
/// Metrics are registered once into dense, address-stable slots; the
/// handles returned are trivially copyable and update plain cells —
/// no atomics, no locks.
///
/// Threading contract: one registry per thread. A registry, its
/// handles and its snapshots are used by the thread that owns them
/// (each `SimulationRunner` owns one, and a runner is confined to one
/// thread). Work spread over threads — the `FindCapacityAll` sweep,
/// `table7_capacity`, the strategy matrix — gives every thread its own
/// registry and aggregates the immutable `MetricsSnapshot` values with
/// `MetricsSnapshot::Merge`.

class MetricsRegistry;

/// Monotonically increasing integer metric. A default-constructed
/// handle is inert (updates are dropped) so call sites need no null
/// checks when a registry is optional.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t n = 1) {
    if (cell_ != nullptr) *cell_ += n;
  }
  uint64_t value() const { return cell_ == nullptr ? 0 : *cell_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(uint64_t* cell) : cell_(cell) {}
  uint64_t* cell_ = nullptr;
};

/// Last-written floating-point metric.
class Gauge {
 public:
  Gauge() = default;

  void Set(double value) {
    if (cell_ != nullptr) *cell_ = value;
  }
  double value() const { return cell_ == nullptr ? 0.0 : *cell_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Fixed-bucket histogram: bucket upper bounds are chosen at
/// registration (ascending, `le` semantics — a sample lands in the
/// first bucket whose bound is >= the value, or the implicit overflow
/// bucket). Observe() is a binary search over the bounds and three
/// plain adds; no allocation, no lock.
class Histogram {
 public:
  Histogram() = default;

  void Observe(double value);

 private:
  friend class MetricsRegistry;
  struct Slot;
  explicit Histogram(Slot* slot) : slot_(slot) {}
  Slot* slot_ = nullptr;
};

/// Immutable copy of one histogram's state.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;    // ascending upper bounds
  std::vector<uint64_t> counts;  // bounds.size() + 1 (last = overflow)
  uint64_t count = 0;            // total samples
  double sum = 0.0;              // sum of samples

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Quantile estimate by linear interpolation inside the bucket that
  /// contains the requested rank. The first bucket's lower edge is
  /// taken as min(0, bounds[0]); samples in the overflow bucket report
  /// the last finite bound.
  double Quantile(double q) const;
};

/// Immutable copy of a whole registry, in registration order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Sums counters and histogram buckets by name (gauges keep the
  /// last value seen); metrics missing from some snapshots are kept.
  /// Histograms with mismatched bounds under one name are summed
  /// count/sum-wise with the first snapshot's buckets retained.
  static MetricsSnapshot Merge(const std::vector<MetricsSnapshot>& parts);

  /// Stable JSON document ({"counters": {...}, "gauges": {...},
  /// "histograms": [...]}) for dashboards and BENCH_* sidecars.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;
};

/// Owns the metric slots (one registry per thread — see the contract
/// at the top of this file). Slots live in deques so their addresses
/// survive later registrations; handles stay valid for the registry's
/// lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent per name: re-registering returns a
  /// handle to the existing slot (bounds of an existing histogram are
  /// kept).
  Counter AddCounter(const std::string& name);
  Gauge AddGauge(const std::string& name);
  Histogram AddHistogram(const std::string& name,
                         std::vector<double> bucket_bounds);

  MetricsSnapshot Snapshot() const;

  /// Sets every metric named in `snapshot` to its absolute snapshot
  /// value, registering missing slots (histograms with the snapshot's
  /// bounds). Existing handles stay valid; a restored histogram whose
  /// registered bounds disagree with the snapshot is an error.
  Status Restore(const MetricsSnapshot& snapshot);

 private:
  struct CounterSlot {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeSlot {
    std::string name;
    double value = 0.0;
  };

  std::deque<CounterSlot> counters_;
  std::deque<GaugeSlot> gauges_;
  std::deque<Histogram::Slot> histograms_;
};

struct Histogram::Slot {
  std::string name;
  std::vector<double> bounds;
  /// bounds.size() + 1 cells; the last one is the overflow bucket.
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  /// One sequential += per sample, in observation order.
  double sum = 0.0;
};

}  // namespace autoglobe::obs

#endif  // AUTOGLOBE_OBS_METRICS_H_
