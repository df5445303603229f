#ifndef AUTOGLOBE_MONITOR_LOAD_ARCHIVE_H_
#define AUTOGLOBE_MONITOR_LOAD_ARCHIVE_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/sim_time.h"

namespace autoglobe::monitor {

/// One archived measurement.
struct LoadSample {
  SimTime at;
  double value = 0.0;
};

/// The load archive of the controller framework (paper §2): "stores a
/// persistent aggregated view of historic load data. This data is
/// used to calculate the average load of services during their
/// watchTime and to initialize all resource variables of the fuzzy
/// controller."
///
/// Raw samples are kept for a bounded retention window; beyond it
/// they are folded into fixed-width aggregate buckets (mean values),
/// which is what the load-forecasting extension consumes.
///
/// Raw storage is a per-series ring buffer (power-of-two capacity):
/// the steady-state retention window slides without touching the heap
/// — a deque would allocate and free blocks while sliding, which
/// breaks the hyperscale zero-allocation-per-tick contract. Capacity
/// hints (set_capacity_hints) pre-size new series so even the first
/// pass through the window allocates nothing per append.
///
/// All name-based entry points take `std::string_view` and resolve it
/// with heterogeneous lookup — no temporary std::string per call. Hot
/// callers (the monitoring system feeds every subject once per tick)
/// should resolve the key once via Acquire() and use the returned
/// Handle: a handle call skips the string comparison entirely.
class LoadArchive {
 public:
  explicit LoadArchive(Duration raw_retention = Duration::Hours(48),
                       Duration aggregate_bucket = Duration::Minutes(15));

 private:
  struct Series {
    std::string key;  // for error messages
    /// Ring storage; size() is the capacity and is always a power of
    /// two once non-empty. `head` indexes the oldest sample, `count`
    /// the live samples.
    std::vector<LoadSample> raw;
    size_t head = 0;
    size_t count = 0;
    // Completed aggregate buckets: bucket start time + mean.
    std::vector<LoadSample> aggregated;
    // Accumulator of the bucket currently being filled.
    int64_t open_bucket = -1;  // bucket index, -1 = none
    double open_sum = 0.0;
    int64_t open_count = 0;

    /// Logical index -> sample (0 = oldest). Capacity is a power of
    /// two, so the wrap is a mask.
    const LoadSample& At(size_t i) const {
      return raw[(head + i) & (raw.size() - 1)];
    }
  };

 public:
  /// Stable reference to one subject's series, resolved once. Valid
  /// for the archive's lifetime (map nodes never move).
  class Handle {
   public:
    Handle() = default;
    explicit operator bool() const { return series_ != nullptr; }

   private:
    friend class LoadArchive;
    explicit Handle(Series* series) : series_(series) {}
    Series* series_ = nullptr;
  };

  /// Resolves (creating if needed) the series for a subject key.
  Handle Acquire(std::string_view key);
  /// Resolves an existing series without creating one: a null Handle
  /// when the key has never been acquired.
  Handle Find(std::string_view key);

  /// Pre-sizes every series created by later Acquire calls:
  /// `raw_samples` ring slots (rounded up to a power of two) and
  /// `aggregate_buckets` reserved aggregate entries. Callers that know
  /// their cadence (the runner: retention/tick raw samples,
  /// duration/bucket aggregates) set this once at startup so the
  /// steady state appends allocation-free from the very first tick.
  void set_capacity_hints(size_t raw_samples, size_t aggregate_buckets);

  /// Appends a measurement for a subject key, e.g. "server/Blade3".
  /// Samples must arrive in non-decreasing time order per key.
  Status Append(std::string_view key, SimTime at, double value);
  Status Append(Handle handle, SimTime at, double value);
  /// Appends `count` copies of `value` at `first + i * interval` and
  /// leaves exactly the state (raw window, aggregates, open bucket,
  /// error) that `count` separate Append calls would. Aggregates fold
  /// bucket-run by bucket-run with one sequential add per sample —
  /// FP summation is order-sensitive, so `count * value` would not
  /// do — but only the samples that survive retention are written to
  /// the ring, and eviction runs once.
  Status AppendRun(Handle handle, SimTime first, Duration interval,
                   int64_t count, double value);

  /// Most recent value; NotFound when the key has no samples.
  Result<double> Latest(std::string_view key) const;
  Result<double> Latest(Handle handle) const;

  /// Mean of raw samples in (now - window, now]. NotFound when no
  /// samples fall into the window.
  Result<double> Average(std::string_view key, Duration window,
                         SimTime now) const;
  Result<double> Average(Handle handle, Duration window, SimTime now) const;

  /// Raw samples with `from < at <= to`, oldest first.
  std::vector<LoadSample> RawBetween(std::string_view key, SimTime from,
                                     SimTime to) const;

  /// Aggregated history (bucket means, oldest first) — includes
  /// buckets already evicted from the raw window.
  std::vector<LoadSample> Aggregated(std::string_view key) const;

  /// All known subject keys.
  std::vector<std::string> Keys() const;

  /// Drops every sample (raw rings, aggregates, open buckets) while
  /// keeping the series themselves and their ring capacity, so
  /// previously issued Handles stay valid and a rerun appends
  /// allocation-free from the first tick.
  void ClearSamples();

  /// Serializes the aggregated view ("persistent aggregated view of
  /// historic load data") to / from a simple text format.
  Status Save(const std::string& path) const;
  static Result<LoadArchive> Load(const std::string& path);

  // --- Checkpoint/restore ----------------------------------------------
  /// Full binary serialization for snapshots: raw rings (in logical
  /// order), aggregate buckets and open-bucket accumulators of every
  /// series — unlike Save/Load, which keeps only the aggregated view.
  void SaveState(ByteWriter* w) const;
  /// Restores a SaveState image. Existing series are reused (issued
  /// Handles stay valid); ring capacity is re-derived from the sample
  /// counts and capacity hints — capacity never affects values.
  Status RestoreState(ByteReader* r);

  Duration raw_retention() const { return raw_retention_; }
  Duration aggregate_bucket() const { return aggregate_bucket_; }

 private:
  /// Adds `n` samples of `value` that fall into aggregate bucket
  /// `bucket`, closing the open bucket first when it is another one.
  static void FoldIntoAggregate(Series* series, int64_t bucket,
                                int64_t bucket_seconds, double value,
                                int64_t n);
  static Status OutOfOrder(const Series& series, SimTime at);
  const Series* FindSeries(std::string_view key) const;
  std::vector<LoadSample> AggregatedOf(const Series& series) const;
  /// Grows the ring to hold `samples` samples (doubling, samples
  /// re-laid-out in logical order). No-op while capacity suffices.
  static void EnsureRawCapacity(Series* series, size_t samples);
  /// Drops the raw samples older than `horizon` (the ring just
  /// advances its head — no deallocation).
  static void EvictBefore(Series* series, SimTime horizon);
  /// Logical index of the first sample strictly after `t` (== count
  /// when none) — binary search over the time-ordered ring.
  static size_t FirstAfterIdx(const Series& series, SimTime t);

  Duration raw_retention_;
  Duration aggregate_bucket_;
  size_t raw_hint_ = 0;
  size_t aggregated_hint_ = 0;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace autoglobe::monitor

#endif  // AUTOGLOBE_MONITOR_LOAD_ARCHIVE_H_
