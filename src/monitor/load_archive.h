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
/// Completed aggregate buckets are stored as runs of consecutive
/// buckets with bit-identical means, expanded only when read
/// (Aggregated, Save). Most series repeat their mean bucket after
/// bucket, so a series holds one or two runs. Those two live inline
/// in the series; the third run moves them to the heap, reserved for
/// the aggregate capacity hint at once. A constant series therefore
/// never allocates aggregate storage, and a varying one allocates
/// once, on its third distinct mean.
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
  /// Completed buckets `first`, `first + 1`, ... `first + count - 1`
  /// (bucket indices), all with mean `value`.
  struct AggregateRun {
    int64_t first = 0;
    int64_t count = 0;
    double value = 0.0;
  };

  /// A series' aggregate runs: the first two inline, all of them on
  /// the heap once a third opens (or once the heap holds capacity, so
  /// a cleared series keeps appending allocation-free).
  class AggregateRuns {
   public:
    const AggregateRun* begin() const {
      return heap_.capacity() > 0 ? heap_.data() : inline_;
    }
    const AggregateRun* end() const { return begin() + size_; }
    size_t size() const { return size_; }
    AggregateRun& back() {
      return heap_.capacity() > 0 ? heap_.back() : inline_[size_ - 1];
    }
    /// Appends `run`; a spill reserves `spill_capacity` runs.
    void push_back(const AggregateRun& run, size_t spill_capacity);
    void clear() {
      heap_.clear();  // capacity kept
      size_ = 0;
    }

   private:
    static constexpr size_t kInline = 2;
    AggregateRun inline_[kInline];
    std::vector<AggregateRun> heap_;
    size_t size_ = 0;
  };

  struct Series {
    std::string key;  // for error messages
    /// Ring storage; size() is the capacity and is always a power of
    /// two once non-empty. `head` indexes the oldest sample, `count`
    /// the live samples.
    std::vector<LoadSample> raw;
    size_t head = 0;
    size_t count = 0;
    AggregateRuns aggregated;
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
  /// `raw_samples` ring slots (rounded up to a power of two), and
  /// `aggregate_buckets` aggregate runs reserved when a series' runs
  /// spill to the heap. Callers that know their cadence (the runner:
  /// retention/tick raw samples, duration/bucket aggregates) set this
  /// once at startup so the steady state appends allocation-free.
  void set_capacity_hints(size_t raw_samples, size_t aggregate_buckets);
  /// The most a capacity hint may ask one series to reserve, in bytes.
  static constexpr size_t kMaxSeriesReserveBytes = size_t{1} << 30;
  /// InvalidArgument when hints would ask a series for a ring of more
  /// than kMaxSeriesReserveBytes (`raw_samples`, rounded up to a power
  /// of two) or a spill of more (`aggregate_buckets` runs) — a run
  /// that long could never reserve its history. Check before
  /// set_capacity_hints.
  static Status CheckCapacityHints(size_t raw_samples,
                                   size_t aggregate_buckets);

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
  /// Raw rings and aggregates are written as `(first, interval, count,
  /// value)` runs, or as plain samples where runs would be larger; a
  /// per-series flag byte says which.
  void SaveState(ByteWriter* w) const;
  /// Restores a SaveState image. Existing series are reused (issued
  /// Handles stay valid); ring capacity is re-derived from the sample
  /// counts and capacity hints — capacity never affects values. Each
  /// series' runs are checked before anything is sized from them:
  /// a raw series must fit its retention window in time order, and
  /// aggregate runs must be bucket-wide, ordered, and older than the
  /// open bucket. Violations are ParseErrors.
  Status RestoreState(ByteReader* r);

  Duration raw_retention() const { return raw_retention_; }
  Duration aggregate_bucket() const { return aggregate_bucket_; }

 private:
  /// Adds `n` samples of `value` that fall into aggregate bucket
  /// `bucket`, closing the open bucket first when it is another one.
  void FoldIntoAggregate(Series* series, int64_t bucket, double value,
                         int64_t n) const;
  /// Appends `count` completed buckets from `first` on with mean
  /// `value`, extending the last run when it continues it with the
  /// same mean bits.
  void AddAggregateRun(Series* series, int64_t first, int64_t count,
                       double value) const;
  static Status OutOfOrder(const Series& series, SimTime at);
  /// Splits the raw window into `(first, interval, count, value)` runs
  /// of equal value bits and a constant positive interval, writes them
  /// to `w` when it is not null, and returns how many there are.
  static size_t RawRuns(const Series& series, ByteWriter* w);
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
