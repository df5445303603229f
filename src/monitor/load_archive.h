#ifndef AUTOGLOBE_MONITOR_LOAD_ARCHIVE_H_
#define AUTOGLOBE_MONITOR_LOAD_ARCHIVE_H_

#include <cstddef>
#include <cstdint>
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
/// Both are held as runs, sized by information rather than by the
/// clock. The raw window is a sequence of `(first, interval, count,
/// value)` runs of samples with bit-identical values at a constant
/// step: a sample that repeats the newest value one interval later
/// extends the newest run in O(1), and eviction trims or drops the
/// oldest runs. Completed aggregate buckets are runs of consecutive
/// buckets with bit-identical means. Reads (Average, RawBetween,
/// Aggregated, SaveState) walk the runs sample by sample in the order
/// a slot-per-sample store would, so every mean keeps its bits.
///
/// Each kind of run keeps two runs inline in the series; the third
/// moves them to the heap, reserved once at the capacity hint. A
/// quiescent series (at most two raw runs in any window, at most two
/// bucket runs of history) therefore never allocates, and a varying
/// one allocates once per kind: the raw hint bounds the samples a
/// window can hold, so the reserved runs never grow in the steady
/// state.
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
  /// Samples at `first`, `first + interval`, ... (`count` of them,
  /// times in seconds), all with value `value`. A one-sample run has
  /// interval 0; a longer one has the step its second sample set.
  struct RawRun {
    int64_t first = 0;
    int32_t interval = 0;
    int32_t count = 0;
    double value = 0.0;
    int64_t last() const {
      return first + int64_t{interval} * (int64_t{count} - 1);
    }
  };

  /// Completed buckets `first`, `first + 1`, ... `first + count - 1`
  /// (bucket indices), all with mean `value`.
  struct AggregateRun {
    int64_t first = 0;
    int64_t count = 0;
    double value = 0.0;
  };

  /// A ring of runs, oldest first: two slots inline, all of them on
  /// the heap once a third run opens. The heap ring is reserved at
  /// `spill_capacity` runs (its exact size) and doubles only when it
  /// fills; it is kept by clear(), so a cleared series appends
  /// allocation-free.
  template <typename Run>
  class RunRing {
   public:
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Logical index -> run (0 = oldest).
    const Run& operator[](size_t i) const { return slots()[Slot(i)]; }
    Run& front() { return slots()[head_]; }
    Run& back() { return slots()[Slot(size_ - 1)]; }
    const Run& back() const { return slots()[Slot(size_ - 1)]; }
    void push_back(const Run& run, size_t spill_capacity);
    void pop_front() {
      head_ = Slot(1);
      --size_;
    }
    void clear() {
      head_ = 0;
      size_ = 0;
    }
    /// Heap bytes reserved (0 while the runs fit inline).
    size_t heap_bytes() const { return heap_.size() * sizeof(Run); }

   private:
    static constexpr size_t kInline = 2;
    size_t capacity() const { return heap_.empty() ? kInline : heap_.size(); }
    size_t Slot(size_t i) const {
      const size_t slot = head_ + i;
      return slot < capacity() ? slot : slot - capacity();
    }
    Run* slots() { return heap_.empty() ? inline_ : heap_.data(); }
    const Run* slots() const {
      return heap_.empty() ? inline_ : heap_.data();
    }

    Run inline_[kInline];
    std::vector<Run> heap_;  // the ring once spilled; size() is capacity
    size_t head_ = 0;
    size_t size_ = 0;
  };

  struct Series {
    std::string key;  // for error messages
    RunRing<RawRun> raw;
    RunRing<AggregateRun> aggregated;
    // Accumulator of the bucket currently being filled.
    int64_t open_bucket = -1;  // bucket index, -1 = none
    double open_sum = 0.0;
    int64_t open_count = 0;
  };

  /// A raw sample's place: sample `sample` of run `run` (run ==
  /// raw.size() past the newest).
  struct RawPos {
    size_t run = 0;
    int64_t sample = 0;
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

  /// Sizes the heap spill of every series: `raw_samples` raw runs and
  /// `aggregate_buckets` aggregate runs, each reserved once, when a
  /// series' runs of that kind first outgrow the two inline ones.
  /// Callers that know their cadence (the runner: the samples one
  /// window can hold, duration/bucket aggregates) set this once at
  /// startup so the steady state appends allocation-free.
  void set_capacity_hints(size_t raw_samples, size_t aggregate_buckets);
  /// The most a capacity hint may ask one series to reserve, in bytes.
  static constexpr size_t kMaxSeriesReserveBytes = size_t{1} << 30;
  /// InvalidArgument when hints would ask a series to reserve more
  /// than kMaxSeriesReserveBytes for either spill (`raw_samples` or
  /// `aggregate_buckets` runs) — a run that long could never reserve
  /// its history. Check before set_capacity_hints.
  static Status CheckCapacityHints(size_t raw_samples,
                                   size_t aggregate_buckets);

  /// Appends a measurement for a subject key, e.g. "server/Blade3".
  /// Samples must arrive in non-decreasing time order per key.
  Status Append(std::string_view key, SimTime at, double value);
  Status Append(Handle handle, SimTime at, double value);
  /// Appends `count` copies of `value` at `first + i * interval` and
  /// leaves exactly the samples, aggregates, open bucket and error
  /// that `count` separate Append calls would (Append is the one-sample
  /// case). Aggregates fold bucket-run by bucket-run with one
  /// sequential add per sample — FP summation is order-sensitive, so
  /// `count * value` would not do — while the raw window takes only
  /// the samples that survive retention, as one run, extending the
  /// newest run when they continue it.
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

  /// Drops every sample (raw runs, aggregates, open buckets) while
  /// keeping the series themselves and their reserved runs, so
  /// previously issued Handles stay valid and a rerun appends
  /// allocation-free from the first tick.
  void ClearSamples();

  /// Heap bytes reserved for run storage, summed over every series by
  /// capacity (raw and aggregate spills; not keys or map nodes).
  size_t StorageBytes() const;

  /// Serializes the aggregated view ("persistent aggregated view of
  /// historic load data") to / from a simple text format.
  Status Save(const std::string& path) const;
  static Result<LoadArchive> Load(const std::string& path);

  // --- Checkpoint/restore ----------------------------------------------
  /// Full binary serialization for snapshots: raw samples, aggregate
  /// buckets and open-bucket accumulators of every series — unlike
  /// Save/Load, which keeps only the aggregated view. Raw samples and
  /// aggregates are written as `(first, interval, count, value)` runs,
  /// or as plain samples where runs would be larger; a per-series flag
  /// byte says which. Raw runs are a greedy split of the samples (each
  /// run as long as equal value bits and a constant positive step
  /// allow), whatever runs memory holds — eviction can leave another
  /// segmentation of the same samples.
  void SaveState(ByteWriter* w) const;
  /// Restores a SaveState image. Existing series are reused (issued
  /// Handles stay valid); the image's runs go straight into run
  /// storage — capacity never affects values. Each series' runs are
  /// checked before any is stored: a raw series must fit its
  /// retention window in time order, and aggregate runs must be
  /// bucket-wide, ordered, and older than the open bucket. Violations
  /// are ParseErrors.
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
  /// Appends `count` samples of `value` from `first` on, `step`
  /// seconds apart, newer than every held sample: extends the newest
  /// run while they continue it, then opens runs.
  void PushRaw(Series* series, int64_t first, int64_t step, int64_t count,
               double value) const;
  /// Drops the raw samples older than `horizon` (seconds): whole runs,
  /// then the head of the oldest remaining one.
  static void EvictBefore(Series* series, int64_t horizon);
  /// Splits the raw samples greedily into `(first, interval, count,
  /// value)` runs of equal value bits and a constant positive
  /// interval, writes them to `w` when it is not null, and returns how
  /// many there are.
  static size_t RawRuns(const Series& series, ByteWriter* w);
  /// The first raw sample strictly after `t` seconds — binary search
  /// over the time-ordered runs.
  static RawPos FirstAfter(const Series& series, int64_t t);
  const Series* FindSeries(std::string_view key) const;
  std::vector<LoadSample> AggregatedOf(const Series& series) const;

  Duration raw_retention_;
  Duration aggregate_bucket_;
  size_t raw_hint_ = 0;
  size_t aggregated_hint_ = 0;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace autoglobe::monitor

#endif  // AUTOGLOBE_MONITOR_LOAD_ARCHIVE_H_
