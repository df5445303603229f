#include "monitor/load_archive.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/strings.h"

namespace autoglobe::monitor {

namespace {

// The widest step and the most samples one raw run holds (its
// interval and count are 32-bit); longer stretches open further runs.
constexpr int64_t kMaxRunInterval = std::numeric_limits<int32_t>::max();
constexpr int64_t kMaxRunCount = std::numeric_limits<int32_t>::max();

/// Runs merge only on equal bits, so a merged mean is exactly the
/// mean each of its buckets had (and -0.0 never merges with 0.0).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Per-series encoding flags of a SaveState image: which of the two
// blocks are runs rather than plain samples.
constexpr uint8_t kRawAsRuns = 1;
constexpr uint8_t kAggregatesAsRuns = 2;
// Encoded sizes: a plain sample is (at, value), a run is (first,
// interval, count, value).
constexpr size_t kSampleBytes = 2 * 8;
constexpr size_t kRunBytes = 4 * 8;

/// One entry of a SaveState block; a plain sample reads as a run of
/// one.
struct SampleRun {
  int64_t first = 0;
  int64_t interval = 0;
  uint64_t count = 0;
  double value = 0.0;
};

/// Reads one block (a u64 count, then that many runs or plain samples)
/// into `runs`. A plain sample becomes a one-sample run with interval
/// `plain_interval`. The count is checked against the unread bytes, so
/// `runs` never grows past what the image holds.
Status ReadBlock(ByteReader* r, bool as_runs, int64_t plain_interval,
                 std::vector<SampleRun>* runs) {
  runs->clear();
  AG_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(n, as_runs ? kRunBytes : kSampleBytes));
  runs->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SampleRun run;
    AG_ASSIGN_OR_RETURN(run.first, r->I64());
    if (as_runs) {
      AG_ASSIGN_OR_RETURN(run.interval, r->I64());
      AG_ASSIGN_OR_RETURN(run.count, r->U64());
    } else {
      run.interval = plain_interval;
      run.count = 1;
    }
    AG_ASSIGN_OR_RETURN(run.value, r->F64());
    runs->push_back(run);
  }
  return Status::OK();
}

/// Validates a series' raw runs: each non-empty with a positive
/// interval (0 for a single sample), in time order without overlap,
/// and all of them inside the retention window that ends at the newest
/// sample — what Append's eviction leaves. A run then holds at most
/// retention/interval + 1 samples however large its claimed count was.
Status CheckRawRuns(const std::string& key,
                    const std::vector<SampleRun>& runs, int64_t retention_s) {
  int64_t last = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const SampleRun& run = runs[i];
    if (run.count == 0 ||
        (run.count == 1 ? run.interval != 0 : run.interval <= 0)) {
      return Status::ParseError(StrFormat(
          "raw run %zu of \"%s\": %llu sample(s) every %lld s is not a "
          "run",
          i, key.c_str(), static_cast<unsigned long long>(run.count),
          static_cast<long long>(run.interval)));
    }
    if (run.count > 1 &&
        (retention_s < 0 ||
         run.count - 1 >
             static_cast<uint64_t>(retention_s / run.interval))) {
      return Status::ParseError(StrFormat(
          "raw run %zu of \"%s\" claims %llu samples every %lld s, more "
          "than the %lld s retention window holds",
          i, key.c_str(), static_cast<unsigned long long>(run.count),
          static_cast<long long>(run.interval),
          static_cast<long long>(retention_s)));
    }
    // At most the retention window, by the check above.
    const int64_t span =
        static_cast<int64_t>(run.count - 1) * run.interval;
    if (i > 0 && run.first < last) {
      return Status::ParseError(StrFormat(
          "raw run %zu of \"%s\" at %lld s overlaps or precedes the "
          "previous run, which ends at %lld s",
          i, key.c_str(), static_cast<long long>(run.first),
          static_cast<long long>(last)));
    }
    if (run.first > std::numeric_limits<int64_t>::max() - span) {
      return Status::ParseError(StrFormat(
          "raw run %zu of \"%s\" at %lld s ends past the last "
          "representable time",
          i, key.c_str(), static_cast<long long>(run.first)));
    }
    last = run.first + span;
  }
  if (!runs.empty()) {
    // last >= runs[0].first, so the unsigned difference is exact.
    const uint64_t age = static_cast<uint64_t>(last) -
                         static_cast<uint64_t>(runs[0].first);
    if (retention_s < 0 || age > static_cast<uint64_t>(retention_s)) {
      return Status::ParseError(StrFormat(
          "raw samples of \"%s\" start %llu s before the newest one, "
          "past the %lld s retention window",
          key.c_str(), static_cast<unsigned long long>(age),
          static_cast<long long>(retention_s)));
    }
  }
  return Status::OK();
}

/// Validates a series' aggregate runs against its open bucket: each
/// run is bucket-wide, starts on a bucket boundary after the previous
/// run, and ends before the open bucket, which holds the newest raw
/// sample (`newest`, when the ring is not empty).
Status CheckAggregateRuns(const std::string& key,
                          const std::vector<SampleRun>& runs,
                          int64_t bucket_s, int64_t open_bucket,
                          int64_t open_count, const int64_t* newest) {
  if (open_count < 0) {
    return Status::ParseError(StrFormat(
        "open bucket of \"%s\" holds %lld samples", key.c_str(),
        static_cast<long long>(open_count)));
  }
  if (newest != nullptr &&
      (open_count == 0 || *newest / bucket_s != open_bucket)) {
    return Status::ParseError(StrFormat(
        "open bucket %lld of \"%s\" does not hold its newest sample "
        "(%lld s)",
        static_cast<long long>(open_bucket), key.c_str(),
        static_cast<long long>(*newest)));
  }
  int64_t next = 0;  // first bucket the next run may start at
  for (size_t i = 0; i < runs.size(); ++i) {
    const SampleRun& run = runs[i];
    if (run.interval != bucket_s) {
      return Status::ParseError(StrFormat(
          "aggregate run %zu of \"%s\": interval %lld s is not the "
          "bucket width %lld s",
          i, key.c_str(), static_cast<long long>(run.interval),
          static_cast<long long>(bucket_s)));
    }
    if (run.count == 0 || run.first < 0 || run.first % bucket_s != 0) {
      return Status::ParseError(StrFormat(
          "aggregate run %zu of \"%s\": %llu bucket(s) from %lld s is "
          "not a run of whole buckets",
          i, key.c_str(), static_cast<unsigned long long>(run.count),
          static_cast<long long>(run.first)));
    }
    const int64_t bucket = run.first / bucket_s;
    if (bucket < next) {
      return Status::ParseError(StrFormat(
          "aggregate run %zu of \"%s\" starts at bucket %lld, before "
          "the previous run ends (bucket %lld)",
          i, key.c_str(), static_cast<long long>(bucket),
          static_cast<long long>(next)));
    }
    if (open_count == 0 || bucket >= open_bucket ||
        run.count > static_cast<uint64_t>(open_bucket - bucket)) {
      return Status::ParseError(StrFormat(
          "aggregate run %zu of \"%s\" claims %llu bucket(s) from "
          "bucket %lld, reaching the open bucket %lld",
          i, key.c_str(), static_cast<unsigned long long>(run.count),
          static_cast<long long>(bucket),
          static_cast<long long>(open_bucket)));
    }
    next = bucket + static_cast<int64_t>(run.count);
  }
  return Status::OK();
}

}  // namespace

template <typename Run>
void LoadArchive::RunRing<Run>::push_back(const Run& run,
                                          size_t spill_capacity) {
  if (size_ == capacity()) {
    // Spill to the reserved ring, or double a full one; either way the
    // runs are laid out oldest first.
    std::vector<Run> grown(heap_.empty()
                               ? std::max(spill_capacity, 2 * kInline)
                               : 2 * heap_.size());
    for (size_t i = 0; i < size_; ++i) grown[i] = (*this)[i];
    heap_.swap(grown);
    head_ = 0;
  }
  slots()[Slot(size_)] = run;
  ++size_;
}

LoadArchive::RawPos LoadArchive::FirstAfter(const Series& series,
                                            int64_t t) {
  // Runs are time-ordered, so their newest samples are too.
  size_t lo = 0;
  size_t hi = series.raw.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (series.raw[mid].last() <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == series.raw.size()) return RawPos{lo, 0};
  const RawRun& run = series.raw[lo];
  // run.last() > t, so a run starting at or before t has a step.
  return RawPos{lo, run.first > t ? 0 : (t - run.first) / run.interval + 1};
}

LoadArchive::LoadArchive(Duration raw_retention, Duration aggregate_bucket)
    : raw_retention_(raw_retention), aggregate_bucket_(aggregate_bucket) {}

void LoadArchive::set_capacity_hints(size_t raw_samples,
                                     size_t aggregate_buckets) {
  raw_hint_ = raw_samples;
  aggregated_hint_ = aggregate_buckets;
}

Status LoadArchive::CheckCapacityHints(size_t raw_samples,
                                       size_t aggregate_buckets) {
  if (raw_samples > kMaxSeriesReserveBytes / sizeof(RawRun)) {
    return Status::InvalidArgument(StrFormat(
        "a raw window of %zu samples exceeds the %zu-byte series limit",
        raw_samples, kMaxSeriesReserveBytes));
  }
  if (aggregate_buckets > kMaxSeriesReserveBytes / sizeof(AggregateRun)) {
    return Status::InvalidArgument(StrFormat(
        "%zu aggregate buckets exceed the %zu-byte series limit",
        aggregate_buckets, kMaxSeriesReserveBytes));
  }
  return Status::OK();
}

LoadArchive::Handle LoadArchive::Acquire(std::string_view key) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(std::string(key), Series{}).first;
    it->second.key = it->first;
  }
  return Handle(&it->second);
}

LoadArchive::Handle LoadArchive::Find(std::string_view key) {
  auto it = series_.find(key);
  return it == series_.end() ? Handle() : Handle(&it->second);
}

const LoadArchive::Series* LoadArchive::FindSeries(
    std::string_view key) const {
  auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

void LoadArchive::EvictBefore(Series* series, int64_t horizon) {
  while (!series->raw.empty()) {
    RawRun& run = series->raw.front();
    if (run.first >= horizon) return;
    if (run.last() < horizon) {
      series->raw.pop_front();
      continue;
    }
    // The horizon falls inside the run, which therefore has a step.
    const int64_t drop = (horizon - run.first + run.interval - 1) /
                         run.interval;
    run.first += drop * run.interval;
    run.count -= static_cast<int32_t>(drop);
    if (run.count == 1) run.interval = 0;
    return;
  }
}

void LoadArchive::PushRaw(Series* series, int64_t first, int64_t step,
                          int64_t count, double value) const {
  while (count > 0) {
    int64_t take = 1;
    RawRun* last = series->raw.empty() ? nullptr : &series->raw.back();
    if (last != nullptr && SameBits(last->value, value) &&
        last->count < kMaxRunCount &&
        (last->count == 1 ? first - last->first <= kMaxRunInterval
                          : first - last->last() == last->interval)) {
      if (last->count == 1) {
        last->interval = static_cast<int32_t>(first - last->first);
      }
      if (count == 1 || step == last->interval) {
        take = std::min(count, kMaxRunCount - last->count);
      }
      last->count += static_cast<int32_t>(take);
    } else {
      if (step <= kMaxRunInterval) take = std::min(count, kMaxRunCount);
      series->raw.push_back(
          RawRun{first, static_cast<int32_t>(take > 1 ? step : 0),
                 static_cast<int32_t>(take), value},
          raw_hint_);
    }
    count -= take;
    if (count > 0) first += take * step;
  }
}

Status LoadArchive::OutOfOrder(const Series& series, SimTime at) {
  return Status::InvalidArgument(StrFormat(
      "out-of-order sample for \"%s\": %s < %s", series.key.c_str(),
      at.ToString().c_str(),
      SimTime::FromSeconds(series.raw.back().last()).ToString().c_str()));
}

Status LoadArchive::Append(std::string_view key, SimTime at, double value) {
  return Append(Acquire(key), at, value);
}

Status LoadArchive::Append(Handle handle, SimTime at, double value) {
  return AppendRun(handle, at, Duration::Zero(), 1, value);
}

Status LoadArchive::AppendRun(Handle handle, SimTime first,
                              Duration interval, int64_t count,
                              double value) {
  if (count <= 0) return Status::OK();
  const int64_t step = count > 1 ? interval.seconds() : 0;
  const int64_t first_s = first.seconds();
  if (step < 0 || (count > 1 && first_s < 0)) {
    // Shapes the bulk fold does not model: a run that goes out of
    // order at its second sample, or negative times (where the bucket
    // division truncates toward zero). Append them one at a time.
    for (int64_t i = 0; i < count; ++i) {
      AG_RETURN_IF_ERROR(Append(handle, first + interval * i, value));
    }
    return Status::OK();
  }
  Series& series = *handle.series_;
  if (!series.raw.empty() && first_s < series.raw.back().last()) {
    return OutOfOrder(series, first);
  }
  // Aggregates: every sample of the run, one bucket-run at a time.
  const int64_t bucket_seconds = aggregate_bucket_.seconds();
  for (int64_t i = 0; i < count;) {
    int64_t bucket = (first_s + step * i) / bucket_seconds;
    int64_t end = count;
    if (step > 0) {
      // Index of the first sample at or past the next bucket's start.
      int64_t next = (bucket + 1) * bucket_seconds - first_s;
      end = std::min(count, (next + step - 1) / step);
    }
    FoldIntoAggregate(&series, bucket, value, end - i);
    i = end;
  }
  // Raw window: Append evicts against its own sample's horizon, and
  // the horizons only grow along the run, so after the last Append
  // exactly the samples older than the last horizon are gone — older
  // archived samples first, then possibly the run's own head, which
  // is never stored. Evicting before storing keeps the runs within
  // what one window holds.
  const int64_t horizon =
      (first + interval * (count - 1) - raw_retention_).seconds();
  int64_t skip = 0;
  if (first_s < horizon) {
    skip = step > 0 ? std::min(count, (horizon - first_s + step - 1) / step)
                    : count;
  }
  EvictBefore(&series, horizon);
  if (skip < count) {
    PushRaw(&series, first_s + skip * step, step, count - skip, value);
  }
  return Status::OK();
}

void LoadArchive::FoldIntoAggregate(Series* series, int64_t bucket,
                                    double value, int64_t n) const {
  if (series->open_bucket >= 0 && bucket != series->open_bucket) {
    // Close the previous bucket.
    AddAggregateRun(series, series->open_bucket, 1,
                    series->open_sum /
                        static_cast<double>(series->open_count));
    series->open_sum = 0.0;
    series->open_count = 0;
  }
  series->open_bucket = bucket;
  for (int64_t i = 0; i < n; ++i) series->open_sum += value;
  series->open_count += n;
}

void LoadArchive::AddAggregateRun(Series* series, int64_t first,
                                  int64_t count, double value) const {
  RunRing<AggregateRun>& runs = series->aggregated;
  if (!runs.empty()) {
    AggregateRun& last = runs.back();
    if (last.first + last.count == first && SameBits(last.value, value)) {
      last.count += count;
      return;
    }
  }
  runs.push_back(AggregateRun{first, count, value}, aggregated_hint_);
}

Result<double> LoadArchive::Latest(std::string_view key) const {
  const Series* series = FindSeries(key);
  if (series == nullptr || series->raw.empty()) {
    return Status::NotFound(
        StrFormat("no samples for \"%.*s\"", static_cast<int>(key.size()),
                  key.data()));
  }
  return series->raw.back().value;
}

Result<double> LoadArchive::Latest(Handle handle) const {
  if (handle.series_->raw.empty()) {
    return Status::NotFound(StrFormat("no samples for \"%s\"",
                                      handle.series_->key.c_str()));
  }
  return handle.series_->raw.back().value;
}

Result<double> LoadArchive::Average(std::string_view key, Duration window,
                                    SimTime now) const {
  const Series* series = FindSeries(key);
  if (series == nullptr) {
    return Status::NotFound(
        StrFormat("no samples for \"%.*s\"", static_cast<int>(key.size()),
                  key.data()));
  }
  // Bit-compatibility shim: Handle(Series*) needs a mutable pointer,
  // but Average never writes through it.
  return Average(Handle(const_cast<Series*>(series)), window, now);
}

Result<double> LoadArchive::Average(Handle handle, Duration window,
                                    SimTime now) const {
  const Series& series = *handle.series_;
  // The samples are time-ordered, so the (from, now] window is the
  // contiguous stretch between two binary-searched positions.
  const RawPos lo = FirstAfter(series, (now - window).seconds());
  const RawPos hi = FirstAfter(series, now.seconds());
  // Newest-first accumulation, one add per sample, matching the
  // original reverse scan so the floating-point sum is bit-identical.
  double sum = 0.0;
  int64_t samples = 0;
  size_t run = hi.run;
  int64_t end = hi.sample;  // exclusive, within `run`
  while (run > lo.run || (run == lo.run && end > lo.sample)) {
    if (end == 0) {
      end = series.raw[--run].count;
      continue;
    }
    const int64_t begin = run == lo.run ? lo.sample : 0;
    const double value = series.raw[run].value;
    for (int64_t i = begin; i < end; ++i) sum += value;
    samples += end - begin;
    end = begin;
  }
  if (samples == 0) {
    return Status::NotFound(StrFormat(
        "no samples for \"%s\" in the last %s", series.key.c_str(),
        window.ToString().c_str()));
  }
  return sum / static_cast<double>(samples);
}

std::vector<LoadSample> LoadArchive::RawBetween(std::string_view key,
                                                SimTime from,
                                                SimTime to) const {
  std::vector<LoadSample> out;
  const Series* series = FindSeries(key);
  if (series == nullptr) return out;
  const RawPos lo = FirstAfter(*series, from.seconds());
  const RawPos hi = FirstAfter(*series, to.seconds());
  for (size_t r = lo.run; r <= hi.run && r < series->raw.size(); ++r) {
    const RawRun& run = series->raw[r];
    const int64_t end = r == hi.run ? hi.sample : run.count;
    for (int64_t i = r == lo.run ? lo.sample : 0; i < end; ++i) {
      out.push_back(LoadSample{
          SimTime::FromSeconds(run.first + i * run.interval), run.value});
    }
  }
  return out;
}

std::vector<LoadSample> LoadArchive::AggregatedOf(
    const Series& series) const {
  const int64_t bucket_seconds = aggregate_bucket_.seconds();
  size_t buckets = series.open_count > 0 ? 1 : 0;
  for (size_t r = 0; r < series.aggregated.size(); ++r) {
    buckets += static_cast<size_t>(series.aggregated[r].count);
  }
  std::vector<LoadSample> out;
  out.reserve(buckets);
  for (size_t r = 0; r < series.aggregated.size(); ++r) {
    const AggregateRun& run = series.aggregated[r];
    for (int64_t i = 0; i < run.count; ++i) {
      out.push_back(LoadSample{
          SimTime::FromSeconds((run.first + i) * bucket_seconds),
          run.value});
    }
  }
  if (series.open_count > 0) {
    out.push_back(LoadSample{
        SimTime::FromSeconds(series.open_bucket * bucket_seconds),
        series.open_sum / static_cast<double>(series.open_count)});
  }
  return out;
}

std::vector<LoadSample> LoadArchive::Aggregated(std::string_view key) const {
  const Series* series = FindSeries(key);
  if (series == nullptr) return {};
  return AggregatedOf(*series);
}

std::vector<std::string> LoadArchive::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(series_.size());
  for (const auto& [key, series] : series_) keys.push_back(key);
  return keys;
}

void LoadArchive::ClearSamples() {
  for (auto& [key, series] : series_) {
    series.raw.clear();
    series.aggregated.clear();
    series.open_bucket = -1;
    series.open_sum = 0.0;
    series.open_count = 0;
  }
}

size_t LoadArchive::StorageBytes() const {
  size_t bytes = 0;
  for (const auto& [key, series] : series_) {
    bytes += series.raw.heap_bytes() + series.aggregated.heap_bytes();
  }
  return bytes;
}

Status LoadArchive::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError(StrFormat("cannot write \"%s\"", path.c_str()));
  }
  out << "# autoglobe-load-archive v1\n";
  out << "retention " << raw_retention_.seconds() << " bucket "
      << aggregate_bucket_.seconds() << "\n";
  for (const auto& [key, series] : series_) {
    for (const LoadSample& sample : AggregatedOf(series)) {
      out << key << " " << sample.at.seconds() << " " << sample.value
          << "\n";
    }
  }
  return Status::OK();
}

Result<LoadArchive> LoadArchive::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError(StrFormat("cannot read \"%s\"", path.c_str()));
  }
  std::string header;
  std::getline(in, header);
  if (header != "# autoglobe-load-archive v1") {
    return Status::ParseError(StrFormat(
        "\"%s\" is not a load archive (bad header)", path.c_str()));
  }
  std::string keyword;
  int64_t retention_s = 0;
  int64_t bucket_s = 0;
  std::string bucket_kw;
  if (!(in >> keyword >> retention_s >> bucket_kw >> bucket_s) ||
      keyword != "retention" || bucket_kw != "bucket" || retention_s <= 0 ||
      bucket_s <= 0) {
    return Status::ParseError("bad load archive parameter line");
  }
  LoadArchive archive(Duration::Seconds(retention_s),
                      Duration::Seconds(bucket_s));
  std::string key;
  int64_t at = 0;
  double value = 0.0;
  while (in >> key >> at >> value) {
    AG_RETURN_IF_ERROR(
        archive.Append(key, SimTime::FromSeconds(at), value));
  }
  return archive;
}

size_t LoadArchive::RawRuns(const Series& series, ByteWriter* w) {
  // The greedy split of the samples, walked run by run: a stored run
  // whose step the open image run already has joins it whole, which
  // is what joining its samples one by one would do.
  size_t runs = 0;
  SampleRun open;  // the image run being grown; count 0 = none
  int64_t newest = 0;  // its newest sample
  auto emit = [&] {
    if (w != nullptr) {
      w->I64(open.first);
      w->I64(open.interval);
      w->U64(open.count);
      w->F64(open.value);
    }
    ++runs;
  };
  for (size_t r = 0; r < series.raw.size(); ++r) {
    const RawRun& run = series.raw[r];
    int64_t at = run.first;
    for (int64_t left = run.count; left > 0;) {
      const int64_t step = at - newest;
      int64_t take = 1;
      if (open.count > 0 && SameBits(run.value, open.value) && step > 0 &&
          (open.count == 1 || step == open.interval)) {
        open.interval = step;
        if (run.interval == step) take = left;
        open.count += static_cast<uint64_t>(take);
      } else {
        if (open.count > 0) emit();
        open = SampleRun{at, 0, 1, run.value};
      }
      newest = at + (take - 1) * run.interval;
      at = newest + run.interval;
      left -= take;
    }
  }
  if (open.count > 0) emit();
  return runs;
}

void LoadArchive::SaveState(ByteWriter* w) const {
  // Each series' encodings: its raw samples and its aggregate buckets
  // each as runs or as plain samples, whichever is shorter. The plan
  // is computed once to size the section and again while writing, so
  // no per-series plan is held beside the payload.
  struct Plan {
    size_t raw_runs = 0;
    size_t samples = 0;
    size_t buckets = 0;
    uint8_t flags = 0;
    size_t bytes = 0;  // the series' whole record
  };
  auto plan_of = [](std::string_view key, const Series& series) {
    Plan plan;
    plan.raw_runs = RawRuns(series, nullptr);
    for (size_t r = 0; r < series.raw.size(); ++r) {
      plan.samples += static_cast<size_t>(series.raw[r].count);
    }
    for (size_t r = 0; r < series.aggregated.size(); ++r) {
      plan.buckets += static_cast<size_t>(series.aggregated[r].count);
    }
    const size_t raw_runs = plan.raw_runs * kRunBytes;
    const size_t raw_plain = plan.samples * kSampleBytes;
    const size_t aggregate_runs = series.aggregated.size() * kRunBytes;
    const size_t aggregate_plain = plan.buckets * kSampleBytes;
    if (raw_runs < raw_plain) plan.flags |= kRawAsRuns;
    if (aggregate_runs < aggregate_plain) plan.flags |= kAggregatesAsRuns;
    // Key, flags, two block counts, the blocks, the open bucket.
    plan.bytes = 4 + key.size() + 1 + 2 * 8 + std::min(raw_runs, raw_plain) +
                 std::min(aggregate_runs, aggregate_plain) + 3 * 8;
    return plan;
  };
  size_t bytes = 8;
  for (const auto& [key, series] : series_) {
    bytes += plan_of(key, series).bytes;
  }
  w->Reserve(bytes);

  const int64_t bucket_seconds = aggregate_bucket_.seconds();
  w->U64(series_.size());
  for (const auto& [key, series] : series_) {
    const Plan plan = plan_of(key, series);
    w->Str(key);
    w->U8(plan.flags);
    if (plan.flags & kRawAsRuns) {
      w->U64(plan.raw_runs);
      RawRuns(series, w);
    } else {
      w->U64(plan.samples);
      for (size_t r = 0; r < series.raw.size(); ++r) {
        const RawRun& run = series.raw[r];
        for (int64_t i = 0; i < run.count; ++i) {
          w->I64(run.first + i * run.interval);
          w->F64(run.value);
        }
      }
    }
    if (plan.flags & kAggregatesAsRuns) {
      w->U64(series.aggregated.size());
      for (size_t r = 0; r < series.aggregated.size(); ++r) {
        const AggregateRun& run = series.aggregated[r];
        w->I64(run.first * bucket_seconds);
        w->I64(bucket_seconds);
        w->U64(static_cast<uint64_t>(run.count));
        w->F64(run.value);
      }
    } else {
      w->U64(plan.buckets);
      for (size_t r = 0; r < series.aggregated.size(); ++r) {
        const AggregateRun& run = series.aggregated[r];
        for (int64_t i = 0; i < run.count; ++i) {
          w->I64((run.first + i) * bucket_seconds);
          w->F64(run.value);
        }
      }
    }
    w->I64(series.open_bucket);
    w->F64(series.open_sum);
    w->I64(series.open_count);
  }
}

Status LoadArchive::RestoreState(ByteReader* r) {
  // Series not present in the snapshot keep their identity (Handles
  // stay valid) but lose their samples: in the snapshotted run they
  // had never been acquired yet.
  ClearSamples();
  const int64_t bucket_seconds = aggregate_bucket_.seconds();
  uint64_t series_count = 0;
  AG_ASSIGN_OR_RETURN(series_count, r->U64());
  // Key prefix, flags, two block counts and the open bucket.
  AG_RETURN_IF_ERROR(r->CheckCount(series_count, 4 + 1 + 2 * 8 + 3 * 8));
  std::vector<SampleRun> raw;
  std::vector<SampleRun> aggregates;
  for (uint64_t s = 0; s < series_count; ++s) {
    std::string key;
    AG_ASSIGN_OR_RETURN(key, r->Str());
    uint8_t flags = 0;
    AG_ASSIGN_OR_RETURN(flags, r->U8());
    if ((flags & ~(kRawAsRuns | kAggregatesAsRuns)) != 0) {
      return Status::ParseError(
          StrFormat("series \"%s\" has unknown encoding flags 0x%02x",
                    key.c_str(), static_cast<unsigned>(flags)));
    }
    AG_RETURN_IF_ERROR(ReadBlock(r, flags & kRawAsRuns, 0, &raw));
    AG_RETURN_IF_ERROR(
        ReadBlock(r, flags & kAggregatesAsRuns, bucket_seconds, &aggregates));
    int64_t open_bucket = 0;
    double open_sum = 0.0;
    int64_t open_count = 0;
    AG_ASSIGN_OR_RETURN(open_bucket, r->I64());
    AG_ASSIGN_OR_RETURN(open_sum, r->F64());
    AG_ASSIGN_OR_RETURN(open_count, r->I64());
    AG_RETURN_IF_ERROR(CheckRawRuns(key, raw, raw_retention_.seconds()));
    int64_t newest = 0;
    if (!raw.empty()) {
      newest = raw.back().first +
               static_cast<int64_t>(raw.back().count - 1) *
                   raw.back().interval;
    }
    AG_RETURN_IF_ERROR(CheckAggregateRuns(key, aggregates, bucket_seconds,
                                          open_bucket, open_count,
                                          raw.empty() ? nullptr : &newest));

    Series& series = *Acquire(key).series_;
    series.raw.clear();
    for (const SampleRun& run : raw) {
      PushRaw(&series, run.first, run.interval,
              static_cast<int64_t>(run.count), run.value);
    }
    series.aggregated.clear();
    for (const SampleRun& run : aggregates) {
      AddAggregateRun(&series, run.first / bucket_seconds,
                      static_cast<int64_t>(run.count), run.value);
    }
    series.open_bucket = open_bucket;
    series.open_sum = open_sum;
    series.open_count = open_count;
  }
  return Status::OK();
}

}  // namespace autoglobe::monitor
