#include "monitor/load_archive.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace autoglobe::monitor {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t LoadArchive::FirstAfterIdx(const Series& series, SimTime t) {
  size_t lo = 0;
  size_t hi = series.count;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (series.At(mid).at <= t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

LoadArchive::LoadArchive(Duration raw_retention, Duration aggregate_bucket)
    : raw_retention_(raw_retention), aggregate_bucket_(aggregate_bucket) {}

void LoadArchive::set_capacity_hints(size_t raw_samples,
                                     size_t aggregate_buckets) {
  raw_hint_ = raw_samples;
  aggregated_hint_ = aggregate_buckets;
}

LoadArchive::Handle LoadArchive::Acquire(std::string_view key) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(std::string(key), Series{}).first;
    it->second.key = it->first;
    if (raw_hint_ > 0) {
      it->second.raw.resize(RoundUpPow2(raw_hint_));
    }
    if (aggregated_hint_ > 0) {
      it->second.aggregated.reserve(aggregated_hint_);
    }
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

void LoadArchive::EnsureRawCapacity(Series* series, size_t samples) {
  if (samples <= series->raw.size()) return;
  size_t capacity = series->raw.empty() ? 16 : series->raw.size() * 2;
  while (capacity < samples) capacity *= 2;
  std::vector<LoadSample> grown(capacity);
  for (size_t i = 0; i < series->count; ++i) {
    grown[i] = series->At(i);
  }
  series->raw.swap(grown);
  series->head = 0;
}

void LoadArchive::EvictBefore(Series* series, SimTime horizon) {
  while (series->count > 0 && series->At(0).at < horizon) {
    series->head = (series->head + 1) & (series->raw.size() - 1);
    --series->count;
  }
}

Status LoadArchive::OutOfOrder(const Series& series, SimTime at) {
  return Status::InvalidArgument(StrFormat(
      "out-of-order sample for \"%s\": %s < %s", series.key.c_str(),
      at.ToString().c_str(),
      series.At(series.count - 1).at.ToString().c_str()));
}

Status LoadArchive::Append(std::string_view key, SimTime at, double value) {
  return Append(Acquire(key), at, value);
}

Status LoadArchive::Append(Handle handle, SimTime at, double value) {
  Series& series = *handle.series_;
  if (series.count > 0 && at < series.At(series.count - 1).at) {
    return OutOfOrder(series, at);
  }
  EnsureRawCapacity(&series, series.count + 1);
  series.raw[(series.head + series.count) & (series.raw.size() - 1)] =
      LoadSample{at, value};
  ++series.count;
  const int64_t bucket_seconds = aggregate_bucket_.seconds();
  FoldIntoAggregate(&series, at.seconds() / bucket_seconds, bucket_seconds,
                    value, 1);
  EvictBefore(&series, at - raw_retention_);
  return Status::OK();
}

Status LoadArchive::AppendRun(Handle handle, SimTime first,
                              Duration interval, int64_t count,
                              double value) {
  if (count <= 0) return Status::OK();
  const int64_t step = interval.seconds();
  if (step < 0 || first.seconds() < 0) {
    // Shapes the bulk fold does not model: a run that goes out of
    // order at its second sample, or negative times (where the bucket
    // division truncates toward zero). Replay them sample by sample.
    for (int64_t i = 0; i < count; ++i) {
      AG_RETURN_IF_ERROR(Append(handle, first + interval * i, value));
    }
    return Status::OK();
  }
  Series& series = *handle.series_;
  if (series.count > 0 && first < series.At(series.count - 1).at) {
    return OutOfOrder(series, first);
  }
  // Aggregates: every sample of the run, one bucket-run at a time.
  const int64_t bucket_seconds = aggregate_bucket_.seconds();
  const int64_t first_s = first.seconds();
  for (int64_t i = 0; i < count;) {
    int64_t bucket = (first_s + step * i) / bucket_seconds;
    int64_t end = count;
    if (step > 0) {
      // Index of the first sample at or past the next bucket's start.
      int64_t next = (bucket + 1) * bucket_seconds - first_s;
      end = std::min(count, (next + step - 1) / step);
    }
    FoldIntoAggregate(&series, bucket, bucket_seconds, value, end - i);
    i = end;
  }
  // Raw window: Append evicts against its own sample's horizon, and
  // the horizons only grow along the run, so after the last Append
  // exactly the samples older than the last horizon are gone — older
  // archived samples first, then possibly the run's own head.
  const SimTime horizon = first + interval * (count - 1) - raw_retention_;
  EvictBefore(&series, horizon);
  int64_t skip = 0;
  if (step > 0 && first < horizon) {
    skip = ((horizon - first).seconds() + step - 1) / step;
  }
  const size_t kept = static_cast<size_t>(count - skip);
  EnsureRawCapacity(&series, series.count + kept);
  const size_t mask = series.raw.size() - 1;
  for (int64_t i = skip; i < count; ++i) {
    series.raw[(series.head + series.count) & mask] =
        LoadSample{first + interval * i, value};
    ++series.count;
  }
  return Status::OK();
}

void LoadArchive::FoldIntoAggregate(Series* series, int64_t bucket,
                                    int64_t bucket_seconds, double value,
                                    int64_t n) {
  if (series->open_bucket >= 0 && bucket != series->open_bucket) {
    // Close the previous bucket.
    series->aggregated.push_back(LoadSample{
        SimTime::FromSeconds(series->open_bucket * bucket_seconds),
        series->open_sum / static_cast<double>(series->open_count)});
    series->open_sum = 0.0;
    series->open_count = 0;
  }
  series->open_bucket = bucket;
  for (int64_t i = 0; i < n; ++i) series->open_sum += value;
  series->open_count += n;
}

Result<double> LoadArchive::Latest(std::string_view key) const {
  const Series* series = FindSeries(key);
  if (series == nullptr || series->count == 0) {
    return Status::NotFound(
        StrFormat("no samples for \"%.*s\"", static_cast<int>(key.size()),
                  key.data()));
  }
  return series->At(series->count - 1).value;
}

Result<double> LoadArchive::Latest(Handle handle) const {
  if (handle.series_->count == 0) {
    return Status::NotFound(StrFormat("no samples for \"%s\"",
                                      handle.series_->key.c_str()));
  }
  return handle.series_->At(handle.series_->count - 1).value;
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
  SimTime from = now - window;
  // The ring is time-ordered, so the (from, now] window is a
  // contiguous logical range found by binary search.
  size_t lo = FirstAfterIdx(series, from);
  size_t hi = FirstAfterIdx(series, now);
  if (lo == hi) {
    return Status::NotFound(StrFormat(
        "no samples for \"%s\" in the last %s", series.key.c_str(),
        window.ToString().c_str()));
  }
  // Newest-first accumulation, matching the original reverse scan so
  // the floating-point sum is bit-identical.
  double sum = 0.0;
  for (size_t i = hi; i != lo;) {
    --i;
    sum += series.At(i).value;
  }
  return sum / static_cast<double>(hi - lo);
}

std::vector<LoadSample> LoadArchive::RawBetween(std::string_view key,
                                                SimTime from,
                                                SimTime to) const {
  std::vector<LoadSample> out;
  const Series* series = FindSeries(key);
  if (series == nullptr) return out;
  size_t lo = FirstAfterIdx(*series, from);
  size_t hi = FirstAfterIdx(*series, to);
  out.reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) out.push_back(series->At(i));
  return out;
}

std::vector<LoadSample> LoadArchive::AggregatedOf(
    const Series& series) const {
  std::vector<LoadSample> out = series.aggregated;
  if (series.open_count > 0) {
    out.push_back(LoadSample{
        SimTime::FromSeconds(series.open_bucket *
                             aggregate_bucket_.seconds()),
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
    series.head = 0;
    series.count = 0;
    series.aggregated.clear();  // capacity kept
    series.open_bucket = -1;
    series.open_sum = 0.0;
    series.open_count = 0;
  }
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

void LoadArchive::SaveState(ByteWriter* w) const {
  w->U64(series_.size());
  for (const auto& [key, series] : series_) {
    w->Str(key);
    w->U64(series.count);
    for (size_t i = 0; i < series.count; ++i) {
      const LoadSample& sample = series.At(i);
      w->I64(sample.at.seconds());
      w->F64(sample.value);
    }
    w->U64(series.aggregated.size());
    for (const LoadSample& sample : series.aggregated) {
      w->I64(sample.at.seconds());
      w->F64(sample.value);
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
  uint64_t series_count = 0;
  AG_ASSIGN_OR_RETURN(series_count, r->U64());
  // Key prefix, two sample counts and the open bucket.
  AG_RETURN_IF_ERROR(r->CheckCount(series_count, 4 + 2 * 8 + 3 * 8));
  for (uint64_t s = 0; s < series_count; ++s) {
    std::string key;
    AG_ASSIGN_OR_RETURN(key, r->Str());
    Handle handle = Acquire(key);
    Series& series = *handle.series_;
    uint64_t raw_count = 0;
    AG_ASSIGN_OR_RETURN(raw_count, r->U64());
    AG_RETURN_IF_ERROR(r->CheckCount(raw_count, 2 * 8));
    size_t capacity = series.raw.size();
    if (capacity < raw_count) capacity = RoundUpPow2(raw_count);
    if (capacity != series.raw.size()) {
      series.raw.assign(capacity, LoadSample{});
    }
    series.head = 0;
    series.count = raw_count;
    for (uint64_t i = 0; i < raw_count; ++i) {
      int64_t at_s = 0;
      double value = 0.0;
      AG_ASSIGN_OR_RETURN(at_s, r->I64());
      AG_ASSIGN_OR_RETURN(value, r->F64());
      series.raw[i] = LoadSample{SimTime::FromSeconds(at_s), value};
    }
    uint64_t aggregated_count = 0;
    AG_ASSIGN_OR_RETURN(aggregated_count, r->U64());
    AG_RETURN_IF_ERROR(r->CheckCount(aggregated_count, 2 * 8));
    series.aggregated.clear();
    series.aggregated.reserve(aggregated_count);
    for (uint64_t i = 0; i < aggregated_count; ++i) {
      int64_t at_s = 0;
      double value = 0.0;
      AG_ASSIGN_OR_RETURN(at_s, r->I64());
      AG_ASSIGN_OR_RETURN(value, r->F64());
      series.aggregated.push_back(
          LoadSample{SimTime::FromSeconds(at_s), value});
    }
    AG_ASSIGN_OR_RETURN(series.open_bucket, r->I64());
    AG_ASSIGN_OR_RETURN(series.open_sum, r->F64());
    AG_ASSIGN_OR_RETURN(series.open_count, r->I64());
  }
  return Status::OK();
}

}  // namespace autoglobe::monitor
