#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/fileio.h"
#include "common/strings.h"

namespace autoglobe::obs {

void Histogram::Observe(double value) {
  if (slot_ == nullptr) return;
  auto it = std::lower_bound(slot_->bounds.begin(), slot_->bounds.end(),
                             value);
  ++slot_->buckets[static_cast<size_t>(it - slot_->bounds.begin())];
  ++slot_->count;
  slot_->sum += value;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile (1-based, ceil), then walk the
  // cumulative distribution to the containing bucket.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    uint64_t in_bucket = counts[i];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) return bounds.back();  // overflow bucket
    double lo = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    double hi = bounds[i];
    double within = in_bucket == 0
                        ? 1.0
                        : static_cast<double>(rank - cumulative) /
                              static_cast<double>(in_bucket);
    return lo + (hi - lo) * within;
  }
  return bounds.back();
}

MetricsSnapshot MetricsSnapshot::Merge(
    const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot merged;
  std::map<std::string, size_t> counter_index;
  std::map<std::string, size_t> gauge_index;
  std::map<std::string, size_t> histogram_index;
  for (const MetricsSnapshot& part : parts) {
    for (const auto& [name, value] : part.counters) {
      auto [it, inserted] =
          counter_index.emplace(name, merged.counters.size());
      if (inserted) {
        merged.counters.emplace_back(name, value);
      } else {
        merged.counters[it->second].second += value;
      }
    }
    for (const auto& [name, value] : part.gauges) {
      auto [it, inserted] = gauge_index.emplace(name, merged.gauges.size());
      if (inserted) {
        merged.gauges.emplace_back(name, value);
      } else {
        merged.gauges[it->second].second = value;
      }
    }
    for (const HistogramSnapshot& histogram : part.histograms) {
      auto [it, inserted] =
          histogram_index.emplace(histogram.name, merged.histograms.size());
      if (inserted) {
        merged.histograms.push_back(histogram);
        continue;
      }
      HistogramSnapshot& into = merged.histograms[it->second];
      into.count += histogram.count;
      into.sum += histogram.sum;
      if (into.bounds == histogram.bounds) {
        for (size_t i = 0; i < into.counts.size(); ++i) {
          into.counts[i] += histogram.counts[i];
        }
      }
    }
  }
  return merged;
}

std::string MetricsSnapshot::ToJson() const {
  std::string json = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    json += StrFormat("%s\n    \"%s\": %llu", i > 0 ? "," : "",
                      counters[i].first.c_str(),
                      static_cast<unsigned long long>(counters[i].second));
  }
  json += counters.empty() ? "},\n" : "\n  },\n";
  json += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    json += StrFormat("%s\n    \"%s\": %.9g", i > 0 ? "," : "",
                      gauges[i].first.c_str(), gauges[i].second);
  }
  json += gauges.empty() ? "},\n" : "\n  },\n";
  json += "  \"histograms\": [";
  for (size_t h = 0; h < histograms.size(); ++h) {
    const HistogramSnapshot& histogram = histograms[h];
    json += StrFormat(
        "%s\n    {\"name\": \"%s\", \"count\": %llu, \"sum\": %.9g, "
        "\"mean\": %.9g, \"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g,\n"
        "     \"bounds\": [",
        h > 0 ? "," : "", histogram.name.c_str(),
        static_cast<unsigned long long>(histogram.count), histogram.sum,
        histogram.Mean(), histogram.Quantile(0.5), histogram.Quantile(0.9),
        histogram.Quantile(0.99));
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      json += StrFormat("%s%.9g", i > 0 ? ", " : "", histogram.bounds[i]);
    }
    json += "], \"buckets\": [";
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      json += StrFormat("%s%llu", i > 0 ? ", " : "",
                        static_cast<unsigned long long>(histogram.counts[i]));
    }
    json += "]}";
  }
  json += histograms.empty() ? "]\n" : "\n  ]\n";
  json += "}\n";
  return json;
}

Status MetricsSnapshot::WriteJson(const std::string& path) const {
  // Durable write: dashboards polling the file never see a torn JSON
  // document, even if the exporter dies mid-write.
  return AtomicWriteFile(path, ToJson());
}

Counter MetricsRegistry::AddCounter(const std::string& name) {
  for (CounterSlot& slot : counters_) {
    if (slot.name == name) return Counter(&slot.value);
  }
  counters_.emplace_back();
  counters_.back().name = name;
  return Counter(&counters_.back().value);
}

Gauge MetricsRegistry::AddGauge(const std::string& name) {
  for (GaugeSlot& slot : gauges_) {
    if (slot.name == name) return Gauge(&slot.value);
  }
  gauges_.emplace_back();
  gauges_.back().name = name;
  return Gauge(&gauges_.back().value);
}

Histogram MetricsRegistry::AddHistogram(const std::string& name,
                                        std::vector<double> bucket_bounds) {
  for (Histogram::Slot& slot : histograms_) {
    if (slot.name == name) return Histogram(&slot);
  }
  std::sort(bucket_bounds.begin(), bucket_bounds.end());
  bucket_bounds.erase(
      std::unique(bucket_bounds.begin(), bucket_bounds.end()),
      bucket_bounds.end());
  if (bucket_bounds.empty()) bucket_bounds.push_back(1.0);
  histograms_.emplace_back();
  Histogram::Slot& slot = histograms_.back();
  slot.name = name;
  slot.bounds = std::move(bucket_bounds);
  slot.buckets.assign(slot.bounds.size() + 1, 0);
  return Histogram(&slot);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const CounterSlot& slot : counters_) {
    snapshot.counters.emplace_back(slot.name, slot.value);
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const GaugeSlot& slot : gauges_) {
    snapshot.gauges.emplace_back(slot.name, slot.value);
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const Histogram::Slot& slot : histograms_) {
    HistogramSnapshot histogram;
    histogram.name = slot.name;
    histogram.bounds = slot.bounds;
    histogram.counts = slot.buckets;
    histogram.count = slot.count;
    histogram.sum = slot.sum;
    snapshot.histograms.push_back(std::move(histogram));
  }
  return snapshot;
}

Status MetricsRegistry::Restore(const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    AddCounter(name);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    AddGauge(name);
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    AddHistogram(histogram.name, histogram.bounds);
  }
  for (const auto& [name, value] : snapshot.counters) {
    for (CounterSlot& slot : counters_) {
      if (slot.name == name) {
        slot.value = value;
        break;
      }
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    for (GaugeSlot& slot : gauges_) {
      if (slot.name == name) {
        slot.value = value;
        break;
      }
    }
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    for (Histogram::Slot& slot : histograms_) {
      if (slot.name != histogram.name) continue;
      if (slot.bounds != histogram.bounds ||
          histogram.counts.size() != slot.buckets.size()) {
        return Status::ParseError(StrFormat(
            "histogram \"%s\": snapshot buckets do not match the "
            "registered bounds",
            histogram.name.c_str()));
      }
      slot.buckets = histogram.counts;
      slot.count = histogram.count;
      slot.sum = histogram.sum;
      break;
    }
  }
  return Status::OK();
}

}  // namespace autoglobe::obs
