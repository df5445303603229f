#ifndef AUTOGLOBE_BENCH_BENCHMARK_JSON_H_
#define AUTOGLOBE_BENCH_BENCHMARK_JSON_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace autoglobe::bench {

/// Console reporting plus capture into BenchRecord rows: every run's
/// counters land in `extra`, so google-benchmark binaries leave a
/// BENCH_*.json perf trajectory behind without duplicating this glue.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      BenchRecord record;
      record.name = run.benchmark_name();
      record.wall_seconds =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      record.extra["iterations"] = static_cast<double>(run.iterations);
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          record.items_per_second = static_cast<double>(counter);
        } else {
          record.extra[name] = static_cast<double>(counter);
        }
      }
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<BenchRecord>& records() const { return records_; }

 private:
  std::vector<BenchRecord> records_;
};

/// Drop-in main() body for microbenchmark binaries: runs the
/// registered benchmarks and writes the captured records to `path`.
inline int RunBenchmarksAndWriteJson(int argc, char** argv,
                                     const std::string& path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  WriteBenchJson(path, reporter.records());
  return 0;
}

}  // namespace autoglobe::bench

#endif  // AUTOGLOBE_BENCH_BENCHMARK_JSON_H_
