#include "autoglobe/overload_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "autoglobe/runner.h"
#include "common/lane_kernels.h"
#include "common/rng.h"

namespace autoglobe {
namespace {

constexpr size_t kServers = 5;
constexpr size_t kLanes = 7;  // a 4-wide AVX2 block plus a remainder
constexpr size_t kTicks = 70;
constexpr size_t kWarmupTick = 40;  // after the 15-sample ring wrapped

// CPU loads `[tick][server][lane]` with a per-(server, lane) level
// around the 0.8 threshold, so smoothed loads cross it both ways and
// streaks start, grow and break.
std::vector<double> CpuRows() {
  Rng rng(2026);
  std::vector<double> rows(kTicks * kServers * kLanes);
  for (size_t t = 0; t < kTicks; ++t) {
    for (size_t p = 0; p < kServers; ++p) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const double level = 0.6 + 0.05 * static_cast<double>((p + lane) % 6);
        rows[(t * kServers + p) * kLanes + lane] =
            std::min(1.0, level + rng.Uniform(-0.15, 0.15));
      }
    }
  }
  return rows;
}

// Everything a lane's books expose, in the order the run produced it:
// each Step's smoothed load, the live totals after each tick, and the
// folded RunMetrics fields.
using Trace = std::vector<double>;

// Runs lanes [first, first + width) of `rows` through one ledger of
// `width` lanes — twice, with a whole-run Reset in between, since a
// rerun must repeat a fresh ledger — and returns each lane's trace.
std::vector<Trace> RunLanes(const LaneKernels& kernels,
                            const std::vector<double>& rows, size_t first,
                            size_t width) {
  OverloadLedger ledger(kernels);
  EXPECT_TRUE(ledger
                  .Init(kServers, width, Duration::Minutes(1),
                        Duration::Minutes(15), /*threshold=*/0.8)
                  .ok());
  std::vector<Trace> traces(width);
  std::vector<double> cpu(width);
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) ledger.Reset();
    for (size_t t = 0; t < kTicks; ++t) {
      if (t == kWarmupTick) ledger.ResetWarmup();
      for (size_t p = 0; p < kServers; ++p) {
        const double* row = &rows[(t * kServers + p) * kLanes + first];
        std::copy_n(row, width, cpu.begin());
        ledger.Step(p, cpu.data());
        for (size_t lane = 0; lane < width; ++lane) {
          traces[lane].push_back(ledger.Smoothed(p, lane));
        }
      }
      ledger.EndTick();
      for (size_t lane = 0; lane < width; ++lane) {
        traces[lane].push_back(ledger.overload_minutes(lane));
        traces[lane].push_back(ledger.max_streak(lane));
      }
    }
    for (size_t lane = 0; lane < width; ++lane) {
      RunMetrics m;
      ledger.Fold(lane, static_cast<double>(kTicks - kWarmupTick), &m);
      traces[lane].push_back(m.overload_server_minutes);
      traces[lane].push_back(m.max_overload_streak_minutes);
      traces[lane].push_back(m.average_cpu_load);
      traces[lane].push_back(m.overload_fraction);
    }
  }
  return traces;
}

TEST(OverloadLedgerTest, OneLaneAndLaneStridedBuildsKeepTheSameBooks) {
  const std::vector<double> rows = CpuRows();
  std::vector<Trace> single(kLanes);
  for (size_t lane = 0; lane < kLanes; ++lane) {
    single[lane] = RunLanes(GetLaneKernelsScalar(), rows, lane, 1)[0];
  }
  // Not vacuous: some lane overloads after the warmup reset, and its
  // streak also breaks.
  bool overloaded = false;
  for (const Trace& trace : single) {
    overloaded |= trace[trace.size() - 4] > 0.0;
  }
  EXPECT_TRUE(overloaded);
  EXPECT_LT(single[0][single[0].size() - 3],
            single[0][single[0].size() - 4])
      << "lane 0's longest streak should be shorter than its overload "
         "time";
  // The rerun after Reset repeats the first pass.
  const size_t pass = single[0].size() / 2;
  EXPECT_EQ(Trace(single[0].begin(), single[0].begin() + pass),
            Trace(single[0].begin() + pass, single[0].end()));

  std::vector<const LaneKernels*> tiers = {&GetLaneKernelsScalar()};
  if (const LaneKernels* avx2 = GetLaneKernelsAvx2()) tiers.push_back(avx2);
  for (const LaneKernels* tier : tiers) {
    SCOPED_TRACE(tier->name);
    const std::vector<Trace> strided = RunLanes(*tier, rows, 0, kLanes);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(strided[lane], single[lane]) << "lane " << lane;
    }
  }
}

}  // namespace
}  // namespace autoglobe
