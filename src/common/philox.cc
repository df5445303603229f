#include "common/philox.h"

#include <cmath>

#include "common/fastmath.h"
#include "common/lane_kernels.h"

namespace autoglobe {
namespace philox_detail {

uint64_t KeyFromSeed(uint64_t seed) {
  // One SplitMix64 step (same mixer Rng's seeder uses) so nearby
  // seeds land on unrelated keys.
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void BlockNormals(uint64_t block, uint32_t key0, uint32_t key1,
                  double* rsin, double* rcos) {
  constexpr double kTwoPi = 6.28318530717958647692528676655900577;
  Block b = Philox4x32_10(static_cast<uint32_t>(block),
                          static_cast<uint32_t>(block >> 32), 0, 0,
                          key0, key1);
  double u1 = static_cast<double>(Half0(b) >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double u2 = static_cast<double>(Half1(b) >> 11) * 0x1.0p-53;
  double r = std::sqrt(-2.0 * FastLog(u1));
  double theta = kTwoPi * u2;
  double s;
  double c;
  FastSinCos(theta, &s, &c);
  *rsin = r * s;
  *rcos = r * c;
}

}  // namespace philox_detail

void PhiloxRng::Reseed(uint64_t seed) {
  uint64_t key = philox_detail::KeyFromSeed(seed);
  key0_ = static_cast<uint32_t>(key);
  key1_ = static_cast<uint32_t>(key >> 32);
  counter_ = 0;
  cache_valid_ = false;
}

uint64_t PhiloxRng::Uniform64() {
  uint64_t n = counter_++;
  uint64_t block = n >> 1;
  philox_detail::Block b = philox_detail::Philox4x32_10(
      static_cast<uint32_t>(block), static_cast<uint32_t>(block >> 32),
      0, 0, key0_, key1_);
  return (n & 1) ? philox_detail::Half1(b) : philox_detail::Half0(b);
}

double PhiloxRng::NormalUnit() {
  uint64_t n = counter_++;
  uint64_t block = n >> 1;
  if (n & 1) {
    if (cache_valid_ && cache_block_ == block) {
      cache_valid_ = false;
      return cache_;
    }
    double rsin;
    double rcos;
    philox_detail::BlockNormals(block, key0_, key1_, &rsin, &rcos);
    return rsin;
  }
  double rsin;
  double rcos;
  philox_detail::BlockNormals(block, key0_, key1_, &rsin, &rcos);
  cache_ = rsin;
  cache_block_ = block;
  cache_valid_ = true;
  return rcos;
}

int64_t PhiloxRng::UniformInt(int64_t lo, int64_t hi) {
  uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(Uniform64());
  // Lemire's nearly-divisionless method: accept unless the draw lands
  // in the short first window, in which case reject-and-redraw makes
  // every value exactly equally likely.
  uint64_t x = Uniform64();
  __extension__ typedef unsigned __int128 u128;
  u128 m = static_cast<u128>(x) * range;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < range) {
    uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = Uniform64();
      m = static_cast<u128>(x) * range;
      low = static_cast<uint64_t>(m);
    }
  }
  return lo + static_cast<int64_t>(static_cast<uint64_t>(m >> 64));
}

void PhiloxLanes::Resize(std::size_t lanes) {
  key0.assign(lanes, 0);
  key1.assign(lanes, 0);
  ctr.assign(lanes, 0);
  cache_block.assign(lanes, 0);
  cache.assign(lanes, 0.0);
  cache_valid.assign(lanes, 0);
}

void PhiloxLanes::SeedLane(std::size_t lane, uint64_t seed) {
  uint64_t key = philox_detail::KeyFromSeed(seed);
  key0[lane] = static_cast<uint32_t>(key);
  key1[lane] = static_cast<uint32_t>(key >> 32);
  ctr[lane] = 0;
  cache_valid[lane] = 0;
}

PhiloxRng::State PhiloxLanes::LaneState(std::size_t lane) const {
  return PhiloxRng::State{key0[lane],        key1[lane],
                          ctr[lane],         cache_block[lane],
                          cache[lane],       cache_valid[lane] != 0};
}

void PhiloxLanes::SetLaneState(std::size_t lane,
                               const PhiloxRng::State& state) {
  key0[lane] = state.key0;
  key1[lane] = state.key1;
  ctr[lane] = state.counter;
  cache_block[lane] = state.cache_block;
  cache[lane] = state.cache;
  cache_valid[lane] = state.cache_valid ? 1 : 0;
}

void FillUniform(PhiloxLanes& lanes, std::size_t draws, double* out) {
  const LaneKernels& kernels = GetLaneKernels();
  const std::size_t n = lanes.size();
  for (std::size_t d = 0; d < draws; ++d) {
    kernels.philox_uniform_event_row(MakePhiloxLaneView(lanes),
                                     out + d * n, n);
  }
}

void FillNormal(PhiloxLanes& lanes, std::size_t draws, double* out) {
  const LaneKernels& kernels = GetLaneKernels();
  const std::size_t n = lanes.size();
  for (std::size_t d = 0; d < draws; ++d) {
    kernels.philox_normal_event_row(MakePhiloxLaneView(lanes),
                                    out + d * n, n);
  }
}

}  // namespace autoglobe
