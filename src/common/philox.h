#ifndef AUTOGLOBE_COMMON_PHILOX_H_
#define AUTOGLOBE_COMMON_PHILOX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace autoglobe {

namespace philox_detail {

// Philox4x32 round constants (Salmon et al., "Parallel random
// numbers: as easy as 1, 2, 3", SC'11; identical to Random123).
inline constexpr uint32_t kMul0 = 0xD2511F53u;
inline constexpr uint32_t kMul1 = 0xCD9E8D57u;
inline constexpr uint32_t kWeyl0 = 0x9E3779B9u;
inline constexpr uint32_t kWeyl1 = 0xBB67AE85u;

struct Block {
  uint32_t x[4];
};

/// One Philox4x32-10 block: counter (c0..c3 little-endian words) and
/// 64-bit key -> 128 output bits. The workhorse of every draw.
inline Block Philox4x32_10(uint32_t c0, uint32_t c1, uint32_t c2,
                           uint32_t c3, uint32_t key0, uint32_t key1) {
  for (int round = 0;; ++round) {
    uint64_t p0 = static_cast<uint64_t>(kMul0) * c0;
    uint64_t p1 = static_cast<uint64_t>(kMul1) * c2;
    uint32_t hi0 = static_cast<uint32_t>(p0 >> 32);
    uint32_t lo0 = static_cast<uint32_t>(p0);
    uint32_t hi1 = static_cast<uint32_t>(p1 >> 32);
    uint32_t lo1 = static_cast<uint32_t>(p1);
    uint32_t n0 = hi1 ^ c1 ^ key0;
    uint32_t n2 = hi0 ^ c3 ^ key1;
    c0 = n0;
    c1 = lo1;
    c2 = n2;
    c3 = lo0;
    if (round == 9) break;
    key0 += kWeyl0;
    key1 += kWeyl1;
  }
  return Block{{c0, c1, c2, c3}};
}

/// The two 64-bit halves of a block, in draw-event order.
inline uint64_t Half0(const Block& b) {
  return (static_cast<uint64_t>(b.x[0]) << 32) | b.x[1];
}
inline uint64_t Half1(const Block& b) {
  return (static_cast<uint64_t>(b.x[2]) << 32) | b.x[3];
}

/// Derives the 64-bit Philox key from a user seed (one SplitMix64
/// step, same mixer the xoshiro seeder uses).
uint64_t KeyFromSeed(uint64_t seed);

/// Both normals of draw-event block `block` for key (key0, key1):
/// Box–Muller over the block's two uniform halves, radial log and
/// sincos through the pinned fastmath kernels. Even events return
/// *rcos, odd events *rsin.
void BlockNormals(uint64_t block, uint32_t key0, uint32_t key1,
                  double* rsin, double* rcos);

}  // namespace philox_detail

/// Counter-based generator: every draw is a pure function of
/// (seed, draw index). Draw event n consumes half of Philox block
/// n/2 — a Uniform64 eats one half, a NormalUnit pair eats a whole
/// block (even event returns r*cos and caches r*sin for the odd
/// sibling). Because identity never depends on evaluation order,
/// SkipAhead(k) is a counter bump, and scalar, batched, and SIMD
/// evaluations of the same stream produce the same bits
/// (DESIGN.md §16).
class PhiloxRng {
 public:
  explicit PhiloxRng(uint64_t seed = 0) { Reseed(seed); }

  /// Re-keys the stream and rewinds the draw counter to zero.
  void Reseed(uint64_t seed);

  /// Uniform 64 bits: half a block per call.
  uint64_t Uniform64();

  /// Uniform double in [0, 1), same mantissa mapping as Rng.
  double NextDouble() {
    return static_cast<double>(Uniform64() >> 11) * 0x1.0p-53;
  }

  /// Standard normal variate (mean 0, stddev 1) via Box–Muller over
  /// one block; consumes one draw event.
  double NormalUnit();

  /// Uniform integer in [lo, hi] via Lemire rejection sampling —
  /// unbiased for every range, unlike the legacy modulo reduction.
  /// May consume more than one event (rejection), so fixed-stride
  /// skip-ahead only applies to Uniform64/NormalUnit streams.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Advances the stream by `events` draw events in O(1).
  void SkipAhead(uint64_t events) {
    counter_ += events;
    cache_valid_ = false;
  }

  uint64_t counter() const { return counter_; }

  /// Full stream state for checkpoint/restore. The key words are
  /// included (not just the counter) so a restored stream never
  /// depends on re-deriving the key from a seed.
  struct State {
    uint32_t key0;
    uint32_t key1;
    uint64_t counter;
    uint64_t cache_block;
    double cache;
    bool cache_valid;
  };
  State SaveState() const {
    return State{key0_, key1_, counter_, cache_block_, cache_,
                 cache_valid_};
  }
  void RestoreState(const State& s) {
    key0_ = s.key0;
    key1_ = s.key1;
    counter_ = s.counter;
    cache_block_ = s.cache_block;
    cache_ = s.cache;
    cache_valid_ = s.cache_valid;
  }

 private:
  uint32_t key0_ = 0;
  uint32_t key1_ = 0;
  uint64_t counter_ = 0;
  // One cached r*sin per block so sequential NormalUnit pairs cost
  // one block; keyed by block index so SkipAhead can never serve a
  // stale half.
  uint64_t cache_block_ = 0;
  double cache_ = 0.0;
  bool cache_valid_ = false;
};

/// Struct-of-arrays philox streams for the batched engine: lane i's
/// stream is bit-identical to a PhiloxRng seeded with lane i's seed.
/// All arrays are indexed [lane]; the SIMD row kernels read and
/// advance four lanes at a time.
struct PhiloxLanes {
  std::vector<uint32_t> key0;
  std::vector<uint32_t> key1;
  std::vector<uint64_t> ctr;
  std::vector<uint64_t> cache_block;
  std::vector<double> cache;
  std::vector<uint8_t> cache_valid;

  std::size_t size() const { return ctr.size(); }
  void Resize(std::size_t lanes);
  /// PhiloxRng::Reseed on one lane: re-keys it and rewinds its
  /// counter; like Reseed it leaves the (invalidated) cache words.
  void SeedLane(std::size_t lane, uint64_t seed);
  /// One lane as a PhiloxRng checkpoint state, and back.
  PhiloxRng::State LaneState(std::size_t lane) const;
  void SetLaneState(std::size_t lane, const PhiloxRng::State& state);
};

/// Fills out[draw * lanes.size() + lane] with the next `draws`
/// uniform doubles of every lane's stream (one draw event each),
/// advancing all counters. Dispatches to the active SIMD kernel.
void FillUniform(PhiloxLanes& lanes, std::size_t draws, double* out);

/// Same layout for standard normals (one draw event each).
void FillNormal(PhiloxLanes& lanes, std::size_t draws, double* out);

}  // namespace autoglobe

#endif  // AUTOGLOBE_COMMON_PHILOX_H_
