// AVX2 tier of the lane kernels. The elementwise row kernels are the
// *same source* as the scalar tier (lane_kernels_inl.h) compiled with
// -mavx2 -ffp-contract=off, so they are bit-identical by
// construction. The philox draw kernels are hand-written 4-wide
// mirrors of the scalar philox/fastmath code: every floating-point
// operation appears in the same order with the same rounding (packed
// IEEE mul/add/div/sqrt, no FMA), all selects are blends of fully
// computed values, and the u64->double conversions are exact, so the
// SIMD stream equals the scalar stream bit for bit (enforced by
// tests/common/philox_test.cc and the batched parity suites).

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/lane_kernels.h"
#include "common/philox.h"

namespace autoglobe {
namespace {

#include "common/lane_kernels_inl.h"

struct VecBlock {
  __m256i x0, x1, x2, x3;
};

// No namespace-scope __m256i constants: their dynamic initializers
// would execute AVX instructions at load time even when dispatch
// never selects this tier.
inline __m256i Mask32() { return _mm256_set1_epi64x(0xffffffffll); }

/// Philox4x32-10 for four lanes: each __m256i holds one 32-bit word
/// per lane, zero-extended into a 64-bit slot so _mm256_mul_epu32 is
/// exactly mulhilo.
inline VecBlock PhiloxBlock4(__m256i block, __m256i key0, __m256i key1) {
  const __m256i kMask32 = Mask32();
  const __m256i mul0 =
      _mm256_set1_epi64x(static_cast<long long>(philox_detail::kMul0));
  const __m256i mul1 =
      _mm256_set1_epi64x(static_cast<long long>(philox_detail::kMul1));
  const __m256i weyl0 =
      _mm256_set1_epi64x(static_cast<long long>(philox_detail::kWeyl0));
  const __m256i weyl1 =
      _mm256_set1_epi64x(static_cast<long long>(philox_detail::kWeyl1));
  __m256i c0 = _mm256_and_si256(block, kMask32);
  __m256i c1 = _mm256_srli_epi64(block, 32);
  __m256i c2 = _mm256_setzero_si256();
  __m256i c3 = _mm256_setzero_si256();
  __m256i k0 = key0;
  __m256i k1 = key1;
  for (int round = 0;; ++round) {
    __m256i p0 = _mm256_mul_epu32(mul0, c0);
    __m256i p1 = _mm256_mul_epu32(mul1, c2);
    __m256i hi0 = _mm256_srli_epi64(p0, 32);
    __m256i lo0 = _mm256_and_si256(p0, kMask32);
    __m256i hi1 = _mm256_srli_epi64(p1, 32);
    __m256i lo1 = _mm256_and_si256(p1, kMask32);
    __m256i n0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0);
    __m256i n2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1);
    c0 = n0;
    c1 = lo1;
    c2 = n2;
    c3 = lo0;
    if (round == 9) break;
    k0 = _mm256_and_si256(_mm256_add_epi64(k0, weyl0), kMask32);
    k1 = _mm256_and_si256(_mm256_add_epi64(k1, weyl1), kMask32);
  }
  return VecBlock{c0, c1, c2, c3};
}

/// Exact u64 -> double for v < 2^53: both 32-bit halves convert
/// exactly via the 2^52 magic-number trick, and hi*2^32 + lo is an
/// exact sum of a representable integer — identical to the scalar
/// static_cast<double>.
inline __m256d U64ToDouble(__m256i v) {
  const __m256i kMask32 = Mask32();
  const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256d magic_d = _mm256_set1_pd(0x1.0p52);
  __m256i lo = _mm256_and_si256(v, kMask32);
  __m256i hi = _mm256_srli_epi64(v, 32);
  __m256d lod = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(lo, magic_i)), magic_d);
  __m256d hid = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, magic_i)), magic_d);
  return _mm256_add_pd(_mm256_mul_pd(hid, _mm256_set1_pd(4294967296.0)),
                       lod);
}

/// Exact int64 -> double for |v| < 2^51 (the log exponent range).
inline __m256d I64SmallToDouble(__m256i v) {
  const __m256i magic_i = _mm256_set1_epi64x(0x4338000000000000ll);
  const __m256d magic_d = _mm256_set1_pd(0x1.8p52);
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(v, magic_i)), magic_d);
}

/// FastLog (fastmath.h) step for step, 4-wide.
inline __m256d FastLog4(__m256d x) {
  const __m256d kLn2Hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d kLn2Lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d kLg1 = _mm256_set1_pd(6.666666666666735130e-01);
  const __m256d kLg2 = _mm256_set1_pd(3.999999999940941908e-01);
  const __m256d kLg3 = _mm256_set1_pd(2.857142874366239149e-01);
  const __m256d kLg4 = _mm256_set1_pd(2.222219843214978396e-01);
  const __m256d kLg5 = _mm256_set1_pd(1.818357216161805012e-01);
  const __m256d kLg6 = _mm256_set1_pd(1.531383769920937332e-01);
  const __m256d kLg7 = _mm256_set1_pd(1.479819860511658591e-01);

  __m256i bits = _mm256_castpd_si256(x);
  __m256i hx = _mm256_srli_epi64(bits, 32);
  __m256i k = _mm256_sub_epi64(_mm256_srli_epi64(hx, 20),
                               _mm256_set1_epi64x(1023));
  hx = _mm256_and_si256(hx, _mm256_set1_epi64x(0x000fffff));
  __m256i i = _mm256_and_si256(
      _mm256_add_epi64(hx, _mm256_set1_epi64x(0x95f64)),
      _mm256_set1_epi64x(0x100000));
  __m256i norm_hi = _mm256_or_si256(
      hx, _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff00000)));
  __m256i norm = _mm256_or_si256(_mm256_slli_epi64(norm_hi, 32),
                                 _mm256_and_si256(bits, Mask32()));
  __m256d xn = _mm256_castsi256_pd(norm);
  k = _mm256_add_epi64(k, _mm256_srli_epi64(i, 20));
  __m256d dk = I64SmallToDouble(k);

  __m256d f = _mm256_sub_pd(xn, _mm256_set1_pd(1.0));
  __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  __m256d z = _mm256_mul_pd(s, s);
  __m256d w = _mm256_mul_pd(z, z);
  __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(
             kLg2, _mm256_mul_pd(
                       w, _mm256_add_pd(kLg4, _mm256_mul_pd(w, kLg6)))));
  __m256d t2 = _mm256_mul_pd(
      z,
      _mm256_add_pd(
          kLg1,
          _mm256_mul_pd(
              w, _mm256_add_pd(
                     kLg3, _mm256_mul_pd(
                               w, _mm256_add_pd(
                                      kLg5, _mm256_mul_pd(w, kLg7)))))));
  __m256d r = _mm256_add_pd(t2, t1);
  __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)), _mm256_mul_pd(dk, kLn2Lo));
  return _mm256_sub_pd(
      _mm256_mul_pd(dk, kLn2Hi),
      _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

inline __m256d Negate(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

/// FastSinCos (fastmath.h) step for step, 4-wide: both quadrant
/// kernels computed, result picked by blend — the scalar switch picks
/// among the same fully computed values.
inline void FastSinCos4(__m256d theta, __m256d* sin_out,
                        __m256d* cos_out) {
  const __m256d kInvPio2 = _mm256_set1_pd(6.36619772367581382433e-01);
  const __m256d kPio2_1 = _mm256_set1_pd(1.57079632673412561417e+00);
  const __m256d kPio2_2 = _mm256_set1_pd(6.07710050630396597660e-11);
  const __m256d kPio2_2t = _mm256_set1_pd(2.02226624879595063154e-21);
  const __m256d kS1 = _mm256_set1_pd(-1.66666666666666324348e-01);
  const __m256d kS2 = _mm256_set1_pd(8.33333333332248946124e-03);
  const __m256d kS3 = _mm256_set1_pd(-1.98412698298579493134e-04);
  const __m256d kS4 = _mm256_set1_pd(2.75573137070700676789e-06);
  const __m256d kS5 = _mm256_set1_pd(-2.50507602534068634195e-08);
  const __m256d kS6 = _mm256_set1_pd(1.58969099521155010221e-10);
  const __m256d kC1 = _mm256_set1_pd(4.16666666666666019037e-02);
  const __m256d kC2 = _mm256_set1_pd(-1.38888888888741095749e-03);
  const __m256d kC3 = _mm256_set1_pd(2.48015872894767294178e-05);
  const __m256d kC4 = _mm256_set1_pd(-2.75573143513906633035e-07);
  const __m256d kC5 = _mm256_set1_pd(2.08757232129817482790e-09);
  const __m256d kC6 = _mm256_set1_pd(-1.13596475577881948265e-11);
  const __m256d kHalf = _mm256_set1_pd(0.5);
  const __m256d kOne = _mm256_set1_pd(1.0);

  __m256d fn = _mm256_floor_pd(
      _mm256_add_pd(_mm256_mul_pd(theta, kInvPio2), kHalf));
  __m128i n32 = _mm256_cvttpd_epi32(fn);
  __m256i q = _mm256_and_si256(_mm256_cvtepi32_epi64(n32),
                               _mm256_set1_epi64x(3));
  __m256d t1 = _mm256_sub_pd(theta, _mm256_mul_pd(fn, kPio2_1));
  __m256d w = _mm256_mul_pd(fn, kPio2_2);
  __m256d r = _mm256_sub_pd(t1, w);
  w = _mm256_sub_pd(_mm256_mul_pd(fn, kPio2_2t),
                    _mm256_sub_pd(_mm256_sub_pd(t1, r), w));
  __m256d x = _mm256_sub_pd(r, w);
  __m256d y = _mm256_sub_pd(_mm256_sub_pd(r, x), w);

  __m256d z = _mm256_mul_pd(x, x);
  __m256d zz = _mm256_mul_pd(z, z);
  __m256d rs = _mm256_add_pd(
      _mm256_add_pd(
          kS2, _mm256_mul_pd(
                   z, _mm256_add_pd(kS3, _mm256_mul_pd(z, kS4)))),
      _mm256_mul_pd(_mm256_mul_pd(z, zz),
                    _mm256_add_pd(kS5, _mm256_mul_pd(z, kS6))));
  __m256d v = _mm256_mul_pd(z, x);
  __m256d ks = _mm256_sub_pd(
      x, _mm256_sub_pd(
             _mm256_sub_pd(
                 _mm256_mul_pd(
                     z, _mm256_sub_pd(_mm256_mul_pd(kHalf, y),
                                      _mm256_mul_pd(v, rs))),
                 y),
             _mm256_mul_pd(v, kS1)));

  __m256d rc = _mm256_add_pd(
      _mm256_mul_pd(
          z, _mm256_add_pd(
                 kC1, _mm256_mul_pd(
                          z, _mm256_add_pd(kC2, _mm256_mul_pd(z, kC3))))),
      _mm256_mul_pd(_mm256_mul_pd(zz, zz),
                    _mm256_add_pd(
                        kC4, _mm256_mul_pd(
                                 z, _mm256_add_pd(
                                        kC5, _mm256_mul_pd(z, kC6))))));
  __m256d hz = _mm256_mul_pd(kHalf, z);
  __m256d ww = _mm256_sub_pd(kOne, hz);
  __m256d kc = _mm256_add_pd(
      ww, _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(kOne, ww), hz),
                        _mm256_sub_pd(_mm256_mul_pd(z, rc),
                                      _mm256_mul_pd(x, y))));

  __m256d nks = Negate(ks);
  __m256d nkc = Negate(kc);
  __m256d m1 = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(q, _mm256_set1_epi64x(1)));
  __m256d m2 = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(q, _mm256_set1_epi64x(2)));
  __m256d m3 = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(q, _mm256_set1_epi64x(3)));
  __m256d s = ks;
  s = _mm256_blendv_pd(s, kc, m1);
  s = _mm256_blendv_pd(s, nks, m2);
  s = _mm256_blendv_pd(s, nkc, m3);
  __m256d c = kc;
  c = _mm256_blendv_pd(c, nks, m1);
  c = _mm256_blendv_pd(c, nkc, m2);
  c = _mm256_blendv_pd(c, ks, m3);
  *sin_out = s;
  *cos_out = c;
}

/// Both Box–Muller normals of four lanes' `block` — the 4-wide mirror
/// of philox_detail::BlockNormals.
inline void BlockNormals4(__m256i block, __m256i key0, __m256i key1,
                          __m256d* rsin, __m256d* rcos) {
  const __m256d kScale = _mm256_set1_pd(0x1.0p-53);
  const __m256d kTwoPi =
      _mm256_set1_pd(6.28318530717958647692528676655900577);
  VecBlock b = PhiloxBlock4(block, key0, key1);
  __m256i h0 = _mm256_or_si256(_mm256_slli_epi64(b.x0, 32), b.x1);
  __m256i h1 = _mm256_or_si256(_mm256_slli_epi64(b.x2, 32), b.x3);
  __m256d u1 =
      _mm256_mul_pd(U64ToDouble(_mm256_srli_epi64(h0, 11)), kScale);
  __m256d le0 =
      _mm256_cmp_pd(u1, _mm256_setzero_pd(), _CMP_LE_OQ);
  u1 = _mm256_blendv_pd(u1, kScale, le0);
  __m256d u2 =
      _mm256_mul_pd(U64ToDouble(_mm256_srli_epi64(h1, 11)), kScale);
  __m256d radius = _mm256_sqrt_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0), FastLog4(u1)));
  __m256d theta = _mm256_mul_pd(kTwoPi, u2);
  __m256d s;
  __m256d c;
  FastSinCos4(theta, &s, &c);
  *rsin = _mm256_mul_pd(radius, s);
  *rcos = _mm256_mul_pd(radius, c);
}

inline __m256i LoadKeys(const uint32_t* key, size_t i) {
  return _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + i)));
}

inline uint32_t LoadValid4(const uint8_t* valid, size_t i) {
  uint32_t v;
  std::memcpy(&v, valid + i, sizeof(v));
  return v;
}

inline void StoreValid4(uint8_t* valid, size_t i, uint32_t v) {
  std::memcpy(valid + i, &v, sizeof(v));
}

void PhiloxUniformEventRowAvx2(PhiloxLaneView lanes, double* out,
                               size_t n) {
  const __m256d kScale = _mm256_set1_pd(0x1.0p-53);
  const __m256i kOne = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i ctr = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes.ctr + i));
    __m256i odd = _mm256_and_si256(ctr, kOne);
    int omask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(odd, kOne)));
    if (omask == 0x0 || omask == 0xf) {
      __m256i block = _mm256_srli_epi64(ctr, 1);
      VecBlock b = PhiloxBlock4(block, LoadKeys(lanes.key0, i),
                                LoadKeys(lanes.key1, i));
      __m256i half =
          omask == 0
              ? _mm256_or_si256(_mm256_slli_epi64(b.x0, 32), b.x1)
              : _mm256_or_si256(_mm256_slli_epi64(b.x2, 32), b.x3);
      _mm256_storeu_pd(
          out + i,
          _mm256_mul_pd(U64ToDouble(_mm256_srli_epi64(half, 11)),
                        kScale));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes.ctr + i),
                          _mm256_add_epi64(ctr, kOne));
      continue;
    }
    PhiloxUniformEventRowScalar(
        PhiloxLaneView{lanes.key0 + i, lanes.key1 + i, lanes.ctr + i,
                       lanes.cache_block + i, lanes.cache + i,
                       lanes.cache_valid + i},
        out + i, 4);
  }
  if (i < n) {
    PhiloxUniformEventRowScalar(
        PhiloxLaneView{lanes.key0 + i, lanes.key1 + i, lanes.ctr + i,
                       lanes.cache_block + i, lanes.cache + i,
                       lanes.cache_valid + i},
        out + i, n - i);
  }
}

void PhiloxNormalEventRowAvx2(PhiloxLaneView lanes, double* out,
                              size_t n) {
  const __m256i kOne = _mm256_set1_epi64x(1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i ctr = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes.ctr + i));
    __m256i odd = _mm256_and_si256(ctr, kOne);
    int omask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(odd, kOne)));
    __m256i block = _mm256_srli_epi64(ctr, 1);
    if (omask == 0) {
      __m256d rsin;
      __m256d rcos;
      BlockNormals4(block, LoadKeys(lanes.key0, i),
                    LoadKeys(lanes.key1, i), &rsin, &rcos);
      _mm256_storeu_pd(out + i, rcos);
      _mm256_storeu_pd(lanes.cache + i, rsin);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(lanes.cache_block + i), block);
      StoreValid4(lanes.cache_valid, i, 0x01010101u);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes.ctr + i),
                          _mm256_add_epi64(ctr, kOne));
      continue;
    }
    if (omask == 0xf && LoadValid4(lanes.cache_valid, i) == 0x01010101u) {
      __m256i cb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lanes.cache_block + i));
      if (_mm256_movemask_pd(_mm256_castsi256_pd(
              _mm256_cmpeq_epi64(cb, block))) == 0xf) {
        _mm256_storeu_pd(out + i, _mm256_loadu_pd(lanes.cache + i));
        StoreValid4(lanes.cache_valid, i, 0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes.ctr + i),
                            _mm256_add_epi64(ctr, kOne));
        continue;
      }
    }
    PhiloxNormalEventRowScalar(
        PhiloxLaneView{lanes.key0 + i, lanes.key1 + i, lanes.ctr + i,
                       lanes.cache_block + i, lanes.cache + i,
                       lanes.cache_valid + i},
        out + i, 4);
  }
  if (i < n) {
    PhiloxNormalEventRowScalar(
        PhiloxLaneView{lanes.key0 + i, lanes.key1 + i, lanes.ctr + i,
                       lanes.cache_block + i, lanes.cache + i,
                       lanes.cache_valid + i},
        out + i, n - i);
  }
}

/// One 4-lane group of the noise row (lanes [i, i+4)). Identical
/// behavior to PhiloxNoiseRowScalar over the group; the fast paths
/// require all four lanes in lockstep (all active, same draw parity).
inline void NoiseGroup4(PhiloxLaneView lanes, double* fresh,
                        double stddev, size_t i) {
  const __m256d kZero = _mm256_setzero_pd();
  const __m256d kOneD = _mm256_set1_pd(1.0);
  const __m256i kOne = _mm256_set1_epi64x(1);
  const __m256d sd = _mm256_set1_pd(stddev);
  __m256d f = _mm256_loadu_pd(fresh + i);
  int amask = _mm256_movemask_pd(_mm256_cmp_pd(f, kZero, _CMP_GT_OQ));
  if (amask == 0) return;  // no lane draws; counters stand still
  if (amask == 0xf) {
    __m256i ctr = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lanes.ctr + i));
    __m256i odd = _mm256_and_si256(ctr, kOne);
    int omask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(odd, kOne)));
    __m256i block = _mm256_srli_epi64(ctr, 1);
    if (omask == 0) {
      __m256d rsin;
      __m256d rcos;
      BlockNormals4(block, LoadKeys(lanes.key0, i),
                    LoadKeys(lanes.key1, i), &rsin, &rcos);
      __m256d factor = _mm256_max_pd(
          kZero, _mm256_add_pd(kOneD, _mm256_mul_pd(sd, rcos)));
      _mm256_storeu_pd(fresh + i, _mm256_mul_pd(f, factor));
      _mm256_storeu_pd(lanes.cache + i, rsin);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(lanes.cache_block + i), block);
      StoreValid4(lanes.cache_valid, i, 0x01010101u);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes.ctr + i),
                          _mm256_add_epi64(ctr, kOne));
      return;
    }
    if (omask == 0xf &&
        LoadValid4(lanes.cache_valid, i) == 0x01010101u) {
      __m256i cb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lanes.cache_block + i));
      if (_mm256_movemask_pd(_mm256_castsi256_pd(
              _mm256_cmpeq_epi64(cb, block))) == 0xf) {
        __m256d rsin = _mm256_loadu_pd(lanes.cache + i);
        __m256d factor = _mm256_max_pd(
            kZero, _mm256_add_pd(kOneD, _mm256_mul_pd(sd, rsin)));
        _mm256_storeu_pd(fresh + i, _mm256_mul_pd(f, factor));
        StoreValid4(lanes.cache_valid, i, 0);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(lanes.ctr + i),
            _mm256_add_epi64(ctr, kOne));
        return;
      }
    }
  }
  PhiloxNoiseRowScalar(
      PhiloxLaneView{lanes.key0 + i, lanes.key1 + i, lanes.ctr + i,
                     lanes.cache_block + i, lanes.cache + i,
                     lanes.cache_valid + i},
      fresh + i, stddev, 4);
}

void PhiloxNoiseRowAvx2(PhiloxLaneView lanes, double* fresh,
                        double stddev, size_t n) {
  const __m256d kZero = _mm256_setzero_pd();
  const __m256d kOneD = _mm256_set1_pd(1.0);
  const __m256i kOne = _mm256_set1_epi64x(1);
  const __m256d sd = _mm256_set1_pd(stddev);
  size_t i = 0;
  // Pairs of 4-lane groups: when both groups take the block-compute
  // path, running their BlockNormals4 chains back to back lets the
  // two dependency chains (philox rounds -> div -> sqrt -> sincos)
  // overlap in flight — the chain is latency-bound, so this nearly
  // doubles throughput. Lane-wise operations and their order are
  // unchanged, so the stream stays bit-identical.
  for (; i + 8 <= n; i += 8) {
    __m256d f0 = _mm256_loadu_pd(fresh + i);
    __m256d f1 = _mm256_loadu_pd(fresh + i + 4);
    int amask0 = _mm256_movemask_pd(_mm256_cmp_pd(f0, kZero, _CMP_GT_OQ));
    int amask1 = _mm256_movemask_pd(_mm256_cmp_pd(f1, kZero, _CMP_GT_OQ));
    if ((amask0 & amask1) == 0xf) {
      __m256i ctr0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lanes.ctr + i));
      __m256i ctr1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lanes.ctr + i + 4));
      int omask0 = _mm256_movemask_pd(_mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(ctr0, kOne), kOne)));
      int omask1 = _mm256_movemask_pd(_mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(ctr1, kOne), kOne)));
      if ((omask0 | omask1) == 0) {
        __m256i block0 = _mm256_srli_epi64(ctr0, 1);
        __m256i block1 = _mm256_srli_epi64(ctr1, 1);
        __m256d rsin0, rcos0, rsin1, rcos1;
        BlockNormals4(block0, LoadKeys(lanes.key0, i),
                      LoadKeys(lanes.key1, i), &rsin0, &rcos0);
        BlockNormals4(block1, LoadKeys(lanes.key0, i + 4),
                      LoadKeys(lanes.key1, i + 4), &rsin1, &rcos1);
        __m256d factor0 = _mm256_max_pd(
            kZero, _mm256_add_pd(kOneD, _mm256_mul_pd(sd, rcos0)));
        __m256d factor1 = _mm256_max_pd(
            kZero, _mm256_add_pd(kOneD, _mm256_mul_pd(sd, rcos1)));
        _mm256_storeu_pd(fresh + i, _mm256_mul_pd(f0, factor0));
        _mm256_storeu_pd(fresh + i + 4, _mm256_mul_pd(f1, factor1));
        _mm256_storeu_pd(lanes.cache + i, rsin0);
        _mm256_storeu_pd(lanes.cache + i + 4, rsin1);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(lanes.cache_block + i), block0);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(lanes.cache_block + i + 4), block1);
        StoreValid4(lanes.cache_valid, i, 0x01010101u);
        StoreValid4(lanes.cache_valid, i + 4, 0x01010101u);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes.ctr + i),
                            _mm256_add_epi64(ctr0, kOne));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(lanes.ctr + i + 4),
            _mm256_add_epi64(ctr1, kOne));
        continue;
      }
    }
    NoiseGroup4(lanes, fresh, stddev, i);
    NoiseGroup4(lanes, fresh, stddev, i + 4);
  }
  for (; i + 4 <= n; i += 4) {
    NoiseGroup4(lanes, fresh, stddev, i);
  }
  if (i < n) {
    PhiloxNoiseRowScalar(
        PhiloxLaneView{lanes.key0 + i, lanes.key1 + i, lanes.ctr + i,
                       lanes.cache_block + i, lanes.cache + i,
                       lanes.cache_valid + i},
        fresh + i, stddev, n - i);
  }
}

/// WindowSumRows with the 16-lane accumulators held in registers for
/// the whole walk: each chunk re-walks the slot sequence, so no
/// partial sums touch memory until the final store. Per lane the adds
/// still run newest-first — bit-identical to the generic version.
void WindowSumRowsAvx2(double* sum, const double* hist, size_t cap,
                       size_t rows, size_t newest_slot, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    size_t slot = newest_slot;
    for (size_t r = 0; r < rows; ++r) {
      const double* row = hist + slot * n + i;
      a0 = _mm256_add_pd(a0, _mm256_loadu_pd(row));
      a1 = _mm256_add_pd(a1, _mm256_loadu_pd(row + 4));
      a2 = _mm256_add_pd(a2, _mm256_loadu_pd(row + 8));
      a3 = _mm256_add_pd(a3, _mm256_loadu_pd(row + 12));
      slot = slot == 0 ? cap - 1 : slot - 1;
    }
    _mm256_storeu_pd(sum + i, a0);
    _mm256_storeu_pd(sum + i + 4, a1);
    _mm256_storeu_pd(sum + i + 8, a2);
    _mm256_storeu_pd(sum + i + 12, a3);
  }
  for (; i < n; ++i) {
    double s = 0.0;
    size_t slot = newest_slot;
    for (size_t r = 0; r < rows; ++r) {
      s += hist[slot * n + i];
      slot = slot == 0 ? cap - 1 : slot - 1;
    }
    sum[i] = s;
  }
}

/// BandMaskRow via vector compares: four lanes per movemask, the
/// 4-bit groups OR'd into place. Comparison results are exact either
/// way, so the masks match the generic build bit for bit.
void BandMaskRowAvx2(uint64_t* over_mask, uint64_t* under_mask,
                     const double* loads, double overload, double idle,
                     size_t n) {
  const __m256d vover = _mm256_set1_pd(overload);
  const __m256d vidle = _mm256_set1_pd(idle);
  uint64_t o = 0;
  uint64_t u = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(loads + i);
    o |= static_cast<uint64_t>(static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_cmp_pd(v, vover, _CMP_GT_OQ))))
         << i;
    u |= static_cast<uint64_t>(static_cast<unsigned>(_mm256_movemask_pd(
             _mm256_cmp_pd(v, vidle, _CMP_LT_OQ))))
         << i;
  }
  if (i < n) {
    uint64_t to;
    uint64_t tu;
    BandMaskRow(&to, &tu, loads + i, overload, idle, n - i);
    o |= to << i;
    u |= tu << i;
  }
  *over_mask = o;
  *under_mask = u;
}

constexpr LaneKernels kAvx2Kernels = {
    "avx2",
    FreshUsersRow,
    FreshBatchRow,
    DemandPlainRow,
    DemandSharedRow,
    AddRow,
    DistributeRow,
    CpuMemRow,
    ServeAllRow,
    BacklogRow,
    SharedBacklogRow,
    OverloadRow,
    QueueCommitRow,
    SmoothFullRow,
    SmoothFillRow,
    StreakRow,
    LeastLoadedRow,
    FluctMoveRow,
    BandMaskRowAvx2,
    WindowSumRowsAvx2,
    PhiloxUniformEventRowAvx2,
    PhiloxNormalEventRowAvx2,
    PhiloxNoiseRowAvx2,
};

}  // namespace

namespace lane_kernels_avx2 {

const LaneKernels& GetTable() { return kAvx2Kernels; }

}  // namespace lane_kernels_avx2
}  // namespace autoglobe
