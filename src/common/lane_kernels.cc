#include "common/lane_kernels.h"

#include <algorithm>
#include <cstdint>

#include "common/cpu_features.h"
#include "common/philox.h"

namespace autoglobe {

#ifdef AUTOGLOBE_HAVE_AVX2_TU
namespace lane_kernels_avx2 {
// Defined in lane_kernels_avx2.cc (compiled with -mavx2).
const LaneKernels& GetTable();
}  // namespace lane_kernels_avx2
#endif

namespace {

#include "common/lane_kernels_inl.h"

}  // namespace

const LaneKernels& GetLaneKernelsScalar() { return kPortableLaneKernels; }

const LaneKernels* GetLaneKernelsAvx2() {
#ifdef AUTOGLOBE_HAVE_AVX2_TU
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) {
    return &lane_kernels_avx2::GetTable();
  }
#endif
#endif
  return nullptr;
}

const LaneKernels& GetLaneKernels() {
  static const LaneKernels* const active = [] {
    if (ActiveSimdLevel() == SimdLevel::kAvx2) {
      if (const LaneKernels* avx2 = GetLaneKernelsAvx2()) return avx2;
    }
    return &GetLaneKernelsScalar();
  }();
  return *active;
}

}  // namespace autoglobe
