#ifndef AUTOGLOBE_COMMON_LANE_KERNELS_H_
#define AUTOGLOBE_COMMON_LANE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/philox.h"

namespace autoglobe {

/// Raw SoA pointers into a PhiloxLanes block — what the row kernels
/// actually touch (keys are read-only; counters and the per-lane
/// normal cache advance in place).
struct PhiloxLaneView {
  const uint32_t* key0;
  const uint32_t* key1;
  uint64_t* ctr;
  uint64_t* cache_block;
  double* cache;
  uint8_t* cache_valid;
};

inline PhiloxLaneView MakePhiloxLaneView(PhiloxLanes& lanes) {
  return PhiloxLaneView{lanes.key0.data(),       lanes.key1.data(),
                        lanes.ctr.data(),        lanes.cache_block.data(),
                        lanes.cache.data(),      lanes.cache_valid.data()};
}

/// The hot `[dense_id][lane]` row loops of the demand tick and the
/// overload ledger as a dispatch-selected kernel table. Two
/// implementations exist: the scalar/SSE2 baseline and an AVX2 build of
/// the *same source* (plus hand-written AVX2 philox kernels); the
/// 1-lane builds of the tick and the ledger compile that source inline
/// once more. None may use FMA or reassociate
/// (`-ffp-contract=off`, no fast-math), so every tier produces
/// bit-identical doubles — tier selection is a throughput knob, never
/// a semantic one (DESIGN.md §16).
///
/// Every kernel applies the demand model's per-lane expression order
/// exactly; the conditional updates are written as selects and
/// `+ 0.0` no-op accumulations that are proven exact for the value
/// ranges involved (accumulators never hold -0.0).
struct LaneKernels {
  const char* name;

  /// fresh[i] = users[i] * activity * request_cost / per_unit
  void (*fresh_users_row)(double* fresh, const double* users,
                          double activity, double request_cost,
                          double per_unit, size_t n);
  /// fresh[i] = usable > 0 ? ab * scale[i] * perf / usable : 0
  /// (ab = batch_load_wu * activity, hoisted by the caller; usable is
  /// the service's non-failed capacity, shared by every lane).
  void (*fresh_batch_row)(double* fresh, double usable,
                          const double* scale, double ab, double perf,
                          size_t n);
  /// demand[i] = base_load + fresh[i] + backlog[i];
  /// service_work[i] += fresh[i]
  void (*demand_plain_row)(double* demand, double* service_work,
                           const double* fresh, const double* backlog,
                           double base_load, size_t n);
  /// queued = usable > 0 && queue[i] > 0 ? queue[i] * perf / usable
  ///                                     : backlog[i];
  /// demand[i] = base_load + fresh[i] + queued;
  /// service_work[i] += fresh[i]
  void (*demand_shared_row)(double* demand, double* service_work,
                            const double* fresh, const double* backlog,
                            const double* queue, double usable,
                            double base_load, double perf, size_t n);
  /// acc[i] += src[i]
  void (*add_row)(double* acc, const double* src, size_t n);
  /// w = factor * work[i];
  /// demand[i] += (w > 0 && usable > 0) ? w * perf / usable : 0
  void (*distribute_row)(double* demand, const double* work,
                         double usable, double factor, double perf,
                         size_t n);
  /// cpu[i] = min(1, total[i] / capacity); mem_row[i] = mem.
  /// Every capacity argument is a server's performance index, which
  /// ServerSpec::Validate keeps finite and > 0 for every server a
  /// cluster admits, so no kernel guards its division.
  void (*cpu_mem_row)(double* cpu, double* mem_row, const double* total,
                      double capacity, double mem, size_t n);
  /// total[i] += demand[i]; serve[i] = demand[i]: a running instance
  /// is granted its whole demand, which it gets wherever its server
  /// fits (water-filling re-grants the overloaded lanes).
  void (*serve_all_row)(double* total, double* serve, const double* demand,
                        size_t n);
  /// Per-instance backlog update (private queue). base_load is 0 for
  /// spec-less instances (the extra max() is exact on the
  /// already-non-negative unserved).
  void (*backlog_row)(double* inst_load, double* served, double* backlog,
                      double* lost, const double* demand,
                      const double* serve, double capacity,
                      double base_load, double cap, double dt_minutes,
                      size_t n);
  /// Shared-queue variant: backlog zeroes, unserved drains into the
  /// service sink.
  void (*shared_backlog_row)(double* inst_load, double* served,
                             double* backlog, double* shared_sink,
                             const double* demand, const double* serve,
                             double capacity, double base_load,
                             double dt_minutes, size_t n);
  /// overload[i] += cpu[i] > threshold ? dt_minutes : 0
  void (*overload_row)(double* overload, const double* cpu,
                       double threshold, double dt_minutes, size_t n);
  /// queued = collected[i]; lost[i] += max(0, queued - cap);
  /// queue[i] = max-capped, clamped at +0.
  void (*queue_commit_row)(double* queue, double* lost,
                           const double* collected, double cap, size_t n);
  /// Full smoothing ring: load_sum += cpu; sums += cpu; sums -= ring;
  /// ring = cpu.
  void (*smooth_full_row)(double* load_sum, double* sums, double* ring,
                          const double* cpu, size_t n);
  /// Filling smoothing ring: load_sum += cpu; sums += cpu; ring = cpu.
  void (*smooth_fill_row)(double* load_sum, double* sums, double* ring,
                          const double* cpu, size_t n);
  /// smoothed = sums[i] / count; over-threshold lanes accrue overload
  /// minutes and extend their streak, others reset it.
  void (*streak_row)(double* overload, double* streaks,
                     double* max_streak, const double* sums,
                     double count, double threshold, double tick_minutes,
                     size_t n);
  /// Least-loaded argmin update: score = cpu[i] + 0.001 * users[i] /
  /// denom; strict-less winners take (score, id). Same instance-visit
  /// order as DemandModel::LeastLoadedInstance, so ties resolve
  /// identically.
  void (*least_loaded_row)(double* best_score, uint64_t* best_id,
                           const double* cpu, const double* users,
                           double denom, uint64_t id, size_t n);
  /// Session fluctuation drain: lanes whose refuge is some *other*
  /// instance give up users[i] * fraction; everyone else takes an
  /// exact-zero leave, so the row is straight-line math.
  void (*fluct_move_row)(double* users, double* moved,
                         const uint64_t* best_id, uint64_t id,
                         double fraction, size_t n);
  /// Band scan over one chunk of up to 64 lanes: bit i of *over_mask
  /// is loads[i] > overload, bit i of *under_mask is loads[i] < idle.
  /// Requires n <= 64; callers walk wider rows in 64-lane chunks.
  /// Masks let the monitor replica visit only out-of-band lanes
  /// (usually none) instead of branching on all of them.
  void (*band_mask_row)(uint64_t* over_mask, uint64_t* under_mask,
                        const double* loads, double overload,
                        double idle, size_t n);
  /// Newest-first window sum over a lane-strided history ring:
  /// sum[i] = Σ over `rows` rows of hist[slot * n + i], starting at
  /// newest_slot and stepping the slot downward with wraparound at
  /// cap. Each lane adds its rows in exactly that order, so the sums
  /// match a per-lane newest-first walk bit for bit.
  void (*window_sum_rows)(double* sum, const double* hist, size_t cap,
                          size_t rows, size_t newest_slot, size_t n);

  /// out[i] = next uniform double of lane i (one draw event).
  void (*philox_uniform_event_row)(PhiloxLaneView lanes, double* out,
                                   size_t n);
  /// out[i] = next standard normal of lane i (one draw event).
  void (*philox_normal_event_row)(PhiloxLaneView lanes, double* out,
                                  size_t n);
  /// fresh[i] *= max(0, 1 + stddev * NormalUnit()) for every lane with
  /// fresh[i] > 0; other lanes draw nothing (their counters stand
  /// still, exactly like PhiloxRng::NormalUnit at a conditional draw
  /// site).
  void (*philox_noise_row)(PhiloxLaneView lanes, double* fresh,
                           double stddev, size_t n);
};

/// The kernel tier picked once per process from ActiveSimdLevel().
const LaneKernels& GetLaneKernels();

/// The scalar/SSE2 baseline, always available (parity tests compare
/// tiers directly instead of re-execing with AUTOGLOBE_FORCE_SCALAR).
const LaneKernels& GetLaneKernelsScalar();

/// The AVX2 tier, or nullptr when the binary or CPU lacks it.
const LaneKernels* GetLaneKernelsAvx2();

}  // namespace autoglobe

#endif  // AUTOGLOBE_COMMON_LANE_KERNELS_H_
