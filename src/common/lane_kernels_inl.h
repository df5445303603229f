// Shared source of the lane-kernel tier bodies. Included inside an
// anonymous namespace by each translation unit that compiles them (the
// scalar and AVX2 tiers, and the demand tick and the overload ledger
// for their inline 1-lane builds) so the *same* C++ compiles everywhere — the compiler may not
// reassociate or contract (every such TU builds with
// AUTOGLOBE_KERNEL_FLAGS: -ffp-contract=off and no fast-math), so the
// builds are bit-identical by construction. No include guard and no
// #includes on purpose: the including .cc owns both.
//
// Conditional updates are written as selects / `+ 0.0` accumulations;
// see lane_kernels.h for why each is exact for the value ranges the
// engine feeds them (accumulators never hold -0.0).

inline void PhiloxNormalEventLane(const PhiloxLaneView& v, size_t i,
                                  double* out) {
  uint64_t n = v.ctr[i]++;
  uint64_t block = n >> 1;
  if (n & 1) {
    if (v.cache_valid[i] && v.cache_block[i] == block) {
      v.cache_valid[i] = 0;
      *out = v.cache[i];
      return;
    }
    double rsin;
    double rcos;
    philox_detail::BlockNormals(block, v.key0[i], v.key1[i], &rsin,
                                &rcos);
    *out = rsin;
    return;
  }
  double rsin;
  double rcos;
  philox_detail::BlockNormals(block, v.key0[i], v.key1[i], &rsin, &rcos);
  v.cache[i] = rsin;
  v.cache_block[i] = block;
  v.cache_valid[i] = 1;
  *out = rcos;
}

void FreshUsersRow(double* fresh, const double* users, double activity,
                   double request_cost, double per_unit, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    fresh[i] = users[i] * activity * request_cost / per_unit;
  }
}

void FreshBatchRow(double* fresh, double usable, const double* scale,
                   double ab, double perf, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double cand = ab * scale[i] * perf / usable;
    fresh[i] = usable > 0 ? cand : 0.0;
  }
}

void DemandPlainRow(double* demand, double* service_work,
                    const double* fresh, const double* backlog,
                    double base_load, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    demand[i] = base_load + fresh[i] + backlog[i];
    service_work[i] += fresh[i];
  }
}

void DemandSharedRow(double* demand, double* service_work,
                     const double* fresh, const double* backlog,
                     const double* queue, double usable,
                     double base_load, double perf, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double cand = queue[i] * perf / usable;
    double queued = usable > 0 && queue[i] > 0 ? cand : backlog[i];
    demand[i] = base_load + fresh[i] + queued;
    service_work[i] += fresh[i];
  }
}

void AddRow(double* acc, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += src[i];
}

void DistributeRow(double* demand, const double* work, double usable,
                   double factor, double perf, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double w = factor * work[i];
    double cand = w * perf / usable;
    demand[i] += w > 0 && usable > 0 ? cand : 0.0;
  }
}

void CpuMemRow(double* cpu, double* mem_row, const double* total,
               double capacity, double mem, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    cpu[i] = std::min(1.0, total[i] / capacity);
    mem_row[i] = mem;
  }
}

void ServeAllRow(double* total, double* serve, const double* demand,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    total[i] += demand[i];
    serve[i] = demand[i];
  }
}

void BacklogRow(double* inst_load, double* served, double* backlog,
                double* lost, const double* demand, const double* serve,
                double capacity, double base_load, double cap,
                double dt_minutes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    inst_load[i] = std::min(1.0, demand[i] / capacity);
    double got = serve[i];
    served[i] = got;
    double unserved = std::max(0.0, demand[i] - got);
    unserved = std::max(0.0, unserved - base_load);
    double fresh_backlog = unserved * dt_minutes;
    lost[i] += std::max(0.0, fresh_backlog - cap);
    backlog[i] = std::min(fresh_backlog, cap);
  }
}

void SharedBacklogRow(double* inst_load, double* served, double* backlog,
                      double* shared_sink, const double* demand,
                      const double* serve, double capacity,
                      double base_load, double dt_minutes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    inst_load[i] = std::min(1.0, demand[i] / capacity);
    double got = serve[i];
    served[i] = got;
    double unserved = std::max(0.0, demand[i] - got);
    unserved = std::max(0.0, unserved - base_load);
    backlog[i] = 0.0;
    shared_sink[i] += unserved * dt_minutes;
  }
}

void OverloadRow(double* overload, const double* cpu, double threshold,
                 double dt_minutes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    overload[i] += cpu[i] > threshold ? dt_minutes : 0.0;
  }
}

void QueueCommitRow(double* queue, double* lost, const double* collected,
                    double cap, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double queued = collected[i];
    const double over = queued - cap;
    if (over > 0) lost[i] += over;
    queued = std::min(queued, cap);
    queue[i] = queued > 0 ? queued : 0.0;
  }
}

void SmoothFullRow(double* load_sum, double* sums, double* ring,
                   const double* cpu, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double c = cpu[i];
    load_sum[i] += c;
    sums[i] += c;
    sums[i] -= ring[i];
    ring[i] = c;
  }
}

void SmoothFillRow(double* load_sum, double* sums, double* ring,
                   const double* cpu, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double c = cpu[i];
    load_sum[i] += c;
    sums[i] += c;
    ring[i] = c;
  }
}

void StreakRow(double* overload, double* streaks, double* max_streak,
               const double* sums, double count, double threshold,
               double tick_minutes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double smoothed = sums[i] / count;
    const bool over = smoothed > threshold;
    overload[i] += over ? tick_minutes : 0.0;
    streaks[i] = over ? streaks[i] + tick_minutes : 0.0;
    max_streak[i] = std::max(max_streak[i], streaks[i]);
  }
}

void LeastLoadedRow(double* best_score, uint64_t* best_id,
                    const double* cpu, const double* users, double denom,
                    uint64_t id, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double score = cpu[i] + 0.001 * users[i] / denom;
    const bool better = score < best_score[i];
    best_score[i] = better ? score : best_score[i];
    best_id[i] = better ? id : best_id[i];
  }
}

void FluctMoveRow(double* users, double* moved, const uint64_t* best_id,
                  uint64_t id, double fraction, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const bool moves = best_id[i] != 0 && best_id[i] != id;
    const double leave = moves ? users[i] * fraction : 0.0;
    users[i] -= leave;
    moved[i] += leave;
  }
}

void BandMaskRow(uint64_t* over_mask, uint64_t* under_mask,
                 const double* loads, double overload, double idle,
                 size_t n) {
  uint64_t o = 0;
  uint64_t u = 0;
  for (size_t i = 0; i < n; ++i) {
    o |= static_cast<uint64_t>(loads[i] > overload) << i;
    u |= static_cast<uint64_t>(loads[i] < idle) << i;
  }
  *over_mask = o;
  *under_mask = u;
}

// inline: the AVX2 tier supplies its own register-accumulator
// version, so this body is unreferenced in that translation unit.
inline void WindowSumRows(double* sum, const double* hist, size_t cap,
                   size_t rows, size_t newest_slot, size_t n) {
  for (size_t i = 0; i < n; ++i) sum[i] = 0.0;
  size_t slot = newest_slot;
  for (size_t r = 0; r < rows; ++r) {
    const double* row = hist + slot * n;
    for (size_t i = 0; i < n; ++i) sum[i] += row[i];
    slot = slot == 0 ? cap - 1 : slot - 1;
  }
}

void PhiloxUniformEventRowScalar(PhiloxLaneView lanes, double* out,
                                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t event = lanes.ctr[i]++;
    uint64_t block = event >> 1;
    philox_detail::Block b = philox_detail::Philox4x32_10(
        static_cast<uint32_t>(block), static_cast<uint32_t>(block >> 32),
        0, 0, lanes.key0[i], lanes.key1[i]);
    uint64_t half = (event & 1) ? philox_detail::Half1(b)
                                : philox_detail::Half0(b);
    out[i] = static_cast<double>(half >> 11) * 0x1.0p-53;
  }
}

void PhiloxNormalEventRowScalar(PhiloxLaneView lanes, double* out,
                                size_t n) {
  for (size_t i = 0; i < n; ++i) {
    PhiloxNormalEventLane(lanes, i, &out[i]);
  }
}

void PhiloxNoiseRowScalar(PhiloxLaneView lanes, double* fresh,
                          double stddev, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (fresh[i] > 0) {
      double z;
      PhiloxNormalEventLane(lanes, i, &z);
      fresh[i] *= std::max(0.0, 1.0 + stddev * z);
    }
  }
}

// The portable tier: lane_kernels.cc publishes it as the scalar tier,
// and the 1-lane demand tick calls it through this constant table so
// the compiler resolves and inlines every row.
constexpr LaneKernels kPortableLaneKernels = {
    "scalar",
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
    BandMaskRow,
    WindowSumRows,
    PhiloxUniformEventRowScalar,
    PhiloxNormalEventRowScalar,
    PhiloxNoiseRowScalar,
};

// Template argument of a lane loop's build for the lane count fixed at
// run time (the 1-lane build passes a compile-time 1 instead).
constexpr size_t kAnyLanes = 0;

template <size_t kLanes>
size_t LaneCount(size_t lanes) {
  return kLanes == kAnyLanes ? lanes : kLanes;
}

// The 1-lane build calls the portable rows through the constant table
// above, so every call resolves at compile time and inlines; the
// L-lane build dispatches through the active tier (AVX2 where
// available).
template <size_t kLanes>
const LaneKernels& RowKernels(const LaneKernels* dispatched) {
  if constexpr (kLanes == 1) {
    return kPortableLaneKernels;
  } else {
    return *dispatched;
  }
}
