#ifndef AUTOGLOBE_BENCH_ALLOC_COUNTER_H_
#define AUTOGLOBE_BENCH_ALLOC_COUNTER_H_

// Counts every (unaligned) global allocation in a bench binary, so
// "zero heap allocations per steady-state tick" is a measured counter
// instead of a claim: read g_heap_allocs before and after the window
// of interest. It also tracks the bytes those allocations hold live
// (their malloc_usable_size) and the high-water mark of that figure,
// so "a checkpoint never holds the whole image" is measured too:
// ResetHeapHighWater() before a call, then HeapTransientBytes() after
// it is the most the call held beyond what it left behind.
//
// This header *defines* the replacement global operator new/delete,
// so exactly one translation unit per binary may include it (every
// bench binary is a single .cpp).

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<uint64_t> g_heap_allocs{0};
inline std::atomic<int64_t> g_heap_live_bytes{0};
inline std::atomic<int64_t> g_heap_high_water{0};

/// Restarts the high-water mark at the bytes live now.
inline void ResetHeapHighWater() {
  g_heap_high_water.store(g_heap_live_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

/// High-water mark since the last reset minus the bytes live now.
inline int64_t HeapTransientBytes() {
  return g_heap_high_water.load(std::memory_order_relaxed) -
         g_heap_live_bytes.load(std::memory_order_relaxed);
}

// The replaced operator new allocates with malloc, so releasing with
// free is the matched pair here; GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live =
        g_heap_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t high = g_heap_high_water.load(std::memory_order_relaxed);
    while (live > high && !g_heap_high_water.compare_exchange_weak(
                              high, live, std::memory_order_relaxed)) {
    }
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_heap_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                                std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#pragma GCC diagnostic pop

#endif  // AUTOGLOBE_BENCH_ALLOC_COUNTER_H_
