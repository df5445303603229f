#ifndef AUTOGLOBE_BENCH_ALLOC_COUNTER_H_
#define AUTOGLOBE_BENCH_ALLOC_COUNTER_H_

// Counts every (unaligned) global allocation in a bench binary, so
// "zero heap allocations per steady-state tick" is a measured counter
// instead of a claim: read g_heap_allocs before and after the window
// of interest.
//
// This header *defines* the replacement global operator new/delete,
// so exactly one translation unit per binary may include it (every
// bench binary is a single .cpp).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<uint64_t> g_heap_allocs{0};

// The replaced operator new allocates with malloc, so releasing with
// free is the matched pair here; GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif  // AUTOGLOBE_BENCH_ALLOC_COUNTER_H_
