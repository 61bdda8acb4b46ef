// Counting-allocator test hook for the zero-allocation assertions
// (docs/DESIGN.md §11).  Usage: a test or bench binary #defines
// INSP_DEFINE_COUNTING_ALLOCATOR in exactly ONE of its .cpp files *before*
// including this header; that TU then provides replacement global
// operator new/delete which bump an atomic counter on every allocation.
// Binaries that never define the macro get only the (always-zero-delta)
// counter accessors and pay nothing.
//
// The counter counts ALLOCATIONS, not frees or bytes: the steady-state
// claim being tested is "this loop never calls operator new", so a
// before/after delta of allocations() is the whole measurement.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace insp::alloc_counter {

inline std::atomic<long long> g_allocations{0};

inline long long allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void bump() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}

} // namespace insp::alloc_counter

#if defined(INSP_DEFINE_COUNTING_ALLOCATOR)

void* operator new(std::size_t size) {
  insp::alloc_counter::bump();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  insp::alloc_counter::bump();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  insp::alloc_counter::bump();
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}

// The nothrow forms are replaced too: std::stable_sort's temporary buffer
// comes from them, and under AddressSanitizer an unreplaced nothrow new
// would hand the replaced delete memory that free() must not release.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  insp::alloc_counter::bump();
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  insp::alloc_counter::bump();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // INSP_DEFINE_COUNTING_ALLOCATOR
