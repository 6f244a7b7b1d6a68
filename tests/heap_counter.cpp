#include "heap_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

std::uint64_t tcevd::test::heap_allocs() noexcept {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned and nothrow paths: without these the default implementations
// would take library allocations past g_heap_allocs, silently under-counting
// the regressions.
void* operator new(std::size_t sz, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      static_cast<std::size_t>(al) < sizeof(void*) ? sizeof(void*)
                                                   : static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, align, sz ? sz : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) { return ::operator new(sz, al); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(sz ? sz : 1);
}
void* operator new[](std::size_t sz, const std::nothrow_t& tag) noexcept {
  return ::operator new(sz, tag);
}
void* operator new(std::size_t sz, std::align_val_t al, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      static_cast<std::size_t>(al) < sizeof(void*) ? sizeof(void*)
                                                   : static_cast<std::size_t>(al);
  void* p = nullptr;
  return posix_memalign(&p, align, sz ? sz : 1) == 0 ? p : nullptr;
}
void* operator new[](std::size_t sz, std::align_val_t al, const std::nothrow_t& tag) noexcept {
  return ::operator new(sz, al, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
