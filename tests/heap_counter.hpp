// Process-wide heap-allocation counter for the steady-state allocation
// regressions. Linking heap_counter.cpp into a test binary replaces the global
// operator new/delete family with counting versions (the only way to observe
// a library-internal heap allocation from a test). The replacements live in
// their own translation unit so the compiler never inlines the malloc/free
// bodies into call sites of new/delete.
#pragma once

#include <cstdint>

namespace tcevd::test {

/// Heap allocations made through any operator new since process start.
std::uint64_t heap_allocs() noexcept;

}  // namespace tcevd::test
