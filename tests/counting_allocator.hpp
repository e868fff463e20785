// Counting global allocator for the allocation tests. Every scalar new in
// the binary bumps a thread-local counter, so a test measures exactly the
// allocations made on its own thread between two points, unpolluted by
// other threads' bookkeeping:
//
//   const std::uint64_t before = tl_heap_allocs;
//   ...                                    // the code under test
//   EXPECT_EQ(tl_heap_allocs, before);
//
// The replacements below are definitions: include this header from
// exactly one translation unit of a test binary.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t tl_heap_allocs = 0;
}  // namespace

// GCC 12 reports -Wmismatched-new-delete where it inlines the malloc
// below or calls std::free directly in a replacement; with this new and
// one delete out of line, and the other forms forwarding to them, the
// binary builds clean.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++tl_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort's temporary buffer (MachineTopology's row sort) comes
// from the nothrow form: route it through the same counter and malloc,
// or a sanitizer build pairs its own allocation with this free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
