// Allocation-freedom checks for the fleet hot loop and the batch
// boundary, via the counting global allocator the allocation tests share
// (counting_allocator.hpp): the callable form of
// ArrivalStream::drain_until (the fleet's router) never allocates, and
// once the reused buffers reach their high-water capacity, an epoch's
// worth of the vector form must perform zero heap allocations. The EEWA
// batch boundary (profile, CC table, search, carve, preference lists,
// supervised actuation) plans without allocating once the shapes repeat,
// and a simulated EEWA batch (Machine::run_batch) allocates only to grow
// the retained rung history. A Machine with more cores than its event
// key can index is rejected before it allocates.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/eewa_controller.hpp"
#include "counting_allocator.hpp"
#include "sim/fleet.hpp"
#include "sim/machine.hpp"
#include "sim/policies.hpp"
#include "trace/arrivals.hpp"
#include "trace/synthetic.hpp"

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

// --- batch boundary -----------------------------------------------------------

/// Feed one batch of a fixed three-class profile (8 heavy, 16 medium,
/// 64 light tasks, all run at F0) into `ctrl`; `spiked` names the class
/// whose first task runs 20 % long this batch (its per-batch max then
/// drifts past the reuse tolerance), or -1 for none.
void feed_batch(core::EewaController& ctrl, const std::size_t (&ids)[3],
                int spiked) {
  constexpr double kWork[3] = {2e-3, 5e-4, 1e-4};
  constexpr std::size_t kCount[3] = {8, 16, 64};
  ctrl.begin_batch();
  for (int c = 0; c < 3; ++c) {
    for (std::size_t t = 0; t < kCount[c]; ++t) {
      const double w = c == spiked && t == 0 ? kWork[c] * 1.2 : kWork[c];
      ctrl.record_task(ids[c], w, /*rung=*/0);
    }
  }
}

TEST(BatchBoundaryAlloc, PlanAndActuateAreAllocFreeOnceShapesRepeat) {
  // The controller plans with the backtracking searcher (the batch-mode
  // default) and actuates through the simulated machine's DVFS backend,
  // which allocates nothing itself. One cycle of five batches covers
  // every planning path: a spike on the heaviest class forces a full
  // re-plan (and so does its return), an unchanged batch reuses the
  // plan, and a spike on the lightest class re-plans only the suffix.
  sim::SimOptions opt;
  opt.cores = 16;
  sim::Machine machine(opt);
  sim::MachineDvfsBackend backend(machine);
  core::EewaController ctrl(machine.ladder(), machine.cores());
  const std::size_t ids[3] = {ctrl.class_id("heavy_boundary_class"),
                              ctrl.class_id("medium_boundary_class"),
                              ctrl.class_id("light")};
  constexpr int kCycle[5] = {0, -1, -1, 2, -1};
  constexpr double kMakespanS = 4e-3;
  const auto run_batch = [&](int spiked) {
    feed_batch(ctrl, ids, spiked);
    ctrl.end_batch(kMakespanS);
    ctrl.apply_supervised(backend);
  };
  run_batch(-1);  // measurement batch: T = 4 ms
  for (int warm = 0; warm < 2; ++warm) {
    for (int spiked : kCycle) run_batch(spiked);
  }

  const std::size_t reused0 = ctrl.plans_reused();
  const std::size_t incremental0 = ctrl.plans_incremental();
  std::size_t batches = 0;
  std::size_t full = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int spiked : kCycle) {
      const std::size_t reused = ctrl.plans_reused();
      const std::size_t incremental = ctrl.plans_incremental();
      const std::uint64_t before = tl_heap_allocs;
      run_batch(spiked);
      EXPECT_EQ(tl_heap_allocs - before, 0u)
          << "batch " << batches << " (spiked class " << spiked << ")";
      if (ctrl.plans_reused() == reused &&
          ctrl.plans_incremental() == incremental) {
        ++full;
      }
      ++batches;
    }
  }
  // Premise: every planning path ran inside the measured window.
  EXPECT_GT(full, 0u);
  EXPECT_GT(ctrl.plans_reused() - reused0, 0u);
  EXPECT_GT(ctrl.plans_incremental() - incremental0, 0u);
  EXPECT_TRUE(ctrl.plan().planned);
  EXPECT_TRUE(ctrl.last_actuation().ok());
  EXPECT_FALSE(ctrl.degraded());
}

TEST(BatchBoundaryAlloc, TypedPlanningIsAllocFreeOnceShapesRepeat) {
  // The same cycle on a big.LITTLE machine: the typed table's searches
  // and carve count usage per core pool, in per-thread scratch.
  auto topo = std::make_shared<const core::MachineTopology>(
      core::MachineTopology::big_little());
  sim::SimOptions opt;
  opt.cores = topo->total_cores();
  opt.topology = topo;
  sim::Machine machine(opt);
  sim::MachineDvfsBackend backend(machine);
  core::ControllerOptions copts;
  copts.adjuster.topology = topo;
  core::EewaController ctrl(machine.ladder(), machine.cores(), copts);
  const std::size_t ids[3] = {ctrl.class_id("heavy_boundary_class"),
                              ctrl.class_id("medium_boundary_class"),
                              ctrl.class_id("light")};
  constexpr int kCycle[5] = {0, -1, -1, 2, -1};
  constexpr double kMakespanS = 12e-3;
  const auto run_batch = [&](int spiked) {
    feed_batch(ctrl, ids, spiked);
    ctrl.end_batch(kMakespanS);
    ctrl.apply_supervised(backend);
  };
  run_batch(-1);
  for (int warm = 0; warm < 2; ++warm) {
    for (int spiked : kCycle) run_batch(spiked);
  }

  const std::size_t reused0 = ctrl.plans_reused();
  const std::size_t incremental0 = ctrl.plans_incremental();
  std::size_t batches = 0;
  std::size_t full = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int spiked : kCycle) {
      const std::size_t reused = ctrl.plans_reused();
      const std::size_t incremental = ctrl.plans_incremental();
      const std::uint64_t before = tl_heap_allocs;
      run_batch(spiked);
      EXPECT_EQ(tl_heap_allocs - before, 0u)
          << "batch " << batches << " (spiked class " << spiked << ")";
      if (ctrl.plans_reused() == reused &&
          ctrl.plans_incremental() == incremental) {
        ++full;
      }
      ++batches;
    }
  }
  // Premise: every planning path ran inside the measured window, on a
  // plan that runs classes on both clusters.
  const dvfs::CGroupLayout& layout = ctrl.plan().layout;
  bool big = false;
  bool little = false;
  for (const std::size_t id : ids) {
    const std::size_t type = layout.group(layout.group_of_class(id)).core_type;
    (type == 0 ? big : little) = true;
  }
  EXPECT_TRUE(big && little);
  EXPECT_GT(full, 0u);
  EXPECT_GT(ctrl.plans_reused() - reused0, 0u);
  EXPECT_GT(ctrl.plans_incremental() - incremental0, 0u);
  EXPECT_TRUE(ctrl.plan().planned);
  EXPECT_TRUE(ctrl.last_actuation().ok());
  EXPECT_FALSE(ctrl.degraded());
}

TEST(BatchBoundaryAlloc, SimulatedEewaBatchesOnlyGrowTheRungHistory) {
  // A whole simulated batch — plan, actuate, pools, event heap, energy —
  // under EewaPolicy, half its tasks released mid-batch (inject and wake
  // events). With keep_batch_stats off, the only allocations left over
  // 1,000 steady batches are the geometric growth of the policy's
  // retained per-batch rung history.
  trace::SyntheticSpec spec;
  spec.classes = {{"heavy_boundary_class", 4, 2e-3, 0.3, 0.0, 0.0},
                  {"medium_boundary_class", 12, 5e-4, 0.4, 0.0, 0.2},
                  {"light", 30, 1e-4, 0.5, 0.0, 0.05}};
  spec.batches = 1100;
  spec.release_window_s = 1e-3;
  spec.seed = 5;
  auto trace = trace::generate(spec);
  for (auto& b : trace.batches) {
    for (std::size_t i = 0; i < b.tasks.size(); i += 2) {
      b.tasks[i].release_s = 0.0;
    }
  }
  sim::SimOptions opt;
  opt.cores = 16;
  opt.fixed_adjuster_overhead_s = 50e-6;
  opt.keep_batch_stats = false;
  sim::Machine machine(opt);
  sim::EewaPolicy policy(trace.class_names);
  constexpr std::size_t kWarmup = 100;
  double now = 0.0;
  for (std::size_t b = 0; b < kWarmup; ++b) {
    now = machine.run_batch(policy, trace.batches[b], now);
  }
  const std::uint64_t before = tl_heap_allocs;
  for (std::size_t b = kWarmup; b < trace.batches.size(); ++b) {
    now = machine.run_batch(policy, trace.batches[b], now);
  }
  const std::uint64_t allocs = tl_heap_allocs - before;
  EXPECT_LT(allocs, 20u) << "over " << trace.batches.size() - kWarmup
                         << " batches";
  EXPECT_EQ(machine.total_completed(), trace.task_count());
  EXPECT_EQ(policy.planned_rungs().size(), trace.batches.size());
}

// One core past Machine::kMaxCores would need gigabytes of per-core
// state, so the check must come before any of it: the one allocation
// allowed is the exception's own message.
TEST(MachineLimits, RejectsTooManyCoresBeforeAllocating) {
  sim::SimOptions opts;
  opts.cores = sim::Machine::kMaxCores + 1;
  const std::uint64_t before = tl_heap_allocs;
  EXPECT_THROW(sim::Machine{opts}, std::invalid_argument);
  EXPECT_LE(tl_heap_allocs - before, 1u);
  // A machine of 0 cores is rejected on the same path.
  opts.cores = 0;
  const std::uint64_t before_zero = tl_heap_allocs;
  EXPECT_THROW(sim::Machine{opts}, std::invalid_argument);
  EXPECT_LE(tl_heap_allocs - before_zero, 1u);
}

}  // namespace
}  // namespace eewa
