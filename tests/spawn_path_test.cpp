// Tests for the lock-free spawn hot path: TaskFn small-buffer semantics,
// TaskArena slab reuse, InternTable concurrency, deque ring reclamation,
// and — via a counting global allocator — the claim that steady-state
// spawn() performs zero heap allocations for captures <= kInlineSize.
// The concurrent cases double as TSan targets (see ci.yml's tsan job).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/intern_table.hpp"
#include "counting_allocator.hpp"
#include "obs/service_metrics.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task.hpp"

namespace eewa {
namespace {

// ---------------------------------------------------------------------------
// TaskFn

TEST(TaskFn, SmallCaptureStaysInline) {
  std::array<char, 40> payload{};
  payload[0] = 7;
  int sink = 0;
  int* sink_ptr = &sink;
  const std::uint64_t fallbacks_before =
      rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed);
  const std::uint64_t allocs_before = tl_heap_allocs;
  rt::TaskFn fn([payload, sink_ptr] { *sink_ptr = payload[0]; });
  EXPECT_EQ(tl_heap_allocs, allocs_before) << "inline capture allocated";
  EXPECT_EQ(rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed),
            fallbacks_before);
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(sink, 7);
}

TEST(TaskFn, OversizedCaptureFallsBackToHeap) {
  std::array<char, rt::TaskFn::kInlineSize + 16> big{};
  big[0] = 42;
  int sink = 0;
  int* sink_ptr = &sink;
  const std::uint64_t fallbacks_before =
      rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed);
  rt::TaskFn fn([big, sink_ptr] { *sink_ptr = big[0]; });
  EXPECT_EQ(rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed),
            fallbacks_before + 1);
  fn();
  EXPECT_EQ(sink, 42);
}

TEST(TaskFn, MoveTransfersClosureAndEmptiesSource) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> alive = token;
  int sink = 0;
  int* sink_ptr = &sink;
  rt::TaskFn a([token, sink_ptr] { *sink_ptr = *token; });
  token.reset();
  EXPECT_FALSE(alive.expired());  // closure owns the last reference

  rt::TaskFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(sink, 5);

  rt::TaskFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(sink, 5);
  c = rt::TaskFn();
  EXPECT_TRUE(alive.expired()) << "destroying the TaskFn must run the "
                                  "capture's destructor";
}

// ---------------------------------------------------------------------------
// TaskArena

TEST(TaskArena, ReusesSlabsAcrossReset) {
  rt::TaskArena arena;
  std::atomic<int> runs{0};
  const std::size_t tasks = rt::TaskArena::kSlabTasks * 3 + 7;
  for (std::size_t i = 0; i < tasks; ++i) {
    arena.create(i, [&runs] { runs.fetch_add(1); });
  }
  EXPECT_EQ(arena.size(), tasks);
  const std::size_t slabs = arena.slab_count();
  EXPECT_EQ(slabs, 4u);

  arena.reset();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.slab_count(), slabs) << "reset must keep slabs";

  // Refilling to the same depth must not allocate new slabs, and the
  // task addresses must be stable until the next reset.
  const std::uint64_t allocs_before = tl_heap_allocs;
  rt::Task* first = arena.create(0, [&runs] { runs.fetch_add(1); });
  for (std::size_t i = 1; i < tasks; ++i) {
    arena.create(i, [&runs] { runs.fetch_add(1); });
  }
  EXPECT_EQ(tl_heap_allocs, allocs_before);
  EXPECT_EQ(arena.slab_count(), slabs);
  first->fn();
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskArena, ResetRunsCaptureDestructors) {
  rt::TaskArena arena;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  arena.create(0, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(alive.expired());
  arena.reset();
  EXPECT_TRUE(alive.expired());
}

// ---------------------------------------------------------------------------
// InternTable

TEST(InternTable, AssignsAndFindsIds) {
  core::InternTable table;
  std::size_t next = 0;
  EXPECT_EQ(table.find("a"), core::InternTable::npos);
  EXPECT_EQ(table.intern("a", [&] { return next++; }), 0u);
  EXPECT_EQ(table.intern("b", [&] { return next++; }), 1u);
  EXPECT_EQ(table.intern("a", [&] { return next++; }), 0u)
      << "re-intern must not mint a new id";
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(table.find("b"), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(InternTable, GrowsPastInitialCapacityWithStableIds) {
  core::InternTable table;
  std::size_t next = 0;
  const std::size_t names = 500;  // forces several snapshot rebuilds
  for (std::size_t i = 0; i < names; ++i) {
    EXPECT_EQ(table.intern("class_" + std::to_string(i),
                           [&] { return next++; }),
              i);
  }
  for (std::size_t i = 0; i < names; ++i) {
    EXPECT_EQ(table.find("class_" + std::to_string(i)), i);
  }
  EXPECT_EQ(table.size(), names);
}

// Readers race writers across snapshot rebuilds: every thread interns an
// overlapping window of names while probing already-published ones. Run
// under TSan in CI; the invariant checked here is that concurrent
// interns of the same name agree on one id.
TEST(InternTable, ConcurrentInternAndFindAgree) {
  core::InternTable table;
  std::atomic<std::size_t> next{0};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kNames = 200;
  std::vector<std::array<std::size_t, kNames>> ids(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kNames; ++i) {
        // Stagger per-thread order so writers collide on fresh names.
        const std::size_t n = (i + t * 17) % kNames;
        const std::string name = "cls_" + std::to_string(n);
        ids[t][n] = table.intern(name, [&] { return next.fetch_add(1); });
        // Lock-free probe of a name that must already be published.
        EXPECT_EQ(table.find(name), ids[t][n]);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.size(), kNames);
  for (std::size_t n = 0; n < kNames; ++n) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][n], ids[0][n]) << "divergent id for name " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Deque ring reclamation

TEST(ChaseLevDequeReclaim, FreesRetiredRingsAtQuiescentPoint) {
  rt::ChaseLevDeque<int*> d(4);
  std::vector<int> vals(1000);
  for (auto& v : vals) d.push(&v);
  EXPECT_GT(d.ring_count(), 1u) << "growth must retain retired rings";
  std::size_t popped = 0;
  while (d.pop().has_value()) ++popped;
  EXPECT_EQ(popped, vals.size());

  d.reclaim();
  EXPECT_EQ(d.ring_count(), 1u);

  // The surviving ring is the largest: refilling to the same depth must
  // not grow again, and the deque must still round-trip correctly.
  for (auto& v : vals) d.push(&v);
  EXPECT_EQ(d.ring_count(), 1u);
  EXPECT_EQ(d.steal(), std::optional<int*>(&vals[0]));
  EXPECT_EQ(d.pop(), std::optional<int*>(&vals.back()));
}

// ---------------------------------------------------------------------------
// Runtime spawn path

struct StormCtx {
  rt::Runtime* rt;
  rt::ClassHandle handle;
  std::atomic<std::uint64_t>* leaves;
  std::atomic<std::uint64_t>* worker_allocs;
};

// Binary recursion; each node measures the allocations its own spawns
// make on this worker thread.
void storm_node(const StormCtx& ctx, std::uint32_t depth) {
  if (depth == 0) {
    ctx.leaves->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t before = tl_heap_allocs;
  for (int child = 0; child < 2; ++child) {
    ctx.rt->spawn(ctx.handle,
                  [ctx, depth] { storm_node(ctx, depth - 1); });
  }
  ctx.worker_allocs->fetch_add(tl_heap_allocs - before,
                               std::memory_order_relaxed);
}

rt::RuntimeOptions storm_options(std::size_t workers, rt::SchedulerKind k) {
  rt::RuntimeOptions opt;
  opt.workers = workers;
  opt.kind = k;
  opt.enable_pmc = false;
  return opt;
}

std::vector<rt::TaskDesc> storm_roots(const StormCtx& ctx,
                                      std::size_t roots,
                                      std::uint32_t depth) {
  std::vector<rt::TaskDesc> tasks;
  for (std::size_t r = 0; r < roots; ++r) {
    tasks.push_back(
        rt::TaskDesc{"storm", [ctx, depth] { storm_node(ctx, depth); }});
  }
  return tasks;
}

TEST(SpawnPath, SteadyStateSpawnIsAllocationFree) {
  // One worker: batch 2 then replays batch 1's spawn sequence exactly,
  // so every retained slab and ring is provably large enough. With more
  // workers the steal split varies per batch and a worker can see more
  // spawns than last time, legitimately growing its arena (amortized,
  // not steady-state) — that case is exercised by the stress test below.
  rt::Runtime runtime(storm_options(1, rt::SchedulerKind::kEewa));
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> worker_allocs{0};
  StormCtx ctx{&runtime, runtime.handle("storm"), &leaves, &worker_allocs};
  constexpr std::uint32_t kDepth = 7;
  constexpr std::size_t kRoots = 4;

  // Warmup batch: grows arena slabs, deque rings, and the intern table
  // to steady state. Those allocations are expected and not asserted on.
  runtime.run_batch(storm_roots(ctx, kRoots, kDepth));
  EXPECT_EQ(leaves.load(), kRoots << kDepth);

  // Steady state: identical batch shape, so every spawn must be served
  // from retained slabs and rings with the capture inline — zero heap
  // allocations and zero TaskFn spills on the worker threads.
  leaves.store(0);
  worker_allocs.store(0);
  const std::uint64_t fallbacks_before =
      rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed);
  runtime.run_batch(storm_roots(ctx, kRoots, kDepth));
  EXPECT_EQ(leaves.load(), kRoots << kDepth);
  EXPECT_EQ(worker_allocs.load(), 0u)
      << "steady-state spawn() touched the heap";
  EXPECT_EQ(rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed),
            fallbacks_before);
}

// The service-mode twin: spawn() takes its envelope from the worker's
// recycle list, so a burst that replays the previous one allocates
// nothing inside spawn(). A gate task holds the single worker: the roots
// are submitted once it runs and it is released once all four sit in the
// inbox, so the worker drains them in one chunk, which makes both bursts
// run the same LIFO order and need the same envelopes.
TEST(SpawnPath, ServiceSteadyStateSpawnIsAllocationFree) {
  rt::Runtime runtime(storm_options(1, rt::SchedulerKind::kEewa));
  rt::ServiceOptions so;
  so.classes = {{"storm", 1}, {"gate", 1}};
  so.planner_enabled = false;
  runtime.start_service(so);
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> worker_allocs{0};
  StormCtx ctx{&runtime, runtime.handle("storm"), &leaves, &worker_allocs};
  const rt::ClassHandle gate = runtime.handle("gate");
  constexpr std::uint32_t kDepth = 7;
  constexpr std::size_t kRoots = 4;

  const auto burst = [&] {
    leaves.store(0);
    worker_allocs.store(0);
    std::atomic<bool> gate_running{false};
    std::atomic<bool> gate_open{false};
    const std::uint64_t admitted_before = runtime.service_snapshot().admitted;
    const rt::SubmitResult gated =
        runtime.submit(gate, [&gate_running, &gate_open] {
          gate_running.store(true, std::memory_order_release);
          while (!gate_open.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        });
    ASSERT_EQ(gated, rt::SubmitResult::kQueued);
    // Roots that reached the inbox with the gate would be drained with it
    // and run ahead of it, in an order that varies between bursts.
    while (!gate_running.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (auto& root : storm_roots(ctx, kRoots, kDepth)) {
      ASSERT_EQ(runtime.submit(ctx.handle, std::move(root.fn)),
                rt::SubmitResult::kQueued);
    }
    while (runtime.service_snapshot().admitted < admitted_before + 1 + kRoots) {
      std::this_thread::yield();
    }
    gate_open.store(true, std::memory_order_release);
    ASSERT_TRUE(runtime.drain_service(20.0));
    EXPECT_EQ(leaves.load(), kRoots << kDepth);
  };

  // Warmup burst: grows the recycle list and the deque ring.
  burst();
  const std::uint64_t fallbacks_before =
      rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed);
  burst();
  EXPECT_EQ(worker_allocs.load(), 0u)
      << "steady-state service spawn() touched the heap";
  EXPECT_EQ(rt::TaskFn::heap_fallbacks().load(std::memory_order_relaxed),
            fallbacks_before);
  const obs::EpochReport report = runtime.stop_service();
  EXPECT_EQ(report.spawned, 2 * kRoots * ((1ull << (kDepth + 1)) - 2));
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

// All workers spawning recursively at once, repeatedly; the batch-report
// invariant (every task acquired exactly once) must survive the storm.
// This is the spawn-path stress case the TSan CI job runs.
TEST(SpawnPath, ConcurrentRecursiveSpawnStress) {
  for (const auto kind :
       {rt::SchedulerKind::kCilk, rt::SchedulerKind::kEewa}) {
    rt::Runtime runtime(storm_options(4, kind));
    std::atomic<std::uint64_t> leaves{0};
    std::atomic<std::uint64_t> worker_allocs{0};
    StormCtx ctx{&runtime, runtime.handle("storm"), &leaves,
                 &worker_allocs};
    constexpr std::uint32_t kDepth = 8;
    constexpr std::size_t kRoots = 8;
    const std::uint64_t expected_per_batch =
        kRoots * ((1ull << (kDepth + 1)) - 1);
    for (int batch = 0; batch < 3; ++batch) {
      leaves.store(0);
      runtime.run_batch(storm_roots(ctx, kRoots, kDepth));
      EXPECT_EQ(leaves.load(), kRoots << kDepth);
      const auto& report = runtime.last_batch_report();
      EXPECT_EQ(report.tasks, expected_per_batch);
      EXPECT_EQ(report.acquires(), report.tasks)
          << "batch " << batch << ": acquire invariant broken";
      EXPECT_EQ(report.spawns, expected_per_batch - kRoots);
    }
    EXPECT_EQ(runtime.tasks_run(), 3 * expected_per_batch);
  }
}

TEST(SpawnPath, HandleAndNameSpawnAgreeOnClassIdentity) {
  rt::Runtime runtime(storm_options(1, rt::SchedulerKind::kCilk));
  const rt::ClassHandle h = runtime.handle("same_class");
  EXPECT_EQ(h.id, runtime.handle("same_class").id);
  EXPECT_EQ(h.id, runtime.class_id("same_class"));
  std::atomic<int> by_name{0};
  std::atomic<int> by_handle{0};
  std::vector<rt::TaskDesc> tasks;
  tasks.push_back(rt::TaskDesc{"same_class", [&runtime, h, &by_name,
                                              &by_handle] {
    runtime.spawn("same_class", [&by_name] { by_name.fetch_add(1); });
    runtime.spawn(h, [&by_handle] { by_handle.fetch_add(1); });
  }});
  runtime.run_batch(std::move(tasks));
  EXPECT_EQ(by_name.load(), 1);
  EXPECT_EQ(by_handle.load(), 1);
  // One class, three executions of it.
  const auto& report = runtime.last_batch_report();
  ASSERT_GT(report.classes.size(), h.id);
  EXPECT_EQ(report.classes[h.id].count, 3u);
}

TEST(SpawnPath, SpawnOutsideWorkerThrows) {
  rt::Runtime runtime(storm_options(1, rt::SchedulerKind::kCilk));
  EXPECT_THROW(runtime.spawn("c", [] {}), std::logic_error);
}

}  // namespace
}  // namespace eewa
