// Open-loop service mode: ingress rings, admission policies, the
// sliding profile, end-to-end conservation (offered == admitted + shed +
// deferred + pending, admitted + spawned == executed + in_flight),
// overload shedding and recovery, async re-planning, and the deep-sleep
// arrival-wakeup latency bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/core_type.hpp"
#include "dvfs/fault_backend.hpp"
#include "dvfs/trace_backend.hpp"
#include "obs/service_metrics.hpp"
#include "runtime/ingress.hpp"
#include "runtime/runtime.hpp"
#include "runtime/service.hpp"
#include "util/fast_clock.hpp"

// Latency assertions get extra headroom under sanitizer instrumentation.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define EEWA_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define EEWA_TEST_SANITIZED 1
#endif
#endif
#ifndef EEWA_TEST_SANITIZED
#define EEWA_TEST_SANITIZED 0
#endif

namespace eewa::rt {
namespace {

constexpr bool kSanitized = EEWA_TEST_SANITIZED != 0;

TEST(IngressRing, MpscPushPopFifoAndFull) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(int(i)));
  EXPECT_FALSE(q.push(99));  // full: fails, never blocks or grows
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.pop(out));
  // Slots recycle after consumption.
  EXPECT_TRUE(q.push(7));
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
}

TEST(IngressRing, MpscManyProducersLoseNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kEach = 5000;
  BoundedMpscQueue<std::uint64_t> q(1024);
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kEach; ++i) {
        const std::uint64_t v = p * kEach + i;
        if (!q.push(std::uint64_t(v))) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::set<std::uint64_t> seen;
  std::uint64_t out = 0;
  std::size_t spins = 0;
  while (seen.size() + rejected.load() < kProducers * kEach &&
         spins < 100000000) {
    if (q.pop(out)) {
      EXPECT_TRUE(seen.insert(out).second) << "duplicate " << out;
    } else {
      ++spins;
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  while (q.pop(out)) EXPECT_TRUE(seen.insert(out).second);
  // Everything was either consumed exactly once or rejected at the full
  // ring — nothing lost, nothing duplicated.
  EXPECT_EQ(seen.size() + rejected.load(), kProducers * kEach);
}

TEST(IngressRing, SpscOrderAndCapacity) {
  SpscRing<int> r(3);  // rounds up to 4
  EXPECT_EQ(r.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.push(int(i)));
  EXPECT_FALSE(r.push(5));
  int out = -1;
  ASSERT_TRUE(r.pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(r.push(5));
  for (int want : {1, 2, 3, 5}) {
    ASSERT_TRUE(r.pop(out));
    EXPECT_EQ(out, want);
  }
}

// size_approx() is read off the consumer thread (drain_service polls it
// from the caller, idle parkers from their own threads) while the
// dispatcher pops: under TSan this is the ingress ring's race check.
TEST(IngressRing, SizeApproxWhileConsumerPops) {
  constexpr std::uint64_t kItems = 20000;
  BoundedMpscQueue<std::uint64_t> q(256);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> popped{0};
  std::thread consumer([&] {
    std::uint64_t out = 0;
    while (!done.load(std::memory_order_acquire) || q.size_approx() > 0) {
      if (q.pop(out)) popped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::uint64_t pushed = 0;
  std::size_t max_seen = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    if (q.push(std::uint64_t(i))) ++pushed;
    max_seen = std::max(max_seen, q.size_approx());
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_LE(max_seen, q.capacity());
  EXPECT_EQ(popped.load(), pushed);
  EXPECT_EQ(q.size_approx(), 0u);
}

TEST(Admission, ShedLowestSlaThresholdsAreTiered) {
  // Three tiers over capacity 100, watermark 50: bronze (2) sheds at 50,
  // silver (1) at 75, gold (0) never.
  AdmissionController ac(AdmissionPolicy::kShedLowestSla, {0, 1, 2}, 50,
                         100);
  EXPECT_EQ(ac.shed_threshold(2), 50u);
  EXPECT_EQ(ac.shed_threshold(1), 75u);
  EXPECT_EQ(ac.shed_threshold(0), AdmissionController::kNeverShed);
  using D = AdmissionController::Decision;
  EXPECT_EQ(ac.decide(2, 49), D::kAdmit);
  EXPECT_EQ(ac.decide(2, 50), D::kShed);
  EXPECT_EQ(ac.decide(1, 50), D::kAdmit);
  EXPECT_EQ(ac.decide(1, 75), D::kShed);
  EXPECT_EQ(ac.decide(0, 1000000), D::kAdmit);
}

TEST(Admission, BlockNeverSheds) {
  AdmissionController ac(AdmissionPolicy::kBlock, {1, 2}, 10, 20);
  using D = AdmissionController::Decision;
  EXPECT_EQ(ac.decide(0, 1000000), D::kAdmit);
  EXPECT_EQ(ac.decide(1, 1000000), D::kAdmit);
}

TEST(Admission, ShedOldestEvictsAboveWatermark) {
  AdmissionController ac(AdmissionPolicy::kShedOldest, {1}, 10, 20);
  using D = AdmissionController::Decision;
  EXPECT_EQ(ac.decide(0, 9), D::kAdmit);
  EXPECT_EQ(ac.decide(0, 10), D::kEvictOldest);
}

TEST(SlidingProfile, WindowAgesOutOldEpochs) {
  SlidingProfile sp(2, 1);
  sp.record(0, 10.0, 0.0);
  auto p = sp.profile();
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0].mean_workload, 10.0);
  sp.rotate();
  sp.record(0, 2.0, 0.0);
  p = sp.profile();  // window holds both epochs
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0].mean_workload, 6.0);
  EXPECT_EQ(p[0].count, 2u);
  sp.rotate();  // the 10.0 epoch ages out
  p = sp.profile();
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0].mean_workload, 2.0);
  sp.rotate();  // everything ages out
  EXPECT_TRUE(sp.profile().empty());
}

TEST(SlidingProfile, SortedByMeanWorkloadDescending) {
  SlidingProfile sp(4, 3);
  sp.record(0, 1.0, 0.0);
  sp.record(1, 5.0, 0.0);
  sp.record(2, 3.0, 0.0);
  auto p = sp.profile();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].class_id, 1u);
  EXPECT_EQ(p[1].class_id, 2u);
  EXPECT_EQ(p[2].class_id, 0u);
}

RuntimeOptions small_options(std::size_t workers) {
  RuntimeOptions opts;
  opts.workers = workers;
  opts.kind = SchedulerKind::kEewa;
  opts.enable_pmc = false;
  return opts;
}

TEST(ServiceMode, ExecutesEverythingAndReconcilesExactly) {
  Runtime rt(small_options(4));
  ServiceOptions so;
  so.classes = {{"alpha", 1}, {"beta", 2}};
  so.epoch_s = 0.002;
  rt.start_service(so);
  EXPECT_TRUE(rt.service_active());

  std::atomic<std::uint64_t> ran{0};
  const ClassHandle a = rt.handle("alpha");
  const ClassHandle b = rt.handle("beta");
  constexpr std::size_t kTasks = 20000;
  std::size_t queued = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    const SubmitResult res =
        rt.submit(i % 2 ? a : b,
                  TaskFn([&ran] {
                    ran.fetch_add(1, std::memory_order_relaxed);
                  }),
                  i);
    if (res == SubmitResult::kQueued) ++queued;
  }
  ASSERT_TRUE(rt.drain_service(20.0));
  const obs::EpochReport report = rt.stop_service();
  EXPECT_FALSE(rt.service_active());

  // Everything queued ran; after the drain every identity is exact.
  EXPECT_EQ(report.offered, kTasks);
  EXPECT_EQ(report.executed + report.shed + report.deferred, kTasks);
  EXPECT_EQ(ran.load(), report.executed);
  EXPECT_EQ(report.pending, 0u);
  EXPECT_EQ(report.in_flight, 0u);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
  // acquires() == executed once quiescent (the BatchReport invariant).
  EXPECT_EQ(report.acquires(), report.executed);
  // Per-class conservation.
  ASSERT_EQ(report.classes.size(), 2u);
  for (const auto& c : report.classes) {
    EXPECT_EQ(c.offered, c.admitted + c.shed + c.deferred);
    EXPECT_EQ(c.admitted, c.executed);
  }
}

TEST(ServiceMode, SubmitOutsideServiceIsStopped) {
  Runtime rt(small_options(2));
  EXPECT_EQ(rt.submit("x", TaskFn([] {})), SubmitResult::kStopped);
}

TEST(ServiceMode, UndeclaredClassThrows) {
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"declared", 1}};
  rt.start_service(so);
  EXPECT_THROW(rt.submit("undeclared", TaskFn([] {})),
               std::invalid_argument);
  rt.stop_service();
}

TEST(ServiceMode, RunBatchWhileServingThrows) {
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"c", 1}};
  rt.start_service(so);
  EXPECT_THROW(rt.run_batch({}), std::logic_error);
  rt.stop_service();
  // Batch mode works again after the service stops.
  std::atomic<int> ran{0};
  std::vector<TaskDesc> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(TaskDesc{"c", TaskFn([&ran] { ++ran; })});
  }
  rt.run_batch(std::move(batch));
  EXPECT_EQ(ran.load(), 64);
}

TEST(ServiceMode, OverloadShedsPerPolicyAndRecovers) {
  // 2 workers, slow tasks, tiny ring: offered rate is far above
  // capacity, so the bronze class must shed while gold only ever gets
  // backpressure. When the storm passes, shedding stops.
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"gold", 0}, {"bronze", 2}};
  so.queue_capacity = 64;
  so.inbox_capacity = 16;
  so.high_watermark = 16;
  so.policy = AdmissionPolicy::kShedLowestSla;
  so.epoch_s = 0.002;
  rt.start_service(so);
  const ClassHandle gold = rt.handle("gold");
  const ClassHandle bronze = rt.handle("bronze");

  const auto busy = [] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  std::size_t gold_shed = 0;
  std::size_t bronze_shed = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    if (rt.submit(gold, TaskFn(busy)) == SubmitResult::kShed) ++gold_shed;
    if (rt.submit(bronze, TaskFn(busy)) == SubmitResult::kShed) {
      ++bronze_shed;
    }
  }
  ASSERT_TRUE(rt.drain_service(30.0));
  const obs::EpochReport mid = rt.service_snapshot();
  EXPECT_EQ(gold_shed, 0u);  // gold never sheds, it backpressures
  ASSERT_EQ(mid.classes.size(), 2u);
  EXPECT_EQ(mid.classes[gold.id].shed, 0u);
  EXPECT_GT(mid.classes[bronze.id].shed, 0u);
  // Shedding only engages above the watermark.
  EXPECT_GE(mid.queue_depth_hwm, so.high_watermark);

  // Recovery: light load after the storm sheds nothing.
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rt.submit(bronze, TaskFn([] {})), SubmitResult::kQueued);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(rt.drain_service(10.0));
  const obs::EpochReport after = rt.stop_service();
  EXPECT_EQ(after.classes[bronze.id].shed, mid.classes[bronze.id].shed);
  EXPECT_EQ(after.reconcile_slack(), 0u) << after.to_string();
}

TEST(ServiceMode, ShedOldestNeverEvictsGold) {
  // Regression for a fuzz-found bug (service seed 102): kShedOldest used
  // to evict staging.front() regardless of SLA, dropping never-shed
  // tasks. Tier 0 must survive sustained overload under every policy.
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"gold", 0}, {"bronze", 2}};
  so.queue_capacity = 64;
  so.inbox_capacity = 16;
  so.high_watermark = 16;
  so.policy = AdmissionPolicy::kShedOldest;
  so.epoch_s = 0.002;
  rt.start_service(so);
  const ClassHandle gold = rt.handle("gold");
  const ClassHandle bronze = rt.handle("bronze");

  const auto busy = [] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  std::size_t gold_submit_shed = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    if (rt.submit(gold, TaskFn(busy)) == SubmitResult::kShed) {
      ++gold_submit_shed;
    }
    rt.submit(bronze, TaskFn(busy));
  }
  ASSERT_TRUE(rt.drain_service(30.0));
  const obs::EpochReport report = rt.stop_service();
  EXPECT_EQ(gold_submit_shed, 0u);
  ASSERT_EQ(report.classes.size(), 2u);
  EXPECT_EQ(report.classes[gold.id].shed, 0u);
  EXPECT_GT(report.classes[bronze.id].shed, 0u);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

TEST(ServiceMode, BlockPolicyBackpressuresInsteadOfShedding) {
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"c", 1}};
  so.queue_capacity = 32;
  so.inbox_capacity = 8;
  so.policy = AdmissionPolicy::kBlock;
  rt.start_service(so);
  const ClassHandle c = rt.handle("c");
  const auto busy = [] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(500);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  std::size_t deferred = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    const SubmitResult res = rt.submit(c, TaskFn(busy));
    ASSERT_NE(res, SubmitResult::kShed);
    if (res == SubmitResult::kBackpressure) ++deferred;
  }
  EXPECT_GT(deferred, 0u);
  ASSERT_TRUE(rt.drain_service(30.0));
  const obs::EpochReport report = rt.stop_service();
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.deferred, deferred);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

TEST(ServiceMode, ShedHookSeesEveryShedTagExactlyOnce) {
  Runtime rt(small_options(2));
  std::mutex mu;
  std::set<std::uint64_t> shed_tags;
  ServiceOptions so;
  so.classes = {{"c", 1}};
  so.queue_capacity = 32;
  so.inbox_capacity = 8;
  so.high_watermark = 8;
  so.policy = AdmissionPolicy::kShedOldest;
  so.shed_hook = [&](std::size_t, std::uint64_t tag) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(shed_tags.insert(tag).second) << "tag shed twice: " << tag;
  };
  rt.start_service(so);
  const ClassHandle c = rt.handle("c");
  std::mutex ran_mu;
  std::set<std::uint64_t> ran_tags;
  const auto busy = [&](std::uint64_t tag) {
    return TaskFn([&ran_mu, &ran_tags, tag] {
      {
        std::lock_guard<std::mutex> lock(ran_mu);
        ran_tags.insert(tag);
      }
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(100);
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  };
  for (std::uint64_t tag = 0; tag < 20000; ++tag) {
    rt.submit(c, busy(tag), tag);
  }
  ASSERT_TRUE(rt.drain_service(30.0));
  const obs::EpochReport report = rt.stop_service();
  // The overload oracle: no task both shed and executed, and together
  // with backpressure they cover everything offered.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_GT(shed_tags.size(), 0u);
  EXPECT_EQ(shed_tags.size(), report.shed);
  for (std::uint64_t tag : shed_tags) {
    EXPECT_EQ(ran_tags.count(tag), 0u) << "tag both shed and run: " << tag;
  }
  EXPECT_EQ(ran_tags.size() + shed_tags.size() + report.deferred,
            report.offered);
}

TEST(ServiceMode, SpawnedTasksAreCountedAndRun) {
  Runtime rt(small_options(4));
  ServiceOptions so;
  so.classes = {{"parent", 1}, {"child", 1}};
  rt.start_service(so);
  const ClassHandle parent = rt.handle("parent");
  const ClassHandle child = rt.handle("child");
  std::atomic<std::uint64_t> children{0};
  Runtime* rtp = &rt;
  for (std::size_t i = 0; i < 500; ++i) {
    rt.submit(parent, TaskFn([rtp, child, &children] {
                rtp->spawn(child, TaskFn([&children] {
                             children.fetch_add(
                                 1, std::memory_order_relaxed);
                           }));
              }));
  }
  ASSERT_TRUE(rt.drain_service(20.0));
  const obs::EpochReport report = rt.stop_service();
  EXPECT_EQ(children.load(), 500u);
  EXPECT_EQ(report.spawned, 500u);
  EXPECT_EQ(report.executed, report.admitted + report.spawned);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

// Service mode counts steal probes and failed sweeps through the same
// sink path batch mode uses, so the two modes' steal hit rates compare.
TEST(ServiceMode, StealProbesCoverEveryStealAndRob) {
  Runtime rt(small_options(4));
  ServiceOptions so;
  so.classes = {{"parent", 1}, {"child", 1}};
  rt.start_service(so);
  const ClassHandle parent = rt.handle("parent");
  const ClassHandle child = rt.handle("child");
  std::atomic<std::uint64_t> children{0};
  Runtime* rtp = &rt;
  // Each parent fans out onto its own worker's deque: idle peers steal.
  for (std::size_t i = 0; i < 200; ++i) {
    rt.submit(parent, TaskFn([rtp, child, &children] {
                for (int c = 0; c < 16; ++c) {
                  rtp->spawn(child, TaskFn([&children] {
                               children.fetch_add(
                                   1, std::memory_order_relaxed);
                             }));
                }
              }));
  }
  ASSERT_TRUE(rt.drain_service(20.0));
  const obs::EpochReport report = rt.stop_service();
  EXPECT_EQ(children.load(), report.spawned);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
  EXPECT_GE(report.probes, report.steals + report.robs)
      << report.to_string();
}

TEST(ServiceMode, PlannerPublishesEpochsAndRecordsReports) {
  Runtime rt(small_options(4));
  ServiceOptions so;
  so.classes = {{"heavy", 1}, {"light", 1}};
  so.epoch_s = 0.001;  // fast epochs so a short test sees several
  rt.start_service(so);
  const ClassHandle heavy = rt.handle("heavy");
  const ClassHandle light = rt.handle("light");
  const auto until_us = [](std::int64_t us) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
             .count() < 0.25) {
    rt.submit(heavy, TaskFn([&] { until_us(80); }));
    rt.submit(light, TaskFn([&] { until_us(10); }));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(rt.drain_service(20.0));
  EXPECT_GT(rt.plan_epochs_published(), 2u);
  rt.stop_service();
  const auto reports = rt.epoch_reports();
  EXPECT_GT(reports.size(), 2u);
  std::uint64_t delta_sum = 0;
  for (const auto& r : reports) delta_sum += r.executed;
  EXPECT_GT(delta_sum, 0u);
  // Planner health exists and saw no degradation on a healthy backend.
  EXPECT_FALSE(rt.service_health().degraded);
}

TEST(ServiceMode, StalenessWatchdogDegradesToUniform) {
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"c", 1}};
  so.epoch_s = 0.001;
  // Impossible staleness bound: every publish gap exceeds it, so the
  // strike counter must escalate into degraded mode almost immediately.
  so.max_staleness_epochs = 0;
  so.max_staleness_strikes = 2;
  rt.start_service(so);
  const ClassHandle c = rt.handle("c");
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
             .count() < 0.2) {
    rt.submit(c, TaskFn([] {}));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(rt.drain_service(10.0));
  const obs::EpochReport report = rt.stop_service();
  const core::HealthReport health = rt.service_health();
  EXPECT_TRUE(health.degraded);
  EXPECT_GE(health.degradations, 1u);
  EXPECT_GT(report.staleness_events, 0u);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

TEST(ServiceMode, StuckCoreReconcilesThenDegrades) {
  // The last core never leaves F0, while a light load makes every plan
  // park cores at slower rungs: each epoch's actuation misses a target.
  // The planner must reconcile every miss, degrade after the watchdog's
  // consecutive-failure threshold (3 by default), report the core stuck,
  // and still drain with exact accounting.
  constexpr std::size_t kWorkers = 4;
  RuntimeOptions opts = small_options(kWorkers);
  dvfs::TraceBackend inner(opts.ladder, kWorkers);
  dvfs::FaultSpec spec;
  spec.stuck_cores = {kWorkers - 1};
  dvfs::FaultInjectingBackend faulty(inner, spec);
  opts.backend = &faulty;
  Runtime rt(opts);
  ServiceOptions so;
  so.classes = {{"light", 1}};
  so.epoch_s = 0.002;
  // Only actuation failures may degrade this run, not host stalls.
  so.max_staleness_strikes = 1000;
  rt.start_service(so);
  const ClassHandle light = rt.handle("light");
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
             .count() < 0.2) {
    rt.submit(light, TaskFn([] {}));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(rt.drain_service(10.0));
  const obs::EpochReport report = rt.stop_service();
  const core::HealthReport health = rt.service_health();
  EXPECT_GE(health.reconciliations, 3u) << health.to_string();
  EXPECT_GE(health.failed_cores, 3u) << health.to_string();
  EXPECT_TRUE(health.degraded) << health.to_string();
  EXPECT_EQ(health.degradations, 1u) << health.to_string();
  EXPECT_GE(health.stuck_cores, 1u) << health.to_string();
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

TEST(ServiceMode, BigLittleServiceDrainsAndReconciles) {
  // Service mode on a typed machine: the planner normalizes each
  // worker's records by its own core type and plans over the typed CC
  // table.
  auto topo = std::make_shared<const core::MachineTopology>(
      core::MachineTopology::big_little());
  RuntimeOptions opts = small_options(topo->total_cores());
  opts.controller.adjuster.topology = topo;
  Runtime rt(opts);
  ServiceOptions so;
  so.classes = {{"heavy", 1}, {"light", 2}};
  so.epoch_s = 0.002;
  rt.start_service(so);
  const ClassHandle heavy = rt.handle("heavy");
  const ClassHandle light = rt.handle("light");
  std::atomic<std::uint64_t> ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
             .count() < 0.15) {
    for (const ClassHandle h : {heavy, light}) {
      rt.submit(h, TaskFn([&ran] {
                  ran.fetch_add(1, std::memory_order_relaxed);
                }));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(rt.drain_service(20.0));
  EXPECT_GT(rt.plan_epochs_published(), 2u);
  const obs::EpochReport report = rt.stop_service();
  EXPECT_EQ(ran.load(), report.executed);
  EXPECT_EQ(report.pending, 0u);
  EXPECT_EQ(report.in_flight, 0u);
  EXPECT_EQ(report.reconcile_slack(), 0u) << report.to_string();
}

TEST(ServiceMode, RestartAfterStopServesAgain) {
  Runtime rt(small_options(2));
  for (int round = 0; round < 2; ++round) {
    ServiceOptions so;
    so.classes = {{"c", 1}};
    rt.start_service(so);
    std::atomic<int> ran{0};
    const ClassHandle c = rt.handle("c");
    for (int i = 0; i < 1000; ++i) {
      rt.submit(c, TaskFn([&ran] { ++ran; }));
    }
    ASSERT_TRUE(rt.drain_service(10.0));
    const obs::EpochReport report = rt.stop_service();
    EXPECT_EQ(static_cast<std::uint64_t>(ran.load()), report.executed);
    EXPECT_EQ(report.reconcile_slack(), 0u);
  }
}

TEST(ServiceWakeup, SparseArrivalP99UnderSleepCap) {
  // Satellite: the deep-sleep tier must wake on arrival, not on timer
  // expiry. Submit sparse one-at-a-time arrivals to a fully idle (deep
  // sleeping) runtime and measure submit -> execution-start latency.
  // The condvar wake makes the common case tens of microseconds; the
  // 256us wait_for backstop bounds even a lost wakeup, so p99 must stay
  // below the old open-loop sleep cap.
  Runtime rt(small_options(2));
  ServiceOptions so;
  so.classes = {{"ping", 1}};
  rt.start_service(so);
  const ClassHandle ping = rt.handle("ping");

  constexpr std::size_t kSamples = 300;
  std::vector<double> latency_us(kSamples, 0.0);
  for (std::size_t i = 0; i < kSamples; ++i) {
    // Let every worker reach the deep-sleep tier (spin+yield+ramp is
    // ~64 sweeps; 2ms is far past it).
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<bool> done{false};
    const std::uint64_t t0 = util::FastClock::ticks();
    rt.submit(ping, TaskFn([&latency_us, &done, t0, i] {
                latency_us[i] = util::FastClock::seconds_since(t0) * 1e6;
                done.store(true, std::memory_order_release);
              }));
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  rt.stop_service();
  std::vector<double> sorted = latency_us;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = sorted[kSamples / 2];
  const double p99 = sorted[(kSamples * 99) / 100];
  // The old behaviour (open-loop 256us sleeps) would put every sparse
  // arrival's latency near the cap; the wakeup makes p50 far smaller
  // and keeps p99 under it even with an occasional timeout-backstop hit.
  // Sanitizer instrumentation multiplies wakeup cost, so those builds
  // get headroom — the regression this guards (timer-expiry wakeups)
  // would overshoot even the relaxed bound.
  const double budget_us = 256.0 * (kSanitized ? 8 : 1);
  EXPECT_LT(p50, budget_us) << "p50=" << p50 << "us p99=" << p99 << "us";
  EXPECT_LT(p99, budget_us) << "p50=" << p50 << "us p99=" << p99 << "us";
}

TEST(ServiceMetrics, EpochDeltaSubtractsCumulatives) {
  obs::EpochReport a;
  a.offered = 100;
  a.executed = 90;
  a.shed = 5;
  a.span_s = 2.0;
  a.queue_depth_hwm = 40;
  a.classes.resize(1);
  a.classes[0].offered = 100;
  obs::EpochReport b = a;
  b.offered = 150;
  b.executed = 140;
  b.shed = 7;
  b.span_s = 3.0;
  b.classes[0].offered = 150;
  b.probes = 30;
  b.failed_sweeps = 4;
  a.probes = 12;
  a.failed_sweeps = 1;
  const obs::EpochReport d = obs::ServiceMetrics::delta(b, a);
  EXPECT_EQ(d.probes, 18u);
  EXPECT_EQ(d.failed_sweeps, 3u);
  EXPECT_NE(d.to_string().find("probes=18 failed_sweeps=3"),
            std::string::npos)
      << d.to_string();
  EXPECT_EQ(d.offered, 50u);
  EXPECT_EQ(d.executed, 50u);
  EXPECT_EQ(d.shed, 2u);
  EXPECT_DOUBLE_EQ(d.span_s, 1.0);
  EXPECT_EQ(d.queue_depth_hwm, 40u);  // gauges keep `now`'s value
  EXPECT_EQ(d.classes[0].offered, 50u);
}

TEST(ServiceMetrics, SojournPercentileInterpolates) {
  std::uint64_t hist[obs::kExecBuckets] = {};
  hist[0] = 100;
  const double p50 = obs::sojourn_percentile_us(hist, 50.0);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 2.0);
  std::uint64_t empty[obs::kExecBuckets] = {};
  EXPECT_DOUBLE_EQ(obs::sojourn_percentile_us(empty, 99.0), 0.0);
}

}  // namespace
}  // namespace eewa::rt
