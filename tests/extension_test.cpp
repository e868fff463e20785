// Tests for the extensions beyond the paper's core design:
//  - memory-aware CC planning (the paper's §IV-D future work),
//  - the alpha-from-CMI estimate and PMC plumbing,
//  - trace CSV round trip,
//  - the idle-halt (thrifty-barrier-style) simulator switch,
//  - feasibility-filtered stealing (slow thieves must not blow up the
//    batch critical path).
#include <gtest/gtest.h>

#include "core/adjuster.hpp"
#include "core/classifier.hpp"
#include "core/eewa_controller.hpp"
#include "runtime/pmc.hpp"
#include "runtime/runtime.hpp"
#include "sim/simulate.hpp"
#include "trace/synthetic.hpp"
#include "workloads/suite.hpp"

namespace eewa {
namespace {

const dvfs::FrequencyLadder kLadder = dvfs::FrequencyLadder::opteron8380();

TEST(MemoryAwareCC, EffectiveSlowdownScalesColumns) {
  std::vector<core::ClassProfile> classes = {
      {0, "mem", 10, 1.0, 1.2, /*mean_alpha=*/0.75}};
  const auto cpu = core::CCTable::build(classes, kLadder, 5.0, false);
  const auto mem = core::CCTable::build(classes, kLadder, 5.0, true);
  // Top row identical (no slowdown at F0).
  EXPECT_NEAR(cpu.at(0, 0), mem.at(0, 0), 1e-12);
  // At the bottom rung the CPU-bound model demands slowdown x cores; the
  // memory-aware model only 0.75 + 0.25 * slowdown.
  const double slow = kLadder.slowdown(3);
  EXPECT_NEAR(cpu.at(3, 0) / cpu.at(0, 0), slow, 1e-12);
  EXPECT_NEAR(mem.at(3, 0) / mem.at(0, 0), 0.75 + 0.25 * slow, 1e-12);
  EXPECT_LT(mem.at(3, 0), cpu.at(3, 0));
}

TEST(MemoryAwareCC, FeasibilityUsesEffectiveSlowdown) {
  // A task with max workload 0.6·T is infeasible below F0 in the
  // CPU-bound model (0.6·3.125 = 1.875 > T) but fine at the bottom rung
  // when 80% memory-stalled (0.6·(0.8 + 0.2·3.125) = 0.855 < T).
  std::vector<core::ClassProfile> classes = {
      {0, "mem", 4, 0.6, 0.6, /*mean_alpha=*/0.8}};
  const auto cpu = core::CCTable::build(classes, kLadder, 1.0, false);
  const auto mem = core::CCTable::build(classes, kLadder, 1.0, true);
  EXPECT_FALSE(cpu.rung_feasible(3, 0));
  EXPECT_TRUE(mem.rung_feasible(3, 0));
}

TEST(AlphaEstimate, MonotoneAndClamped) {
  EXPECT_DOUBLE_EQ(core::estimate_alpha_from_cmi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(core::estimate_alpha_from_cmi(-1.0), 0.0);
  EXPECT_GT(core::estimate_alpha_from_cmi(0.02),
            core::estimate_alpha_from_cmi(0.005));
  EXPECT_DOUBLE_EQ(core::estimate_alpha_from_cmi(10.0), 1.0);
}

TEST(MemoryAwareController, PlansInsteadOfFallingBack) {
  core::ControllerOptions opt;
  opt.adjuster.memory_aware = true;
  core::EewaController ctrl(kLadder, 16, opt);
  const auto f = ctrl.class_id("mem_task");
  ctrl.begin_batch();
  // Heavily memory-bound tasks with lots of idle machine headroom.
  for (int i = 0; i < 16; ++i) {
    ctrl.record_task(f, 0.25, 0, /*cmi=*/0.1, /*alpha=*/0.8);
  }
  ctrl.end_batch(2.0);
  EXPECT_FALSE(ctrl.memory_bound_mode());
  ASSERT_TRUE(ctrl.plan().planned);
  // The memory-aware planner can push them to the bottom rung.
  const auto per_rung = ctrl.plan().layout.cores_per_rung(kLadder.size());
  EXPECT_LT(per_rung[0], 16u);
}

TEST(MemoryAwareController, RecordsAlphaCorrectedWorkload) {
  core::EewaController ctrl(kLadder, 4);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  // 80% memory-stalled task measured on the bottom rung: exec stretches
  // only by 0.8 + 0.2·3.125 = 1.425, not 3.125.
  ctrl.record_task(f, 1.425, 3, 0.1, 0.8);
  EXPECT_NEAR(ctrl.registry().mean_workload(f), 1.0, 1e-9);
  EXPECT_NEAR(ctrl.registry().mean_alpha(f), 0.8, 1e-12);
}

TEST(MemoryAwareSim, BeatsGatedFallbackOnMemoryBoundApp) {
  // A memory-bound batch application: vanilla EEWA trips the §IV-D gate
  // (plain stealing at F0); the memory-aware extension downclocks and
  // saves energy at nearly the same makespan.
  trace::SyntheticSpec spec;
  spec.classes = {{"mem_heavy", 6, 0.08, 0.1, /*cmi=*/0.08, /*alpha=*/0.7},
                  {"mem_light", 40, 0.008, 0.1, 0.08, 0.7}};
  spec.batches = 20;
  spec.seed = 5;
  const auto t = trace::generate(spec);
  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 9;

  sim::EewaPolicy gated(t.class_names);
  const auto rg = sim::simulate(t, gated, opt);
  EXPECT_TRUE(gated.controller().memory_bound_mode());

  core::ControllerOptions copts;
  copts.adjuster.memory_aware = true;
  sim::EewaPolicy aware(t.class_names, copts);
  const auto ra = sim::simulate(t, aware, opt);
  EXPECT_FALSE(aware.controller().memory_bound_mode());

  EXPECT_LT(ra.energy_j, rg.energy_j);
  EXPECT_LT(ra.time_s / rg.time_s, 1.10);
}

TEST(PerfCounters, GracefulWhenUnavailable) {
  rt::PerfCounters pmc;
  // Containers usually forbid perf_event_open; both paths must be safe.
  pmc.start();
  const auto sample = pmc.stop();
  if (!pmc.available()) {
    EXPECT_EQ(sample.instructions, 0u);
    EXPECT_EQ(sample.cache_misses, 0u);
    EXPECT_DOUBLE_EQ(sample.cmi(), 0.0);
  } else {
    // If counters work, a busy loop must retire instructions.
    pmc.start();
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 100000; ++i) x = x + static_cast<std::uint64_t>(i);
    (void)x;
    EXPECT_GT(pmc.stop().instructions, 0u);
  }
}

TEST(TraceCsv, RoundTripsThroughImport) {
  const auto original = trace::bimodal(3, 0.5, 10, 0.05, 4, 77);
  const auto imported =
      trace::TaskTrace::from_csv(original.to_csv(), original.name);
  ASSERT_EQ(imported.batch_count(), original.batch_count());
  ASSERT_EQ(imported.class_names.size(), original.class_names.size());
  EXPECT_EQ(imported.task_count(), original.task_count());
  for (std::size_t b = 0; b < original.batches.size(); ++b) {
    for (std::size_t i = 0; i < original.batches[b].tasks.size(); ++i) {
      const auto& x = original.batches[b].tasks[i];
      const auto& y = imported.batches[b].tasks[i];
      EXPECT_EQ(original.class_names[x.class_id],
                imported.class_names[y.class_id]);
      EXPECT_NEAR(x.work_s, y.work_s, 1e-6 * x.work_s + 1e-12);
    }
  }
}

TEST(TraceCsv, RejectsMalformedInput) {
  EXPECT_THROW(trace::TaskTrace::from_csv("nonsense"),
               std::invalid_argument);
  EXPECT_THROW(trace::TaskTrace::from_csv(
                   "batch,class,work_s,cmi,mem_alpha\n0,c,oops,0,0\n"),
               std::invalid_argument);
  EXPECT_THROW(trace::TaskTrace::from_csv(
                   "batch,class,work_s,cmi,mem_alpha\n0,c,1.0\n"),
               std::invalid_argument);
}

TEST(IdleHalt, CutsTailEnergyWithoutChangingTime) {
  const auto t = trace::bimodal(4, 0.1, 30, 0.005, 6, 3);
  sim::SimOptions spin;
  spin.cores = 16;
  spin.seed = 4;
  sim::SimOptions halt = spin;
  halt.idle_halt = true;
  sim::CilkPolicy p1, p2;
  const auto rs = sim::simulate(t, p1, spin);
  const auto rh = sim::simulate(t, p2, halt);
  EXPECT_DOUBLE_EQ(rs.time_s, rh.time_s);
  EXPECT_LT(rh.energy_j, rs.energy_j);
}

TEST(StaggeredRelease, AllTasksRunAndMakespanCoversWindow) {
  trace::SyntheticSpec spec;
  spec.classes = {{"t", 40, 0.002, 0.2, 0, 0}};
  spec.batches = 2;
  spec.seed = 6;
  spec.release_window_s = 0.05;  // far longer than the work itself
  const auto t = trace::generate(spec);
  sim::SimOptions opt;
  opt.cores = 4;
  opt.seed = 7;
  sim::CilkPolicy cilk;
  const auto res = sim::simulate(t, cilk, opt);
  // Every batch must wait for its last spawn.
  for (std::size_t b = 0; b < t.batches.size(); ++b) {
    double last_release = 0.0;
    for (const auto& task : t.batches[b].tasks) {
      last_release = std::max(last_release, task.release_s);
    }
    EXPECT_GE(res.batches[b].span_s, last_release);
  }
}

TEST(StaggeredRelease, CilkDBouncesAndRestores) {
  // With long gaps between spawns, Cilk-D cores park, then must ramp
  // back to F0 when the next task appears: transitions accumulate well
  // beyond the one-drop-per-core-per-batch of the all-at-once model.
  trace::SyntheticSpec spec;
  spec.classes = {{"t", 10, 0.001, 0.1, 0, 0}};
  spec.batches = 1;
  spec.seed = 8;
  spec.release_window_s = 0.1;  // sparse arrivals
  const auto t = trace::generate(spec);
  sim::SimOptions opt;
  opt.cores = 4;
  opt.seed = 9;
  sim::CilkDPolicy cilkd;
  const auto res = sim::simulate(t, cilkd, opt);
  // Drops + restores: at least one restore implies a mid-batch ramp-up.
  EXPECT_GT(res.transitions, 4u);
  // All residency not at F0 alone: some time was spent parked.
  EXPECT_GT(res.rung_residency_s[3], 0.0);
  EXPECT_GT(res.rung_residency_s[0], 0.0);
}

TEST(StaggeredRelease, EewaHandlesMidBatchSpawns) {
  trace::SyntheticSpec spec;
  spec.classes = {{"heavy", 4, 0.02, 0.1, 0, 0},
                  {"light", 24, 0.002, 0.1, 0, 0}};
  spec.batches = 4;
  spec.seed = 10;
  spec.release_window_s = 0.01;
  const auto t = trace::generate(spec);
  sim::SimOptions opt;
  opt.cores = 8;
  opt.seed = 11;
  sim::EewaPolicy eewa(t.class_names);
  EXPECT_NO_THROW(sim::simulate(t, eewa, opt));
}

TEST(SocketTopology, RemoteProbesCostMore) {
  // Same trace, same seed; remote-socket probes at 10x cost must not
  // change the schedule's structure, only stretch probe time slightly.
  const auto t = trace::bimodal(4, 0.05, 28, 0.004, 4, 11);
  sim::SimOptions flat;
  flat.cores = 16;
  flat.seed = 2;
  sim::SimOptions numa = flat;
  numa.cores_per_socket = 4;
  numa.remote_steal_multiplier = 10.0;
  sim::CilkPolicy p1, p2;
  const auto rf = sim::simulate(t, p1, flat);
  const auto rn = sim::simulate(t, p2, numa);
  EXPECT_GE(rn.time_s, rf.time_s);          // probes got pricier
  EXPECT_LT(rn.time_s, rf.time_s * 1.10);   // but stay second-order
}

TEST(SocketTopology, SocketOfMapsCoresToPackages) {
  sim::SimOptions opt;
  opt.cores = 16;
  opt.cores_per_socket = 4;
  sim::Machine m(opt);
  EXPECT_EQ(m.socket_of(0), 0u);
  EXPECT_EQ(m.socket_of(3), 0u);
  EXPECT_EQ(m.socket_of(4), 1u);
  EXPECT_EQ(m.socket_of(15), 3u);
  sim::SimOptions flat;
  flat.cores = 16;
  sim::Machine m2(flat);
  EXPECT_EQ(m2.socket_of(15), 0u);  // topology disabled
}

TEST(RollingMinIdealTime, RatchetsDownNeverUp) {
  core::ControllerOptions opt;
  opt.ideal_time = core::IdealTimeMode::kRollingMin;
  core::EewaController ctrl(kLadder, 8, opt);
  const auto f = ctrl.class_id("f");
  auto batch = [&](double makespan) {
    ctrl.begin_batch();
    for (int i = 0; i < 8; ++i) ctrl.record_task(f, 0.05, 0);
    ctrl.end_batch(makespan);
  };
  batch(1.0);  // unlucky measurement batch
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 1.0);
  batch(0.6);  // faster batch proves the tighter target
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 0.6);
  batch(2.0);  // a slow batch never relaxes it
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 0.6);
}

TEST(PaperIdealTime, StaysAtFirstBatch) {
  core::EewaController ctrl(kLadder, 8);  // default kFirstBatch
  const auto f = ctrl.class_id("f");
  for (double makespan : {1.0, 0.5, 0.2}) {
    ctrl.begin_batch();
    for (int i = 0; i < 8; ++i) ctrl.record_task(f, 0.05, 0);
    ctrl.end_batch(makespan);
  }
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 1.0);
}

TEST(TraceRecording, RuntimeProducesReplayableTrace) {
  rt::RuntimeOptions opt;
  opt.workers = 2;
  opt.kind = rt::SchedulerKind::kCilk;
  opt.record_trace = true;
  rt::Runtime runtime(opt);
  for (int b = 0; b < 2; ++b) {
    std::vector<rt::TaskDesc> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back({"work", [] {
                         volatile int x = 0;
                         for (int k = 0; k < 50000; ++k) x = x + k;
                         (void)x;
                       }});
    }
    runtime.run_batch(std::move(tasks));
  }
  const auto& rec = runtime.recorded_trace();
  ASSERT_EQ(rec.batch_count(), 2u);
  EXPECT_EQ(rec.batches[0].tasks.size(), 6u);
  EXPECT_EQ(rec.class_names.size(), 1u);
  EXPECT_NO_THROW(rec.validate());
  // And it replays through the simulator.
  sim::SimOptions sopt;
  sopt.cores = 4;
  sim::EewaPolicy eewa(rec.class_names);
  EXPECT_NO_THROW(sim::simulate(rec, eewa, sopt));
}

TEST(TraceRecording, DisabledByDefault) {
  rt::RuntimeOptions opt;
  opt.workers = 2;
  rt::Runtime runtime(opt);
  std::vector<rt::TaskDesc> tasks;
  tasks.push_back(rt::TaskDesc{"t", [] {}});
  runtime.run_batch(std::move(tasks));
  EXPECT_EQ(runtime.recorded_trace().batch_count(), 0u);
}

TEST(FilteredStealing, ParkedCoresDoNotStretchCriticalPath) {
  // The DMC-at-12-cores regression: a mostly-F0 plan with one parked
  // core; without the feasibility filter the parked core occasionally
  // grabs a coarse block and stretches the batch by ~2.5x.
  const auto t = wl::build_trace(wl::find_benchmark("DMC"),
                                 wl::reference_calibration(), 12, 2024);
  sim::SimOptions opt;
  opt.cores = 12;
  opt.seed = 42;
  sim::EewaPolicy eewa(t.class_names);
  const auto re = sim::simulate(t, eewa, opt);
  sim::CilkPolicy cilk;
  const auto rc = sim::simulate(t, cilk, opt);
  for (std::size_t b = 1; b < re.batches.size(); ++b) {
    EXPECT_LT(re.batches[b].span_s, 2.0 * rc.batches[b].span_s)
        << "batch " << b;
  }
}

}  // namespace
}  // namespace eewa
