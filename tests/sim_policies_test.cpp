// Behavioral tests for the four simulator policies: Cilk keeps F0 and
// spins; Cilk-D parks idle cores at the bottom rung; WATS allocates by
// workload on a fixed asymmetric machine; EEWA plans frequencies and
// saves energy at matched performance — the paper's core claims on
// small, deterministic instances.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/policies.hpp"
#include "sim/simulate.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace eewa::sim {
namespace {

SimOptions options16() {
  SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;
  return opt;
}

// An imbalanced workload on 16 cores: 128 light-to-heavy tasks whose
// total work fills only part of the machine, as in the paper's setup.
trace::TaskTrace imbalanced_trace(std::size_t batches = 6) {
  return trace::bimodal(/*heavy_tasks=*/6, /*heavy_work_s=*/0.1,
                        /*light_tasks=*/122, /*light_work_s=*/0.004,
                        batches, /*seed=*/1234);
}

TEST(CilkSim, AllCoresStayAtF0) {
  auto t = imbalanced_trace(3);
  CilkPolicy p;
  const auto res = simulate(t, p, options16());
  for (const auto& b : res.batches) {
    EXPECT_EQ(b.cores_per_rung[0], 16u);
  }
  EXPECT_EQ(res.transitions, 0u);
  // All residency at the top rung.
  EXPECT_GT(res.rung_residency_s[0], 0.0);
  EXPECT_DOUBLE_EQ(res.rung_residency_s[3], 0.0);
}

TEST(CilkDSim, IdleCoresDropToBottomRung) {
  auto t = imbalanced_trace(3);
  CilkDPolicy p;
  const auto res = simulate(t, p, options16());
  EXPECT_GT(res.transitions, 0u);
  EXPECT_GT(res.rung_residency_s[3], 0.0);  // some parked time
}

TEST(CilkDSim, SavesEnergyVsCilkAtSimilarTime) {
  auto t = imbalanced_trace();
  CilkPolicy cilk;
  CilkDPolicy cilkd;
  const auto a = simulate(t, cilk, options16());
  const auto b = simulate(t, cilkd, options16());
  EXPECT_LT(b.energy_j, a.energy_j);
  // Cilk-D only changes idle spinning, not scheduling: perf within ~2%.
  EXPECT_NEAR(b.time_s / a.time_s, 1.0, 0.02);
}

TEST(EewaSim, FirstBatchAtF0ThenPlans) {
  auto t = imbalanced_trace(4);
  EewaPolicy p(t.class_names);
  const auto res = simulate(t, p, options16());
  ASSERT_GE(res.batches.size(), 2u);
  EXPECT_EQ(res.batches[0].cores_per_rung[0], 16u);  // measurement batch
  // Afterwards some cores run below F0.
  bool downclocked = false;
  for (std::size_t b = 1; b < res.batches.size(); ++b) {
    if (res.batches[b].cores_per_rung[0] < 16) downclocked = true;
  }
  EXPECT_TRUE(downclocked);
  EXPECT_TRUE(p.controller().plan().planned);
}

TEST(EewaSim, SavesEnergyVsCilkAndCilkD) {
  auto t = imbalanced_trace();
  CilkPolicy cilk;
  CilkDPolicy cilkd;
  EewaPolicy eewa(t.class_names);
  const auto a = simulate(t, cilk, options16());
  const auto b = simulate(t, cilkd, options16());
  const auto c = simulate(t, eewa, options16());
  EXPECT_LT(c.energy_j, a.energy_j);
  EXPECT_LT(c.energy_j, b.energy_j);
  // Performance degradation stays small (paper: 0.8%-3.7%).
  EXPECT_LT(c.time_s / a.time_s, 1.08);
}

TEST(EewaSim, BalancedWorkloadKeepsCoresFastAndPerformance) {
  // Fully loaded machine: no downclocking headroom, EEWA ~= Cilk.
  const auto t = trace::balanced(128, 0.02, 5, 77);
  CilkPolicy cilk;
  EewaPolicy eewa(t.class_names);
  const auto a = simulate(t, cilk, options16());
  const auto c = simulate(t, eewa, options16());
  EXPECT_NEAR(c.time_s / a.time_s, 1.0, 0.10);
  EXPECT_LT(c.energy_j, a.energy_j * 1.05);
}

TEST(EewaSim, MemoryBoundAppFallsBackToF0) {
  trace::SyntheticSpec spec;
  spec.classes = {{"mem_task", 64, 0.01, 0.1, /*cmi=*/0.1,
                   /*mem_alpha=*/0.8}};
  spec.batches = 4;
  spec.seed = 3;
  const auto t = trace::generate(spec);
  EewaPolicy p(t.class_names);
  const auto res = simulate(t, p, options16());
  EXPECT_TRUE(p.controller().memory_bound_mode());
  for (const auto& b : res.batches) {
    EXPECT_EQ(b.cores_per_rung[0], 16u);  // never left F0
  }
}

TEST(EewaSim, ModalRungsReflectsAppliedConfigs) {
  auto t = imbalanced_trace(5);
  EewaPolicy p(t.class_names);
  SimOptions opt = options16();
  Machine m(opt);
  double time = 0.0;
  for (const auto& batch : t.batches) {
    time = m.run_batch(p, batch, time);
  }
  const auto modal = p.modal_rungs(m);
  ASSERT_EQ(modal.size(), 16u);
  // The modal config is a real post-measurement config: not all F0.
  std::size_t at0 = 0;
  for (auto r : modal) at0 += (r == 0);
  EXPECT_LT(at0, 16u);
}

TEST(OndemandSim, StepsDownGraduallyAndSavesSomething) {
  // Long idle tails (tasks much shorter than the tail) let the reactive
  // governor walk down the ladder in sampling-interval steps.
  trace::TaskTrace t;
  t.name = "tail";
  t.class_names = {"c"};
  t.batches.resize(2);
  for (auto& b : t.batches) {
    b.tasks.push_back({0, 0.08, 0, 0, 0});  // one long task
    for (int i = 0; i < 8; ++i) b.tasks.push_back({0, 0.002, 0, 0, 0});
  }
  CilkPolicy cilk;
  OndemandPolicy ondemand;
  const auto opt = options16();
  const auto rc = simulate(t, cilk, opt);
  const auto ro = simulate(t, ondemand, opt);
  EXPECT_LT(ro.energy_j, rc.energy_j);
  // The walk-down visits intermediate rungs, not just F0 and Fmin.
  EXPECT_GT(ro.rung_residency_s[1] + ro.rung_residency_s[2], 0.0);
  EXPECT_NEAR(ro.time_s / rc.time_s, 1.0, 0.02);
}

TEST(OndemandSim, BetweenCilkAndCilkDOnEnergy) {
  const auto t = imbalanced_trace();
  CilkPolicy cilk;
  CilkDPolicy cilkd;
  OndemandPolicy ondemand;
  const auto opt = options16();
  const auto rc = simulate(t, cilk, opt);
  const auto rd = simulate(t, cilkd, opt);
  const auto ro = simulate(t, ondemand, opt);
  EXPECT_LT(ro.energy_j, rc.energy_j);       // beats always-max
  EXPECT_GE(ro.energy_j, rd.energy_j * 0.98);  // can't beat instant drop
}

TEST(WatsSim, RunsOnFixedAsymmetricMachine) {
  auto t = imbalanced_trace(4);
  // 4 fast cores, 12 slow cores.
  std::vector<std::size_t> rungs(16, 3);
  for (int c = 0; c < 4; ++c) rungs[static_cast<std::size_t>(c)] = 0;
  WatsPolicy p(rungs, t.class_names);
  const auto res = simulate(t, p, options16());
  for (std::size_t b = 1; b < res.batches.size(); ++b) {
    EXPECT_EQ(res.batches[b].cores_per_rung[0], 4u);
    EXPECT_EQ(res.batches[b].cores_per_rung[3], 12u);
  }
}

TEST(WatsSim, BeatsCilkOnAsymmetricMachine) {
  // The Fig. 7 shape: on a fixed AMC, random stealing pays a big tail
  // penalty when heavy tasks land on slow cores; WATS avoids it.
  trace::SyntheticSpec spec;
  spec.classes = {{"heavy", 8, 0.08, 0.1, 0, 0},
                  {"light", 120, 0.004, 0.1, 0, 0}};
  spec.batches = 6;
  spec.seed = 21;
  const auto t = trace::generate(spec);
  std::vector<std::size_t> rungs(16, 3);
  for (int c = 0; c < 5; ++c) rungs[static_cast<std::size_t>(c)] = 0;

  CilkPolicy cilk(rungs);
  WatsPolicy wats(rungs, t.class_names);
  const auto a = simulate(t, cilk, options16());
  const auto w = simulate(t, wats, options16());
  EXPECT_LT(w.time_s, a.time_s);
}

TEST(PolicySweep, AllPoliciesExecuteAllTasks) {
  // Smoke sweep over machine sizes: no policy loses or duplicates tasks
  // (the machine throws if a policy strands tasks).
  for (std::size_t cores : {2u, 4u, 8u, 16u}) {
    SimOptions opt;
    opt.cores = cores;
    opt.seed = cores;
    const auto t = trace::bimodal(3, 0.05, 29, 0.005, 3, cores);
    CilkPolicy cilk;
    CilkDPolicy cilkd;
    EewaPolicy eewa(t.class_names);
    std::vector<std::size_t> rungs(cores, 3);
    rungs[0] = 0;
    WatsPolicy wats(rungs, t.class_names);
    EXPECT_NO_THROW(simulate(t, cilk, opt));
    EXPECT_NO_THROW(simulate(t, cilkd, opt));
    EXPECT_NO_THROW(simulate(t, eewa, opt));
    EXPECT_NO_THROW(simulate(t, wats, opt));
  }
}

TEST(EewaSim, MoreCoresMoreSavings) {
  // Fig. 9's shape: the relative saving grows with the core count.
  const auto t = imbalanced_trace();
  auto saving = [&](std::size_t cores) {
    SimOptions opt;
    opt.cores = cores;
    opt.seed = 42;
    CilkPolicy cilk;
    EewaPolicy eewa(t.class_names);
    const auto a = simulate(t, cilk, opt);
    const auto c = simulate(t, eewa, opt);
    return 1.0 - c.energy_j / a.energy_j;
  };
  const double s4 = saving(4);
  const double s16 = saving(16);
  EXPECT_GT(s16, s4);
  EXPECT_GT(s16, 0.05);
}

// Reference O(M) scans for the indexed placements: the first strictly
// better machine wins, so ties go to the lowest index.
std::size_t scan_least_loaded(const std::vector<MachineView>& views) {
  std::size_t best = 0;
  double best_cost = views[0].backlog_s + views[0].wake_latency_s;
  for (std::size_t i = 1; i < views.size(); ++i) {
    const double cost = views[i].backlog_s + views[i].wake_latency_s;
    if (cost < best_cost) {
      best = i;
      best_cost = cost;
    }
  }
  return best;
}

std::size_t scan_pack(double fill_s, const std::vector<MachineView>& views) {
  // Densest powered machine below the fill line...
  std::size_t pick = views.size();
  double pick_backlog = -1.0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& v = views[i];
    if (v.powered && v.backlog_s < fill_s && v.backlog_s > pick_backlog) {
      pick = i;
      pick_backlog = v.backlog_s;
    }
  }
  if (pick < views.size()) return pick;
  // ...else the shallowest sleeper...
  double pick_latency = 0.0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& v = views[i];
    if (!v.powered &&
        (pick == views.size() || v.wake_latency_s < pick_latency)) {
      pick = i;
      pick_latency = v.wake_latency_s;
    }
  }
  if (pick < views.size()) return pick;
  // ...else spill to the least-loaded machine.
  return scan_least_loaded(views);
}

// The indexed (tournament-tree) placements must return the same pick as
// the reference scans on every call — same argmin/argmax, same
// ties-to-lowest-index rule — under epoch-style churn: views
// re-randomized per epoch (begin_epoch), then mutated pick-by-pick the
// way Fleet::run stages work and starts wakes (update).
TEST(FleetPlacement, IndexedModeMatchesLinearScan) {
  constexpr double kFill = 0.04;
  for (const char* name : {"least-loaded", "pack"}) {
    const bool pack = std::string(name) == "pack";
    auto indexed = make_placement(name, kFill);
    util::Xoshiro256 rng(11);
    const std::size_t m = 23;  // not a power of two
    std::vector<MachineView> views(m);
    for (int epoch = 0; epoch < 40; ++epoch) {
      for (auto& v : views) {
        v.powered = rng.chance(0.7);
        // Coarse grid => frequent exact ties, the risky case.
        v.backlog_s = 0.01 * std::floor(rng.uniform() * 8.0);
        v.sleep_state = v.powered ? 0 : (rng.uniform() < 0.5 ? 0 : 2);
        v.wake_latency_s = v.powered ? 0.0 : 0.001 * (v.sleep_state + 1);
        if (!v.powered) v.backlog_s = 0.0;
      }
      indexed->begin_epoch(views);
      for (int task = 0; task < 64; ++task) {
        const double work = rng.uniform() * 0.01;
        const std::size_t a = indexed->place(work, views);
        const std::size_t b =
            pack ? scan_pack(kFill, views) : scan_least_loaded(views);
        ASSERT_EQ(a, b) << name << " epoch " << epoch << " task " << task;
        auto& v = views[a];
        if (!v.powered) {
          v.powered = true;
          v.backlog_s += v.wake_latency_s;
          v.wake_latency_s = 0.0;
          v.sleep_state = 0;
        }
        v.backlog_s += work / 4.0;
        indexed->update(a, views);
      }
    }
  }
}

TEST(FleetPlacement, PlaceBeforeBeginEpochThrows) {
  const std::vector<MachineView> views(4);
  for (const char* name : {"least-loaded", "pack"}) {
    auto placement = make_placement(name, 0.04);
    EXPECT_THROW(placement->place(0.001, views), std::logic_error) << name;
    placement->begin_epoch(views);
    EXPECT_EQ(placement->place(0.001, views), 0u) << name;
    // An index built over a different machine count is stale too.
    EXPECT_THROW(placement->place(0.001, std::vector<MachineView>(5)),
                 std::logic_error)
        << name;
  }
  // Round-robin keeps no index and never needs one.
  EXPECT_EQ(make_placement("round-robin", 0.04)->place(0.001, views), 0u);
}

}  // namespace
}  // namespace eewa::sim
