// Heterogeneous core types: topology flattening, typed CC tables, typed
// k-tuple search under per-type capacities, typed plan carving and
// reconciliation, the typed simulator, and the memory-aware-path bug
// sweep regressions (per-batch gate re-evaluation, from_matrix ordering
// validation, zero-alpha bitwise identity, alpha-estimate hardening).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/actuation.hpp"
#include "core/cc_table.hpp"
#include "core/classifier.hpp"
#include "core/core_type.hpp"
#include "core/eewa_controller.hpp"
#include "core/frequency_plan.hpp"
#include "core/ktuple_search.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "sim/fleet.hpp"
#include "sim/machine.hpp"
#include "sim/policies.hpp"
#include "trace/arrivals.hpp"
#include "sim/simulate.hpp"
#include "testing/exhaustive_search.hpp"
#include "testing/fuzz.hpp"
#include "trace/synthetic.hpp"

namespace eewa {
namespace {

using core::CCTable;
using core::ClassProfile;
using core::CoreType;
using core::MachineTopology;

const dvfs::FrequencyLadder kOpteron = dvfs::FrequencyLadder::opteron8380();

MachineTopology proxy_big_little() {
  // big.LITTLE without power models: exercises the speed-proxy path.
  CoreType big;
  big.name = "big";
  big.ladder = kOpteron;
  big.mips_scale = {1.0, 1.0, 1.0, 1.0};
  big.count = 4;
  CoreType little;
  little.name = "LITTLE";
  little.ladder = dvfs::FrequencyLadder({1.6, 1.2, 0.9, 0.6});
  little.mips_scale = {0.6, 0.6, 0.6, 0.6};
  little.count = 4;
  return MachineTopology({std::move(big), std::move(little)});
}

TEST(MachineTopology, BigLittlePresetFlattensBySpeed) {
  const auto topo = MachineTopology::big_little();
  EXPECT_EQ(topo.type_count(), 2u);
  EXPECT_EQ(topo.total_cores(), 8u);
  EXPECT_EQ(topo.row_count(), 8u);
  EXPECT_TRUE(topo.uniform_rung_count());
  EXPECT_TRUE(topo.has_power_models());
  EXPECT_EQ(topo.max_rungs(), 4u);

  // Interleaved speeds: 2.5, 1.8, 1.3, 0.96, 0.8, 0.72, 0.54, 0.36.
  const double expect[] = {2.5, 1.8, 1.3, 0.96, 0.8, 0.72, 0.54, 0.36};
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(topo.row_speed(j), expect[j], 1e-12) << "row " << j;
    EXPECT_EQ(topo.row_of(topo.row_type(j), topo.row_rung(j)), j);
  }
  EXPECT_DOUBLE_EQ(topo.row_slowdown(0), 1.0);
  // LITTLE's fastest rung (1.6 GHz * 0.6 = 0.96) sits at row 3.
  EXPECT_EQ(topo.row_type(3), 1u);
  EXPECT_EQ(topo.row_rung(3), 0u);

  // Core ids are contiguous per type: big owns [0,4), LITTLE [4,8).
  EXPECT_EQ(topo.first_core(0), 0u);
  EXPECT_EQ(topo.first_core(1), 4u);
  EXPECT_EQ(topo.type_of_core(3), 0u);
  EXPECT_EQ(topo.type_of_core(4), 1u);
  EXPECT_NEAR(topo.core_slowdown(4, 0), 2.5 / 0.96, 1e-12);
  EXPECT_EQ(topo.slowest_row_of_type(0), 4u);  // big @ 0.8 GHz
  EXPECT_EQ(topo.slowest_row_of_type(1), 7u);  // LITTLE @ 0.6 GHz
}

TEST(MachineTopology, ValidationRejectsMalformedTypes) {
  EXPECT_THROW(MachineTopology({}), std::invalid_argument);

  CoreType zero;
  zero.ladder = kOpteron;
  zero.mips_scale = {1.0, 1.0, 1.0, 1.0};
  zero.count = 0;
  EXPECT_THROW(MachineTopology({zero}), std::invalid_argument);

  CoreType ragged;
  ragged.ladder = kOpteron;
  ragged.mips_scale = {1.0, 1.0};  // ladder has 4 rungs
  ragged.count = 2;
  EXPECT_THROW(MachineTopology({ragged}), std::invalid_argument);

  CoreType nonpos;
  nonpos.ladder = kOpteron;
  nonpos.mips_scale = {1.0, 1.0, 0.0, 1.0};
  nonpos.count = 2;
  EXPECT_THROW(MachineTopology({nonpos}), std::invalid_argument);

  // Effective speed must strictly decrease across a type's rungs: a
  // rising MIPS scale can invert it even on a descending ladder.
  CoreType inverted;
  inverted.ladder = dvfs::FrequencyLadder({2.0, 1.0});
  inverted.mips_scale = {1.0, 2.1};
  inverted.count = 2;
  EXPECT_THROW(MachineTopology({inverted}), std::invalid_argument);

  // Models are all-or-none across types.
  CoreType with_model;
  with_model.ladder = kOpteron;
  with_model.mips_scale = {1.0, 1.0, 1.0, 1.0};
  with_model.model = std::make_shared<energy::PowerModel>(
      energy::PowerModel::opteron8380_server());
  with_model.count = 2;
  CoreType without_model;
  without_model.ladder = kOpteron;
  without_model.mips_scale = {1.0, 1.0, 1.0, 1.0};
  without_model.count = 2;
  EXPECT_THROW(MachineTopology({with_model, without_model}),
               std::invalid_argument);

  // A model's ladder must match its type's.
  CoreType mismatched;
  mismatched.ladder = dvfs::FrequencyLadder({2.0, 1.0});
  mismatched.mips_scale = {1.0, 1.0};
  mismatched.model = std::make_shared<energy::PowerModel>(
      energy::PowerModel::opteron8380_server());
  mismatched.count = 2;
  EXPECT_THROW(MachineTopology({mismatched}), std::invalid_argument);
}

std::vector<ClassProfile> two_classes() {
  return {{0, "heavy", 8, 2.0}, {1, "light", 16, 0.5}};
}

TEST(TypedCCTable, HomogeneousTopologyReproducesBuildBitwise) {
  const auto topo = MachineTopology::homogeneous("h", kOpteron, 16);
  const auto typed = CCTable::build_typed(two_classes(), topo, 4.0);
  const auto hom = CCTable::build(two_classes(), kOpteron, 4.0);
  ASSERT_EQ(typed.rows(), hom.rows());
  ASSERT_EQ(typed.cols(), hom.cols());
  ASSERT_NE(typed.topology(), nullptr);
  EXPECT_EQ(hom.topology(), nullptr);
  for (std::size_t j = 0; j < typed.rows(); ++j) {
    for (std::size_t i = 0; i < typed.cols(); ++i) {
      EXPECT_EQ(typed.at(j, i), hom.at(j, i)) << j << "," << i;
    }
  }
}

TEST(TypedCCTable, RowsScaleByEffectiveSlowdown) {
  const auto topo = proxy_big_little();
  const auto cc = CCTable::build_typed(two_classes(), topo, 4.0);
  ASSERT_EQ(cc.rows(), 8u);
  for (std::size_t j = 0; j < cc.rows(); ++j) {
    for (std::size_t i = 0; i < cc.cols(); ++i) {
      EXPECT_NEAR(cc.at(j, i), topo.row_slowdown(j) * cc.at(0, i), 1e-9)
          << j << "," << i;
    }
  }
}

TEST(TypedCCTable, MemoryAwareRowsUsePerClassAlpha) {
  auto classes = two_classes();
  classes[0].mean_alpha = 0.6;  // heavy class mostly memory-stalled
  const auto topo = proxy_big_little();
  const auto cc = CCTable::build_typed(classes, topo, 4.0, true);
  for (std::size_t j = 1; j < cc.rows(); ++j) {
    const double s = topo.row_slowdown(j);
    EXPECT_NEAR(cc.at(j, 0), (0.6 + 0.4 * s) * cc.at(0, 0), 1e-9);
    EXPECT_NEAR(cc.at(j, 1), s * cc.at(0, 1), 1e-9);
  }
}

TEST(TypedSearch, MatchesExhaustiveOnBigLittle) {
  // 8 rows x 3 classes = 24 <= 25: the exhaustive gate the fuzz oracle
  // uses; pruned must match ground-truth energy exactly.
  const auto topo = proxy_big_little();
  std::vector<ClassProfile> classes = {
      {0, "a", 6, 1.0, 1.2}, {1, "b", 8, 0.5, 0.6}, {2, "c", 10, 0.2, 0.3}};
  const auto cc = CCTable::build_typed(classes, topo, 4.0);
  const std::size_t m = topo.total_cores();
  const auto pr = core::search_pruned(cc, m);
  const auto ex = testing::search_exhaustive(cc, m);
  ASSERT_EQ(pr.found, ex.found);
  ASSERT_TRUE(pr.found);
  EXPECT_TRUE(core::tuple_is_valid(cc, pr.tuple, m));
  EXPECT_NEAR(core::tuple_energy_estimate(cc, pr.tuple, m),
              core::tuple_energy_estimate(cc, ex.tuple, m), 1e-9);
}

TEST(TypedSearch, PerTypeCapacityBindsBeforeGlobal) {
  // One fast core + eight slow cores: the global budget (9 cores) would
  // admit parking both classes on the fast cluster, but its pool holds
  // a single core. Every searcher must respect the per-type cap.
  CoreType fast;
  fast.name = "fast";
  fast.ladder = dvfs::FrequencyLadder({3.0});
  fast.mips_scale = {1.0};
  fast.count = 1;
  CoreType slow;
  slow.name = "slow";
  slow.ladder = dvfs::FrequencyLadder({1.5});
  slow.mips_scale = {1.0};
  slow.count = 8;
  const MachineTopology topo({fast, slow});

  // Each class needs ~2 fast cores' worth of work.
  std::vector<ClassProfile> classes = {{0, "a", 4, 0.5}, {1, "b", 4, 0.5}};
  const auto cc = CCTable::build_typed(classes, topo, 1.0);
  const std::size_t m = topo.total_cores();
  for (const auto& res :
       {core::search_backtracking(cc, m), core::search_greedy(cc, m),
        core::search_pruned(cc, m), testing::search_exhaustive(cc, m)}) {
    ASSERT_TRUE(res.found);
    long double fast_used = 0.0L;
    for (std::size_t i = 0; i < res.tuple.size(); ++i) {
      if (topo.row_type(res.tuple[i]) == 0) {
        fast_used += cc.demand(res.tuple[i], i);
      }
    }
    EXPECT_LE(static_cast<double>(fast_used), 1.0 + 1e-9);
    EXPECT_TRUE(core::tuple_is_valid(cc, res.tuple, m));
  }
}

TEST(TypedPlan, CarvesEachTypeWithinItsCoreRange) {
  const auto topo = proxy_big_little();
  std::vector<ClassProfile> classes = {
      {0, "a", 6, 1.0, 1.2}, {1, "b", 8, 0.5, 0.6}, {2, "c", 10, 0.2, 0.3}};
  const auto cc = CCTable::build_typed(classes, topo, 4.0);
  const std::size_t m = topo.total_cores();
  const auto pr = core::search_pruned(cc, m);
  ASSERT_TRUE(pr.found);
  const auto plan = core::make_frequency_plan(cc, pr, m, kOpteron, 3);
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.layout.total_cores(), m);
  std::size_t covered = 0;
  for (std::size_t g = 0; g < plan.layout.group_count(); ++g) {
    const auto& grp = plan.layout.group(g);
    covered += grp.cores.size();
    ASSERT_LT(grp.core_type, topo.type_count());
    EXPECT_LT(grp.freq_index, topo.type(grp.core_type).ladder.size());
    const std::size_t lo = topo.first_core(grp.core_type);
    const std::size_t hi = lo + topo.type(grp.core_type).count;
    for (const std::size_t c : grp.cores) {
      EXPECT_GE(c, lo);
      EXPECT_LT(c, hi);
    }
  }
  EXPECT_EQ(covered, m);
  for (std::size_t c = 0; c < m; ++c) {
    EXPECT_TRUE(plan.layout.core_assigned(c)) << "core " << c;
  }
}

TEST(TypedReconcile, KeepsCoreTypesInSeparateGroups) {
  // Intended: both clusters at their own rung 0. Cores 1 (big) and 3
  // (LITTLE) drift to rung 1. The reconciled layout must key groups by
  // (type, rung) — rung 1 big and rung 1 LITTLE are different operating
  // points and may not merge.
  core::FrequencyPlan intended;
  intended.planned = true;
  intended.layout = dvfs::CGroupLayout(
      {dvfs::CGroup{.freq_index = 0, .core_type = 0, .cores = {0, 1}},
       dvfs::CGroup{.freq_index = 0, .core_type = 1, .cores = {2, 3}}},
      {0, 1}, 4);
  const auto fixed = core::reconcile_plan(intended, {0, 1, 0, 1});
  ASSERT_EQ(fixed.layout.group_count(), 4u);
  for (std::size_t g = 0; g < fixed.layout.group_count(); ++g) {
    EXPECT_EQ(fixed.layout.group(g).cores.size(), 1u);
  }
  // Classes stay on their own cluster: class 0 intended (type 0, rung
  // 0) keeps a type-0 group, class 1 a type-1 group.
  const auto& g0 = fixed.layout.group(fixed.layout.group_of_class(0));
  const auto& g1 = fixed.layout.group(fixed.layout.group_of_class(1));
  EXPECT_EQ(g0.core_type, 0u);
  EXPECT_EQ(g0.freq_index, 0u);
  EXPECT_EQ(g1.core_type, 1u);
  EXPECT_EQ(g1.freq_index, 0u);
}

TEST(MemoryGate, ReEvaluatesEveryBatchWithHysteresis) {
  core::ControllerOptions opts;
  opts.memory_gate_hysteresis = 2;
  core::EewaController ctl(kOpteron, 4, opts);
  const auto id = ctl.class_id("c");
  const auto run_batch = [&](double cmi) {
    ctl.begin_batch();
    for (int i = 0; i < 10; ++i) {
      ctl.record_task(id, 0.01, 0, cmi, core::estimate_alpha_from_cmi(cmi));
    }
    ctl.end_batch(0.1);
  };

  run_batch(0.0);  // batch 0: compute-bound baseline
  EXPECT_FALSE(ctl.memory_bound_mode());
  EXPECT_EQ(ctl.memory_gate_flips(), 0u);

  // Phase 2 flips the verdict — but only after it persists hysteresis
  // (2) consecutive batches.
  run_batch(0.05);
  EXPECT_FALSE(ctl.memory_bound_mode()) << "one batch must not flip";
  run_batch(0.05);
  EXPECT_TRUE(ctl.memory_bound_mode());
  EXPECT_EQ(ctl.memory_gate_flips(), 1u);

  // Phase 3 goes compute-bound again: the gate un-trips and planning
  // resumes.
  run_batch(0.0);
  EXPECT_TRUE(ctl.memory_bound_mode());
  run_batch(0.0);
  EXPECT_FALSE(ctl.memory_bound_mode());
  EXPECT_EQ(ctl.memory_gate_flips(), 2u);
}

TEST(MemoryGate, OneNoisyBatchCannotBounceTheMode) {
  core::ControllerOptions opts;
  opts.memory_gate_hysteresis = 2;
  core::EewaController ctl(kOpteron, 4, opts);
  const auto id = ctl.class_id("c");
  const auto run_batch = [&](double cmi) {
    ctl.begin_batch();
    for (int i = 0; i < 10; ++i) ctl.record_task(id, 0.01, 0, cmi);
    ctl.end_batch(0.1);
  };
  run_batch(0.0);
  run_batch(0.05);  // noise
  run_batch(0.0);   // breaks the streak
  run_batch(0.05);  // noise again
  EXPECT_FALSE(ctl.memory_bound_mode());
  EXPECT_EQ(ctl.memory_gate_flips(), 0u);
}

TEST(FromMatrix, RejectsUnsortedClassMetadata) {
  std::vector<ClassProfile> unsorted = {{0, "light", 4, 0.5},
                                        {1, "heavy", 4, 2.0}};
  EXPECT_THROW(CCTable::from_matrix({{1.0, 2.0}, {2.0, 4.0}}, unsorted),
               std::invalid_argument);
  std::vector<ClassProfile> sorted = {{0, "heavy", 4, 2.0},
                                      {1, "light", 4, 0.5}};
  EXPECT_NO_THROW(CCTable::from_matrix({{2.0, 1.0}, {4.0, 2.0}}, sorted));
}

TEST(AlphaEstimate, ClampedAndMonotoneOnAdversarialCmi) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(core::estimate_alpha_from_cmi(nan), 0.0);
  EXPECT_EQ(core::estimate_alpha_from_cmi(-1.0), 0.0);
  EXPECT_EQ(core::estimate_alpha_from_cmi(0.0), 0.0);
  EXPECT_EQ(core::estimate_alpha_from_cmi(inf), 1.0);
  EXPECT_EQ(core::estimate_alpha_from_cmi(1e9), 1.0);
  // Degenerate saturation points saturate immediately.
  EXPECT_EQ(core::estimate_alpha_from_cmi(0.01, 0.0), 1.0);
  EXPECT_EQ(core::estimate_alpha_from_cmi(0.01, -1.0), 1.0);
  EXPECT_EQ(core::estimate_alpha_from_cmi(0.01, nan), 1.0);
  // Monotone and within [0, 1] over a grid.
  double prev = 0.0;
  for (double cmi = 0.0; cmi <= 0.1; cmi += 0.002) {
    const double a = core::estimate_alpha_from_cmi(cmi);
    EXPECT_GE(a, prev);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
    prev = a;
  }
}

trace::TaskTrace zero_alpha_trace() {
  trace::SyntheticSpec spec;
  spec.name = "zero_alpha";
  spec.seed = 7;
  spec.batches = 4;
  spec.classes = {{"h", 6, 400e-6, 0.2, 0.0, 0.0},
                  {"l", 12, 100e-6, 0.2, 0.0, 0.0}};
  return trace::generate(spec);
}

TEST(MemoryAwarePath, ZeroAlphaSimulationIsBitwiseIdentical) {
  // With every task's alpha at zero, memory_aware planning must change
  // nothing: same table, same plan, bitwise-identical simulated run.
  const auto trace = zero_alpha_trace();
  sim::SimOptions opts;
  opts.cores = 8;
  opts.fixed_adjuster_overhead_s = 50e-6;

  core::ControllerOptions on;
  on.adjuster.memory_aware = true;
  core::ControllerOptions off;
  off.adjuster.memory_aware = false;
  sim::EewaPolicy p_on({"h", "l"}, on);
  sim::EewaPolicy p_off({"h", "l"}, off);
  const auto r_on = sim::simulate(trace, p_on, opts);
  const auto r_off = sim::simulate(trace, p_off, opts);

  EXPECT_EQ(r_on.time_s, r_off.time_s);
  EXPECT_EQ(r_on.energy_j, r_off.energy_j);
  EXPECT_EQ(r_on.cpu_energy_j, r_off.cpu_energy_j);
  EXPECT_EQ(r_on.steals, r_off.steals);
  EXPECT_EQ(r_on.transitions, r_off.transitions);
  ASSERT_EQ(r_on.rung_residency_s.size(), r_off.rung_residency_s.size());
  for (std::size_t j = 0; j < r_on.rung_residency_s.size(); ++j) {
    EXPECT_EQ(r_on.rung_residency_s[j], r_off.rung_residency_s[j]);
  }
}

TEST(TypedMachine, ExecutesAndChargesPerCoreModels) {
  auto topo = std::make_shared<const MachineTopology>(
      MachineTopology::big_little());
  sim::SimOptions opts;
  opts.cores = 8;
  opts.topology = topo;
  opts.fixed_adjuster_overhead_s = 50e-6;
  sim::Machine m(opts);

  // Task execution scales by the core's type-relative slowdown: the
  // same task is slower on a LITTLE core at the same rung index.
  trace::TraceTask t;
  t.work_s = 1e-3;
  EXPECT_DOUBLE_EQ(m.exec_time_on(t, 0, 0), 1e-3);  // big @ row 0
  EXPECT_NEAR(m.exec_time_on(t, 4, 0), 1e-3 * (2.5 / 0.96), 1e-12);
  EXPECT_EQ(m.core_ladder_size(0), 4u);
  EXPECT_EQ(m.core_ladder_size(4), 4u);
  EXPECT_EQ(m.rung_axis_size(), 4u);

  // A full policy run completes and is deterministic.
  const auto trace = zero_alpha_trace();
  const auto r1 = sim::simulate_named(trace, "eewa", opts);
  const auto r2 = sim::simulate_named(trace, "eewa", opts);
  EXPECT_GT(r1.energy_j, 0.0);
  EXPECT_GT(r1.time_s, 0.0);
  EXPECT_EQ(r1.time_s, r2.time_s);
  EXPECT_EQ(r1.energy_j, r2.energy_j);
}

TEST(TypedNormalization, LittleRungsDivideByTheirOwnRowSlowdown) {
  // Eq. 1 on a typed machine divides a measured time by the executing
  // core's own row slowdown. Reading a LITTLE core through the reference
  // (big) ladder instead would make its tasks look 2.2-2.6x heavier.
  auto topo = std::make_shared<const MachineTopology>(
      MachineTopology::big_little());
  core::ControllerOptions copts;
  copts.adjuster.topology = topo;
  core::EewaController ctrl(kOpteron, topo->total_cores(), copts);
  ctrl.begin_batch();
  constexpr double kAlpha = 0.25;
  constexpr double kExecS = 1e-3;
  const std::size_t little = 1;
  for (std::size_t j = 0; j < topo->type(little).ladder.size(); ++j) {
    const double row = topo->row_slowdown(topo->row_of(little, j));
    EXPECT_EQ(core::effective_slowdown(topo.get(), kOpteron, little, j, 0.0),
              row);
    EXPECT_GT(row, 2.0 * kOpteron.slowdown(j)) << "rung " << j;
    const double eff =
        core::effective_slowdown(topo.get(), kOpteron, little, j, kAlpha);
    EXPECT_EQ(eff, kAlpha + (1.0 - kAlpha) * row);
    // The controller's record_task normalizes through the same function.
    const std::size_t id = ctrl.class_id("little_rung_" + std::to_string(j));
    ctrl.record_task(id, kExecS, j, 0.0, kAlpha, little);
    EXPECT_EQ(ctrl.registry().max_workload(id), kExecS / eff) << "rung " << j;
  }
  // Untyped machines fall back to the ladder's F0/Fj.
  for (std::size_t j = 0; j < kOpteron.size(); ++j) {
    EXPECT_EQ(core::effective_slowdown(nullptr, kOpteron, 0, j, 0.0),
              kOpteron.slowdown(j));
  }
}

TEST(TypedMachine, ValidatesTopologyAgainstOptions) {
  auto topo = std::make_shared<const MachineTopology>(
      MachineTopology::big_little());
  sim::SimOptions wrong_cores;
  wrong_cores.cores = 16;  // topology has 8
  wrong_cores.topology = topo;
  EXPECT_THROW(sim::Machine{wrong_cores}, std::invalid_argument);

  auto proxy = std::make_shared<const MachineTopology>(proxy_big_little());
  sim::SimOptions no_models;
  no_models.cores = 8;
  no_models.topology = proxy;  // no per-type power models
  EXPECT_THROW(sim::Machine{no_models}, std::invalid_argument);
}

TEST(TypedFleet, BigLittleMachinesRunDeterministically) {
  // A fleet of big.LITTLE machines: the topology rides in through the
  // per-machine SimOptions and the whole FleetReport must stay bitwise
  // reproducible.
  auto topo = std::make_shared<const MachineTopology>(
      MachineTopology::big_little());
  sim::FleetOptions opts;
  opts.machines = 3;
  opts.machine.cores = topo->total_cores();
  opts.machine.topology = topo;

  trace::ArrivalSpec arrivals;
  arrivals.name = "hetero_mix";
  arrivals.classes = {{"h", 1.0, 400e-6, 0.2, 0.0, 0.0, 1},
                      {"l", 2.0, 100e-6, 0.2, 0.0, 0.0, 1}};
  arrivals.load = 0.5;
  arrivals.cores = opts.machines * opts.machine.cores;
  arrivals.duration_s = 0.2;
  arrivals.seed = 5;

  const auto r1 = sim::Fleet(opts, arrivals).run();
  const auto r2 = sim::Fleet(opts, arrivals).run();
  EXPECT_GT(r1.routed, 0u);
  EXPECT_EQ(r1.in_flight, 0u);
  EXPECT_GT(r1.energy_j, 0.0);
  EXPECT_TRUE(r1 == r2);
}

TEST(HeteroFuzz, SweepIsCleanAndShrinkable) {
  const auto sweep = testing::run_sweep(testing::FuzzMode::kHetero, 1, 64);
  EXPECT_EQ(sweep.ran, 64u);
  EXPECT_EQ(sweep.failed, 0u)
      << (sweep.failures.empty() ? "" : sweep.failures[0].failure);

  // The shrinker reaches a fixed point on a synthetic predicate: "has
  // more than one type" shrinks to exactly two types (dropping either
  // breaks the predicate, the one-type mutant stops failing).
  auto spec = testing::HeteroSpec::random(3);
  while (spec.types.size() < 2) {
    spec = testing::HeteroSpec::random(spec.seed + 1);
  }
  const auto shrunk = testing::shrink_hetero(
      spec,
      [](const testing::HeteroSpec& s) { return s.types.size() > 1; });
  EXPECT_EQ(shrunk.types.size(), 2u);
}

}  // namespace
}  // namespace eewa
