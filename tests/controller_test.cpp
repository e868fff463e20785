// Tests for the adjuster pipeline, the CPU/memory-bound classifier, the
// WATS allocation helper, and the EewaController batch state machine
// (paper Fig. 2): measurement batch at F0, replanning, DVFS application,
// overhead accounting, and the §IV-D memory-bound fallback.
#include <gtest/gtest.h>

#include <cmath>

#include "core/adjuster.hpp"
#include "core/classifier.hpp"
#include "core/eewa_controller.hpp"
#include "core/wats_allocation.hpp"
#include "dvfs/trace_backend.hpp"

namespace eewa::core {
namespace {

const dvfs::FrequencyLadder kLadder = dvfs::FrequencyLadder::opteron8380();

TEST(Adjuster, FullPipelineProducesPlannedLayout) {
  Adjuster adj(kLadder, 16);
  // Low overall load: 16 tasks × 0.5 s of F0 work against T = 2 s needs
  // only 4 F0-cores, so the adjuster can downclock.
  std::vector<ClassProfile> classes = {{0, "f", 16, 0.5}};
  const auto out = adj.adjust(classes, 1, 2.0);
  EXPECT_TRUE(out.attempted);
  ASSERT_TRUE(out.search.found);
  ASSERT_TRUE(out.plan.planned);
  // Some cores must be below F0 (that is the whole point).
  const auto per_rung = out.plan.layout.cores_per_rung(kLadder.size());
  EXPECT_LT(per_rung[0], 16u);
}

TEST(Adjuster, EmptyProfileFallsBackToUniform) {
  Adjuster adj(kLadder, 8);
  const auto out = adj.adjust({}, 0, 1.0);
  EXPECT_FALSE(out.attempted);
  EXPECT_FALSE(out.plan.planned);
  EXPECT_EQ(out.plan.layout.group_count(), 1u);
}

TEST(Adjuster, RejectsZeroCores) {
  EXPECT_THROW(Adjuster(kLadder, 0), std::invalid_argument);
}

TEST(Adjuster, RejectsNonFiniteTimeMargin) {
  // std::clamp would pass a NaN margin through to T·(1 - margin).
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    AdjusterOptions opt;
    opt.time_margin = bad;
    EXPECT_THROW(Adjuster(kLadder, 16, opt), std::invalid_argument) << bad;
  }
}

TEST(Adjuster, ExhaustiveOptionUsesModel) {
  // The energy-optimal searcher plans under the adjuster's model: its
  // tuple is the one search_pruned finds with that model.
  const auto model = energy::PowerModel::opteron8380_server();
  AdjusterOptions opt;
  opt.search = SearchKind::kPruned;
  opt.model = &model;
  Adjuster adj(kLadder, 16, opt);
  std::vector<ClassProfile> classes = {{0, "a", 8, 1.0}, {1, "b", 8, 0.25}};
  const auto out = adj.adjust(classes, 2, 2.0);
  ASSERT_TRUE(out.search.found);
  EXPECT_TRUE(tuple_is_valid(out.cc, out.search.tuple, 16));
  EXPECT_EQ(out.search.tuple, search_pruned(out.cc, 16, &model).tuple);
}

TEST(Adjuster, RejectsModelOverADifferentLadder) {
  // A 3-rung model cannot price the 4-rung Opteron ladder: the first plan
  // would index past its rungs, so construction must refuse it.
  const energy::PowerModel model(dvfs::FrequencyLadder({2.5, 1.8, 0.8}),
                                 {1.3, 1.1, 0.9}, 3.0, 1.0, 0.0);
  AdjusterOptions opt;
  opt.search = SearchKind::kPruned;
  opt.model = &model;
  EXPECT_THROW(Adjuster(kLadder, 16, opt), std::invalid_argument);
  ControllerOptions copt;
  copt.adjuster = opt;
  EXPECT_THROW(EewaController(kLadder, 16, copt), std::invalid_argument);
  // A model over a ladder of the same size is accepted and used.
  const auto matching = energy::PowerModel::opteron8380_server();
  opt.model = &matching;
  Adjuster adj(kLadder, 16, opt);
  const auto out = adj.adjust({{0, "a", 8, 1.0}, {1, "b", 8, 0.25}}, 2, 2.0);
  EXPECT_TRUE(out.search.found);
}

TEST(Classifier, ThresholdsWork) {
  BoundednessClassifier c(0.01, 0.5);
  c.record(5, 1000);    // cmi 0.005 -> cpu-bound
  c.record(50, 1000);   // cmi 0.05  -> memory-bound
  c.record(0, 0);       // no instructions -> cpu-bound
  EXPECT_EQ(c.task_count(), 3u);
  EXPECT_EQ(c.memory_bound_count(), 1u);
  EXPECT_NEAR(c.memory_bound_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_FALSE(c.application_memory_bound());
  c.record_cmi(0.2);
  c.record_cmi(0.2);
  EXPECT_TRUE(c.application_memory_bound());
  c.reset();
  EXPECT_EQ(c.task_count(), 0u);
  EXPECT_FALSE(c.application_memory_bound());
}

TEST(WatsAllocation, HeavyClassesGoToFastGroups) {
  std::vector<ClassProfile> profile = {{0, "heavy", 10, 4.0},
                                       {1, "mid", 10, 1.0},
                                       {2, "light", 10, 0.2}};
  // Two groups with equal capacity: the heavy class alone exceeds the
  // fast group's half share, so mid and light fall to the slow group.
  const auto map = allocate_classes_proportional(profile, {1.0, 1.0}, 3);
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[1], 1u);
  EXPECT_EQ(map[2], 1u);
}

TEST(WatsAllocation, SingleGroupTakesEverything) {
  std::vector<ClassProfile> profile = {{0, "a", 1, 1.0}, {1, "b", 1, 0.5}};
  const auto map = allocate_classes_proportional(profile, {2.0}, 2);
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[1], 0u);
}

TEST(WatsAllocation, EmptyProfileMapsToFastest) {
  const auto map = allocate_classes_proportional({}, {1.0, 1.0}, 3);
  for (auto g : map) EXPECT_EQ(g, 0u);
}

TEST(WatsAllocation, RejectsNoGroups) {
  EXPECT_THROW(allocate_classes_proportional({}, {}, 0),
               std::invalid_argument);
}

// ------------------------------------------------------ EewaController --

TEST(EewaController, FirstBatchIsMeasurementAtF0) {
  EewaController ctrl(kLadder, 16);
  EXPECT_FALSE(ctrl.plan().planned);
  EXPECT_EQ(ctrl.plan().layout.group(0).freq_index, 0u);
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 0.0);
}

TEST(EewaController, RecordsIdealTimeAndReplans) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  // 16 tasks, 0.5 s each at F0, against a 2 s makespan: underutilized.
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.5, 0);
  const auto& plan = ctrl.end_batch(2.0);
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 2.0);
  EXPECT_EQ(ctrl.batches_completed(), 1u);
  ASSERT_TRUE(plan.planned);
  const auto per_rung = plan.layout.cores_per_rung(kLadder.size());
  EXPECT_LT(per_rung[0], 16u);  // downclocked something
  EXPECT_GT(ctrl.adjust_overhead_us(), 0.0);
}

TEST(EewaController, NormalizesBySlowCoreRung) {
  EewaController ctrl(kLadder, 4);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  // Task ran 2.5 s on the 0.8 GHz rung: normalized w = 0.8 s.
  ctrl.record_task(f, 2.5, 3);
  ctrl.end_batch(2.5);
  EXPECT_NEAR(ctrl.registry().mean_workload(f), 2.5 * 0.8 / 2.5, 1e-12);
}

TEST(EewaController, IdealTimeFixedAfterFirstBatch) {
  EewaController ctrl(kLadder, 8);
  const auto f = ctrl.class_id("f");
  for (int batch = 0; batch < 3; ++batch) {
    ctrl.begin_batch();
    for (int i = 0; i < 8; ++i) ctrl.record_task(f, 0.1, 0);
    ctrl.end_batch(batch == 0 ? 1.0 : 5.0);
  }
  EXPECT_DOUBLE_EQ(ctrl.ideal_time_s(), 1.0);
  EXPECT_EQ(ctrl.batches_completed(), 3u);
}

TEST(EewaController, AppliesPlanToBackend) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
  ctrl.end_batch(2.0);
  dvfs::TraceBackend backend(kLadder, 16);
  EXPECT_EQ(ctrl.apply(backend), 16u);
  // Backend rungs now match the plan layout.
  for (const auto& g : ctrl.plan().layout.groups()) {
    for (std::size_t c : g.cores) {
      EXPECT_EQ(backend.frequency_index(c), g.freq_index);
    }
  }
}

TEST(EewaController, GroupOfClassRoutesUnknownToFastest) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
  ctrl.end_batch(2.0);
  const auto g = ctrl.class_id("new_class");  // interned after planning
  EXPECT_EQ(ctrl.group_of_class(g), 0u);
}

TEST(EewaController, MemoryBoundGateDisablesPlanning) {
  ControllerOptions opt;
  opt.memory_gate_enabled = true;
  opt.task_cmi_threshold = 0.01;
  opt.app_memory_fraction = 0.5;
  EewaController ctrl(kLadder, 16, opt);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0, /*cmi=*/0.1);
  ctrl.end_batch(2.0);
  EXPECT_TRUE(ctrl.memory_bound_mode());
  EXPECT_FALSE(ctrl.plan().planned);
  // Later batches stay at uniform F0 no matter what.
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0, 0.0);
  ctrl.end_batch(2.0);
  EXPECT_FALSE(ctrl.plan().planned);
}

TEST(EewaController, CpuBoundAppsPassTheGate) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0, /*cmi=*/0.001);
  ctrl.end_batch(2.0);
  EXPECT_FALSE(ctrl.memory_bound_mode());
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, GateCanBeDisabled) {
  ControllerOptions opt;
  opt.memory_gate_enabled = false;
  EewaController ctrl(kLadder, 16, opt);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0, /*cmi=*/0.5);
  ctrl.end_batch(2.0);
  EXPECT_FALSE(ctrl.memory_bound_mode());
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, PreferencesMatchPlanGroups) {
  EewaController ctrl(kLadder, 16);
  const auto heavy = ctrl.class_id("heavy");
  const auto light = ctrl.class_id("light");
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(heavy, 0.5, 0);
  for (int i = 0; i < 8; ++i) ctrl.record_task(light, 0.05, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.preferences().group_count(),
            ctrl.plan().layout.group_count());
}

TEST(EewaController, StableProfileReusesPlan) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  for (int batch = 0; batch < 3; ++batch) {
    ctrl.begin_batch();
    for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
    ctrl.end_batch(2.0);
  }
  // Batch 1 searches (and saves the basis); batches 2 and 3 present a
  // statistically identical profile and must skip Algorithm 1.
  EXPECT_EQ(ctrl.plans_reused(), 2u);
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, DriftingClassTriggersResearch) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
  ctrl.end_batch(2.0);
  // Class f's mean workload drifts far past the 1% tolerance: the
  // memoized plan must be dropped and the k-tuple search re-run.
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.50, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_reused(), 0u);
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, NewActiveClassTriggersResearch) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
  ctrl.end_batch(2.0);
  // A class unseen at search time joins the profile: reuse must not
  // serve it a plan whose layout predates its existence.
  const auto g = ctrl.class_id("g");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
  for (int i = 0; i < 16; ++i) ctrl.record_task(g, 0.10, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_reused(), 0u);
}

TEST(EewaController, MaxWorkloadSpikeInvalidatesReuse) {
  // Regression: reuse used to compare only the class means, but rung
  // feasibility is gated on the heaviest task (critical path). A batch
  // whose mean barely moves while one task spikes must re-search — the
  // cached tuple may now be infeasible for the spiked critical path.
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  ctrl.begin_batch();
  for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
  ctrl.end_batch(2.0);
  ctrl.begin_batch();
  // Cumulative mean moves 0.625% (inside the 1% tolerance); the
  // iteration max jumps 20%.
  for (int i = 0; i < 15; ++i) ctrl.record_task(f, 0.25, 0);
  ctrl.record_task(f, 0.30, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_reused(), 0u);
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, SuffixDriftReplansIncrementally) {
  // Only the lighter class drifts: the heavy class keeps its sorted
  // position and statistics, so its rung is pinned and only the suffix
  // of the lattice is re-searched.
  EewaController ctrl(kLadder, 16);
  const auto heavy = ctrl.class_id("heavy");
  const auto light = ctrl.class_id("light");
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(heavy, 0.5, 0);
  for (int i = 0; i < 8; ++i) ctrl.record_task(light, 0.10, 0);
  ctrl.end_batch(2.0);
  const auto first_tuple = ctrl.last_search().tuple;
  ASSERT_FALSE(first_tuple.empty());
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(heavy, 0.5, 0);
  for (int i = 0; i < 8; ++i) ctrl.record_task(light, 0.20, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_reused(), 0u);
  EXPECT_EQ(ctrl.plans_incremental(), 1u);
  EXPECT_TRUE(ctrl.plan().planned);
  // The stable prefix kept its rung verbatim.
  ASSERT_FALSE(ctrl.last_search().tuple.empty());
  EXPECT_EQ(ctrl.last_search().tuple[0], first_tuple[0]);
}

TEST(EewaController, ReplanFromAnExternalProfile) {
  // The service planner calls replan() directly with its own window
  // profile and T, outside any batch: the same reuse and suffix rules
  // apply, and T is the caller's, not the batch ideal time.
  EewaController ctrl(kLadder, 16);
  const auto profile = [](double light_w) {
    ClassProfile heavy{0, "heavy", 8, 0.5, 0.5, 0.0};
    ClassProfile light{1, "light", 8, light_w, light_w, 0.0};
    return std::vector<ClassProfile>{heavy, light};
  };
  EXPECT_TRUE(ctrl.replan(profile(0.10), 2, 2.0));
  EXPECT_TRUE(ctrl.plan().planned);
  EXPECT_EQ(ctrl.plan().layout.class_count(), 2u);
  EXPECT_FALSE(ctrl.replan(profile(0.10), 2, 2.0));
  EXPECT_EQ(ctrl.plans_reused(), 1u);
  // Only the lighter class drifted: the heavy prefix keeps its rung.
  EXPECT_TRUE(ctrl.replan(profile(0.20), 2, 2.0));
  EXPECT_EQ(ctrl.plans_incremental(), 1u);
  // A new T invalidates reuse even for an unchanged profile.
  EXPECT_TRUE(ctrl.replan(profile(0.20), 2, 3.0));
  EXPECT_EQ(ctrl.plans_reused(), 1u);
  EXPECT_EQ(ctrl.plans_incremental(), 1u);
  // An empty window plans uniform F0.
  EXPECT_TRUE(ctrl.replan({}, 2, 3.0));
  EXPECT_FALSE(ctrl.plan().planned);
  EXPECT_EQ(ctrl.plan().layout.group_count(), 1u);
  EXPECT_EQ(ctrl.batches_completed(), 0u);
}

TEST(EewaController, DriftedClassMergingIntoGroupInvalidatesSuffix) {
  // Regression for the incremental path: when a drifted class's new
  // statistics would merge it into another class's c-group, everything
  // from its sorted position on must be re-searched — the stable prefix
  // ends before it, never after.
  EewaController ctrl(kLadder, 16);
  const auto a = ctrl.class_id("a");
  const auto b = ctrl.class_id("b");
  const auto c = ctrl.class_id("c");
  ctrl.begin_batch();
  for (int i = 0; i < 6; ++i) ctrl.record_task(a, 0.60, 0);
  for (int i = 0; i < 6; ++i) ctrl.record_task(b, 0.30, 0);
  for (int i = 0; i < 6; ++i) ctrl.record_task(c, 0.05, 0);
  ctrl.end_batch(2.0);
  const auto first_tuple = ctrl.last_search().tuple;
  ASSERT_EQ(first_tuple.size(), 3u);
  ctrl.begin_batch();
  // c drifts up toward b (cumulative mean ~0.15, still third): the
  // cached rungs for a and b survive, c's does not.
  for (int i = 0; i < 6; ++i) ctrl.record_task(a, 0.60, 0);
  for (int i = 0; i < 6; ++i) ctrl.record_task(b, 0.30, 0);
  for (int i = 0; i < 6; ++i) ctrl.record_task(c, 0.25, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_reused(), 0u);
  EXPECT_EQ(ctrl.plans_incremental(), 1u);
  const auto& second = ctrl.last_search().tuple;
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(second[0], first_tuple[0]);
  EXPECT_EQ(second[1], first_tuple[1]);
  // Groups must stay consistent with the re-searched plan: classes map
  // inside the layout's group range.
  EXPECT_LT(ctrl.group_of_class(c), ctrl.plan().layout.group_count());
  EXPECT_LE(ctrl.group_of_class(a), ctrl.group_of_class(b));
  EXPECT_LE(ctrl.group_of_class(b), ctrl.group_of_class(c));
}

TEST(EewaController, VanishedClassReplansIncrementallyOverPrefix) {
  EewaController ctrl(kLadder, 16);
  const auto f = ctrl.class_id("f");
  const auto g = ctrl.class_id("g");
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(f, 0.5, 0);
  for (int i = 0; i < 8; ++i) ctrl.record_task(g, 0.1, 0);
  ctrl.end_batch(2.0);
  // g goes quiet: full reuse is out (active set changed), but f's
  // statistics are untouched, so its rung carries over.
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(f, 0.5, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_reused(), 0u);
  EXPECT_EQ(ctrl.plans_incremental(), 1u);
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, IncrementalReplanCanBeDisabled) {
  ControllerOptions opt;
  opt.incremental_replan_enabled = false;
  EewaController ctrl(kLadder, 16, opt);
  const auto heavy = ctrl.class_id("heavy");
  const auto light = ctrl.class_id("light");
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(heavy, 0.5, 0);
  for (int i = 0; i < 8; ++i) ctrl.record_task(light, 0.10, 0);
  ctrl.end_batch(2.0);
  ctrl.begin_batch();
  for (int i = 0; i < 8; ++i) ctrl.record_task(heavy, 0.5, 0);
  for (int i = 0; i < 8; ++i) ctrl.record_task(light, 0.20, 0);
  ctrl.end_batch(2.0);
  EXPECT_EQ(ctrl.plans_incremental(), 0u);
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, PlanReuseCanBeDisabled) {
  ControllerOptions opt;
  opt.plan_reuse_enabled = false;
  EewaController ctrl(kLadder, 16, opt);
  const auto f = ctrl.class_id("f");
  for (int batch = 0; batch < 3; ++batch) {
    ctrl.begin_batch();
    for (int i = 0; i < 16; ++i) ctrl.record_task(f, 0.25, 0);
    ctrl.end_batch(2.0);
  }
  EXPECT_EQ(ctrl.plans_reused(), 0u);
  EXPECT_TRUE(ctrl.plan().planned);
}

TEST(EewaController, HeavierClassNeverOnSlowerGroupThanLighter) {
  EewaController ctrl(kLadder, 16);
  const auto heavy = ctrl.class_id("heavy");
  const auto light = ctrl.class_id("light");
  ctrl.begin_batch();
  for (int i = 0; i < 6; ++i) ctrl.record_task(heavy, 0.9, 0);
  for (int i = 0; i < 20; ++i) ctrl.record_task(light, 0.1, 0);
  ctrl.end_batch(2.0);
  if (ctrl.plan().planned) {
    EXPECT_LE(ctrl.group_of_class(heavy), ctrl.group_of_class(light));
  }
}

}  // namespace
}  // namespace eewa::core
