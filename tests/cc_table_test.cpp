// Tests for the CC table (paper Table I): the CC[j][i] formula, the
// Fig. 3 worked example, ordering requirements, the ceiling rule, and
// the per-cell values cached at construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/cc_table.hpp"
#include "core/ktuple_search.hpp"
#include "testing/scenario.hpp"

namespace eewa::core {
namespace {

const dvfs::FrequencyLadder kLadder = dvfs::FrequencyLadder::opteron8380();

std::vector<ClassProfile> two_classes() {
  // heavy: 8 tasks × 2 s; light: 16 tasks × 0.5 s.
  return {{0, "heavy", 8, 2.0}, {1, "light", 16, 0.5}};
}

TEST(CCTable, TopRowIsWorkOverT) {
  const auto cc = CCTable::build(two_classes(), kLadder, 4.0);
  EXPECT_EQ(cc.rows(), 4u);
  EXPECT_EQ(cc.cols(), 2u);
  EXPECT_NEAR(cc.at(0, 0), 8 * 2.0 / 4.0, 1e-12);   // 4 cores
  EXPECT_NEAR(cc.at(0, 1), 16 * 0.5 / 4.0, 1e-12);  // 2 cores
}

TEST(CCTable, LowerRowsScaleBySlowdown) {
  const auto cc = CCTable::build(two_classes(), kLadder, 4.0);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(cc.at(j, i), kLadder.slowdown(j) * cc.at(0, i), 1e-12);
    }
  }
  // Slowest row needs the most cores.
  EXPECT_GT(cc.at(3, 0), cc.at(0, 0));
}

TEST(CCTable, Figure3Example) {
  // The paper's Fig. 3: 4 task classes, 4 frequencies, 16 cores. We
  // reproduce the matrix exactly as printed.
  const auto cc = CCTable::from_matrix({{2, 3, 1, 1},
                                        {4, 6, 2, 2},
                                        {6, 9, 3, 3},
                                        {8, 12, 4, 4}});
  EXPECT_EQ(cc.rows(), 4u);
  EXPECT_EQ(cc.cols(), 4u);
  EXPECT_DOUBLE_EQ(cc.at(1, 1), 6.0);
  EXPECT_DOUBLE_EQ(cc.at(3, 0), 8.0);
  EXPECT_EQ(cc.ceil_at(2, 2), 3u);
}

TEST(CCTable, CeilRoundsUpAndKeepsMinimumOne) {
  const auto cc = CCTable::from_matrix({{0.2, 2.0, 3.01}});
  EXPECT_EQ(cc.ceil_at(0, 0), 1u);  // fractional demand still needs a core
  EXPECT_EQ(cc.ceil_at(0, 1), 2u);  // exact integers stay
  EXPECT_EQ(cc.ceil_at(0, 2), 4u);
}

TEST(CCTable, CeilOfZeroIsZero) {
  const auto cc = CCTable::from_matrix({{0.0}});
  EXPECT_EQ(cc.ceil_at(0, 0), 0u);
}

TEST(CCTable, RequiresDescendingClassOrder) {
  std::vector<ClassProfile> wrong = {{0, "light", 16, 0.5},
                                     {1, "heavy", 8, 2.0}};
  EXPECT_THROW(CCTable::build(wrong, kLadder, 4.0), std::invalid_argument);
}

TEST(CCTable, ValidatesInputs) {
  EXPECT_THROW(CCTable::build({}, kLadder, 4.0), std::invalid_argument);
  EXPECT_THROW(CCTable::build(two_classes(), kLadder, 0.0),
               std::invalid_argument);
  // A NaN passes `T <= 0`; a non-finite T is no ideal time either.
  for (const double bad : {std::nan(""), -std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(CCTable::build(two_classes(), kLadder, bad),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(CCTable::from_matrix({}), std::invalid_argument);
  EXPECT_THROW(CCTable::from_matrix({{1.0, 2.0}, {3.0}}),
               std::invalid_argument);
  const auto cc = CCTable::build(two_classes(), kLadder, 4.0);
  EXPECT_THROW(cc.at(9, 0), std::out_of_range);
  EXPECT_THROW(cc.at(0, 9), std::out_of_range);
}

TEST(CCTable, KeepsClassMetadata) {
  const auto cc = CCTable::build(two_classes(), kLadder, 4.0);
  ASSERT_EQ(cc.classes().size(), 2u);
  EXPECT_EQ(cc.classes()[0].name, "heavy");
  EXPECT_DOUBLE_EQ(cc.ideal_time_s(), 4.0);
}

TEST(CCTable, ToStringRendersAllCells) {
  const auto cc = CCTable::build(two_classes(), kLadder, 4.0);
  const std::string s = cc.to_string();
  EXPECT_NE(s.find("heavy"), std::string::npos);
  EXPECT_NE(s.find("F0"), std::string::npos);
  EXPECT_NE(s.find("F3"), std::string::npos);
}

TEST(RungFeasible, RejectsRungsWhereAMeanTaskMissesT) {
  // One class, mean 1 s, no max metadata recorded (max == 0); T = 1.5 s.
  // At half frequency a mean task takes 2 s > T — the rung must be
  // rejected even though max_workload is absent, or demand()'s rounds<1
  // fallback would silently rank tuples the filter should have blocked.
  std::vector<ClassProfile> cls{{0, "a", 4, 1.0, 0.0, 0.0}};
  const auto cc =
      CCTable::build(cls, dvfs::FrequencyLadder({2.0, 1.0}), 1.5, false);
  EXPECT_TRUE(cc.rung_feasible(0, 0));  // F0 is never rejected
  EXPECT_FALSE(cc.rung_feasible(1, 0));
}

TEST(RungFeasible, AgreesWithDemandOnWhetherAMeanTaskFits) {
  // For every admitted rung j > 0, a mean-sized task must complete
  // within T — i.e. demand() never falls into its rounds < 1 branch for
  // a rung rung_feasible() accepted. Swept over tight and loose T.
  const dvfs::FrequencyLadder ladder({3.0, 2.0, 1.2, 1.0});
  for (double t : {0.4, 0.9, 1.7, 3.5, 9.0}) {
    std::vector<ClassProfile> cls{{0, "heavy", 3, 1.0, 0.0, 0.0},
                                  {1, "light", 20, 0.3, 0.0, 0.0}};
    const auto cc = CCTable::build(cls, ladder, t, false);
    for (std::size_t i = 0; i < cc.cols(); ++i) {
      for (std::size_t j = 1; j < cc.rows(); ++j) {
        const double task_time =
            cls[i].mean_workload * cc.at(j, i) / cc.at(0, i);
        EXPECT_EQ(cc.rung_feasible(j, i), task_time <= t * (1.0 + 1e-9))
            << "T=" << t << " j=" << j << " i=" << i;
      }
    }
  }
}

// The real pipeline: profiles from a registry produce a valid table.
TEST(CCTable, BuildsFromRegistryProfile) {
  TaskClassRegistry reg;
  const auto a = reg.intern("a");
  const auto b = reg.intern("b");
  for (int i = 0; i < 10; ++i) reg.record(a, 1.0);
  for (int i = 0; i < 10; ++i) reg.record(b, 0.25);
  const auto cc = CCTable::build(reg.iteration_profile(), kLadder, 2.0);
  EXPECT_NEAR(cc.at(0, 0), 5.0, 1e-12);   // class a: 10·1/2
  EXPECT_NEAR(cc.at(0, 1), 1.25, 1e-12);  // class b: 10·0.25/2
}

// ------------------------------------------------------- cached cells --

// Reference derivations: the per-call formulas the accessors computed
// before their values were cached at construction, read through at()
// and classes() only. The cached accessors must match them bit for bit.
bool ref_rung_feasible(const CCTable& cc, std::size_t j, std::size_t i) {
  if (j == 0) return true;
  if (cc.ideal_time_s() <= 0.0) return true;
  const ClassProfile& c = cc.classes().at(i);
  if (cc.at(0, i) <= 0.0) return true;
  const double critical = std::max(c.max_workload, c.mean_workload);
  if (critical <= 0.0) return true;
  const double slowdown = cc.at(j, i) / cc.at(0, i);
  return critical * slowdown <= cc.ideal_time_s() * (1.0 + 1e-9);
}

double ref_demand(const CCTable& cc, std::size_t j, std::size_t i) {
  const double base = cc.at(j, i);
  if (cc.ideal_time_s() <= 0.0) return base;
  const ClassProfile& c = cc.classes().at(i);
  if (c.count == 0 || c.mean_workload <= 0.0 || cc.at(0, i) <= 0.0) {
    return base;
  }
  const double slowdown = cc.at(j, i) / cc.at(0, i);
  const double task_time = c.mean_workload * slowdown;
  const double rounds = std::floor(cc.ideal_time_s() / task_time + 1e-9);
  if (rounds < 1.0) return std::max(base, static_cast<double>(c.count));
  return std::max(base, static_cast<double>(c.count) / rounds);
}

double ref_proxy_slowdown(const CCTable& cc, std::size_t j) {
  double slowdown = 0.0;
  for (std::size_t i = 0; i < cc.cols(); ++i) {
    if (cc.at(j, i) > 0.0 && cc.at(0, i) > 0.0) {
      slowdown = std::max(slowdown, cc.at(j, i) / cc.at(0, i));
    }
  }
  return slowdown;
}

double ref_proxy_power(const CCTable& cc, std::size_t j) {
  const double slowdown = ref_proxy_slowdown(cc, j);
  const double rel =
      slowdown > 0.0 ? 1.0 / slowdown : 1.0 / (1.0 + static_cast<double>(j));
  return rel * rel * rel;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every cell and row of `cc` against the reference, plus the column
/// views against the scalar accessors.
void expect_cells_match_reference(const CCTable& cc, const std::string& tag) {
  for (std::size_t i = 0; i < cc.cols(); ++i) {
    const auto demand = cc.demand_column(i);
    const auto feasible = cc.feasible_column(i);
    ASSERT_EQ(demand.size(), cc.rows()) << tag;
    ASSERT_EQ(feasible.size(), cc.rows()) << tag;
    for (std::size_t j = 0; j < cc.rows(); ++j) {
      EXPECT_EQ(bits(cc.demand(j, i)), bits(ref_demand(cc, j, i)))
          << tag << " demand j=" << j << " i=" << i;
      EXPECT_EQ(cc.rung_feasible(j, i), ref_rung_feasible(cc, j, i))
          << tag << " rung_feasible j=" << j << " i=" << i;
      EXPECT_EQ(bits(demand[j]), bits(cc.demand(j, i))) << tag;
      EXPECT_EQ(feasible[j] != 0, cc.rung_feasible(j, i)) << tag;
    }
  }
  for (std::size_t j = 0; j < cc.rows(); ++j) {
    EXPECT_EQ(bits(cc.proxy_slowdown(j)), bits(ref_proxy_slowdown(cc, j)))
        << tag << " proxy_slowdown j=" << j;
    // Typed tables price rows from their topology, never the proxy.
    if (cc.topology() != nullptr) continue;
    EXPECT_EQ(bits(proxy_rung_power(cc, j)), bits(ref_proxy_power(cc, j)))
        << tag << " proxy_rung_power j=" << j;
  }
}

/// Classes with the degenerate shapes the cached derivation must keep:
/// a zero-work column (count 0), a class without max metadata
/// (max_workload 0), a coarse class whose tasks miss T at low rungs, and
/// a fine-grained one.
std::vector<ClassProfile> edge_classes() {
  return {{0, "coarse", 3, 2.0, 2.6, 0.3},
          {1, "nomax", 5, 1.0, 0.0, 0.0},
          {2, "idle", 0, 0.8, 0.0, 0.0},
          {3, "fine", 400, 0.01, 0.02, 0.6}};
}

TEST(CachedCells, BuildMatchesReference) {
  for (const double t : {0.5, 1.9, 2.7, 6.0, 40.0}) {
    for (const bool mem : {false, true}) {
      const auto cc = CCTable::build(edge_classes(), kLadder, t, mem);
      expect_cells_match_reference(
          cc, "build T=" + std::to_string(t) + " mem=" + std::to_string(mem));
    }
  }
}

TEST(CachedCells, ToleranceBoundariesMatchReference) {
  // Tenth-second tasks against T near a multiple of them: the quotients
  // land a rounding error either side of an integer (0.3 / 0.1 =
  // 2.9999999999999996, 0.1 · 3 = 0.30000000000000004), where the 1e-9
  // tolerances of the rung guard and the packing bound decide.
  const dvfs::FrequencyLadder ladder({3.0, 1.5, 1.0});
  for (const double t : {0.1, 0.2, 0.3, 0.6, 0.7, 0.9, 1.2}) {
    std::vector<ClassProfile> cls{{0, "tenth", 7, 0.1, 0.1, 0.0},
                                  {1, "third", 4, 0.1 / 3.0, 0.1, 0.0}};
    const auto cc = CCTable::build(cls, ladder, t);
    expect_cells_match_reference(cc, "T=" + std::to_string(t));
  }
  const auto cc = CCTable::build({{0, "tenth", 7, 0.1, 0.1, 0.0}},
                                 dvfs::FrequencyLadder({3.0, 1.0}), 0.3);
  EXPECT_TRUE(cc.rung_feasible(1, 0));  // 0.1 · 3 fits T = 0.3
  EXPECT_DOUBLE_EQ(cc.demand(0, 0), 7.0 / 3.0);  // three tasks per core
}

TEST(CachedCells, BuildTypedMatchesReference) {
  const auto topo = MachineTopology::big_little();
  for (const double t : {0.7, 2.7, 12.0}) {
    for (const bool mem : {false, true}) {
      const auto cc = CCTable::build_typed(edge_classes(), topo, t, mem);
      expect_cells_match_reference(cc, "build_typed T=" + std::to_string(t));
    }
  }
}

TEST(CachedCells, FromMatrixMatchesReference) {
  // Bare: a zero column and a column with work only below F0.
  const auto bare = CCTable::from_matrix({{2, 0, 0, 1}, {3, 0, 1, 2}});
  expect_cells_match_reference(bare, "bare");
  // With classes: the metadata is kept, but a matrix carries no T, so
  // every rung stays feasible and demand is the raw cell.
  const auto with = CCTable::from_matrix({{4, 1, 0}, {6, 2, 0}, {9, 3, 0}},
                                         {{0, "a", 2, 2.0, 0.0, 0.0},
                                          {1, "b", 1, 1.0, 3.0, 0.0},
                                          {2, "c", 0, 0.0, 0.0, 0.0}});
  expect_cells_match_reference(with, "with classes");
}

TEST(CachedCells, FuzzTableFamilyMatchesReference) {
  // The fuzz harness's table family: both build paths, memory-aware
  // alphas, tight T, zero-demand classes and missing max metadata.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto spec = testing::TableSpec::random(seed);
    expect_cells_match_reference(spec.build(), "seed " + std::to_string(seed));
  }
}

TEST(CachedCells, OutOfRangeThrowsLikeAt) {
  const auto cc = CCTable::build(edge_classes(), kLadder, 2.7);
  const std::size_t r = cc.rows();
  const std::size_t k = cc.cols();
  EXPECT_THROW(cc.at(r, 0), std::out_of_range);
  EXPECT_THROW(cc.demand(r, 0), std::out_of_range);
  EXPECT_THROW(cc.demand(0, k), std::out_of_range);
  EXPECT_THROW(cc.rung_feasible(r, 0), std::out_of_range);
  EXPECT_THROW(cc.rung_feasible(0, k), std::out_of_range);
  EXPECT_THROW(cc.cores_needed(0, k), std::out_of_range);
  EXPECT_THROW(cc.proxy_slowdown(r), std::out_of_range);
  EXPECT_THROW(cc.demand_column(k), std::out_of_range);
  EXPECT_THROW(cc.feasible_column(k), std::out_of_range);
  EXPECT_THROW(proxy_rung_power(cc, r), std::out_of_range);
}

}  // namespace
}  // namespace eewa::core
