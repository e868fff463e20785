// Tests for turning k-tuples into c-group layouts: core carving, class
// allocation, the leftover-core policies (Fig. 8's parked cores), and
// the uniform-F0 fallback.
#include <gtest/gtest.h>

#include "core/frequency_plan.hpp"

#include "util/rng.hpp"

namespace eewa::core {
namespace {

const dvfs::FrequencyLadder kLadder = dvfs::FrequencyLadder::opteron8380();

CCTable fig3() {
  std::vector<ClassProfile> classes = {{0, "TC0", 1, 4.0},
                                       {1, "TC1", 1, 3.0},
                                       {2, "TC2", 1, 2.0},
                                       {3, "TC3", 1, 1.0}};
  return CCTable::from_matrix(
      {{2, 3, 1, 1}, {4, 6, 2, 2}, {6, 9, 3, 3}, {8, 12, 4, 4}}, classes);
}

TEST(FrequencyPlan, Figure3LayoutUsesAllCores) {
  const auto sr = search_backtracking(fig3(), 16);
  const auto plan = make_frequency_plan(fig3(), sr, 16, kLadder, 4);
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.layout.group_count(), 2u);
  EXPECT_EQ(plan.layout.group(0).freq_index, 1u);
  EXPECT_EQ(plan.layout.group(0).cores.size(), 10u);
  EXPECT_EQ(plan.layout.group(1).freq_index, 2u);
  EXPECT_EQ(plan.layout.group(1).cores.size(), 6u);
  EXPECT_EQ(plan.claimed_cores, 16u);
  // Heavy classes to the fast group, light to the slow group.
  EXPECT_EQ(plan.layout.group_of_class(0), 0u);
  EXPECT_EQ(plan.layout.group_of_class(1), 0u);
  EXPECT_EQ(plan.layout.group_of_class(2), 1u);
  EXPECT_EQ(plan.layout.group_of_class(3), 1u);
}

TEST(FrequencyPlan, LeftoversParkAtSlowestLadderRung) {
  // One class needing 5 F0 cores of 16 (the SHA-1 shape from Fig. 8).
  std::vector<ClassProfile> one = {{0, "sha1", 1, 5.0}};
  const auto cc = CCTable::from_matrix(
      {{5}, {6.9}, {9.6}, {15.6}}, one);
  SearchResult sr;
  sr.found = true;
  sr.tuple = {0};
  sr.cores_used = 5;
  const auto plan = make_frequency_plan(cc, sr, 16, kLadder, 1,
                                        LeftoverPolicy::kParkAtSlowest);
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.layout.group_count(), 2u);
  EXPECT_EQ(plan.layout.group(0).freq_index, 0u);
  EXPECT_EQ(plan.layout.group(0).cores.size(), 5u);
  EXPECT_EQ(plan.layout.group(1).freq_index, kLadder.slowest_index());
  EXPECT_EQ(plan.layout.group(1).cores.size(), 11u);
  EXPECT_EQ(plan.claimed_cores, 5u);
  const auto per_rung = plan.layout.cores_per_rung(4);
  EXPECT_EQ(per_rung[0], 5u);
  EXPECT_EQ(per_rung[3], 11u);
}

TEST(FrequencyPlan, LeftoversCanJoinSlowestSelectedGroup) {
  std::vector<ClassProfile> one = {{0, "c", 1, 5.0}};
  const auto cc = CCTable::from_matrix({{5}, {7}, {10}, {16}}, one);
  SearchResult sr;
  sr.found = true;
  sr.tuple = {1};  // class at F1 needing 7 cores
  const auto plan = make_frequency_plan(cc, sr, 16, kLadder, 1,
                                        LeftoverPolicy::kJoinSlowest);
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.layout.group_count(), 1u);
  EXPECT_EQ(plan.layout.group(0).freq_index, 1u);
  EXPECT_EQ(plan.layout.group(0).cores.size(), 16u);
}

TEST(FrequencyPlan, MergesLeftoversIntoExistingSlowestRungGroup) {
  // Tuple already uses the slowest rung: leftovers merge instead of
  // forming a second group at the same rung (layout would reject it).
  std::vector<ClassProfile> one = {{0, "c", 1, 1.0}};
  const auto cc = CCTable::from_matrix({{2}, {3}, {4}, {6}}, one);
  SearchResult sr;
  sr.found = true;
  sr.tuple = {3};
  const auto plan = make_frequency_plan(cc, sr, 16, kLadder, 1,
                                        LeftoverPolicy::kParkAtSlowest);
  ASSERT_EQ(plan.layout.group_count(), 1u);
  EXPECT_EQ(plan.layout.group(0).freq_index, 3u);
  EXPECT_EQ(plan.layout.group(0).cores.size(), 16u);
}

TEST(FrequencyPlan, FallbackWhenSearchFailed) {
  SearchResult sr;  // found = false
  const auto plan = make_frequency_plan(fig3(), sr, 16, kLadder, 4);
  EXPECT_FALSE(plan.planned);
  ASSERT_EQ(plan.layout.group_count(), 1u);
  EXPECT_EQ(plan.layout.group(0).freq_index, 0u);
  EXPECT_EQ(plan.layout.group(0).cores.size(), 16u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(plan.layout.group_of_class(k), 0u);
  }
}

TEST(FrequencyPlan, UniformPlanHelper) {
  const auto plan = uniform_plan(8, 3);
  EXPECT_FALSE(plan.planned);
  EXPECT_EQ(plan.layout.total_cores(), 8u);
  EXPECT_EQ(plan.layout.class_count(), 3u);
  EXPECT_EQ(plan.claimed_cores, 8u);
}

TEST(FrequencyPlan, UnseenClassesMapToFastestGroup) {
  const auto sr = search_backtracking(fig3(), 16);
  // Registry knows 6 classes; the CC table only covers ids 0..3.
  const auto plan = make_frequency_plan(fig3(), sr, 16, kLadder, 6);
  EXPECT_EQ(plan.layout.group_of_class(4), 0u);
  EXPECT_EQ(plan.layout.group_of_class(5), 0u);
}

TEST(FrequencyPlan, EveryCoreAssignedExactlyOnce) {
  const auto sr = search_backtracking(fig3(), 16);
  const auto plan = make_frequency_plan(fig3(), sr, 16, kLadder, 4);
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_TRUE(plan.layout.core_assigned(c));
  }
}

// ---------------------------------------------- randomized plan sweep ----

class RandomizedPlan
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RandomizedPlan, LayoutInvariantsHold) {
  const auto [cores, seed] = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed));
  // Random profile: 1-5 classes with descending mean workloads.
  const std::size_t k = 1 + rng.bounded(5);
  std::vector<ClassProfile> classes;
  double mean = rng.uniform(0.2, 1.0);
  for (std::size_t i = 0; i < k; ++i) {
    ClassProfile p;
    p.class_id = i;
    p.name = "c" + std::to_string(i);
    p.count = 1 + rng.bounded(40);
    p.mean_workload = mean;
    p.max_workload = mean * rng.uniform(1.0, 1.6);
    classes.push_back(p);
    mean *= rng.uniform(0.3, 0.95);
  }
  // Ideal time with enough slack that a tuple usually exists.
  double total_work = 0;
  for (const auto& p : classes) total_work += p.total_workload();
  const double T = std::max(classes[0].max_workload * 1.1,
                            total_work / (0.6 * static_cast<double>(cores)));
  const auto cc = CCTable::build(classes, kLadder, T);
  const auto sr = search_backtracking(cc, cores);
  const auto plan = make_frequency_plan(cc, sr, cores, kLadder, k);

  if (!sr.found) {
    EXPECT_FALSE(plan.planned);
    return;
  }
  ASSERT_TRUE(plan.planned);
  // Every core in exactly one group.
  std::size_t covered = 0;
  for (const auto& g : plan.layout.groups()) covered += g.cores.size();
  EXPECT_EQ(covered, cores);
  for (std::size_t c = 0; c < cores; ++c) {
    EXPECT_TRUE(plan.layout.core_assigned(c));
  }
  // Groups strictly faster-to-slower, every class mapped to a real group.
  for (std::size_t g = 1; g < plan.layout.group_count(); ++g) {
    EXPECT_GT(plan.layout.freq_index(g), plan.layout.freq_index(g - 1));
  }
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_LT(plan.layout.group_of_class(i), plan.layout.group_count());
  }
  // Heavier classes never mapped to slower groups than lighter ones.
  for (std::size_t i = 1; i < k; ++i) {
    EXPECT_LE(plan.layout.group_of_class(i - 1),
              plan.layout.group_of_class(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomizedPlan,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 9, 16, 32),
                       ::testing::Range(1, 9)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FrequencyPlan, RejectsMismatchedInputs) {
  SearchResult sr;
  sr.found = true;
  sr.tuple = {0};  // arity 1 vs 4 columns
  EXPECT_THROW(make_frequency_plan(fig3(), sr, 16, kLadder, 4),
               std::invalid_argument);
}

TEST(FrequencyPlan, RejectsLadderThatDoesNotMatchTheTable) {
  // A homogeneous table's rows are the ladder's rungs: a ladder of
  // another height names no slowest row of the table to park at.
  const auto sr = search_backtracking(fig3(), 16);
  ASSERT_TRUE(sr.found);
  const dvfs::FrequencyLadder three({2.5, 1.8, 0.8});
  const dvfs::FrequencyLadder five({2.5, 2.1, 1.8, 1.3, 0.8});
  EXPECT_THROW(make_frequency_plan(fig3(), sr, 16, three, 4),
               std::invalid_argument);
  EXPECT_THROW(make_frequency_plan(fig3(), sr, 16, five, 4),
               std::invalid_argument);
}

TEST(FrequencyPlan, RejectsClassIdOutsideRegistry) {
  const auto sr = search_backtracking(fig3(), 16);
  EXPECT_THROW(make_frequency_plan(fig3(), sr, 16, kLadder, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace eewa::core
