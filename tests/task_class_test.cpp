// Tests for task-class bookkeeping: Eq. 1 workload normalization, the
// paper's online mean update TC(f, n+1, (n·w̄ + w)/(n+1)), and the
// descending-workload iteration profile that feeds the CC table.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/task_class.hpp"

namespace eewa::core {
namespace {

const dvfs::FrequencyLadder kLadder = dvfs::FrequencyLadder::opteron8380();

TEST(NormalizedWorkload, IdentityAtTopRung) {
  EXPECT_DOUBLE_EQ(normalized_workload(2.0, 0, kLadder), 2.0);
}

TEST(NormalizedWorkload, ScalesByFrequencyRatio) {
  // A CPU-bound task that takes 2.5 s at 0.8 GHz did 0.8 s of F0 work.
  EXPECT_NEAR(normalized_workload(2.5, 3, kLadder), 2.5 * 0.8 / 2.5, 1e-12);
  // Round trip: time at rung j = w * F0/Fj, normalizing recovers w.
  const double w = 1.7;
  const double t_at_j = w * kLadder.slowdown(2);
  EXPECT_NEAR(normalized_workload(t_at_j, 2, kLadder), w, 1e-12);
}

TEST(TaskClassRegistry, InternIsStableAndIdempotent) {
  TaskClassRegistry reg;
  const auto a = reg.intern("alpha");
  const auto b = reg.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("alpha"), a);
  EXPECT_EQ(reg.id_of("beta"), b);
  EXPECT_TRUE(reg.contains("alpha"));
  EXPECT_FALSE(reg.contains("gamma"));
  EXPECT_THROW(reg.id_of("gamma"), std::out_of_range);
  EXPECT_EQ(reg.class_count(), 2u);
  EXPECT_EQ(reg.name(a), "alpha");
}

TEST(TaskClassRegistry, OnlineMeanMatchesPaperUpdate) {
  TaskClassRegistry reg;
  const auto id = reg.intern("f");
  reg.record(id, 2.0);
  EXPECT_DOUBLE_EQ(reg.mean_workload(id), 2.0);
  reg.record(id, 4.0);
  EXPECT_DOUBLE_EQ(reg.mean_workload(id), 3.0);
  reg.record(id, 9.0);
  EXPECT_DOUBLE_EQ(reg.mean_workload(id), 5.0);
  EXPECT_EQ(reg.total_count(id), 3u);
  EXPECT_EQ(reg.iteration_count(id), 3u);
}

TEST(TaskClassRegistry, MeanPersistsAcrossIterationsCountsReset) {
  TaskClassRegistry reg;
  const auto id = reg.intern("f");
  reg.record(id, 10.0);
  reg.begin_iteration();
  EXPECT_EQ(reg.iteration_count(id), 0u);
  EXPECT_EQ(reg.total_count(id), 1u);
  EXPECT_DOUBLE_EQ(reg.mean_workload(id), 10.0);
  reg.record(id, 20.0);
  EXPECT_EQ(reg.iteration_count(id), 1u);
  // Cumulative mean over both iterations: (10 + 20) / 2.
  EXPECT_DOUBLE_EQ(reg.mean_workload(id), 15.0);
}

TEST(TaskClassRegistry, RejectsNegativeWorkload) {
  TaskClassRegistry reg;
  const auto id = reg.intern("f");
  EXPECT_THROW(reg.record(id, -1.0), std::invalid_argument);
}

TEST(TaskClassRegistry, IterationProfileSortedByMeanDescending) {
  TaskClassRegistry reg;
  const auto light = reg.intern("light");
  const auto heavy = reg.intern("heavy");
  const auto medium = reg.intern("medium");
  for (int i = 0; i < 4; ++i) reg.record(light, 1.0);
  for (int i = 0; i < 2; ++i) reg.record(heavy, 10.0);
  for (int i = 0; i < 3; ++i) reg.record(medium, 5.0);
  const auto profile = reg.iteration_profile();
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile[0].class_id, heavy);
  EXPECT_EQ(profile[1].class_id, medium);
  EXPECT_EQ(profile[2].class_id, light);
  EXPECT_EQ(profile[0].count, 2u);
  EXPECT_DOUBLE_EQ(profile[0].total_workload(), 20.0);
}

TEST(TaskClassRegistry, ProfileExcludesIdleClasses) {
  TaskClassRegistry reg;
  const auto a = reg.intern("a");
  reg.intern("b");  // never recorded
  reg.record(a, 1.0);
  const auto profile = reg.iteration_profile();
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].class_id, a);
}

TEST(TaskClassRegistry, ProfileTieBreaksDeterministically) {
  TaskClassRegistry reg;
  const auto a = reg.intern("a");
  const auto b = reg.intern("b");
  reg.record(b, 2.0);
  reg.record(a, 2.0);
  const auto profile = reg.iteration_profile();
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile[0].class_id, a);  // lower id wins ties
  EXPECT_EQ(profile[1].class_id, b);
}

TEST(TaskClassRegistry, ProfileOrderMatchesProfileComparator) {
  // Many classes in a few groups of equal means, some idle, recorded out
  // of id order: the profile must come out in the order a sort of the
  // profiles themselves by (mean descending, class id ascending) gives,
  // and the reusing form must agree with the fresh one.
  TaskClassRegistry reg;
  std::vector<std::size_t> ids;
  for (int c = 0; c < 40; ++c) {
    ids.push_back(reg.intern("c" + std::to_string(c)));
  }
  for (int c = 39; c >= 0; --c) {
    if (c % 7 == 3) continue;  // idle this iteration
    reg.record(ids[static_cast<std::size_t>(c)], 1.0 + (c * 5 % 4));
  }
  const auto profile = reg.iteration_profile();
  ASSERT_EQ(profile.size(), 34u);
  auto expected = profile;
  std::sort(expected.begin(), expected.end(),
            [](const ClassProfile& a, const ClassProfile& b) {
              if (a.mean_workload != b.mean_workload) {
                return a.mean_workload > b.mean_workload;
              }
              return a.class_id < b.class_id;
            });
  std::vector<ClassProfile> reused(3);
  reg.iteration_profile(reused);
  ASSERT_EQ(reused.size(), profile.size());
  for (std::size_t n = 0; n < profile.size(); ++n) {
    EXPECT_EQ(profile[n].class_id, expected[n].class_id) << "slot " << n;
    EXPECT_EQ(profile[n].name, "c" + std::to_string(profile[n].class_id));
    EXPECT_EQ(reused[n].class_id, profile[n].class_id) << "slot " << n;
    EXPECT_EQ(reused[n].name, profile[n].name) << "slot " << n;
  }
}

TEST(ClassProfile, TotalWorkload) {
  const ClassProfile p{0, "f", 7, 3.0};
  EXPECT_DOUBLE_EQ(p.total_workload(), 21.0);
}

}  // namespace
}  // namespace eewa::core
