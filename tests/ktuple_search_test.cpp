// Tests for Algorithm 1 (backtracking k-tuple search) and its ablation
// variants: the paper's Fig. 3 worked example, the three constraints as
// properties over randomized tables, and the relationships between the
// greedy / backtracking / exhaustive searchers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "core/ktuple_search.hpp"
#include "testing/exhaustive_search.hpp"
#include "testing/scenario.hpp"
#include "util/rng.hpp"

namespace eewa::core {
namespace {

using testing::search_exhaustive;

CCTable fig3() {
  return CCTable::from_matrix(
      {{2, 3, 1, 1}, {4, 6, 2, 2}, {6, 9, 3, 3}, {8, 12, 4, 4}});
}

TEST(Backtracking, ReproducesFigure3Tuple) {
  const auto res = search_backtracking(fig3(), 16);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{1, 1, 2, 2}));
  EXPECT_EQ(res.cores_used, 16u);
  // Per the paper, 10 cores end up at F1 and 6 at F2.
  EXPECT_EQ(fig3().ceil_at(1, 0) + fig3().ceil_at(1, 1), 10u);
  EXPECT_EQ(fig3().ceil_at(2, 2) + fig3().ceil_at(2, 3), 6u);
}

TEST(Backtracking, AllTopRowWhenCapacityTight) {
  // With exactly the F0 demand available, only the all-F0 tuple fits.
  const auto cc = fig3();
  const std::size_t top = cc.ceil_at(0, 0) + cc.ceil_at(0, 1) +
                          cc.ceil_at(0, 2) + cc.ceil_at(0, 3);
  const auto res = search_backtracking(cc, top);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{0, 0, 0, 0}));
}

TEST(Backtracking, FailsWhenEvenTopRowExceedsCapacity) {
  const auto res = search_backtracking(fig3(), 6);  // top row needs 7
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.tuple.empty());
}

TEST(Backtracking, PicksSlowestRowWithAbundantCores) {
  const auto res = search_backtracking(fig3(), 100);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{3, 3, 3, 3}));
}

TEST(Backtracking, SingleClassSingleRung) {
  const auto cc = CCTable::from_matrix({{3.0}});
  const auto res = search_backtracking(cc, 4);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{0}));
  EXPECT_EQ(res.cores_used, 3u);
}

TEST(Backtracking, ReportsSearchEffort) {
  const auto res = search_backtracking(fig3(), 16);
  EXPECT_GT(res.nodes_visited, 0u);
  EXPECT_GE(res.elapsed_us, 0.0);
}

TEST(Greedy, MatchesBacktrackingOnEasyInstances) {
  const auto g = search_greedy(fig3(), 100);
  const auto b = search_backtracking(fig3(), 100);
  ASSERT_TRUE(g.found);
  EXPECT_EQ(g.tuple, b.tuple);
}

TEST(Greedy, CanFailWhereBacktrackingSucceeds) {
  // Greedy descends to the deepest feasible rung for column 0, which
  // strands column 1; backtracking recovers.
  const auto cc = CCTable::from_matrix({{2, 2}, {3, 3}, {4, 9}});
  const auto g = search_greedy(cc, 8);
  const auto b = search_backtracking(cc, 8);
  EXPECT_FALSE(g.found);
  ASSERT_TRUE(b.found);
  EXPECT_TRUE(tuple_is_valid(cc, b.tuple, 8));
}

TEST(Exhaustive, FindsFeasibleOptimum) {
  const auto res = search_exhaustive(fig3(), 16);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(tuple_is_valid(fig3(), res.tuple, 16));
}

TEST(Exhaustive, EnergyNeverWorseThanBacktracking) {
  const auto cc = fig3();
  const auto b = search_backtracking(cc, 16);
  const auto e = search_exhaustive(cc, 16);
  ASSERT_TRUE(b.found);
  ASSERT_TRUE(e.found);
  EXPECT_LE(tuple_energy_estimate(cc, e.tuple, 16),
            tuple_energy_estimate(cc, b.tuple, 16) + 1e-9);
}

// ------------------------------------------------- proxy power model --

TEST(ProxyPower, ScansPastZeroColumns) {
  // Column 0 carries no work at any rung; the F0/F1 ratio must come from
  // column 1 (slowdown 4), not from a rank-based fallback.
  const auto cc = CCTable::from_matrix({{0, 1}, {0, 4}});
  EXPECT_NEAR(proxy_rung_power(cc, 0), 1.0, 1e-12);
  EXPECT_NEAR(proxy_rung_power(cc, 1), 1.0 / 64.0, 1e-12);
}

TEST(ProxyPower, UsesLeastMemoryBoundColumnUnderMemoryAwareAlphas) {
  // With per-class alphas, CC[1][i]/CC[0][i] = α_i + (1-α_i)·F0/F1. The
  // memory-bound class (α=0.5) shows 1.5 while the CPU-bound one shows
  // the true slowdown 2.0; the proxy must take the largest ratio.
  std::vector<ClassProfile> cls{{0, "mem", 1, 1.0, 1.0, 0.5},
                                {1, "cpu", 1, 0.5, 0.5, 0.0}};
  const auto cc = CCTable::build(cls, dvfs::FrequencyLadder({2.0, 1.0}),
                                 100.0, /*memory_aware=*/true);
  EXPECT_NEAR(cc.at(1, 0) / cc.at(0, 0), 1.5, 1e-12);
  EXPECT_NEAR(cc.at(1, 1) / cc.at(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(proxy_rung_power(cc, 1), 0.125, 1e-12);
}

TEST(ProxyPower, RankFallbackWhenNoColumnIsUsable) {
  const auto cc = CCTable::from_matrix({{0.0}, {0.0}, {0.0}});
  EXPECT_NEAR(proxy_rung_power(cc, 1), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(proxy_rung_power(cc, 2), 1.0 / 27.0, 1e-12);
}

TEST(TupleEnergy, LeftoverCoresBilledAtIdlePowerUnderModel) {
  // 4 demanded cores at F0; the other 4 park at the slowest rung and
  // must be billed the model's idle power there, exactly as
  // EnergyAccount will bill them, not its active power.
  const energy::PowerModel model(dvfs::FrequencyLadder({2.0, 1.0}),
                                 {1.2, 1.0}, /*dyn_coeff_w=*/1.0,
                                 /*core_static_w=*/0.5, /*floor_w=*/0.0);
  const auto cc = CCTable::from_matrix({{2, 2}, {4, 4}});
  const std::vector<std::size_t> tuple{0, 0};
  const double expect = 4.0 * model.core_power_w(0, /*active=*/true) +
                        4.0 * model.core_power_w(1, /*active=*/false);
  EXPECT_NEAR(tuple_energy_estimate(cc, tuple, 8, &model), expect, 1e-12);
  EXPECT_LT(tuple_energy_estimate(cc, tuple, 8, &model),
            4.0 * model.core_power_w(0, true) +
                4.0 * model.core_power_w(1, true));
}

TEST(Exhaustive, DeterministicTieBreakPrefersSlowerTuple) {
  // Every nondecreasing tuple of this table has identical demand and
  // identical proxy energy; the tie-break must pick the lexicographically
  // greater (slower) tuple so repeated runs agree.
  const auto cc = CCTable::from_matrix({{1, 1}, {1, 1}});
  const auto res = search_exhaustive(cc, 2);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(res.cores_used, 2u);
}

TEST(TupleIsValid, ChecksAllThreeConstraints) {
  const auto cc = fig3();
  EXPECT_TRUE(tuple_is_valid(cc, {1, 1, 2, 2}, 16));
  EXPECT_FALSE(tuple_is_valid(cc, {2, 1, 2, 2}, 16));   // decreasing
  EXPECT_FALSE(tuple_is_valid(cc, {3, 3, 3, 3}, 16));   // over capacity
  EXPECT_FALSE(tuple_is_valid(cc, {1, 1, 2}, 16));      // wrong arity
  EXPECT_FALSE(tuple_is_valid(cc, {1, 1, 2, 9}, 16));   // rung range
}

TEST(SearchKtuple, DispatchesOnKind) {
  const auto cc = fig3();
  EXPECT_EQ(search_ktuple(cc, 16, SearchKind::kBacktracking).tuple,
            search_backtracking(cc, 16).tuple);
  EXPECT_EQ(search_ktuple(cc, 16, SearchKind::kPruned).tuple,
            search_pruned(cc, 16).tuple);
}

// --------------------------------------------------- pruned/DP search --

TEST(Pruned, MatchesExhaustiveOnFigure3) {
  const auto cc = fig3();
  for (const std::size_t m : {7u, 10u, 16u, 100u}) {
    const auto pr = search_pruned(cc, m);
    const auto ex = search_exhaustive(cc, m);
    ASSERT_EQ(pr.found, ex.found) << "m=" << m;
    if (pr.found) {
      EXPECT_NEAR(tuple_energy_estimate(cc, pr.tuple, m),
                  tuple_energy_estimate(cc, ex.tuple, m), 1e-9)
          << "m=" << m;
    }
  }
}

TEST(Pruned, FeasibilityMatchesBacktrackingWhenInfeasible) {
  EXPECT_FALSE(search_pruned(fig3(), 6).found);  // top row needs 7
  EXPECT_TRUE(search_pruned(fig3(), 7).found);
}

// Property sweep over the fuzz harness's own table family: every small
// random table (r·k <= 24, the exhaustive gate) must give identical
// pruned and exhaustive energy, and a pruned tuple must never be one
// backtracking's complete search would reject as infeasible.
TEST(Pruned, EnergyEqualsExhaustiveOnSmallFuzzTables) {
  std::size_t covered = 0;
  for (std::uint64_t seed = 1; covered < 200; ++seed) {
    const auto spec = testing::TableSpec::random(seed);
    const auto cc = spec.build();
    if (cc.rows() * cc.cols() > 24) continue;
    ++covered;
    const auto pr = search_pruned(cc, spec.cores);
    const auto ex = search_exhaustive(cc, spec.cores);
    ASSERT_EQ(pr.found, ex.found) << "seed=" << seed;
    if (!pr.found) continue;
    EXPECT_TRUE(tuple_is_valid(cc, pr.tuple, spec.cores))
        << "seed=" << seed;
    const double e_pr = tuple_energy_estimate(cc, pr.tuple, spec.cores);
    const double e_ex = tuple_energy_estimate(cc, ex.tuple, spec.cores);
    EXPECT_NEAR(e_pr, e_ex, 1e-9 + 1e-9 * std::abs(e_ex))
        << "seed=" << seed;
  }
}

TEST(Pruned, NeverReturnsTupleBacktrackingWouldReject) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto spec = testing::TableSpec::random(seed);
    const auto cc = spec.build();
    const auto pr = search_pruned(cc, spec.cores);
    const auto bt = search_backtracking(cc, spec.cores);
    // Backtracking is a complete feasibility search: if it proves the
    // lattice empty, pruned must not claim a tuple (and vice versa).
    ASSERT_EQ(pr.found, bt.found) << "seed=" << seed;
    if (pr.found) {
      EXPECT_TRUE(tuple_is_valid(cc, pr.tuple, spec.cores))
          << "seed=" << seed;
    }
  }
}

TEST(Pruned, DocumentedTieBreakAtProductionWidth) {
  // k=256 columns of identical demand at both rungs: every nondecreasing
  // tuple has the same demand and proxy energy, so the documented
  // tie-break (fewest cores, then the lexicographically greater tuple)
  // must select the all-slowest tuple — deterministically, at full
  // production width.
  const std::size_t k = 256;
  std::vector<std::vector<double>> rows(2, std::vector<double>(k, 1.0));
  const auto cc = CCTable::from_matrix(rows);
  const auto pr = search_pruned(cc, k);
  ASSERT_TRUE(pr.found);
  EXPECT_EQ(pr.tuple, std::vector<std::size_t>(k, 1));
  EXPECT_EQ(pr.cores_used, k);
}

TEST(Pruned, WidenedAccumulatorSurvivesExtremeMagnitudeSpread) {
  // One enormous column followed by 255 tiny ones: a plain double
  // running sum of demands loses the tiny contributions entirely
  // (1e12 + 1e-4 == 1e12 in double), which would let the searcher claim
  // ~0.026 cores of demand never happened and admit an over-capacity
  // tuple. The long double accumulator keeps them.
  const std::size_t k = 256;
  std::vector<std::vector<double>> rows(1, std::vector<double>(k, 1e-4));
  rows[0][0] = 1e12;
  const auto cc = CCTable::from_matrix(rows);
  // Capacity exactly the true demand, rounded up: feasible.
  const double true_demand = 1e12 + 255.0 * 1e-4;
  const auto ok = search_pruned(cc, static_cast<std::size_t>(
                                        std::ceil(true_demand)));
  EXPECT_TRUE(ok.found);
  // Capacity 1e12 exactly: the 255 tiny columns overflow it. A naive
  // double accumulator absorbs them and wrongly reports feasible.
  const auto over = search_pruned(
      cc, static_cast<std::size_t>(1e12));
  EXPECT_FALSE(over.found);
  EXPECT_FALSE(
      search_backtracking(cc, static_cast<std::size_t>(1e12)).found);
  EXPECT_FALSE(tuple_is_valid(cc, std::vector<std::size_t>(k, 0),
                              static_cast<std::size_t>(1e12)));
}

TEST(Backtracking, NodeBudgetAbortsAndReportsIt) {
  // A 1-node budget cannot even place the first class.
  const auto res = search_backtracking(fig3(), 16, 1);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.aborted);
  // An ample budget completes and is not marked aborted.
  const auto full = search_backtracking(fig3(), 16, 1'000'000);
  EXPECT_TRUE(full.found);
  EXPECT_FALSE(full.aborted);
  EXPECT_EQ(full.tuple, search_backtracking(fig3(), 16).tuple);
}

// ------------------------------------------------------ suffix search --

TEST(SuffixSearch, KeepsPrefixVerbatimAndSplicesOptimalSuffix) {
  const auto cc = fig3();
  // Pin class 0 at rung 1 (its full-search choice) — the suffix search
  // must reproduce the full pruned result.
  const auto full = search_pruned(cc, 16);
  ASSERT_TRUE(full.found);
  const std::vector<std::size_t> prefix{full.tuple[0], full.tuple[1]};
  const auto sfx = search_suffix(cc, 16, SearchKind::kPruned, prefix);
  ASSERT_TRUE(sfx.found);
  EXPECT_EQ(sfx.tuple[0], prefix[0]);
  EXPECT_EQ(sfx.tuple[1], prefix[1]);
  EXPECT_NEAR(tuple_energy_estimate(cc, sfx.tuple, 16),
              tuple_energy_estimate(cc, full.tuple, 16), 1e-9);
}

TEST(SuffixSearch, RespectsNondecreasingConstraintFromPrefix) {
  const auto cc = fig3();
  // Pin class 0 at the slowest rung: every suffix class must sit at
  // rung >= 3 or the search must fail — it cannot dip below the prefix.
  const std::vector<std::size_t> prefix{3};
  const auto sfx = search_suffix(cc, 100, SearchKind::kPruned, prefix);
  ASSERT_TRUE(sfx.found);
  for (const std::size_t rung : sfx.tuple) EXPECT_GE(rung, 3u);
}

TEST(SuffixSearch, RejectsInvalidPrefix) {
  const auto cc = fig3();
  // Over capacity: rung 3 for class 1 needs 12 of 6 cores.
  EXPECT_FALSE(
      search_suffix(cc, 6, SearchKind::kPruned, {0, 3}).found);
  // Out of rung range.
  EXPECT_FALSE(
      search_suffix(cc, 16, SearchKind::kPruned, {9}).found);
  // Both kinds agree on rejection.
  for (const auto kind : {SearchKind::kBacktracking, SearchKind::kPruned}) {
    EXPECT_FALSE(search_suffix(cc, 6, kind, {0, 3}).found);
  }
}

TEST(SuffixSearch, FullLengthPrefixEvaluatesAsIs) {
  const auto cc = fig3();
  const std::vector<std::size_t> prefix{1, 1, 2, 2};
  const auto sfx = search_suffix(cc, 16, SearchKind::kPruned, prefix);
  ASSERT_TRUE(sfx.found);
  EXPECT_EQ(sfx.tuple, prefix);
  EXPECT_EQ(sfx.cores_used, 16u);
}

// ------------------------------------------- production-scale golden --

// Bit-exact pins of the pruned searcher at production scale. The tables
// are bench_ablation_search's scale section (r=16, k=256, m=256, seeds
// 0x5eed..0x5eed+11, same generator); each row pins one search's tuple
// digest, node count, abort flag and core count, and the full tuple's
// energy estimate with and without a power model as raw double bits.
// A change to any of them changed the planner's output: re-pin only
// deliberately. On mismatch the test prints the rows it computed.

constexpr std::size_t kScaleRungs = 16;
constexpr std::size_t kScaleClasses = 256;
constexpr std::size_t kScaleCores = 256;
constexpr std::size_t kScaleTables = 12;

CCTable scale_table(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<ClassProfile> classes(kScaleClasses);
  double total_work = 0.0;
  for (std::size_t i = 0; i < kScaleClasses; ++i) {
    auto& c = classes[i];
    c.class_id = i;
    c.name = "c" + std::to_string(i);
    c.count = 1 + static_cast<std::size_t>(rng.bounded(64));
    c.mean_workload = 0.001 * std::exp(rng.uniform(0.0, 6.0));
    c.max_workload = c.mean_workload * (1.0 + rng.uniform());
    c.mean_alpha = 0.0;
    total_work += c.total_workload();
  }
  std::sort(classes.begin(), classes.end(), [](const auto& a, const auto& b) {
    return a.mean_workload > b.mean_workload;
  });
  const double util = rng.uniform(0.55, 0.85);
  const double T = total_work / (static_cast<double>(kScaleCores) * util);
  return CCTable::build(std::move(classes),
                        dvfs::FrequencyLadder::linear(0.8, 3.2, kScaleRungs),
                        T);
}

energy::PowerModel scale_model() {
  std::vector<double> volts;
  for (std::size_t j = 0; j < kScaleRungs; ++j) {
    volts.push_back(1.35 - 0.40 * static_cast<double>(j) /
                               static_cast<double>(kScaleRungs - 1));
  }
  return energy::PowerModel(
      dvfs::FrequencyLadder::linear(0.8, 3.2, kScaleRungs), volts, 3.51, 1.2,
      0.0);
}

/// FNV-1a over the tuple's rungs (0 for "not found").
std::uint64_t tuple_digest(const SearchResult& res) {
  if (!res.found) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t rung : res.tuple) {
    h = (h ^ static_cast<std::uint64_t>(rung)) * 0x100000001b3ULL;
  }
  return h;
}

struct SearchPin {
  std::uint64_t digest;
  std::size_t nodes;
  bool aborted;
  std::size_t cores;
  bool operator==(const SearchPin&) const = default;
};

SearchPin pin_of(const SearchResult& res) {
  return {tuple_digest(res), res.nodes_visited, res.aborted, res.cores_used};
}

std::string pin_literal(const SearchPin& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{0x%016" PRIx64 "ULL, %zu, %s, %zu}",
                p.digest, p.nodes, p.aborted ? "true" : "false", p.cores);
  return buf;
}

/// Prefix lengths the suffix pins keep from the full pruned tuple.
constexpr std::size_t kSuffixPrefixes[] = {16, 128, 240};

struct ScalePin {
  SearchPin full;        ///< search_pruned, proxy power
  SearchPin full_model;  ///< search_pruned, scale_model
  SearchPin suffix[std::size(kSuffixPrefixes)];
  std::uint64_t energy_proxy_bits;  ///< tuple_energy_estimate, no model
  std::uint64_t energy_model_bits;  ///< tuple_energy_estimate, scale_model
  bool operator==(const ScalePin&) const = default;
};

std::string pin_literal(const ScalePin& p) {
  std::string s = "    {" + pin_literal(p.full) + ",\n     " +
                  pin_literal(p.full_model) + ",\n     {";
  for (std::size_t n = 0; n < std::size(p.suffix); ++n) {
    s += (n ? ",\n      " : "") + pin_literal(p.suffix[n]);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "},\n     0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL},\n", p.energy_proxy_bits, p.energy_model_bits);
  return s + buf;
}

const ScalePin kScalePins[kScaleTables] = {
    {{0xe69b232399e676aaULL, 22723, true, 256},
     {0x2f33edbf6bfd1f45ULL, 23770, true, 256},
     {{0xe69b232399e676aaULL, 12460, true, 256},
      {0xe69b232399e676aaULL, 11004, true, 256},
      {0xe69b232399e676aaULL, 4626, true, 256}},
     0x4063b550f551bd93ULL, 0x40b09ee13be48b69ULL},
    {{0x079161050a8ba072ULL, 20229, true, 256},
     {0x4b757559b9187a73ULL, 20286, true, 256},
     {{0x079161050a8ba072ULL, 10928, true, 256},
      {0x079161050a8ba072ULL, 9808, true, 256},
      {0x079161050a8ba072ULL, 4309, true, 256}},
     0x405684e7cc3cd615ULL, 0x40a8f1481d9907b1ULL},
    {{0x1a52a748b87090f9ULL, 22048, true, 256},
     {0x89dcf627ec59fd84ULL, 24010, true, 256},
     {{0x1a52a748b87090f9ULL, 15489, true, 256},
      {0x1a52a748b87090f9ULL, 5698, true, 256},
      {0x1a52a748b87090f9ULL, 4354, true, 256}},
     0x4062ed99f98786d0ULL, 0x40b043bd63d1151fULL},
    {{0x4cdca95461e345c2ULL, 23055, true, 256},
     {0x4cdca95461e345c2ULL, 21770, true, 256},
     {{0x4cdca95461e345c2ULL, 12839, true, 256},
      {0x4cdca95461e345c2ULL, 6166, true, 256},
      {0x4cdca95461e345c2ULL, 4224, true, 256}},
     0x405610feda58ea7bULL, 0x40a8b698759b4b23ULL},
    {{0x3bc6e65c5ebc442aULL, 17445, true, 256},
     {0x3bc6e65c5ebc442aULL, 18866, true, 256},
     {{0x3bc6e65c5ebc442aULL, 14027, true, 256},
      {0x3bc6e65c5ebc442aULL, 8334, true, 256},
      {0x3bc6e65c5ebc442aULL, 4224, true, 256}},
     0x40534a159485936dULL, 0x40a723e5a25aef41ULL},
    {{0xa652c719a4531423ULL, 15952, true, 256},
     {0x353fd54b33f8d63cULL, 26082, true, 256},
     {{0xa652c719a4531423ULL, 14818, true, 256},
      {0xa652c719a4531423ULL, 5643, true, 256},
      {0xa652c719a4531423ULL, 4299, true, 256}},
     0x406457f6f8c1ea9fULL, 0x40b0e44e77c335a2ULL},
    {{0x7d92d905061321f8ULL, 22180, true, 256},
     {0x4abd7f1c937705f1ULL, 22237, true, 256},
     {{0x7d92d905061321f8ULL, 18263, true, 256},
      {0x7d92d905061321f8ULL, 10078, true, 256},
      {0x7d92d905061321f8ULL, 4283, true, 256}},
     0x405ce4e024801b3fULL, 0x40ac44ea3fd95ed4ULL},
    {{0x8272285c1693f812ULL, 16646, true, 256},
     {0x02016bca5c5ce797ULL, 21751, true, 256},
     {{0x8272285c1693f812ULL, 13243, true, 256},
      {0x8272285c1693f812ULL, 7955, true, 256},
      {0x8272285c1693f812ULL, 4330, true, 256}},
     0x404e7790fc5bfb65ULL, 0x40a4b0fedccfadadULL},
    {{0xfc0f9c0767fcaf3fULL, 17395, true, 256},
     {0x2f10f8d03c935381ULL, 16176, true, 256},
     {{0xfc0f9c0767fcaf3fULL, 11944, true, 256},
      {0xfc0f9c0767fcaf3fULL, 5825, true, 256},
      {0xfc0f9c0767fcaf3fULL, 4208, true, 256}},
     0x4050db822b16e067ULL, 0x40a5b6086f2b1d0fULL},
    {{0x52b36640e53523caULL, 15949, true, 256},
     {0xadf0c75dc55bbc99ULL, 18897, true, 256},
     {{0x52b36640e53523caULL, 9094, true, 256},
      {0x52b36640e53523caULL, 8086, true, 256},
      {0x52b36640e53523caULL, 4224, true, 256}},
     0x4051c4a672c2554aULL, 0x40a644e6618a6c67ULL},
    {{0x639e244a41298185ULL, 17511, true, 256},
     {0x639e244a41298185ULL, 18828, true, 256},
     {{0x639e244a41298185ULL, 13771, true, 256},
      {0x639e244a41298185ULL, 8399, true, 256},
      {0x639e244a41298185ULL, 4471, true, 256}},
     0x404f709b501dcd67ULL, 0x40a4fe57360a1902ULL},
    {{0x5924b7521fb4ce79ULL, 16741, true, 256},
     {0xe8fad76868acaddcULL, 21203, true, 256},
     {{0x5924b7521fb4ce79ULL, 8243, true, 256},
      {0x5924b7521fb4ce79ULL, 7235, true, 256},
      {0x5924b7521fb4ce79ULL, 4224, true, 256}},
     0x4052c648782b61caULL, 0x40a6d8c7a7356121ULL},
};

/// The suffix pins of one full result: prefixes cut from its tuple.
template <std::size_t N>
void pin_suffixes(const CCTable& cc, std::size_t m, const SearchResult& full,
                  const std::size_t (&lengths)[N], SearchPin (&out)[N]) {
  for (std::size_t n = 0; n < N; ++n) {
    const std::vector<std::size_t> prefix(
        full.tuple.begin(),
        full.tuple.begin() + static_cast<std::ptrdiff_t>(lengths[n]));
    out[n] = pin_of(search_suffix(cc, m, SearchKind::kPruned, prefix));
  }
}

TEST(PrunedGolden, ScaleTablesBitExact) {
  const auto model = scale_model();
  std::string literal;
  std::string moved;
  for (std::size_t t = 0; t < kScaleTables; ++t) {
    const auto cc = scale_table(0x5eedULL + t);
    const auto full = search_pruned(cc, kScaleCores);
    ASSERT_TRUE(full.found) << "table " << t;
    ScalePin pin{};
    pin.full = pin_of(full);
    pin.full_model = pin_of(search_pruned(cc, kScaleCores, &model));
    pin_suffixes(cc, kScaleCores, full, kSuffixPrefixes, pin.suffix);
    pin.energy_proxy_bits = std::bit_cast<std::uint64_t>(
        tuple_energy_estimate(cc, full.tuple, kScaleCores));
    pin.energy_model_bits = std::bit_cast<std::uint64_t>(
        tuple_energy_estimate(cc, full.tuple, kScaleCores, &model));
    literal += pin_literal(pin);
    if (!(pin == kScalePins[t])) moved += " " + std::to_string(t);
  }
  EXPECT_TRUE(moved.empty()) << "tables moved:" << moved
                             << "\ncomputed pins:\n" << literal;
}

// The typed DP at a smaller scale (two 8-rung core types, k=64), since
// its multi-dimensional fronts cost more per state.
constexpr std::size_t kTypedClasses = 64;
constexpr std::size_t kTypedTables = 4;
constexpr std::size_t kTypedPrefixes[] = {8, 40};

MachineTopology typed_scale_topology() {
  CoreType big{"big", dvfs::FrequencyLadder::linear(1.2, 3.2, 8),
               std::vector<double>(8, 1.0), nullptr, 96};
  CoreType little{"little", dvfs::FrequencyLadder::linear(0.6, 2.0, 8),
                  std::vector<double>(8, 0.6), nullptr, 64};
  return MachineTopology({big, little});
}

CCTable typed_scale_table(const MachineTopology& topo, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<ClassProfile> classes(kTypedClasses);
  double total_work = 0.0;
  for (std::size_t i = 0; i < kTypedClasses; ++i) {
    auto& c = classes[i];
    c.class_id = i;
    c.name = "c" + std::to_string(i);
    c.count = 1 + static_cast<std::size_t>(rng.bounded(32));
    c.mean_workload = 0.001 * std::exp(rng.uniform(0.0, 5.0));
    c.max_workload = c.mean_workload * (1.0 + rng.uniform());
    total_work += c.total_workload();
  }
  std::sort(classes.begin(), classes.end(), [](const auto& a, const auto& b) {
    return a.mean_workload > b.mean_workload;
  });
  const double util = rng.uniform(0.35, 0.6);
  const double T =
      total_work / (static_cast<double>(topo.total_cores()) * util);
  return CCTable::build_typed(std::move(classes), topo, T);
}

struct TypedPin {
  SearchPin full;
  SearchPin suffix[std::size(kTypedPrefixes)];
  std::uint64_t energy_bits;
  bool operator==(const TypedPin&) const = default;
};

std::string pin_literal(const TypedPin& p) {
  std::string s = "    {" + pin_literal(p.full) + ",\n     {";
  for (std::size_t n = 0; n < std::size(p.suffix); ++n) {
    s += (n ? ",\n      " : "") + pin_literal(p.suffix[n]);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "},\n     0x%016" PRIx64 "ULL},\n",
                p.energy_bits);
  return s + buf;
}

const TypedPin kTypedPins[kTypedTables] = {
    {{0xb55e018839f76fb3ULL, 11204, true, 159},
     {{0x7799d64dfd9e3904ULL, 7524, true, 160},
      {0xb1b887df9627ccd3ULL, 13347, true, 159}},
     0x40349b623f766d73ULL},
    {{0x906086ac76837757ULL, 8391, true, 154},
     {{0x124977a19d0d6c6dULL, 8195, true, 159},
      {0xe8f26f3da0808ae1ULL, 3641, false, 155}},
     0x40573766a1e96001ULL},
    {{0xf1d75f774f6766f1ULL, 9237, true, 160},
     {{0x10fced92cfc46d9fULL, 8024, true, 150},
      {0xf1d75f774f6766f1ULL, 6442, true, 160}},
     0x404c668f18d66530ULL},
    {{0xd5a3ffa3ff63d62fULL, 11142, true, 154},
     {{0x8d6680f07cea8cb0ULL, 7387, true, 160},
      {0xdd26b61b89060cd7ULL, 14388, true, 154}},
     0x4033a28c703d9b44ULL},
};

TEST(PrunedGolden, TypedTablesBitExact) {
  const auto topo = typed_scale_topology();
  const std::size_t m = topo.total_cores();
  std::string literal;
  std::string moved;
  for (std::size_t t = 0; t < kTypedTables; ++t) {
    const auto cc = typed_scale_table(topo, 0x7e7eULL + t);
    const auto full = search_pruned(cc, m);
    ASSERT_TRUE(full.found) << "table " << t;
    TypedPin pin{};
    pin.full = pin_of(full);
    pin_suffixes(cc, m, full, kTypedPrefixes, pin.suffix);
    pin.energy_bits =
        std::bit_cast<std::uint64_t>(tuple_energy_estimate(cc, full.tuple, m));
    literal += pin_literal(pin);
    if (!(pin == kTypedPins[t])) moved += " " + std::to_string(t);
  }
  EXPECT_TRUE(moved.empty()) << "tables moved:" << moved
                             << "\ncomputed pins:\n" << literal;
}

TEST(PrunedGolden, ScratchReuseMatchesFreshThread) {
  // The DPs keep their buffers per thread from call to call. A result
  // must not depend on what ran before it: a run of searches mixing
  // table sizes, prefix lengths and typed tables must equal each search
  // run alone on a fresh thread.
  const auto topo = typed_scale_topology();
  std::vector<std::function<SearchResult()>> cases;
  const auto big = std::make_shared<CCTable>(scale_table(0x5eedULL));
  const auto typed =
      std::make_shared<CCTable>(typed_scale_table(topo, 0x7e7eULL));
  const auto big_tuple = search_pruned(*big, kScaleCores).tuple;
  cases.push_back([big] { return search_pruned(*big, kScaleCores); });
  cases.push_back([] { return search_pruned(fig3(), 10); });
  cases.push_back([big, big_tuple] {
    return search_suffix(*big, kScaleCores, SearchKind::kPruned,
                         {big_tuple.begin(), big_tuple.begin() + 200});
  });
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto spec = testing::TableSpec::random(seed);
    const auto cc = std::make_shared<CCTable>(spec.build());
    cases.push_back([cc, m = spec.cores] { return search_pruned(*cc, m); });
    cases.push_back([cc, m = spec.cores] {
      return search_suffix(*cc, m, SearchKind::kPruned, {cc->rows() - 1});
    });
  }
  cases.push_back([typed, &topo] {
    return search_pruned(*typed, topo.total_cores());
  });
  cases.push_back([big] { return search_pruned(*big, kScaleCores / 2); });
  for (std::size_t n = 0; n < cases.size(); ++n) {
    const SearchResult seq = cases[n]();
    SearchResult fresh;
    std::thread([&] { fresh = cases[n](); }).join();
    EXPECT_EQ(seq.found, fresh.found) << "case " << n;
    EXPECT_EQ(seq.tuple, fresh.tuple) << "case " << n;
    EXPECT_EQ(seq.nodes_visited, fresh.nodes_visited) << "case " << n;
    EXPECT_EQ(seq.aborted, fresh.aborted) << "case " << n;
    EXPECT_EQ(seq.cores_used, fresh.cores_used) << "case " << n;
  }
}

// The full-width regime, pinned over the fuzz harness's table families:
// most of these searches run where (r - j0)·(k - kp) <= 256, so fronts
// keep up to 64 states, exact ties are common, and a hetero table may
// have a single core type. Each table folds the pins of search_pruned
// under proxy power, under the spec's model when it has one, and of a
// suffix re-plan keeping the first half of the found tuple. Each family
// pins one digest over its seeds; a 16-bit fingerprint per seed names
// the seeds that moved when the digest does.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

std::uint64_t fold_pin(std::uint64_t h, const SearchPin& p) {
  h = fnv_mix(h, p.digest);
  h = fnv_mix(h, p.nodes);
  h = fnv_mix(h, p.aborted ? 1 : 0);
  return fnv_mix(h, p.cores);
}

std::uint64_t table_fold(const CCTable& cc, std::size_t m,
                         const energy::PowerModel* model) {
  const auto full = search_pruned(cc, m);
  std::uint64_t h = fold_pin(kFnvBasis, pin_of(full));
  if (model != nullptr) h = fold_pin(h, pin_of(search_pruned(cc, m, model)));
  if (full.found) {
    const std::vector<std::size_t> prefix(
        full.tuple.begin(),
        full.tuple.begin() + static_cast<std::ptrdiff_t>(full.tuple.size() / 2));
    h = fold_pin(h, pin_of(search_suffix(cc, m, SearchKind::kPruned, prefix)));
  }
  return h;
}

std::uint64_t homogeneous_fold(const testing::TableSpec& spec) {
  const auto cc = spec.build();
  if (!spec.use_model) return table_fold(cc, spec.cores, nullptr);
  const auto model = spec.build_model();
  return table_fold(cc, spec.cores, &model);
}

struct FamilyPin {
  const char* name;
  std::uint64_t seeds;  ///< seeds 1..seeds
  std::function<std::uint64_t(std::uint64_t)> fold;
  std::uint64_t digest;
  const char* fingerprints;  ///< 4 hex digits per seed, in seed order
};

unsigned fingerprint(std::uint64_t h) {
  return static_cast<unsigned>((h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) &
                               0xffffu);
}

TEST(PrunedGolden, FuzzFamiliesBitExact) {
  const FamilyPin families[] = {
      {"TableSpec::random", 300,
       [](std::uint64_t s) {
         return homogeneous_fold(testing::TableSpec::random(s));
       },
       0x7c305d4e9e49f93bULL,
       "90b5a449b900c74fd2138a08527c342426923c2d762265bd8a0b141d27d35c63"
       "3ecc2b38f98a3367f3ac758ecd681c2ffb89783cf2b11c3edb75b5819a69bfae"
       "2961527c6edf101ead220e853ecc783c7481e783a9901a44efe1b9fb5eecf693"
       "50f5675c3ecc9a4ed95b461a3367903c554e12f0db0a047051d33367f1b53367"
       "942f7cfba7bef177f331cfc0629f2dd1e5ae2771cace0f2016fe0a4a5a94c74f"
       "2645f2f117a1783cd0286e35b2a7d345581ccd428d3f598bebe45d44685e2343"
       "f436876e65bd16fe36bd94bb0162d3d02545ba39fbbc33679a4ec74f783c18ed"
       "8bb471e01fddfe416f51527c16feaeb43539d0ef53673ecc3f07e783ec9990b5"
       "348c3c97fae61c2faf8716fed4e5fae63db87221c74faf871a44cc6b5d44212d"
       "636eb89716c7bd77b0b9bfaedcb03ecc94bb8062d461f76d45653eccb26eaeb4"
       "b1c6b77b83ea129216fe3ecc687a5be3d88c16537194e33bf39427711e05d3cf"
       "ec8d661e2606783cddfc2a5ead22f394c9bd4fb8d2c161b7924d9c3dc710b1a3"
       "26c7826ccddcd6125d44aeb4d0d75722e998b1711653fe418575aeb42a5e75ae"
       "c8adc6cd790d685e5167d405e308d8f3783cdc90f33165bd3367a05c1b5a476a"
       "ad22c8adc74fad223489cddc3367dd50d213a8bafe41c74fbe9289f712f0783c"
       "1300b33d2ee7b09496b81a445654fbc7a8ae3367ddfc3b17854db887b26e0c32"
       "5367ddfcdb41d213546b2a05aeb4ebe46fc2eb27fc09a449608d9c3d789d75cb"
       "a0adbfae61ac16530a3baeb4ce6f15903c0a50fe5d44f87a3ecc3801d213443c"
       "5709e702c74fa990783c418f1caa5d44e0134b432ce116fe"},
      {"TableSpec::random_large", 100,
       [](std::uint64_t s) {
         return homogeneous_fold(testing::TableSpec::random_large(s));
       },
       0xd520a3f7273f6475ULL,
       "0d07336a57332e0a35226a8f23ec77ef0cb4f3a3bf51619caf140e8ad43ab976"
       "e6ae170c895483309bff3b6b55f32919d267205fa7312647576c23ecea7b11c2"
       "36ccc4fe38547a14eecf4d836f848088772bc95806e91b0b0ad89d7f8d8c3673"
       "981cd3de1ebab10538df40c9ccf26df118e29201c4354928636e5e3cd84a586c"
       "eb92a3c8a0e9342a19ba1c3ce5d5205ffa8b23ca1f9680483184be65a8b6c9ba"
       "1646102e161d4de782e03532da45004e99b4b0000c8ce916bc5757fd9cb8ba29"
       "27f2646057ba82c7"},
      {"HeteroSpec::random", 300,
       [](std::uint64_t s) {
         // Typed tables price rows from their own topology, which
         // carries the spec's per-type models when it has them.
         const auto spec = testing::HeteroSpec::random(s);
         return table_fold(spec.build(), spec.total_cores(), nullptr);
       },
       0xeea16ba0477875c4ULL,
       "6fc213002de733679f43bfb1a08f317d65bde01712922347e7836e2216533367"
       "130013001653da63130083a90a80e8f3245f018fc17e16fed3a38a4ae751c59a"
       "e331c4a1f1b59e70f1b5aca3b1718e6416531292e8f398e22ce1a9a16338101a"
       "a8ba101a597e003a581c274ee151eb0acd46f2faddfcb21bf1b59267d5c085e8"
       "10de1322f1b555ec3ecc7596b21b1966133262f9aa00d3cf1300a03fa35d5563"
       "381f130013006fc2eb0a01653ecc2e0216531caa13001300dc22130016fe50db"
       "6dc91e190b4f16fe62f91296b5d6c44b254585e816feaeb49d05089250ea2a00"
       "1758fae6f1b5d522165316fe256756de3367340e2cba12921653d9dfcecc101a"
       "101ab1714f3562f998d909746edff1b513002ec11d15b40c13002090dd50f180"
       "16fef33116fe336799f9f40acd46f3310fd4581c1300002a8bd6f1b5f1b5f1b5"
       "98e216533ecc16533b819010f1b5d3cf165316fe7973c8c63367e7830fd41653"
       "f4ec873b62f9c80af22e20f0fe41903ce8df3d8816fe806881187d0acddd8a4a"
       "3eccb11cf2b162f9b21b13007cbd3367882286571653c21d1ebf16fe703217a0"
       "e8f333672d6a6fc216535563f3311d516edf101a495e3367130013001653d3cf"
       "101ad3cfb171694d393fc44b50af101a304416fea9aadb691653e00eda63fe41"
       "418fc44b50afd1e7a08f495ea7ce6fc23c2d836285e813000fd4f1b53cd80805"
       "852f59a7b3dbaddd495e8e646edf1300fb41a41f418fb95507073c44da63cf03"
       "0e7cbfec101a581c1653c0ccefe1eac74821fe410794d9ed6fc265bdfae6fe41"
       "cd46e39df331bccbb7cd6edfefe1b21b0fd4e783fb7f3ecc"},
  };
  for (const auto& f : families) {
    std::uint64_t digest = kFnvBasis;
    std::string prints;
    std::string moved;
    for (std::uint64_t seed = 1; seed <= f.seeds; ++seed) {
      const std::uint64_t h = f.fold(seed);
      digest = fnv_mix(digest, h);
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%04x", fingerprint(h));
      prints += buf;
      const std::string_view pinned(f.fingerprints);
      const std::size_t at = 4 * static_cast<std::size_t>(seed - 1);
      if (pinned.size() < at + 4 || pinned.substr(at, 4) != buf) {
        moved.append(" ").append(std::to_string(seed));
      }
    }
    std::string literal;
    for (std::size_t at = 0; at < prints.size(); at += 64) {
      literal.append("\n       \"").append(prints, at, 64).append("\"");
    }
    char dbuf[32];
    std::snprintf(dbuf, sizeof(dbuf), "0x%016" PRIx64 "ULL", digest);
    EXPECT_EQ(digest, f.digest)
        << f.name << " moved; seeds:" << moved << "\ncomputed digest "
        << dbuf << ", fingerprints:" << literal;
  }
}

// ------------------------------------------------ randomized properties --

struct RandomCase {
  std::size_t r, k, cores;
  std::uint64_t seed;
};

class RandomizedSearch : public ::testing::TestWithParam<RandomCase> {};

CCTable random_table(const RandomCase& rc) {
  util::Xoshiro256 rng(rc.seed);
  // Build descending frequencies, then the exact CC scaling structure.
  std::vector<double> slowdown(rc.r, 1.0);
  for (std::size_t j = 1; j < rc.r; ++j) {
    slowdown[j] = slowdown[j - 1] * rng.uniform(1.1, 1.8);
  }
  std::vector<std::vector<double>> rows(rc.r, std::vector<double>(rc.k));
  for (std::size_t i = 0; i < rc.k; ++i) {
    const double base = rng.uniform(0.2, 4.0);
    for (std::size_t j = 0; j < rc.r; ++j) {
      rows[j][i] = base * slowdown[j];
    }
  }
  return CCTable::from_matrix(rows);
}

TEST_P(RandomizedSearch, FoundTuplesSatisfyAllConstraints) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto res = search_backtracking(cc, rc.cores);
  if (res.found) {
    EXPECT_TRUE(tuple_is_valid(cc, res.tuple, rc.cores));
    EXPECT_LE(res.cores_used, rc.cores);
  }
}

TEST_P(RandomizedSearch, BacktrackingFindsWheneverExhaustiveDoes) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto e = search_exhaustive(cc, rc.cores);
  const auto b = search_backtracking(cc, rc.cores);
  EXPECT_EQ(b.found, e.found);
}

TEST_P(RandomizedSearch, ExhaustiveEnergyIsMinimal) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto e = search_exhaustive(cc, rc.cores);
  const auto b = search_backtracking(cc, rc.cores);
  if (e.found && b.found) {
    EXPECT_LE(tuple_energy_estimate(cc, e.tuple, rc.cores),
              tuple_energy_estimate(cc, b.tuple, rc.cores) + 1e-9);
  }
}

TEST_P(RandomizedSearch, GreedySuccessImpliesBacktrackingSuccess) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto g = search_greedy(cc, rc.cores);
  if (g.found) {
    EXPECT_TRUE(search_backtracking(cc, rc.cores).found);
    EXPECT_TRUE(tuple_is_valid(cc, g.tuple, rc.cores));
  }
}

std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  std::uint64_t seed = 1;
  for (std::size_t r : {2u, 3u, 4u, 6u}) {
    for (std::size_t k : {1u, 2u, 3u, 5u}) {
      for (std::size_t cores : {4u, 16u, 64u}) {
        cases.push_back(RandomCase{r, k, cores, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedSearch,
                         ::testing::ValuesIn(random_cases()),
                         [](const auto& info) {
                           const auto& p = info.param;
                           return "r" + std::to_string(p.r) + "k" +
                                  std::to_string(p.k) + "m" +
                                  std::to_string(p.cores);
                         });

}  // namespace
}  // namespace eewa::core
