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
#include <optional>
#include <span>
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

TEST(TupleIsValid, PricesNothingOnAnEmptyTable) {
  // The validity check reads capacity only: it stands on the empty
  // table an unplanned adjustment holds, where pricing the slowest row
  // (r - 1) would throw.
  const CCTable empty;
  EXPECT_TRUE(tuple_is_valid(empty, {}, 4));
  EXPECT_THROW(tuple_energy_estimate(empty, {}, 4), std::out_of_range);
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

// Bit-exact pins of the pruned searcher. Each pinned search has two
// pins, checked by separate tests:
//   - a decision pin: what the search decided — found, the tuple's
//     digest, its core count and its energy estimate (under the power
//     the search priced with) as raw double bits;
//   - a work pin: what the search cost — its node count and abort flag.
// A search-effort change may re-pin the work pins alone; a moved
// decision pin means the planner's output changed, so re-pin it only
// deliberately. On mismatch a test names the tables that moved and
// prints the rows it computed.

/// FNV-1a over the tuple's rungs (0 for "not found").
std::uint64_t tuple_digest(const SearchResult& res) {
  if (!res.found) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t rung : res.tuple) {
    h = (h ^ static_cast<std::uint64_t>(rung)) * 0x100000001b3ULL;
  }
  return h;
}

/// One pinned search: its result, and whether it priced power with the
/// table's model (otherwise with the proxy, or a typed table's own).
struct PinnedSearch {
  SearchResult res;
  bool priced = false;
};

/// A table and the searches pinned on it, in pin order.
struct TableRun {
  CCTable cc;
  std::size_t m = 0;
  std::optional<energy::PowerModel> model;
  std::vector<PinnedSearch> searches;

  /// search_pruned under proxy power, under `model` when there is one,
  /// then a suffix re-plan per prefix length cut from the first one's
  /// tuple (none when it found nothing).
  void run(std::span<const std::size_t> prefix_lengths) {
    const auto full = search_pruned(cc, m);
    searches.push_back({full, false});
    if (model) searches.push_back({search_pruned(cc, m, &*model), true});
    if (!full.found) return;
    for (const std::size_t len : prefix_lengths) {
      const std::vector<std::size_t> prefix(
          full.tuple.begin(),
          full.tuple.begin() + static_cast<std::ptrdiff_t>(len));
      searches.push_back(
          {search_suffix(cc, m, SearchKind::kPruned, prefix), false});
    }
  }
};

struct DecisionPin {
  bool found;
  std::uint64_t digest;
  std::size_t cores;
  std::uint64_t energy_bits;  ///< 0 when nothing was found
  bool operator==(const DecisionPin&) const = default;
};

DecisionPin decision_of(const TableRun& run, const PinnedSearch& s) {
  const SearchResult& res = s.res;
  const energy::PowerModel* model = s.priced ? &*run.model : nullptr;
  return {res.found, tuple_digest(res), res.cores_used,
          res.found ? std::bit_cast<std::uint64_t>(tuple_energy_estimate(
                          run.cc, res.tuple, run.m, model))
                    : 0};
}

std::string pin_literal(const DecisionPin& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{%s, 0x%016" PRIx64 "ULL, %zu, 0x%016" PRIx64 "ULL}",
                p.found ? "true" : "false", p.digest, p.cores, p.energy_bits);
  return buf;
}

struct WorkPin {
  std::size_t nodes;
  bool aborted;
  bool operator==(const WorkPin&) const = default;
};

WorkPin work_of(const TableRun&, const PinnedSearch& s) {
  return {s.res.nodes_visited, s.res.aborted};
}

std::string pin_literal(const WorkPin& p) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{%zu, %s}", p.nodes,
                p.aborted ? "true" : "false");
  return buf;
}

/// Checks each table's pins, one row of N searches per table, against
/// `pinned`.
template <typename Pin, std::size_t Tables, std::size_t N>
void expect_rows(const Pin (&pinned)[Tables][N],
                 const std::function<TableRun(std::size_t)>& run_table,
                 Pin (*pin)(const TableRun&, const PinnedSearch&)) {
  std::string literal;
  std::string moved;
  for (std::size_t t = 0; t < Tables; ++t) {
    const TableRun run = run_table(t);
    bool same = run.searches.size() == N;
    literal += "    {";
    for (std::size_t n = 0; n < run.searches.size(); ++n) {
      const Pin p = pin(run, run.searches[n]);
      if (n != 0) literal += ",\n     ";
      literal += pin_literal(p);
      same = same && p == pinned[t][n];
    }
    literal += "},\n";
    if (!same) moved += " " + std::to_string(t);
  }
  EXPECT_TRUE(moved.empty()) << "tables moved:" << moved
                             << "\ncomputed pins:\n" << literal;
}

// Production scale. The tables are bench_ablation_search's scale
// section (r=16, k=256, m=256, seeds 0x5eed..0x5eed+11, same generator).

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

/// Prefix lengths the suffix pins keep from the full pruned tuple.
constexpr std::size_t kSuffixPrefixes[] = {16, 128, 240};
/// Per scale table: proxy, model, then one suffix per prefix length.
constexpr std::size_t kScaleSearches = 2 + std::size(kSuffixPrefixes);

TableRun scale_run(std::size_t t) {
  TableRun run{scale_table(0x5eedULL + t), kScaleCores, scale_model(), {}};
  run.run(kSuffixPrefixes);
  return run;
}

const DecisionPin kScaleDecisions[kScaleTables][kScaleSearches] = {
    {{true, 0xe69b232399e676aaULL, 256, 0x4063b550f551bd93ULL},
     {true, 0x2f33edbf6bfd1f45ULL, 256, 0x40b049503b526471ULL},
     {true, 0xe69b232399e676aaULL, 256, 0x4063b550f551bd93ULL},
     {true, 0xe69b232399e676aaULL, 256, 0x4063b550f551bd93ULL},
     {true, 0xe69b232399e676aaULL, 256, 0x4063b550f551bd93ULL}},
    {{true, 0x079161050a8ba072ULL, 256, 0x405684e7cc3cd615ULL},
     {true, 0x4b757559b9187a73ULL, 256, 0x40a869f79a1b2531ULL},
     {true, 0x079161050a8ba072ULL, 256, 0x405684e7cc3cd615ULL},
     {true, 0x079161050a8ba072ULL, 256, 0x405684e7cc3cd615ULL},
     {true, 0x079161050a8ba072ULL, 256, 0x405684e7cc3cd615ULL}},
    {{true, 0x1a52a748b87090f9ULL, 256, 0x4062ed99f98786d0ULL},
     {true, 0x89dcf627ec59fd84ULL, 256, 0x40b00a8712655bdcULL},
     {true, 0x1a52a748b87090f9ULL, 256, 0x4062ed99f98786d0ULL},
     {true, 0x1a52a748b87090f9ULL, 256, 0x4062ed99f98786d0ULL},
     {true, 0x1a52a748b87090f9ULL, 256, 0x4062ed99f98786d0ULL}},
    {{true, 0x4cdca95461e345c2ULL, 256, 0x405610feda58ea7bULL},
     {true, 0x4cdca95461e345c2ULL, 256, 0x40a8b698759b4b23ULL},
     {true, 0x4cdca95461e345c2ULL, 256, 0x405610feda58ea7bULL},
     {true, 0x4cdca95461e345c2ULL, 256, 0x405610feda58ea7bULL},
     {true, 0x4cdca95461e345c2ULL, 256, 0x405610feda58ea7bULL}},
    {{true, 0x3bc6e65c5ebc442aULL, 256, 0x40534a159485936dULL},
     {true, 0x3bc6e65c5ebc442aULL, 256, 0x40a723e5a25aef41ULL},
     {true, 0x3bc6e65c5ebc442aULL, 256, 0x40534a159485936dULL},
     {true, 0x3bc6e65c5ebc442aULL, 256, 0x40534a159485936dULL},
     {true, 0x3bc6e65c5ebc442aULL, 256, 0x40534a159485936dULL}},
    {{true, 0xa652c719a4531423ULL, 256, 0x406457f6f8c1ea9fULL},
     {true, 0x353fd54b33f8d63cULL, 256, 0x40b081df0427f3e4ULL},
     {true, 0xa652c719a4531423ULL, 256, 0x406457f6f8c1ea9fULL},
     {true, 0xa652c719a4531423ULL, 256, 0x406457f6f8c1ea9fULL},
     {true, 0xa652c719a4531423ULL, 256, 0x406457f6f8c1ea9fULL}},
    {{true, 0x7d92d905061321f8ULL, 256, 0x405ce4e024801b3fULL},
     {true, 0x4abd7f1c937705f1ULL, 256, 0x40abcb8d169ce63dULL},
     {true, 0x7d92d905061321f8ULL, 256, 0x405ce4e024801b3fULL},
     {true, 0x7d92d905061321f8ULL, 256, 0x405ce4e024801b3fULL},
     {true, 0x7d92d905061321f8ULL, 256, 0x405ce4e024801b3fULL}},
    {{true, 0x8272285c1693f812ULL, 256, 0x404e7790fc5bfb65ULL},
     {true, 0x02016bca5c5ce797ULL, 256, 0x40a47510dcbaa2acULL},
     {true, 0x8272285c1693f812ULL, 256, 0x404e7790fc5bfb65ULL},
     {true, 0x8272285c1693f812ULL, 256, 0x404e7790fc5bfb65ULL},
     {true, 0x8272285c1693f812ULL, 256, 0x404e7790fc5bfb65ULL}},
    {{true, 0xfc0f9c0767fcaf3fULL, 256, 0x4050db822b16e067ULL},
     {true, 0x2f10f8d03c935381ULL, 256, 0x40a59366c80c0236ULL},
     {true, 0xfc0f9c0767fcaf3fULL, 256, 0x4050db822b16e067ULL},
     {true, 0xfc0f9c0767fcaf3fULL, 256, 0x4050db822b16e067ULL},
     {true, 0xfc0f9c0767fcaf3fULL, 256, 0x4050db822b16e067ULL}},
    {{true, 0x52b36640e53523caULL, 256, 0x4051c4a672c2554aULL},
     {true, 0xadf0c75dc55bbc99ULL, 256, 0x40a6249d39638028ULL},
     {true, 0x52b36640e53523caULL, 256, 0x4051c4a672c2554aULL},
     {true, 0x52b36640e53523caULL, 256, 0x4051c4a672c2554aULL},
     {true, 0x52b36640e53523caULL, 256, 0x4051c4a672c2554aULL}},
    {{true, 0x639e244a41298185ULL, 256, 0x404f709b501dcd67ULL},
     {true, 0x639e244a41298185ULL, 256, 0x40a4fe57360a1902ULL},
     {true, 0x639e244a41298185ULL, 256, 0x404f709b501dcd67ULL},
     {true, 0x639e244a41298185ULL, 256, 0x404f709b501dcd67ULL},
     {true, 0x639e244a41298185ULL, 256, 0x404f709b501dcd67ULL}},
    {{true, 0x5924b7521fb4ce79ULL, 256, 0x4052c648782b61caULL},
     {true, 0xe8fad76868acaddcULL, 256, 0x40a6c82f4c1b33dcULL},
     {true, 0x5924b7521fb4ce79ULL, 256, 0x4052c648782b61caULL},
     {true, 0x5924b7521fb4ce79ULL, 256, 0x4052c648782b61caULL},
     {true, 0x5924b7521fb4ce79ULL, 256, 0x4052c648782b61caULL}},
};

const WorkPin kScaleWork[kScaleTables][kScaleSearches] = {
    {{18689, false},
     {19674, false},
     {8364, false},
     {6908, false},
     {530, false}},
    {{16149, false},
     {16190, false},
     {6832, false},
     {5712, false},
     {213, false}},
    {{17952, false},
     {19914, false},
     {11393, false},
     {1602, false},
     {258, false}},
    {{18950, false},
     {17674, false},
     {8743, false},
     {2070, false},
     {128, false}},
    {{13349, false},
     {14763, false},
     {9931, false},
     {4238, false},
     {128, false}},
    {{11856, false},
     {21986, false},
     {10722, false},
     {1547, false},
     {203, false}},
    {{18084, false},
     {18167, false},
     {14167, false},
     {5982, false},
     {187, false}},
    {{12550, false},
     {17649, false},
     {9147, false},
     {3859, false},
     {234, false}},
    {{13299, false},
     {12080, false},
     {7848, false},
     {1729, false},
     {112, false}},
    {{11853, false},
     {14801, false},
     {4998, false},
     {3990, false},
     {128, false}},
    {{13343, false},
     {14732, false},
     {9675, false},
     {4303, false},
     {375, false}},
    {{12675, false},
     {17078, false},
     {4147, false},
     {3139, false},
     {128, false}},
};

TEST(PrunedGolden, ScaleTableDecisionsBitExact) {
  expect_rows(kScaleDecisions, scale_run, decision_of);
}

TEST(PrunedGolden, ScaleTableWorkBitExact) {
  expect_rows(kScaleWork, scale_run, work_of);
}

// The typed DP at a smaller scale (two 8-rung core types, k=64), since
// its multi-dimensional fronts cost more per state.
constexpr std::size_t kTypedClasses = 64;
constexpr std::size_t kTypedTables = 4;
constexpr std::size_t kTypedPrefixes[] = {8, 40};
constexpr std::size_t kTypedSearches = 1 + std::size(kTypedPrefixes);

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

TableRun typed_run(std::size_t t) {
  const auto topo = typed_scale_topology();
  TableRun run{typed_scale_table(topo, 0x7e7eULL + t), topo.total_cores(),
               std::nullopt, {}};
  run.run(kTypedPrefixes);
  return run;
}

const DecisionPin kTypedDecisions[kTypedTables][kTypedSearches] = {
    {{true, 0xb55e018839f76fb3ULL, 159, 0x40349b623f766d73ULL},
     {true, 0x7799d64dfd9e3904ULL, 160, 0x403466a839bbf20cULL},
     {true, 0xb1b887df9627ccd3ULL, 159, 0x40347a7b3643ede0ULL}},
    {{true, 0x906086ac76837757ULL, 154, 0x40573766a1e96001ULL},
     {true, 0x124977a19d0d6c6dULL, 159, 0x405361e657c666aaULL},
     {true, 0xe8f26f3da0808ae1ULL, 155, 0x405730898b9985c5ULL}},
    {{true, 0xf1d75f774f6766f1ULL, 160, 0x404c668f18d66530ULL},
     {true, 0x10fced92cfc46d9fULL, 150, 0x40505973b659fe2bULL},
     {true, 0xf1d75f774f6766f1ULL, 160, 0x404c668f18d66530ULL}},
    {{true, 0xd5a3ffa3ff63d62fULL, 154, 0x4033a28c703d9b44ULL},
     {true, 0x8d6680f07cea8cb0ULL, 160, 0x403297ffd9fe459aULL},
     {true, 0xdd26b61b89060cd7ULL, 154, 0x40339323b5cc25caULL}},
};

const WorkPin kTypedWork[kTypedTables][kTypedSearches] = {
    {{11204, false},
     {7524, false},
     {13347, false}},
    {{8391, false},
     {8195, false},
     {3641, false}},
    {{9237, false},
     {8024, false},
     {6442, false}},
    {{11142, false},
     {7387, false},
     {14388, false}},
};

TEST(PrunedGolden, TypedTableDecisionsBitExact) {
  expect_rows(kTypedDecisions, typed_run, decision_of);
}

TEST(PrunedGolden, TypedTableWorkBitExact) {
  expect_rows(kTypedWork, typed_run, work_of);
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
// have a single core type. Each table runs search_pruned under proxy
// power, under the spec's model when it has one, and a suffix re-plan
// keeping the first half of the found tuple. Each family pins one
// digest of its seeds' decision pins, with a 16-bit fingerprint per
// seed that names the seeds that moved when the digest does, and one
// digest of their work pins.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

std::uint64_t fold_pin(std::uint64_t h, const DecisionPin& p) {
  h = fnv_mix(h, p.found ? 1 : 0);
  h = fnv_mix(h, p.digest);
  h = fnv_mix(h, p.cores);
  return fnv_mix(h, p.energy_bits);
}

std::uint64_t fold_pin(std::uint64_t h, const WorkPin& p) {
  h = fnv_mix(h, p.nodes);
  return fnv_mix(h, p.aborted ? 1 : 0);
}

/// One seed's pins folded in search order.
template <typename Pin>
std::uint64_t table_fold(const TableRun& run,
                         Pin (*pin)(const TableRun&, const PinnedSearch&)) {
  std::uint64_t h = kFnvBasis;
  for (const auto& s : run.searches) h = fold_pin(h, pin(run, s));
  return h;
}

TableRun fuzz_run(CCTable cc, std::size_t m,
                  std::optional<energy::PowerModel> model) {
  TableRun run{std::move(cc), m, std::move(model), {}};
  const std::size_t half[] = {run.cc.cols() / 2};
  run.run(half);
  return run;
}

TableRun homogeneous_run(const testing::TableSpec& spec) {
  return fuzz_run(spec.build(), spec.cores,
                  spec.use_model ? std::optional(spec.build_model())
                                 : std::nullopt);
}

struct FamilyPin {
  const char* name;
  std::uint64_t seeds;  ///< seeds 1..seeds
  std::function<TableRun(std::uint64_t)> run;
  std::uint64_t decisions;
  const char* fingerprints;  ///< 4 hex digits per seed, in seed order
  std::uint64_t work;
};

unsigned fingerprint(std::uint64_t h) {
  return static_cast<unsigned>((h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) &
                               0xffffu);
}

const FamilyPin kFamilies[] = {
    {"TableSpec::random", 300,
     [](std::uint64_t s) {
       return homogeneous_run(testing::TableSpec::random(s));
     },
     0x5fc4fa33000cefa7ULL,
     "4b1f425ec98e412a412a44e79f7ae91fcbfceea82ea31f1e9edcc3d4215bc03e"
     "b56134dc5aebb5613137b021de4f97cb42f2412a9f6b9b2421701b63d423412a"
     "3adb2fa1215cb9a097d7d372b561412a8575fa4b80ff77e9d8b7e9af37a12613"
     "4843412ab561412acbd68b1ab561b56139c394b7273a483851f3b561b561b561"
     "6e2ffc33fd67b988a6ca508d422b28552ecd771db90df86bb56183ce34ee412a"
     "3b20412a1d3e412ae11a8a7a13284164b3cf91cac6142613412a412a412a567f"
     "197390caba8db561367346b57cd8c9d4e899273b56ceb561412a412a412ae70c"
     "9523412a628d7a01a338b3deb561b5612219937e227ab561f7e20c4bb561b561"
     "01d06fe2f6e3839038ebb561b0c49a43f7f97897412a78c935031815412a9def"
     "048caf4f1b72a733c3bd412aa7a5b5611529c709234b4afe4801b561da8eb561"
     "f1367d713cedb6d3b561b56127683bd0a1c9b561695a58590c3c186d7588cda4"
     "d15a3017dcb6412a719218f7a5ec3b3cbf44542137ff9ac8a6fc961eb881a531"
     "71ece595f46ac636412ab561d8c8110fd4efb561b5617a01e004b5619951663e"
     "7f95b9e18c32412a043d9f016e72af3b412aa313d12acb66b561688d6a0ce721"
     "29fbcf95412a38a341271131b561df1d412a2f61fcf9412a6fe90c52a51f412a"
     "b5610d4a2a8aca942c5926334094cbf45993b561bd0ee9f7e3116d6802b8fe63"
     "07148cfab160412ab5eb0f47b561412ab561ba8c88b1d9052263c3f3aa448fd5"
     "6ac1412a055bb561d762b5619900412a5c5fe6d7412a411cb561ee6f412acd99"
     "e3618a96412af8a5412a7eda9a13412a412a7c8c8cedb561",
     0xcb22afa17ab7e166ULL},
    {"TableSpec::random_large", 100,
     [](std::uint64_t s) {
       return homogeneous_run(testing::TableSpec::random_large(s));
     },
     0xe15c6d7b09d12e26ULL,
     "a765667d6bca39af3c96fc5923233f8c3fd9b5614183623b412a64ac8fa3d541"
     "47a45328339c2098d73e060f7d11412a1c90b561d57205fc5c764a4ec73af0b7"
     "5956a31d238fea58ccf22ccd4d8af716b56126230b72c5c97c8a1eee2834c505"
     "43b16761c533f70a38638392a3d9d5fc236e667b5a19c7b133fe6f67224bbe85"
     "d3304168c14f6b541391e56d8849b561c2d2b53872ee5bdb5b200f60c5213aa9"
     "741845247028efde7decee1e2aea483d9d024ad88100b561cba302868c62cf81"
     "b5616b64069bb58e",
     0xabd309fb685fa1c8ULL},
    {"HeteroSpec::random", 300,
     [](std::uint64_t s) {
       // Typed tables price rows from their own topology, which
       // carries the spec's per-type models when it has them.
       const auto spec = testing::HeteroSpec::random(s);
       return fuzz_run(spec.build(), spec.total_cores(), std::nullopt);
     },
     0x3ba265b62ce57419ULL,
     "b561b561c6f7b5616fff0d68cac16d5e5647ae41e27756b27f8bcf61b561b561"
     "b561b561b56108bdb5616938fb8bf922d87b5d888e7fb561768fb561ceb9b561"
     "003c947db5613105b5610685b561a395b561e27749b48d10c98a036dfb17b561"
     "824fb56157561cda41e71367376fd6fbea08b561221cb561b561b56160b0b561"
     "0f93b561b5615dc4b561b561b561c5b8dff4b5616af1d40ab561ff0f7c33caa0"
     "e479b561b561b561b6d6128cb561daf2b561b561b561b561525ab561b561aa06"
     "b100998d1e9fb561b561496eb93ca8a2340bb561b561b561f3e557c3a5567a20"
     "5ebb9d75b561bec7b561b561f1274b27b56121c91947bfdfb561f6ceaa46b561"
     "b561b561a91bb561e35a7c3afed9b561b561b7ebb2fd9ffab5610ecd647cdaa7"
     "b561a6cab561b561b72ab561244aca1ab56118fab561979dfdeab561b561b561"
     "6fddb561b561b5614e8a2325b5617e7fb561b561347b2abdb5617f8bb561b561"
     "67daa217b5610e705f6fbce55516b561385fdfc0b56190eadaf0b561fd80b561"
     "b561b56167e3b561b561b561eec7b5614648ded2b561354175f7b561b5616398"
     "5cacb5613338b561b56179b52aae7c308503b561f760b561b561b561b5617a5b"
     "b5611191b5612a5e2e5bc3e2b561b561867eb561dda5078db5618efc10d1c769"
     "fc3da8a2b5614831780537bb10c0b561bb54617ab561b561b561b5612dcfb561"
     "c3ac9b2d2d84c97cab0b718c7c60b561290a7a85a336c475f964853593b429c7"
     "b5d7845cb56148d4b561420b12004a0f68815f65a96e3b6fb5613ef74cb6cffa"
     "2caeb561355276ab68acd9fcff8fb561b5611d8bfa63b561",
     0xffd9b79d027920aaULL},
};

TEST(PrunedGolden, FuzzFamilyDecisionsBitExact) {
  for (const auto& f : kFamilies) {
    std::uint64_t digest = kFnvBasis;
    std::string prints;
    std::string moved;
    for (std::uint64_t seed = 1; seed <= f.seeds; ++seed) {
      const std::uint64_t h = table_fold(f.run(seed), decision_of);
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
      literal.append("\n     \"").append(prints, at, 64).append("\"");
    }
    char dbuf[32];
    std::snprintf(dbuf, sizeof(dbuf), "0x%016" PRIx64 "ULL", digest);
    EXPECT_EQ(digest, f.decisions)
        << f.name << " moved; seeds:" << moved << "\ncomputed digest "
        << dbuf << ", fingerprints:" << literal;
  }
}

TEST(PrunedGolden, FuzzFamilyWorkBitExact) {
  for (const auto& f : kFamilies) {
    std::uint64_t digest = kFnvBasis;
    for (std::uint64_t seed = 1; seed <= f.seeds; ++seed) {
      digest = fnv_mix(digest, table_fold(f.run(seed), work_of));
    }
    char dbuf[32];
    std::snprintf(dbuf, sizeof(dbuf), "0x%016" PRIx64 "ULL", digest);
    EXPECT_EQ(digest, f.work) << f.name << " moved; computed digest " << dbuf;
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
