// Unit tests for the util library: RNG determinism and distribution
// sanity, streaming statistics, histograms, bit-level I/O, CSV and table
// formatting, and the command-line flag reader.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/aligned.hpp"
#include "util/bit_io.hpp"
#include "util/cli_flags.hpp"
#include "util/cpu_affinity.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "util/tournament_tree.hpp"

namespace eewa::util {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(Xoshiro256, DeterministicSequences) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(1);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.02);
}

TEST(Xoshiro256, BoundedCoversRangeWithoutEscaping) {
  Xoshiro256 rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.bounded(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, RangeInclusive) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
  }
}

TEST(Xoshiro256, ExponentialHasRequestedMean) {
  Xoshiro256 rng(4);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.1);
}

TEST(Xoshiro256, LognormalMeanCvMatches) {
  Xoshiro256 rng(5);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal_mean_cv(10.0, 0.5));
  EXPECT_NEAR(s.mean(), 10.0, 0.3);
  EXPECT_NEAR(s.cv(), 0.5, 0.05);
}

TEST(Xoshiro256, CachedLognormalParamsMatchMeanCvBitwise) {
  // lognormal(mu, sigma) on cached parameters must draw exactly the bits
  // lognormal_mean_cv does, from identically seeded generators.
  Xoshiro256 a(17), b(17);
  for (const double mean : {1e-6, 80e-6, 0.37, 1.0, 250.0}) {
    for (const double cv : {1e-3, 0.2, 0.3, 0.5, 1.0, 3.0}) {
      const auto p = Xoshiro256::lognormal_params(mean, cv);
      for (int i = 0; i < 200; ++i) {
        const double x = a.lognormal_mean_cv(mean, cv);
        const double y = b.lognormal(p.mu, p.sigma);
        std::uint64_t bx, by;
        std::memcpy(&bx, &x, sizeof bx);
        std::memcpy(&by, &y, sizeof by);
        ASSERT_EQ(bx, by) << "mean " << mean << " cv " << cv << " draw " << i;
      }
    }
  }
  EXPECT_EQ(a.next(), b.next()) << "both paths must consume equal draws";
}

TEST(Xoshiro256, NormalMoments) {
  Xoshiro256 rng(6);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  Xoshiro256 rng(7);
  ZipfSampler zipf(100, 1.2);
  std::size_t low = 0, total = 20000;
  for (std::size_t i = 0; i < total; ++i) {
    if (zipf.sample(rng) < 10) ++low;
  }
  // With s=1.2 the top decile carries well over half the mass.
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.5);
}

TEST(UniformExcluding, NeverReturnsSelfAndCoversEveryoneElse) {
  for (std::size_t n : {2u, 3u, 5u, 8u}) {
    for (std::size_t self = 0; self < n; ++self) {
      std::set<std::size_t> seen;
      std::uint64_t state = 12345;
      for (int i = 0; i < 256; ++i) {
        state = mix64(state);
        const std::size_t v = uniform_excluding(state, self, n);
        EXPECT_NE(v, self);
        EXPECT_LT(v, n);
        seen.insert(v);
      }
      EXPECT_EQ(seen.size(), n - 1);
    }
  }
}

TEST(UniformExcluding, VictimDistributionIsUnbiased) {
  // The bug this guards against: remapping a self-hit draw to
  // (self + 1) % n gives that neighbour twice everyone else's
  // probability. Chi-square over the mix64 stream the steal path uses;
  // with 200k draws a doubled cell scores X² in the tens of thousands,
  // so a generous threshold still rejects it decisively.
  for (std::size_t n : {2u, 3u, 5u, 8u}) {
    for (std::size_t self : {std::size_t{0}, n - 1}) {
      std::vector<std::size_t> counts(n, 0);
      std::uint64_t state = 0x9e3779b97f4a7c15ull + n;
      const std::size_t draws = 200000;
      for (std::size_t i = 0; i < draws; ++i) {
        state = mix64(state);
        ++counts[uniform_excluding(state, self, n)];
      }
      EXPECT_EQ(counts[self], 0u);
      const double expect =
          static_cast<double>(draws) / static_cast<double>(n - 1);
      double chi2 = 0.0;
      for (std::size_t v = 0; v < n; ++v) {
        if (v == self) continue;
        const double d = static_cast<double>(counts[v]) - expect;
        chi2 += d * d / expect;
      }
      // df <= 6; p=0.001 critical value is ~22.5.
      EXPECT_LT(chi2, 25.0) << "n=" << n << " self=" << self;
    }
  }
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256 rng(8);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(1.0, 3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Summary, PercentilesOfKnownSample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 0.1);
}

TEST(Summary, EmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

TEST(PercentileSorted, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 10.0);
}

TEST(BitIo, RoundTripsVariousWidths) {
  BitWriter bw;
  bw.write(0b101, 3);
  bw.write(0xDEADBEEF, 32);
  bw.write(1, 1);
  bw.write(0x1FFFFF, 21);
  const auto bytes = bw.take();
  BitReader br({bytes.data(), bytes.size()});
  EXPECT_EQ(br.read(3), 0b101u);
  EXPECT_EQ(br.read(32), 0xDEADBEEFu);
  EXPECT_EQ(br.read(1), 1u);
  EXPECT_EQ(br.read(21), 0x1FFFFFu);
}

TEST(BitIo, RandomizedRoundTrip) {
  Xoshiro256 rng(11);
  std::vector<std::pair<std::uint64_t, unsigned>> items;
  BitWriter bw;
  for (int i = 0; i < 2000; ++i) {
    const unsigned width = 1 + static_cast<unsigned>(rng.bounded(56));
    const std::uint64_t value =
        rng.next() & ((width == 64) ? ~0ULL : ((1ULL << width) - 1));
    items.emplace_back(value, width);
    bw.write(value, width);
  }
  const auto bytes = bw.take();
  BitReader br({bytes.data(), bytes.size()});
  for (const auto& [value, width] : items) {
    ASSERT_EQ(br.read(width), value);
  }
}

TEST(BitIo, ReadPastEndYieldsZeros) {
  const std::vector<std::uint8_t> one{0xFF};
  BitReader br({one.data(), one.size()});
  EXPECT_EQ(br.read(8), 0xFFu);
  EXPECT_EQ(br.read(8), 0u);
  EXPECT_TRUE(br.exhausted());
}

TEST(BitIo, BitCountTracksWrites) {
  BitWriter bw;
  bw.write(1, 1);
  bw.write(0, 10);
  EXPECT_EQ(bw.bit_count(), 11u);
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv;
  csv.row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  const std::string s = csv.str();
  EXPECT_NE(s.find("plain,\"with,comma\",\"with\"\"quote\""),
            std::string::npos);
}

TEST(Csv, RowValuesMixedTypes) {
  CsvWriter csv;
  csv.row_values("x", 42, 2.5);
  EXPECT_EQ(csv.str(), "x,42,2.5\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add("short", 1);
  t.add("a-much-longer-name", 12345);
  const std::string s = t.str();
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  // Every rendered line has the same width.
  std::size_t first_len = std::string::npos;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    const std::size_t len = nl - pos;
    if (first_len == std::string::npos) first_len = len;
    EXPECT_EQ(len, first_len);
    pos = nl + 1;
  }
}

TEST(TablePrinter, FixedFormatsDecimals) {
  EXPECT_EQ(TablePrinter::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fixed(2.0, 0), "2");
}

TEST(Aligned, CellsOccupyDistinctCacheLines) {
  CachelinePadded<int> cells[2];
  const auto a = reinterpret_cast<std::uintptr_t>(&cells[0].value);
  const auto b = reinterpret_cast<std::uintptr_t>(&cells[1].value);
  EXPECT_GE(b - a, kCacheLine);
  EXPECT_EQ(a % kCacheLine, 0u);
  *cells[0] = 7;
  EXPECT_EQ(cells[0].value, 7);
  cells[1].value = 9;
  EXPECT_EQ(*cells[1], 9);
}

TEST(CpuAffinity, CountPositiveAndPinningIsSafe) {
  EXPECT_GE(hardware_cpu_count(), 1u);
  // Pinning may be denied (containers); it must never crash and must
  // accept out-of-range ids by wrapping.
  (void)pin_current_thread(0);
  (void)pin_current_thread(hardware_cpu_count() + 5);
  SUCCEED();
}

TEST(Xoshiro256, ChanceRespectsProbability) {
  Xoshiro256 rng(12);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
  Xoshiro256 rng2(13);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rng2.chance(0.0));
}

TEST(TournamentTree, WinnerIsLowestIndexArgmin) {
  using MinTree = TournamentTree<double, std::less<double>>;
  MinTree t;
  t.reset(5);
  EXPECT_EQ(t.winner(), MinTree::kNone);
  const double keys[] = {3.0, 1.0, 4.0, 1.0, 5.0};
  for (std::size_t i = 0; i < 5; ++i) t.update(i, keys[i]);
  // Ties break to the lowest index — the semantics of the fleet's
  // first-strictly-better linear scans.
  EXPECT_EQ(t.winner(), 1u);
  t.update(1, 10.0);
  EXPECT_EQ(t.winner(), 3u);
  t.update(4, 0.5);
  EXPECT_EQ(t.winner(), 4u);
}

TEST(TournamentTree, DisableRemovesFromContention) {
  using MaxTree = TournamentTree<double, std::greater<double>>;
  MaxTree t;  // argmax flavor
  t.reset(4);
  for (std::size_t i = 0; i < 4; ++i)
    t.update(i, static_cast<double>(i));
  EXPECT_EQ(t.winner(), 3u);
  t.disable(3);
  EXPECT_EQ(t.winner(), 2u);
  EXPECT_FALSE(t.contains(3));
  t.disable(2);
  t.disable(1);
  t.disable(0);
  EXPECT_EQ(t.winner(), MaxTree::kNone);
  t.update(2, 7.0);
  EXPECT_EQ(t.winner(), 2u);
}

// Random churn against a first-strictly-better linear scan, steered
// into every O(1) case: the winner re-keyed to a better, an equal and a
// worse key, ties with lower and higher indices, disabling a slot that
// is already disabled, and a tree with every slot disabled.
template <typename Compare>
void churn_against_linear_scan(std::uint64_t seed) {
  using Tree = TournamentTree<double, Compare>;
  const Compare better;
  Tree t;
  const std::size_t n = 37;  // deliberately not a power of two
  t.reset(n);
  std::vector<double> keys(n, 0.0);
  std::vector<char> on(n, 0);
  Xoshiro256 rng(seed);
  const auto pick = [&] {
    return static_cast<std::size_t>(rng.uniform() * n) % n;
  };
  const auto set = [&](std::size_t i, double k) {
    keys[i] = k;
    on[i] = 1;
    t.update(i, k);
  };
  const auto off = [&](std::size_t i) {
    on[i] = 0;
    t.disable(i);
  };
  std::size_t fast_cases[6] = {};
  for (int step = 0; step < 6000; ++step) {
    const std::size_t w = t.winner();
    const double op = rng.uniform();
    if (w != Tree::kNone && op < 0.3) {
      // Re-key the winner: better, equal or worse, each a third.
      const double gain = 0.5 * std::floor(rng.uniform() * 3.0) - 0.5;
      const double up = better(1.0, 0.0) ? 1.0 : -1.0;  // the better way
      set(w, keys[w] + up * gain);
      ++fast_cases[gain > 0.0 ? 0 : gain == 0.0 ? 1 : 2];
    } else if (w != Tree::kNone && op < 0.4) {
      // Tie the winner's key at another slot, below or above it.
      const std::size_t i = pick();
      if (i != w) ++fast_cases[i < w ? 3 : 4];
      set(i, keys[w]);
    } else if (op < 0.5) {
      // Disable a slot, quite often one that is already disabled.
      const std::size_t i = pick();
      if (on[i] == 0) ++fast_cases[5];
      off(i);
    } else if (op < 0.505) {
      for (std::size_t i = 0; i < n; ++i) off(i);
      ASSERT_EQ(t.winner(), Tree::kNone) << "step " << step;
    } else {
      set(pick(), std::floor(rng.uniform() * 8.0));  // ties likely
    }
    std::size_t best = Tree::kNone;
    for (std::size_t j = 0; j < n; ++j) {
      if (on[j] && (best == Tree::kNone || better(keys[j], keys[best]))) {
        best = j;
      }
    }
    ASSERT_EQ(t.winner(), best) << "step " << step;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(t.contains(j), on[j] != 0) << "step " << step;
    }
  }
  for (const std::size_t hits : fast_cases) EXPECT_GT(hits, 20u);
}

TEST(TournamentTree, MatchesLinearScanOnRandomChurn) {
  churn_against_linear_scan<std::less<double>>(7);
  churn_against_linear_scan<std::greater<double>>(8);
}

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
  // Reuse across jobs (the fleet issues one job per epoch).
  std::atomic<std::size_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(10, [&](std::size_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 50u * 45u);
}

TEST(ThreadPool, SingleThreadAndEmptyJobsDegrade) {
  ThreadPool pool(1);  // no workers: parallel_for is a plain loop
  int calls = 0;
  pool.parallel_for(8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 8);
  pool.parallel_for(0, [&](std::size_t) { ADD_FAILURE() << "n == 0"; });
  ThreadPool wide(8);
  std::atomic<int> hits{0};
  wide.parallel_for(3, [&](std::size_t) { hits++; });  // n < threads
  EXPECT_EQ(hits.load(), 3);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive a failed job.
  std::atomic<int> hits{0};
  pool.parallel_for(16, [&](std::size_t) { hits++; });
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, RejectsAbsurdThreadCounts) {
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_GE(hardware_threads(), 1u);
  ThreadPool hw(0);  // 0 = hardware concurrency
  EXPECT_GE(hw.size(), 1u);
}

TEST(Mix64, StatelessAndStable) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}


// ---------------------------------------------------------------------------
// FlagParser. Every malformed command line exits 2 with one
// "<tool>: ..." line on stderr; CI drives the same paths through the tools.

// One tool's flag loop over `args` (argv[0] included).
void parse_tool(std::vector<const char*> args) {
  FlagParser flags("tool", static_cast<int>(args.size()), args.data());
  while (flags.next()) {
    if (flags.is("--count")) {
      (void)flags.count();
    } else if (flags.is("--real")) {
      (void)flags.real();
    } else if (flags.is("--out")) {
      (void)flags.text();
    } else {
      flags.reject();
    }
  }
}

TEST(FlagParserDeathTest, NonNumericCountExits2) {
  EXPECT_EXIT(parse_tool({"tool", "--count", "abc"}),
              ::testing::ExitedWithCode(2),
              "tool: --count expects a non-negative integer, got 'abc'");
}

TEST(FlagParserDeathTest, NegativeCountExits2) {
  EXPECT_EXIT(parse_tool({"tool", "--count", "-3"}),
              ::testing::ExitedWithCode(2),
              "tool: --count expects a non-negative integer, got '-3'");
}

TEST(FlagParserDeathTest, NonFiniteRealExits2) {
  EXPECT_EXIT(parse_tool({"tool", "--real", "nan"}),
              ::testing::ExitedWithCode(2),
              "tool: --real expects a finite non-negative number, got 'nan'");
  EXPECT_EXIT(parse_tool({"tool", "--real", "inf"}),
              ::testing::ExitedWithCode(2),
              "tool: --real expects a finite non-negative number, got 'inf'");
}

TEST(FlagParserDeathTest, MissingValueAtEndExits2) {
  EXPECT_EXIT(parse_tool({"tool", "--count", "1", "--out"}),
              ::testing::ExitedWithCode(2), "tool: --out expects a value");
}

TEST(FlagParserDeathTest, UnknownFlagExits2) {
  EXPECT_EXIT(parse_tool({"tool", "--count", "1", "--bogus"}),
              ::testing::ExitedWithCode(2),
              "tool: unknown argument '--bogus'");
}

TEST(FlagParser, ReadsFlagsListItemsAndPositionals) {
  const std::vector<const char*> args = {
      "tool", "--count", "7",  "--real", "2.5e-3",
      "--on", "--stuck", "0,3", "12",    "SHA-1"};
  FlagParser flags("tool", static_cast<int>(args.size()), args.data());
  std::size_t count = 0;
  double real = 0.0;
  bool on = false;
  std::vector<std::size_t> stuck;
  std::vector<std::string> positionals;
  while (flags.next()) {
    if (flags.is("--count")) {
      count = flags.positive();
    } else if (flags.is("--real")) {
      real = flags.real();
    } else if (flags.is("--on")) {
      on = true;
    } else if (flags.is("--stuck")) {
      const std::string list = flags.text();
      EXPECT_STREQ(flags.arg(), "--stuck");  // still the flag
      stuck.push_back(flags.count("--stuck", list.substr(0, 1).c_str()));
      stuck.push_back(flags.count("--stuck", list.substr(2).c_str()));
    } else {
      positionals.push_back(flags.arg());
    }
  }
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(real, 2.5e-3);
  EXPECT_TRUE(on);
  EXPECT_EQ(stuck, (std::vector<std::size_t>{0, 3}));
  ASSERT_EQ(positionals.size(), 2u);
  EXPECT_EQ(flags.count("batches", positionals[0].c_str()), 12u);
  EXPECT_EQ(positionals[1], "SHA-1");
}

}  // namespace
}  // namespace eewa::util
