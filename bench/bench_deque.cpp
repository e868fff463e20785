// Microbenchmarks of the runtime substrate: Chase–Lev deque operations,
// preference-list construction, and the two production k-tuple searchers
// (Algorithm 1's backtracking and the pruned DP) across CC-table sizes
// (the Table III cost in isolation).
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "core/cc_table.hpp"
#include "core/ktuple_search.hpp"
#include "core/preference_list.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "util/rng.hpp"

namespace {

using namespace eewa;

void BM_DequePushPop(benchmark::State& state) {
  rt::ChaseLevDeque<int*> deque;
  int value = 0;
  for (auto _ : state) {
    deque.push(&value);
    benchmark::DoNotOptimize(deque.pop());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DequePushPop);

void BM_DequePushBulkPopAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rt::ChaseLevDeque<int*> deque;
  int value = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) deque.push(&value);
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(deque.pop());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 2);
}
BENCHMARK(BM_DequePushBulkPopAll)->Arg(64)->Arg(1024);

void BM_DequeStealContended(benchmark::State& state) {
  // One owner pushing, one thief stealing throughout the measurement.
  rt::ChaseLevDeque<int*> deque;
  int value = 0;
  std::atomic<bool> stop{false};
  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      benchmark::DoNotOptimize(deque.steal());
    }
  });
  for (auto _ : state) {
    deque.push(&value);
    benchmark::DoNotOptimize(deque.pop());
  }
  stop.store(true, std::memory_order_release);
  thief.join();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DequeStealContended);

void BM_PreferenceListBuild(benchmark::State& state) {
  const auto u = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t g = 0; g < u; ++g) {
      benchmark::DoNotOptimize(core::preference_list(g, u));
    }
  }
}
BENCHMARK(BM_PreferenceListBuild)->Arg(2)->Arg(4)->Arg(8);

core::CCTable random_cc(std::size_t r, std::size_t k, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> slowdown(r, 1.0);
  for (std::size_t j = 1; j < r; ++j) {
    slowdown[j] = slowdown[j - 1] * rng.uniform(1.2, 1.6);
  }
  std::vector<std::vector<double>> rows(r, std::vector<double>(k));
  for (std::size_t i = 0; i < k; ++i) {
    const double base = rng.uniform(0.3, 3.0);
    for (std::size_t j = 0; j < r; ++j) rows[j][i] = base * slowdown[j];
  }
  return core::CCTable::from_matrix(rows);
}

void BM_BacktrackingSearch(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto cc = random_cc(r, k, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::search_backtracking(cc, 16));
  }
}
BENCHMARK(BM_BacktrackingSearch)
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({8, 16});

void BM_PrunedSearch(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto cc = random_cc(r, k, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::search_pruned(cc, 16));
  }
}
BENCHMARK(BM_PrunedSearch)->Args({4, 4})->Args({4, 8})->Args({8, 8});

}  // namespace

BENCHMARK_MAIN();
