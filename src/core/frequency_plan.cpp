#include "core/frequency_plan.hpp"

#include "core/core_pools.hpp"

#include <algorithm>
#include <stdexcept>

namespace eewa::core {

void uniform_plan(std::size_t total_cores, std::size_t registry_class_count,
                  FrequencyPlan& plan) {
  plan.planned = false;
  plan.layout.assign_uniform(total_cores, registry_class_count,
                             /*freq_index=*/0);
  plan.tuple.clear();
  plan.claimed_cores = total_cores;
}

FrequencyPlan uniform_plan(std::size_t total_cores,
                           std::size_t registry_class_count) {
  FrequencyPlan plan;
  uniform_plan(total_cores, registry_class_count, plan);
  return plan;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Per-row carving state, indexed by CC row and walked in ascending row
/// order wherever the carve sums or scans, so every sum runs in the same
/// order on every plan. Reused per thread: a carve allocates nothing
/// once a table of this height has been carved.
struct CarveScratch {
  std::vector<double> demand;       ///< fractional demand per rung
  std::vector<char> selected;       ///< some (unfolded) class runs here
  std::vector<std::size_t> cores;   ///< integral cores per rung
  std::vector<char> present;        ///< the rung gets a c-group
  std::vector<std::size_t> remap;   ///< folded rung -> rung it folded into
  std::vector<std::size_t> group;   ///< rung -> c-group index
  std::vector<std::size_t> pool;    ///< one core pool's selected rungs
  std::vector<std::size_t> next_core;  ///< per pool: next core id to hand out

  void reset(std::size_t rungs) {
    demand.assign(rungs, 0.0);
    selected.assign(rungs, 0);
    cores.assign(rungs, 0);
    present.assign(rungs, 0);
    remap.assign(rungs, kNone);
    group.assign(rungs, kNone);
  }

  /// Sum each rung's demand over the tuple's classes (in class order).
  void add_tuple(const CCTable& cc, const std::vector<std::size_t>& tuple) {
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      const double d = cc.demand(tuple[i], i);  // range-checks the rung
      demand[tuple[i]] += d;
      selected[tuple[i]] = 1;
    }
  }

  /// Total demand over the selected rungs, ascending.
  double total_demand() const {
    double total = 0.0;
    for (std::size_t j = 0; j < demand.size(); ++j) {
      if (selected[j]) total += demand[j];
    }
    return total;
  }

  /// The rung a class selected at `rung` runs at after the folds.
  std::size_t effective(std::size_t rung) const {
    while (remap[rung] != kNone) rung = remap[rung];
    return rung;
  }

  void add_cores(std::size_t rung, std::size_t n) {
    cores[rung] += n;
    present[rung] = 1;
  }

  /// Fold rung `victim`'s demand into the faster rung `into`.
  void fold(std::size_t victim, std::size_t into) {
    demand[into] += demand[victim];
    selected[victim] = 0;
    remap[victim] = into;
  }

  /// Carve one core pool of `budget` cores over its selected rungs,
  /// `pool` (ascending). Surplus rungs fold into the next-faster
  /// selected one (never slower, so feasibility is preserved) until
  /// each can have a core. Then floor each rung's demand (at least one
  /// core), shed from the most over-provisioned rungs while over budget
  /// (never below 1), and top up by largest remainder, fastest rung
  /// first on ties, while cores remain and some rung is still short of
  /// its demand. Leftover cores park at `slowest` or join the slowest
  /// selected rung. Returns the cores claimed (leftovers excluded).
  std::size_t carve_pool(std::size_t budget, std::size_t slowest,
                         LeftoverPolicy policy) {
    while (pool.size() > budget) {
      const std::size_t victim = pool.back();
      pool.pop_back();
      fold(victim, pool.back());
    }
    std::size_t claimed = 0;
    for (std::size_t rung : pool) {
      const auto base =
          std::max<std::size_t>(1, static_cast<std::size_t>(demand[rung]));
      cores[rung] = base;
      present[rung] = 1;
      claimed += base;
    }
    while (claimed > budget) {
      std::size_t worst_rung = 0;
      double worst_excess = -1e18;
      for (std::size_t rung : pool) {
        if (cores[rung] <= 1) continue;
        const double excess =
            static_cast<double>(cores[rung]) - demand[rung];
        if (excess > worst_excess) {
          worst_excess = excess;
          worst_rung = rung;
        }
      }
      if (worst_excess == -1e18) {
        throw std::logic_error(
            "make_frequency_plan: more selected c-groups than cores");
      }
      --cores[worst_rung];
      --claimed;
    }
    while (claimed < budget) {
      std::size_t best_rung = 0;
      double best_deficit = 1e-9;
      for (std::size_t rung : pool) {
        const double deficit =
            demand[rung] - static_cast<double>(cores[rung]);
        if (deficit > best_deficit) {
          best_deficit = deficit;
          best_rung = rung;
        }
      }
      if (best_deficit <= 1e-9) break;  // everyone covered
      ++cores[best_rung];
      ++claimed;
    }
    if (claimed < budget) {
      add_cores(policy == LeftoverPolicy::kParkAtSlowest
                    ? slowest
                    : pool.back(),  // slowest selected
                budget - claimed);
    }
    return claimed;
  }

  /// Map every tuple class to its rung's c-group (unseen classes stay
  /// on group 0, the fastest), then validate the layout.
  void map_classes(const CCTable& cc, const std::vector<std::size_t>& tuple,
                   std::size_t registry_class_count,
                   dvfs::CGroupLayout& layout) const {
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      const std::size_t id = cc.classes().at(i).class_id;
      if (id >= registry_class_count) {
        throw std::invalid_argument(
            "make_frequency_plan: class id outside registry");
      }
      layout.set_class_group(id, group[effective(tuple[i])]);
    }
    layout.seal();
  }
};

CarveScratch& carve_scratch() {
  thread_local CarveScratch scratch;
  return scratch;
}

}  // namespace

void make_frequency_plan(const CCTable& cc, const SearchResult& sr,
                         std::size_t total_cores,
                         const dvfs::FrequencyLadder& ladder,
                         std::size_t registry_class_count,
                         LeftoverPolicy policy, FrequencyPlan& plan) {
  if (!sr.found) {
    uniform_plan(total_cores, registry_class_count, plan);
    return;
  }
  if (sr.tuple.size() != cc.cols()) {
    throw std::invalid_argument("make_frequency_plan: tuple/table mismatch");
  }
  // A typed table brings its own ladders; `ladder` describes a
  // homogeneous table's rows.
  const CorePools& pools = describe_pools(cc, total_cores, &ladder);
  std::size_t pooled = 0;
  for (const CorePool& q : pools.pool) pooled += q.cores;
  if (pooled != total_cores) {
    throw std::invalid_argument(
        "make_frequency_plan: core count does not match the topology");
  }
  // Fractional core demand per row (matching the search's capacity
  // accounting), then each pool carves its own cores over its selected
  // rows, fastest first (a pool's rows run in ascending rung order):
  // folds stay inside the pool, its leftovers park at its slowest row,
  // and a pool no class selected parks entirely (under either policy:
  // there is no selected group of it to join).
  CarveScratch& s = carve_scratch();
  const std::size_t rows = cc.rows();
  s.reset(rows);
  s.add_tuple(cc, sr.tuple);
  if (s.total_demand() > static_cast<double>(total_cores) + 1e-6) {
    // A found tuple always fits; guard against inconsistent inputs.
    throw std::invalid_argument("make_frequency_plan: tuple over capacity");
  }
  std::size_t claimed = 0;
  for (std::size_t q = 0; q < pools.pool.size(); ++q) {
    s.pool.clear();
    for (std::size_t row = 0; row < rows; ++row) {
      if (s.selected[row] && pools.pool_of[row] == q) s.pool.push_back(row);
    }
    if (s.pool.empty()) {
      s.add_cores(pools.pool[q].slowest_row, pools.pool[q].cores);
    } else {
      claimed += s.carve_pool(pools.pool[q].cores, pools.pool[q].slowest_row,
                              policy);
    }
  }

  // Emit groups in row order, so group 0 is the fastest populated row.
  // Each pool hands out its own contiguous core-id range (ids are
  // logical worker indices, so the carving is arbitrary but stable).
  s.next_core.resize(pools.pool.size());
  for (std::size_t q = 0; q < pools.pool.size(); ++q) {
    s.next_core[q] = pools.pool[q].first_core;
  }
  plan.layout.reset(total_cores, registry_class_count);
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t n = s.cores[row];
    if (!s.present[row] || n == 0) continue;
    const std::size_t q = pools.pool_of[row];
    s.group[row] = plan.layout.group_count();
    dvfs::CGroup& g = plan.layout.add_group(pools.rung[row], q);
    for (std::size_t c = 0; c < n; ++c) g.cores.push_back(s.next_core[q]++);
  }
  s.map_classes(cc, sr.tuple, registry_class_count, plan.layout);
  plan.planned = true;
  plan.tuple = sr.tuple;
  plan.claimed_cores = claimed;
}

FrequencyPlan make_frequency_plan(const CCTable& cc, const SearchResult& sr,
                                  std::size_t total_cores,
                                  const dvfs::FrequencyLadder& ladder,
                                  std::size_t registry_class_count,
                                  LeftoverPolicy policy) {
  FrequencyPlan plan;
  make_frequency_plan(cc, sr, total_cores, ladder, registry_class_count,
                      policy, plan);
  return plan;
}

}  // namespace eewa::core
