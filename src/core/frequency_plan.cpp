#include "core/frequency_plan.hpp"

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

/// Per-rung (per flattened row, on typed tables) carving state, indexed
/// by rung and walked in ascending rung order wherever the carve sums or
/// scans, so every sum runs in the same order on every plan. Reused
/// per thread: a carve allocates nothing once a table of this height
/// has been carved.
struct CarveScratch {
  std::vector<double> demand;       ///< fractional demand per rung
  std::vector<char> selected;       ///< some (unfolded) class runs here
  std::vector<std::size_t> cores;   ///< integral cores per rung
  std::vector<char> present;        ///< the rung gets a c-group
  std::vector<std::size_t> remap;   ///< folded rung -> rung it folded into
  std::vector<std::size_t> group;   ///< rung -> c-group index
  std::vector<std::size_t> pool;    ///< one core pool's selected rungs
  std::vector<std::size_t> next_core;  ///< per type: next core id to hand out

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

  /// Carve one core pool (the machine, or one core type) of `budget`
  /// cores over its selected rungs, `pool` (ascending). Surplus rungs
  /// fold into the next-faster selected one (never slower, so
  /// feasibility is preserved) until each can have a core. Then floor
  /// each rung's demand (at least one core), shed from the most
  /// over-provisioned rungs while over budget (never below 1), and top
  /// up by largest remainder, fastest rung first on ties, while cores
  /// remain and some rung is still short of its demand. Leftover cores
  /// park at `slowest` or join the slowest selected rung. Returns the
  /// cores claimed (leftovers excluded).
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

/// Typed carving: the tuple's entries are flattened topology rows, and
/// every core type carves its own core-id range with the same
/// fold/shed/largest-remainder algorithm the homogeneous path uses —
/// folds stay within the type (into the next-faster row of the same
/// cluster), leftovers of a type park on that type's own slowest rung,
/// and a type no class selected parks entirely. Groups are emitted in
/// global row order, so group 0 is the globally fastest populated row.
void make_typed_plan(const CCTable& cc, const MachineTopology& topo,
                     const SearchResult& sr, std::size_t total_cores,
                     std::size_t registry_class_count, LeftoverPolicy policy,
                     FrequencyPlan& plan) {
  if (total_cores != topo.total_cores()) {
    throw std::invalid_argument(
        "make_frequency_plan: core count does not match the topology");
  }
  CarveScratch& s = carve_scratch();
  const std::size_t rows = topo.row_count();
  s.reset(rows);
  s.add_tuple(cc, sr.tuple);
  if (s.total_demand() > static_cast<double>(total_cores) + 1e-6) {
    throw std::invalid_argument("make_frequency_plan: tuple over capacity");
  }

  std::size_t claimed = 0;
  for (std::size_t t = 0; t < topo.type_count(); ++t) {
    const std::size_t mt = topo.type(t).count;
    // This type's selected rows, ascending row index. Within a type,
    // global row order is ascending rung order (effective speed is
    // strictly decreasing across a type's rungs), so the pool is
    // fastest-first and folds stay inside the type.
    s.pool.clear();
    for (std::size_t row = 0; row < rows; ++row) {
      if (s.selected[row] && topo.row_type(row) == t) s.pool.push_back(row);
    }
    if (s.pool.empty()) {
      // No class touches this cluster: park all its cores at its
      // slowest rung (under either leftover policy — there is no
      // selected group of this type to join).
      s.add_cores(topo.slowest_row_of_type(t), mt);
      continue;
    }
    claimed += s.carve_pool(mt, topo.slowest_row_of_type(t), policy);
  }

  // Emit groups in global row order (fastest populated row first). Each
  // type hands out its own contiguous core-id range.
  s.next_core.resize(topo.type_count());
  for (std::size_t t = 0; t < topo.type_count(); ++t) {
    s.next_core[t] = topo.first_core(t);
  }
  plan.layout.reset(total_cores, registry_class_count);
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t n = s.cores[row];
    if (!s.present[row] || n == 0) continue;
    const std::size_t t = topo.row_type(row);
    s.group[row] = plan.layout.group_count();
    dvfs::CGroup& g = plan.layout.add_group(topo.row_rung(row), t);
    for (std::size_t c = 0; c < n; ++c) g.cores.push_back(s.next_core[t]++);
  }
  s.map_classes(cc, sr.tuple, registry_class_count, plan.layout);
  plan.planned = true;
  plan.tuple = sr.tuple;
  plan.claimed_cores = claimed;
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
  if (const MachineTopology* topo = cc.topology()) {
    // Typed tables carve per core type; `ladder` is ignored (each type
    // brings its own).
    make_typed_plan(cc, *topo, sr, total_cores, registry_class_count, policy,
                    plan);
    return;
  }

  // Fractional core demand per rung (matching the search's capacity
  // accounting), then integral carving: floor each rung's demand (at
  // least one core per selected rung) and hand out the remaining cores
  // by largest remainder until every rung's demand is covered.
  CarveScratch& s = carve_scratch();
  const std::size_t rungs = std::max(cc.rows(), ladder.size());
  s.reset(rungs);
  s.add_tuple(cc, sr.tuple);
  if (s.total_demand() > static_cast<double>(total_cores) + 1e-6) {
    // A found tuple always fits; guard against inconsistent inputs.
    throw std::invalid_argument("make_frequency_plan: tuple over capacity");
  }

  s.pool.clear();
  for (std::size_t rung = 0; rung < rungs; ++rung) {
    if (s.selected[rung]) s.pool.push_back(rung);
  }
  const std::size_t claimed =
      s.carve_pool(total_cores, ladder.slowest_index(), policy);

  // Carve core ids in rung order (fastest rung gets the lowest ids; ids
  // are logical worker indices, so the carving is arbitrary but stable).
  plan.layout.reset(total_cores, registry_class_count);
  std::size_t next_core = 0;
  for (std::size_t rung = 0; rung < rungs; ++rung) {
    if (!s.present[rung]) continue;
    s.group[rung] = plan.layout.group_count();
    dvfs::CGroup& g = plan.layout.add_group(rung);
    for (std::size_t c = 0; c < s.cores[rung]; ++c) {
      g.cores.push_back(next_core++);
    }
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
