// Classifies what each EewaController::end_batch did (full search,
// incremental suffix search, plan reuse, or the gated uniform plan) and
// sums the planner's exact counters. Shared by the workloads that drive
// a controller batch by batch.
#pragma once

#include <cstddef>
#include <vector>

#include "core/eewa_controller.hpp"
#include "core/ktuple_search.hpp"
#include "energy/power_model.hpp"

namespace perfbench {

struct PlanTally {
  enum class Kind { kFull, kIncremental, kReused, kGated };

  std::size_t full = 0;
  std::size_t incremental = 0;
  std::size_t reused = 0;
  std::size_t gated = 0;
  std::size_t search_nodes = 0;
  /// Searched plans that found no tuple or whose tuple fails
  /// tuple_is_valid against the table it was searched on.
  std::size_t invalid = 0;
  /// Σ over valid searched plans of E(chosen tuple) / E(all-F0 tuple),
  /// both priced by tuple_energy_estimate under the tally's model.
  double energy_ratio_sum = 0.0;

  /// Call right after `c.end_batch`; returns what that call did.
  Kind note(const eewa::core::EewaController& c, const eewa::energy::PowerModel* model) {
    Kind kind = Kind::kFull;
    if (c.plans_reused() != seen_reused_) {
      kind = Kind::kReused;
    } else if (c.memory_bound_mode() || c.degraded()) {
      kind = Kind::kGated;
    } else if (c.plans_incremental() != seen_incremental_) {
      kind = Kind::kIncremental;
    }
    seen_reused_ = c.plans_reused();
    seen_incremental_ = c.plans_incremental();
    switch (kind) {
      case Kind::kReused: ++reused; return kind;
      case Kind::kGated: ++gated; return kind;
      case Kind::kIncremental: ++incremental; break;
      case Kind::kFull: ++full; break;
    }
    const auto& adj = c.last_adjustment();
    search_nodes += adj.search.nodes_visited;
    if (!adj.attempted || !adj.search.found ||
        !eewa::core::tuple_is_valid(adj.cc, adj.search.tuple, c.total_cores())) {
      ++invalid;
      return kind;
    }
    const std::vector<std::size_t> all_f0(adj.cc.cols(), 0);
    energy_ratio_sum +=
        eewa::core::tuple_energy_estimate(adj.cc, adj.search.tuple,
                                    c.total_cores(), model) /
        eewa::core::tuple_energy_estimate(adj.cc, all_f0, c.total_cores(), model);
    return kind;
  }

  std::size_t searched() const { return full + incremental; }

  /// Add another controller's tally (one tally per controller: note()
  /// tracks that controller's cumulative counters).
  void merge(const PlanTally& o) {
    full += o.full;
    incremental += o.incremental;
    reused += o.reused;
    gated += o.gated;
    search_nodes += o.search_nodes;
    invalid += o.invalid;
    energy_ratio_sum += o.energy_ratio_sum;
  }

  /// Mean energy ratio over valid searched plans (0 when none).
  double energy_ratio() const {
    const std::size_t n = searched() - invalid;
    return n > 0 ? energy_ratio_sum / static_cast<double>(n) : 0.0;
  }

  bool operator==(const PlanTally&) const = default;

 private:
  std::size_t seen_reused_ = 0;
  std::size_t seen_incremental_ = 0;
};

}  // namespace perfbench
