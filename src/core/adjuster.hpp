// The workload-aware frequency adjuster (paper §III-A): the end-of-batch
// pipeline  profile → CC table → k-tuple search → frequency plan.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/cc_table.hpp"
#include "core/core_type.hpp"
#include "core/frequency_plan.hpp"
#include "core/ktuple_search.hpp"
#include "core/task_class.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "energy/power_model.hpp"

namespace eewa::core {

/// Adjuster configuration.
struct AdjusterOptions {
  SearchKind search = SearchKind::kBacktracking;
  LeftoverPolicy leftover = LeftoverPolicy::kParkAtSlowest;
  /// Optional power model for the search objective. Its ladder must
  /// have as many rungs as the adjuster's (checked at construction).
  const energy::PowerModel* model = nullptr;
  /// Plan against T·(1 - time_margin): slack for the inter-batch
  /// workload drift the paper acknowledges (§II-A). 0 = plan with no
  /// safety margin, exactly the paper's formula. Clamped to [0, 0.9];
  /// must be finite.
  double time_margin = 0.15;
  /// Plan memory-bound classes with the effective-slowdown CC model
  /// (paper §IV-D future work) instead of the CPU-bound formula; also
  /// keeps the controller planning (rather than falling back to plain
  /// work-stealing) for memory-bound applications.
  bool memory_aware = false;
  /// Heterogeneous machine description. When set, the pipeline builds
  /// per-core-type CC columns (CCTable::build_typed), the search runs
  /// with per-type capacity, and the plan carves each cluster's own
  /// core-id range; `ladder` then only describes the reference (type 0)
  /// cluster for callers that still need a ladder. The topology's total
  /// core count must equal the adjuster's.
  std::shared_ptr<const MachineTopology> topology;
};

/// One adjustment outcome: the plan plus search diagnostics.
struct Adjustment {
  FrequencyPlan plan;
  SearchResult search;
  CCTable cc;  ///< empty unless attempted
  bool attempted = false;  ///< false when there was nothing to plan from
  /// True when the plan came from a suffix search spliced onto a kept
  /// prefix (adjust_incremental's fast path) rather than a full search.
  bool incremental = false;
};

/// Stateless adjuster: pure function of the iteration profile.
class Adjuster {
 public:
  /// Throws std::invalid_argument for zero cores, a non-finite
  /// time_margin, a topology whose core count differs from total_cores,
  /// or a model whose ladder size differs from `ladder`'s.
  Adjuster(dvfs::FrequencyLadder ladder, std::size_t total_cores,
           AdjusterOptions options = {});

  /// Run the full pipeline into `out`. `classes` must be sorted by
  /// descending mean workload (TaskClassRegistry::iteration_profile()
  /// order); `registry_class_count` sizes the class-id → group map;
  /// `ideal_time_s` is the target iteration time T. `out`'s table,
  /// search and plan storage is reused: with the descent searchers the
  /// controller's per-batch plan allocates nothing once the shapes
  /// repeat.
  void adjust(const std::vector<ClassProfile>& classes,
              std::size_t registry_class_count, double ideal_time_s,
              Adjustment& out) const;

  /// Incremental re-planning: like adjust(), but classes
  /// [0, prefix_rungs.size()) keep their previous rungs verbatim and
  /// only the remaining suffix of the lattice is searched
  /// (search_suffix). Falls back to the full search — and reports
  /// incremental=false — when the prefix is invalid under the fresh
  /// table (a workload spike broke its feasibility) or the suffix search
  /// finds nothing. The caller is responsible for only pinning classes
  /// whose profile is statistically unchanged; the result is optimal
  /// conditioned on that prefix.
  void adjust_incremental(const std::vector<ClassProfile>& classes,
                          std::size_t registry_class_count,
                          double ideal_time_s,
                          const std::vector<std::size_t>& prefix_rungs,
                          Adjustment& out) const;

  const dvfs::FrequencyLadder& ladder() const { return ladder_; }
  std::size_t total_cores() const { return total_cores_; }
  const AdjusterOptions& options() const { return options_; }

 private:
  /// Shared pipeline of adjust() and adjust_incremental(): a null
  /// `prefix_rungs` plans in full.
  void run(const std::vector<ClassProfile>& classes,
           std::size_t registry_class_count, double ideal_time_s,
           const std::vector<std::size_t>* prefix_rungs,
           Adjustment& out) const;

  dvfs::FrequencyLadder ladder_;
  std::size_t total_cores_;
  AdjusterOptions options_;
};

}  // namespace eewa::core
