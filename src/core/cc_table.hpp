// The Core-Count table (paper Table I). CC[j][i] is the number of cores
// at frequency F_j needed to finish all tasks of class TC_i within the
// ideal iteration time T:
//
//   CC[0][i] = n_i · w_i / T          (w normalized to F_0)
//   CC[j][i] = (F_0 / F_j) · CC[0][i]
//
// Columns are ordered by descending mean per-task workload, as the search
// constraint a_i <= a_j (i < j) requires.
//
// Every value the searchers read per cell — the task-packing demand, the
// critical-path rung guard — and each row's proxy slowdown are derived
// once, at construction, so the accessors below are O(1) reads. A search
// visits each cell many times (descent nodes, DP tables, candidate
// evaluation); deriving it once keeps those visits to a load.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/core_type.hpp"
#include "core/task_class.hpp"
#include "dvfs/frequency_ladder.hpp"

namespace eewa::core {

/// Immutable r×k core-count matrix plus the class metadata of its columns.
class CCTable {
 public:
  /// An empty 0×0 table: what an adjustment that planned nothing holds.
  /// Every cell accessor throws on it.
  CCTable() = default;

  /// Build from per-class profiles (must already be sorted by descending
  /// mean workload — TaskClassRegistry::iteration_profile() returns this
  /// order) and the ideal iteration time T (finite, > 0).
  ///
  /// With `memory_aware` set (the paper's §IV-D future-work extension),
  /// each class scales by its *effective* slowdown
  ///   s_eff(j) = α + (1 - α) · F0/Fj
  /// instead of the CPU-bound F0/Fj: memory-stalled classes lose little
  /// time at lower frequency, so they need fewer extra cores there and
  /// the planner can downclock them aggressively. The downstream
  /// feasibility/packing bounds recover s_eff from the table ratios, so
  /// they stay correct automatically.
  static CCTable build(std::vector<ClassProfile> classes,
                       const dvfs::FrequencyLadder& ladder,
                       double ideal_time_s, bool memory_aware = false);

  /// Heterogeneous build: rows are the topology's flattened (type, rung)
  /// pairs in descending effective-speed order, and each row scales by
  /// that row's effective slowdown
  ///   s_eff(row) = α + (1 - α) · row_slowdown(row)
  /// (row_slowdown generalizes F0/Fj to speed(row 0)/speed(row)). The
  /// table keeps a copy of the topology; searchers and the plan carver
  /// detect it via topology() and enforce per-type core capacities.
  static CCTable build_typed(std::vector<ClassProfile> classes,
                             const MachineTopology& topology,
                             double ideal_time_s, bool memory_aware = false);

  /// In-place forms of build() and build_typed(): same table, same
  /// checks, but the profiles are copied into this table's storage,
  /// which earlier builds of the same or a larger shape already sized,
  /// and a typed table shares `topology` instead of copying it. The
  /// planner rebuilds one table per batch this way. On a throw (the
  /// same conditions as build()) the table is left unchanged.
  void rebuild(const std::vector<ClassProfile>& classes,
               const dvfs::FrequencyLadder& ladder, double ideal_time_s,
               bool memory_aware = false);
  void rebuild_typed(const std::vector<ClassProfile>& classes,
                     std::shared_ptr<const MachineTopology> topology,
                     double ideal_time_s, bool memory_aware = false);

  /// Build directly from a dense matrix (tests / worked examples). `cc`
  /// is row-major r×k. When explicit class metadata is passed, it must
  /// be sorted by descending mean workload, exactly as build() enforces
  /// — search_pruned's dominance tables assume that order. Bare matrices
  /// (no classes) are taken positionally, as given.
  static CCTable from_matrix(std::vector<std::vector<double>> rows,
                             std::vector<ClassProfile> classes = {});

  /// Rows r (frequency rungs).
  std::size_t rows() const { return r_; }

  /// Columns k (task classes).
  std::size_t cols() const { return k_; }

  /// Fractional core count CC[j][i]. Every cell accessor throws
  /// std::out_of_range for j >= rows() or i >= cols().
  double at(std::size_t j, std::size_t i) const {
    check(j, i);
    return data_[j * k_ + i];
  }

  /// Integral core count: ceil(CC[j][i]), never less than 1 for a class
  /// with work (a class needs at least one core).
  std::size_t ceil_at(std::size_t j, std::size_t i) const;

  /// True when class i's tasks can individually finish within T at rung
  /// j (critical-path guard): max_workload_i · F0/Fj <= T. Always true
  /// for bare matrices (no timing metadata) — the paper's formula alone.
  bool rung_feasible(std::size_t j, std::size_t i) const {
    check(j, i);
    return feasible_[i * r_ + j] != 0;
  }

  /// Cores class i needs at rung j, combining the paper's aggregate
  /// formula with a task-packing lower bound: tasks are indivisible, so
  /// c cores can finish at most c·floor(T / (w̄·F0/Fj)) tasks within T.
  /// Reduces to ceil_at for fine-grained tasks and for bare matrices.
  std::size_t cores_needed(std::size_t j, std::size_t i) const;

  /// Fractional core demand of class i at rung j: the paper's CC[j][i]
  /// raised to the task-packing lower bound n/floor(T/(w̄·F0/Fj)) when
  /// tasks are coarse. The search sums these fractional demands against
  /// the core budget (as Algorithm 1 does with raw CC values); the plan
  /// then carves integral cores by largest remainder.
  double demand(std::size_t j, std::size_t i) const {
    check(j, i);
    return demand_[i * r_ + j];
  }

  /// Largest CC[j][i] / CC[0][i] over the columns with work at both
  /// rows: the effective F0/Fj of the least memory-bound class, the
  /// tightest lower bound on the true F0/Fj the table itself carries.
  /// 0 when no column has work. The modelless search power proxy is
  /// built on it. Throws std::out_of_range for j >= rows().
  double proxy_slowdown(std::size_t j) const {
    check(j, 0);
    return proxy_slowdown_[j];
  }

  /// Class i's demand() at every rung, in rung order: the cached column
  /// the searchers scan. Throws std::out_of_range for i >= cols().
  std::span<const double> demand_column(std::size_t i) const {
    check(0, i);
    return {demand_.data() + i * r_, r_};
  }

  /// Class i's rung_feasible() at every rung, in rung order (nonzero =
  /// feasible). Throws std::out_of_range for i >= cols().
  std::span<const char> feasible_column(std::size_t i) const {
    check(0, i);
    return {feasible_.data() + i * r_, r_};
  }

  /// Column metadata (empty when built from a bare matrix).
  const std::vector<ClassProfile>& classes() const { return classes_; }

  /// Ideal iteration time used for the build (0 for bare matrices).
  double ideal_time_s() const { return ideal_time_s_; }

  /// Topology behind a build_typed() table; nullptr for homogeneous
  /// tables. Rows of a typed table are topology()->row_count() flattened
  /// (type, rung) pairs.
  const MachineTopology* topology() const { return topology_.get(); }

  /// Render like the paper's Table I.
  std::string to_string() const;

 private:
  CCTable(std::size_t r, std::size_t k, std::vector<double> data,
          std::vector<ClassProfile> classes, double ideal_time_s);

  /// The checks build() makes before it touches a table.
  static void check_profile(const std::vector<ClassProfile>& classes,
                            double ideal_time_s);

  /// Fill data_ from classes_ for `r` rows, row j scaling by
  /// slowdown(j), then derive the cells (the body every build shares).
  template <typename Slowdown>
  void fill(std::size_t r, Slowdown slowdown, double ideal_time_s,
            bool memory_aware);

  /// Throws std::out_of_range unless (j, i) is a cell of the table.
  void check(std::size_t j, std::size_t i) const {
    if (j >= r_ || i >= k_) throw_out_of_range();
  }
  [[noreturn]] static void throw_out_of_range();

  /// Fill demand_, feasible_ and proxy_slowdown_ from data_, classes_
  /// and ideal_time_s_ (run once, by the constructor).
  void derive_cells();

  std::size_t r_ = 0;
  std::size_t k_ = 0;
  std::vector<double> data_;            // row-major
  std::vector<double> demand_;          // class-major, demand()
  std::vector<char> feasible_;          // class-major, rung_feasible()
  std::vector<double> proxy_slowdown_;  // per row
  std::vector<ClassProfile> classes_;
  double ideal_time_s_ = 0.0;
  std::shared_ptr<const MachineTopology> topology_;
};

}  // namespace eewa::core
