// Task classes (paper §III-A-1): completed tasks are grouped by function
// name into TC(f, n, w̄) with an online mean of their normalized workloads.
// Workload normalization is Eq. 1: w = t · F_i / F_0 for a task that ran
// for t seconds on a core at frequency F_i.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dvfs/frequency_ladder.hpp"

namespace eewa::core {

/// Eq. 1: normalize an observed execution time to the fastest frequency.
/// `t_seconds` was measured on a core at ladder rung `rung`.
inline double normalized_workload(double t_seconds, std::size_t rung,
                                  const dvfs::FrequencyLadder& ladder) {
  return t_seconds * ladder.relative_speed(rung);
}

/// Snapshot of one task class for a completed iteration.
struct ClassProfile {
  std::size_t class_id = 0;      ///< stable registry id
  std::string name;              ///< function name f
  std::size_t count = 0;         ///< n: tasks completed this iteration
  double mean_workload = 0.0;    ///< w̄: mean normalized workload (seconds at F0)
  double max_workload = 0.0;     ///< heaviest single task this iteration
  /// Mean memory-stall fraction: the share of a task's execution that
  /// does not scale with frequency, exec(f) = w·(α + (1-α)·F0/f).
  /// 0 = perfectly CPU-bound (the paper's model); estimated online for
  /// the memory-aware planning extension (paper §IV-D future work).
  double mean_alpha = 0.0;

  /// Total normalized work of the class this iteration, n · w̄.
  double total_workload() const {
    return static_cast<double>(count) * mean_workload;
  }
};

/// Interns class names and maintains the per-class online statistics.
///
/// Counts are per-iteration (reset by begin_iteration); the mean workload
/// follows the paper's cumulative update TC(f, n+1, (n·w + w_γ)/(n+1)) so
/// knowledge persists across iterations.
class TaskClassRegistry {
 public:
  /// Get (or create) the stable id for a class name.
  std::size_t intern(std::string_view name);

  /// Id for a name that must already exist; throws std::out_of_range.
  std::size_t id_of(std::string_view name) const;

  /// True if the name has been interned.
  bool contains(std::string_view name) const;

  /// Record one completed task of class `id` with normalized workload
  /// `w` and (optionally) its memory-stall fraction in [0, 1].
  void record(std::size_t id, double w, double alpha = 0.0);

  /// Start a new iteration: zero per-iteration counts, keep means.
  void begin_iteration();

  /// Number of distinct classes ever seen.
  std::size_t class_count() const { return stats_.size(); }

  const std::string& name(std::size_t id) const { return stats_.at(id).name; }

  /// Tasks of class `id` completed in the current iteration.
  std::size_t iteration_count(std::size_t id) const {
    return stats_.at(id).iter_count;
  }

  /// Cumulative tasks of class `id` across all iterations.
  std::size_t total_count(std::size_t id) const {
    return stats_.at(id).total_count;
  }

  /// Cumulative mean normalized workload of class `id`.
  double mean_workload(std::size_t id) const { return stats_.at(id).mean_w; }

  /// Heaviest normalized workload of class `id` this iteration.
  double max_workload(std::size_t id) const { return stats_.at(id).iter_max_w; }

  /// Cumulative mean memory-stall fraction of class `id`.
  double mean_alpha(std::size_t id) const { return stats_.at(id).mean_alpha; }

  /// Profiles of classes active this iteration, sorted by mean workload
  /// descending (the CC-table column order the paper requires).
  std::vector<ClassProfile> iteration_profile() const;

  /// iteration_profile() into `out`, reusing its storage (names
  /// included): allocation-free once `out` has held this many profiles.
  void iteration_profile(std::vector<ClassProfile>& out) const;

 private:
  struct Stats {
    std::string name;
    std::size_t iter_count = 0;
    std::size_t total_count = 0;
    double mean_w = 0.0;
    double iter_max_w = 0.0;
    double mean_alpha = 0.0;
  };

  // Transparent hashing: lookups probe with the string_view directly
  // instead of materializing a std::string per call (intern() sits under
  // the runtime's by-name spawn path).
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      ids_;
  std::vector<Stats> stats_;
};

}  // namespace eewa::core
