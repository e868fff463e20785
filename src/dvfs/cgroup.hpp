// C-groups (paper §III): a c-group is the set of cores operating at one
// frequency. A CGroupLayout is the complete grouping the frequency
// adjuster produces for a batch, plus the task-class → c-group allocation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/frequency_ladder.hpp"

namespace eewa::dvfs {

/// One c-group: every core in `cores` runs at ladder rung `freq_index`.
/// On heterogeneous machines a c-group additionally belongs to one core
/// type (its cluster): `freq_index` then indexes that type's own ladder.
/// Homogeneous layouts leave core_type at 0 and behave exactly as before.
struct CGroup {
  std::size_t freq_index = 0;
  std::size_t core_type = 0;
  std::vector<std::size_t> cores;
};

/// The grouping of all m cores into u c-groups, ordered fastest-first
/// (group 0 has the lowest freq_index, i.e. the highest frequency), plus
/// the allocation of task classes to groups.
///
/// A layout can be rebuilt in place (reset, add_group, set_class_group,
/// seal): the planner re-carves one every batch, and the rebuild reuses
/// the storage of earlier, larger layouts (group slots past the current
/// count keep their core vectors), so a steady run allocates nothing.
class CGroupLayout {
 public:
  CGroupLayout() = default;

  /// Construct from groups (must cover each core at most once, be
  /// non-empty, and be ordered by strictly increasing freq_index *within
  /// each core_type* — two clusters each own an independent ladder, so
  /// rung indices only totally order groups of the same type) and the
  /// mapping class index -> group index. All-type-0 layouts get exactly
  /// the historical strictly-increasing validation. Throws
  /// std::invalid_argument on violation.
  CGroupLayout(std::vector<CGroup> groups,
               std::vector<std::size_t> class_to_group,
               std::size_t total_cores);

  /// Copies take the live groups only; a copy into an existing layout
  /// reuses its storage (the controller copies its searched plan into
  /// the running plan every batch).
  CGroupLayout(const CGroupLayout& other) { *this = other; }
  CGroupLayout& operator=(const CGroupLayout& other);
  /// A moved-from layout is empty.
  CGroupLayout(CGroupLayout&& other) noexcept { *this = std::move(other); }
  CGroupLayout& operator=(CGroupLayout&& other) noexcept;

  /// Start an in-place rebuild: no groups, `class_count` classes all
  /// mapped to group 0, over `total_cores` cores. Finish with seal().
  void reset(std::size_t total_cores, std::size_t class_count);

  /// Append a group with no cores (its storage is reused); the caller
  /// fills `cores`.
  CGroup& add_group(std::size_t freq_index, std::size_t core_type = 0);

  /// Map task class `k` (< the reset's class_count) to group `g`.
  void set_class_group(std::size_t k, std::size_t g) {
    class_to_group_.at(k) = g;
  }

  /// Validate the rebuilt layout exactly as the constructor does and
  /// index its cores. Throws std::invalid_argument on violation.
  void seal();

  /// Keep storage for `groups` groups of up to `cores` cores each, so
  /// rebuilds (and copies into this layout) up to that shape allocate
  /// nothing. The layout itself is unchanged.
  void reserve(std::size_t groups, std::size_t cores);

  /// Rebuild in place as uniform() describes.
  void assign_uniform(std::size_t cores, std::size_t classes,
                      std::size_t freq_index = 0);

  /// Number of c-groups, u.
  std::size_t group_count() const { return count_; }

  /// Group g (0 = fastest). Throws std::out_of_range for g >= u.
  const CGroup& group(std::size_t g) const {
    if (g >= count_) throw_out_of_range();
    return groups_[g];
  }

  /// All groups, fastest first.
  std::span<const CGroup> groups() const { return {groups_.data(), count_}; }

  /// Total number of cores in the machine (groups may not cover all of
  /// them only if a group list was legitimately partial — the EEWA planner
  /// always covers every core).
  std::size_t total_cores() const { return total_cores_; }

  /// Group index that core `c` belongs to; throws if the core is in no
  /// group.
  std::size_t group_of_core(std::size_t c) const;

  /// True if core `c` belongs to some group.
  bool core_assigned(std::size_t c) const;

  /// Group index that task class `k` is allocated to.
  std::size_t group_of_class(std::size_t k) const {
    return class_to_group_.at(k);
  }

  /// Number of task classes mapped.
  std::size_t class_count() const { return class_to_group_.size(); }

  /// Ladder rung of group g.
  std::size_t freq_index(std::size_t g) const { return group(g).freq_index; }

  /// Cores-per-rung view: counts[j] = number of cores at ladder rung j.
  std::vector<std::size_t> cores_per_rung(std::size_t ladder_size) const;

  /// Single-group layout: all cores at `freq_index`, all classes to it.
  static CGroupLayout uniform(std::size_t cores, std::size_t classes,
                              std::size_t freq_index = 0);

  /// Human-readable summary, e.g. "G0@F1:{0..9} G1@F2:{10..15}".
  std::string to_string() const;

 private:
  [[noreturn]] static void throw_out_of_range();

  // groups_[0, count_) are the layout; slots past count_ are storage
  // kept for later rebuilds.
  std::vector<CGroup> groups_;
  std::size_t count_ = 0;
  std::vector<std::size_t> class_to_group_;
  std::vector<std::size_t> core_group_;  // per-core group or npos
  std::size_t total_cores_ = 0;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

}  // namespace eewa::dvfs
