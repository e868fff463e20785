// Preference lists (paper §III-B, Fig. 5): a core in c-group G_i steals
// in the order {G_i, G_{i+1}, ..., G_{u-1}, G_{i-1}, ..., G_0} — the
// rob-the-weaker-first principle: exhaust your own group, then help the
// slower groups, and only then take work away from faster groups.
#pragma once

#include <cstddef>
#include <vector>

#include "dvfs/cgroup.hpp"

namespace eewa::core {

/// The steal order for a core in group `own` of `u` c-groups.
std::vector<std::size_t> preference_list(std::size_t own, std::size_t u);

/// Preference lists for all groups of a layout, rebuilt per batch since
/// the set of c-groups changes between batches. rebuild() reuses the
/// lists of earlier, larger layouts, so a steady run allocates nothing.
class PreferenceTable {
 public:
  PreferenceTable() = default;

  /// Build lists for every group of the layout.
  explicit PreferenceTable(const dvfs::CGroupLayout& layout) {
    rebuild(layout);
  }

  /// Keep storage for layouts of up to `groups` groups, so rebuilds
  /// (and copies into this table) up to that size allocate nothing.
  void reserve(std::size_t groups);

  /// Rebuild in place for `layout`.
  void rebuild(const dvfs::CGroupLayout& layout);

  /// Steal order for a core in group g. Throws std::out_of_range for
  /// g >= group_count().
  const std::vector<std::size_t>& for_group(std::size_t g) const {
    if (g >= count_) throw_out_of_range();
    return lists_[g];
  }

  std::size_t group_count() const { return count_; }

 private:
  [[noreturn]] static void throw_out_of_range();

  // lists_[0, count_) are the table; rows past count_ are storage kept
  // for later rebuilds.
  std::vector<std::vector<std::size_t>> lists_;
  std::size_t count_ = 0;
};

}  // namespace eewa::core
