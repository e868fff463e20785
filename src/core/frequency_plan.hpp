// Turning a k-tuple into a concrete frequency configuration: carve the m
// cores into c-groups (one per distinct rung in the tuple), allocate task
// classes to their groups, and decide what to do with cores the tuple did
// not claim.
//
// The paper's Fig. 8 shows unclaimed cores running at the lowest ladder
// frequency (SHA-1: 5 cores at 2.5 GHz, 11 at 0.8 GHz), so the default
// leftover policy parks them in a c-group at F_{r-1}; they still steal
// work through the preference lists. JoinSlowest is kept for ablations.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cc_table.hpp"
#include "core/ktuple_search.hpp"
#include "dvfs/cgroup.hpp"
#include "dvfs/frequency_ladder.hpp"

namespace eewa::core {

/// What to do with cores no class claimed.
enum class LeftoverPolicy {
  kParkAtSlowest,  ///< new/merged c-group at the ladder's slowest rung
  kJoinSlowest,    ///< add them to the slowest *selected* c-group
};

/// A complete frequency configuration for one batch.
struct FrequencyPlan {
  /// True when a k-tuple was found and applied; false means the fallback
  /// uniform-F0 configuration is in use.
  bool planned = false;

  /// The c-groups (fastest first) and the class-id → group mapping. The
  /// mapping is indexed by *registry class id* and classes unseen this
  /// iteration map to group 0 (fastest), per the paper's rule for tasks
  /// with no known class.
  dvfs::CGroupLayout layout;

  /// The winning tuple (empty when !planned).
  std::vector<std::size_t> tuple;

  /// Cores claimed by classes (rest were handled by the leftover policy).
  std::size_t claimed_cores = 0;
};

/// Build the plan for `total_cores` cores from a search result.
/// `registry_class_count` sizes the class-id → group mapping (ids not in
/// the CC table map to group 0). If the search failed, returns the
/// uniform-F0 fallback plan.
///
/// Each core pool of the table (see ktuple_search.hpp) carves its own
/// contiguous core-id range: folds stay inside the pool, its leftovers
/// park at its slowest row, and a pool no class selected parks
/// entirely. A homogeneous table is one pool whose rows are `ladder`'s
/// rungs, so a ladder of another height throws std::invalid_argument; a
/// typed table's pools bring their own ladders and `ladder` is unused,
/// but `total_cores` must be the topology's. The uniform fallback needs
/// no typed variant: rung 0 is every type's fastest rung, so the
/// all-cores group at freq_index 0 is correct on any topology.
FrequencyPlan make_frequency_plan(const CCTable& cc, const SearchResult& sr,
                                  std::size_t total_cores,
                                  const dvfs::FrequencyLadder& ladder,
                                  std::size_t registry_class_count,
                                  LeftoverPolicy policy =
                                      LeftoverPolicy::kParkAtSlowest);

/// make_frequency_plan() into `plan`, reusing its layout and tuple
/// storage; the carve's per-rung scratch is per thread. The planner
/// carves every batch this way, allocation-free once the shapes repeat.
/// On a throw `plan` is left unspecified.
void make_frequency_plan(const CCTable& cc, const SearchResult& sr,
                         std::size_t total_cores,
                         const dvfs::FrequencyLadder& ladder,
                         std::size_t registry_class_count,
                         LeftoverPolicy policy, FrequencyPlan& plan);

/// The fallback plan: every core at F_0, every class to group 0.
FrequencyPlan uniform_plan(std::size_t total_cores,
                           std::size_t registry_class_count);

/// uniform_plan() into `plan`, reusing its storage.
void uniform_plan(std::size_t total_cores, std::size_t registry_class_count,
                  FrequencyPlan& plan);

}  // namespace eewa::core
