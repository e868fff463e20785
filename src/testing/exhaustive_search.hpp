// Exhaustive minimum-energy k-tuple search: the ground truth the
// production searchers (core/ktuple_search.hpp) are checked against on
// small tables, and the ablation bench's optimal column.
#pragma once

#include <cstddef>

#include "core/cc_table.hpp"
#include "core/ktuple_search.hpp"
#include "energy/power_model.hpp"

namespace eewa::testing {

/// Exhaustive enumeration of all feasible nondecreasing tuples (per-type
/// capacity on typed tables); returns the one minimizing
/// core::tuple_energy_estimate, with a deterministic tie-break (fewest
/// cores used, then the lexicographically greater — slower — tuple) so
/// equal-energy instances reproduce the same winner. Exponential in k:
/// only for small instances.
core::SearchResult search_exhaustive(const core::CCTable& cc,
                                     std::size_t total_cores,
                                     const energy::PowerModel* model = nullptr);

}  // namespace eewa::testing
