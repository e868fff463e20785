// The core pools of a CC table: the one description of capacity and
// parking that the k-tuple searchers, the energy estimator and the plan
// carve read (private to src/core).
//
// Algorithm 1's constraint Σ CC[a_i][i] <= m is one pool of m cores: a
// homogeneous table is that single pool, with no bound beyond the total.
// A typed table (CCTable::topology() set) has one pool per core type,
// since a row draws only on its own type's cores (processor
// eligibility), so each pool is also bounded by its core count.
// Leftover cores park per pool, at the pool's slowest row.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cc_table.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "energy/power_model.hpp"

namespace eewa::core {

struct CorePool {
  std::size_t cores = 0;
  long double bound = 0.0L;  ///< capacity bound, when `bounded`
  std::size_t slowest_row = 0;
  std::size_t first_core = 0;  ///< the pool's core ids are contiguous
  double park_w = 0.0;         ///< one parked core (priced only)
};

struct CorePools {
  std::vector<CorePool> pool;
  /// Each pool binds on its own (typed tables). A homogeneous table's
  /// single pool is bounded by the total alone, so consumers make no
  /// second capacity comparison there.
  bool bounded = false;
  // Per row: its pool, its rung on the pool's ladder, and the power of
  // one active core on it (priced only).
  std::vector<std::size_t> pool_of, rung;
  std::vector<double> active_w;
};

/// The pools of `cc` on a machine of `total_cores` cores, in per-thread
/// storage that the next call on this thread overwrites. Prices nothing,
/// so it stands on an empty table. With `ladder` given, a homogeneous
/// table must have one row per rung (else std::invalid_argument).
const CorePools& describe_pools(const CCTable& cc, std::size_t total_cores,
                                const dvfs::FrequencyLadder* ladder = nullptr);

/// describe_pools() plus the powers: a typed table's topology (per-type
/// models or proxy), else `model`, else proxy_rung_power. Parked cores
/// idle under a model and spin under a proxy.
const CorePools& price_pools(const CCTable& cc, std::size_t total_cores,
                             const energy::PowerModel* model);

}  // namespace eewa::core
