// k-tuple search over the CC table (paper Algorithm 1). The tuple
// (a_0..a_{k-1}) assigns each task class a frequency rung such that
//   (1) Σ_i ceil(CC[a_i][i]) <= m          (capacity),
//   (2) the search prefers the slowest feasible rungs (energy),
//   (3) a_i <= a_j for i < j               (heavier classes run faster).
//
// Two production searchers: the paper's backtracking descent
// (search_backtracking, SearchKind::kBacktracking) and the pruned DP
// (search_pruned, SearchKind::kPruned), which minimizes modeled batch
// energy. search_greedy is the backtracking descent with backtracking
// disabled; the pruned DP uses it as its fallback on typed tables. The
// exhaustive minimum-energy enumeration the pruned DP is checked
// against lives in src/testing/ as an oracle.
//
// Capacity and parking come in core pools (core/core_pools.hpp): one
// pool of m cores on a homogeneous table, one per core type on a typed
// table (CCTable::topology() set), whose rows are flattened (type, rung)
// pairs.
//
// Every searcher reads each cell's demand and rung feasibility from the
// CCTable, which derives them once at construction; a search re-derives
// nothing per node. The searchers keep their per-pool usage, and the
// pruned DP its arena and frontiers, in per-thread buffers reused from
// call to call, and a suffix search fills its lower bounds only over
// the searched region of the lattice.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/cc_table.hpp"
#include "energy/power_model.hpp"

namespace eewa::core {

/// Which searcher to run.
enum class SearchKind { kBacktracking, kPruned };

/// Result of a k-tuple search.
struct SearchResult {
  bool found = false;
  std::vector<std::size_t> tuple;  ///< a[i]: rung for CC column i
  std::size_t cores_used = 0;      ///< Σ ceil(CC[a_i][i])
  std::size_t nodes_visited = 0;   ///< Select() calls (search effort)
  double elapsed_us = 0.0;         ///< wall time of the search
  /// A node budget stopped a backtracking descent before it covered the
  /// space: found=false then means "gave up", not "proved infeasible".
  /// search_pruned never sets it (it takes no budget, and its
  /// feasibility answer is exact).
  bool aborted = false;
};

/// Node budget for a backtracking descent on tables that may be
/// adversarial: Algorithm 1's backtracking is exponential in the worst
/// case (a maze-like capacity cliff at k=256 can visit billions of
/// nodes), so the pruned searcher's incumbent descent on typed tables
/// and the reference runs of the differential oracle and
/// bench_ablation_search stop after this many Select() calls. A clean
/// descent (~k selects) never comes close. The homogeneous pruned
/// searcher runs no descent.
inline constexpr std::size_t kIncumbentNodeBudget = 4'096;

/// Estimated relative batch energy of a tuple: claimed cores spin/work at
/// their rung for the whole iteration, unclaimed cores are parked at
/// their pool's slowest row. Power comes from `model` when given, else
/// from a cubic (f/F0)³ proxy; a typed table prices every row from its
/// topology and ignores `model`. Lower is better; units are arbitrary
/// (watt-like).
double tuple_energy_estimate(const CCTable& cc,
                             const std::vector<std::size_t>& tuple,
                             std::size_t total_cores,
                             const energy::PowerModel* model = nullptr);

/// The cubic proxy power tuple_energy_estimate uses for one active core
/// at rung j when no PowerModel is supplied: (F_j/F_0)³, with F_0/F_j
/// recovered from the table's own columns (CCTable::proxy_slowdown: the
/// largest per-class slowdown — the least memory-bound class — is the
/// tightest lower bound available); a typed table's row power from its
/// topology. Prices the whole table (O(r)); exposed for the fuzz
/// harness's power-consistency oracle.
double proxy_rung_power(const CCTable& cc, std::size_t j);

/// Paper Algorithm 1: depth-first descent from the slowest rungs with
/// backtracking. Near-optimal and fast on real tables, but exponential
/// in the worst case; a nonzero `node_budget` bounds the descent (the
/// result is marked aborted when the budget ran out).
SearchResult search_backtracking(const CCTable& cc, std::size_t total_cores,
                                 std::size_t node_budget = 0);

/// First-descent greedy (backtracking with backtracking disabled).
SearchResult search_greedy(const CCTable& cc, std::size_t total_cores);

/// Minimum-energy search over the nondecreasing-tuple lattice, exact on
/// small tables and a bounded beam at production scale (r=16, k=256;
/// see the guardrails below for what holds there). States are
/// (class boundary, last rung) pairs carrying Pareto frontiers of
/// (cores used, energy so far); three exact reductions keep the
/// frontiers small:
///
///   - admissible lower bounds: for every (remaining classes, minimum
///     rung) pair the cheapest possible remaining energy and demand are
///     precomputed (each class independently at its best rung — a
///     relaxation, so never an overestimate) and any partial tuple whose
///     optimistic completion cannot beat the upper bound (or fit the
///     core budget) is cut;
///   - upper-bound seeding: before the sweep starts, a near-free scalar
///     two-chain pilot pass over the same lattice (min-demand and
///     min-cost chain per last rung) completes a feasible tuple whose
///     cost primes the upper bound, so the main sweep only ever explores
///     the near-optimal band;
///   - dominance: a partial tuple ending at the same rung that uses no
///     fewer cores and no less energy than another is dropped (its
///     completion set is a subset, so it cannot produce a better plan).
///
/// On a typed table a state carries one usage per pool, dominance needs
/// every pool's usage no larger, and descents replace the pilot, whose
/// min-demand chain is exact only for one capacity dimension:
/// Algorithm 1's backtracking descent budgeted at kIncumbentNodeBudget,
/// and an unbudgeted greedy descent (at most k·r selects) when that
/// gives up. Either completion primes the bound and competes in the
/// final selection.
///
/// On homogeneous tables the DP's sums (state usage and cost, lower
/// bounds, pilot, sweep) are doubles, whose round-off at k=256 (~1e-11)
/// stays well inside the 1e-9 capacity and tie windows; typed tables
/// keep them in long double. Either way the final selection evaluates
/// each surviving candidate in long double, bit-identical to
/// tuple_energy_estimate.
///
/// What it returns depends on the searched lattice's size, (r - j0)·
/// (k - kp) cells (j0 = kp = 0 for a full search). Frontiers wider than
/// a cap are thinned to a deterministic evenly-spaced subset that keeps
/// both endpoints:
///
///   - r·k <= 25: the cap (64) never binds, and the result is the same
///     minimum-energy tuple exhaustive enumeration (the testing oracle)
///     finds, with the same tie-break (fewest cores used, then the
///     lexicographically greater — slower — tuple); within the 1e-9
///     energy tie window the two may pick different representatives of
///     an equal-energy set. The differential oracle checks this.
///   - up to 256 cells: the same 64 cap, which natural fronts rarely
///     reach; no oracle checks minimality here.
///   - past 256 cells (production scale): the main pass is a 6-wide
///     beam, and the result is not the minimum. A 64-wide beam found a
///     lower-energy plan on 59 of 857 feasible TableSpec::random_large
///     tables, by up to 5.2 %. What holds: the feasibility answer is
///     exact on homogeneous tables (the minimum-demand chain survives
///     thinning, and the pilot's completed chains re-enter the final
///     selection), and the differential oracle checks the result is
///     never worse than a completed backtracking descent.
///
/// Deterministic everywhere. Thread-safe: the buffers it reuses across
/// calls are per thread.
SearchResult search_pruned(const CCTable& cc, std::size_t total_cores,
                           const energy::PowerModel* model = nullptr);

/// Incremental re-planning entry point: keep `prefix` (rungs for CC
/// columns [0, prefix.size())) verbatim and search only the remaining
/// suffix of the lattice — classes [prefix.size(), k) at rungs >=
/// prefix.back(), against the capacity left over after the prefix's
/// demand. The winning suffix is spliced onto the prefix. The result is
/// search_pruned's answer over that region (kPruned: the minimum where
/// the region has at most 256 cells, the beam's plan past that) or
/// Algorithm 1's first success (kBacktracking), *conditioned on the
/// prefix*; a full search may beat it by revising prefix rungs. An empty
/// prefix is a full search. Under kPruned the work past the prefix
/// audit scales with the searched region (classes [prefix.size(), k) at
/// rungs >= prefix.back()), not with the whole table. Returns
/// found=false when the prefix itself is invalid under `cc` (rung
/// infeasible, nonmonotone, or over the total or a pool's capacity) —
/// callers fall back to a full search.
SearchResult search_suffix(const CCTable& cc, std::size_t total_cores,
                           SearchKind kind,
                           const std::vector<std::size_t>& prefix,
                           const energy::PowerModel* model = nullptr);

/// Dispatch on kind.
SearchResult search_ktuple(const CCTable& cc, std::size_t total_cores,
                           SearchKind kind,
                           const energy::PowerModel* model = nullptr);

/// In-place forms of search_ktuple and search_suffix: the result is
/// written into `out`. kBacktracking descends in out.tuple's storage, so
/// it allocates nothing once `out` has held a tuple of the table's width
/// and this thread has searched a table with as many rows and pools;
/// kPruned assigns its result. The by-value forms wrap these. `prefix`
/// must not be `out.tuple` itself.
void search_ktuple(const CCTable& cc, std::size_t total_cores,
                   SearchKind kind, const energy::PowerModel* model,
                   SearchResult& out);
void search_suffix(const CCTable& cc, std::size_t total_cores,
                   SearchKind kind, const std::vector<std::size_t>& prefix,
                   const energy::PowerModel* model, SearchResult& out);

/// Validity check used by tests: nondecreasing, rung-feasible, within
/// the total and every pool's capacity. Prices nothing.
bool tuple_is_valid(const CCTable& cc, const std::vector<std::size_t>& tuple,
                    std::size_t total_cores);

}  // namespace eewa::core
