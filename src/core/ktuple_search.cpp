#include "core/ktuple_search.hpp"

#include "core/core_pools.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <span>
#include <stdexcept>

namespace eewa::core {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

constexpr double kEps = 1e-9;

CorePools& pools_scratch() {
  thread_local CorePools pools;
  return pools;
}

/// Per-pool usage for the descent, the validity check and the estimator
/// (the pruned DP keeps its own in PrunedScratch).
std::vector<long double>& pool_usage() {
  thread_local std::vector<long double> used;
  return used;
}

/// Audit `prefix` (rungs for classes [0, prefix.size())): rungs in
/// range, nondecreasing, individually feasible, within the total and
/// every pool's bound. On success `total` and `used` (per pool) hold its
/// demand, in class order; an empty prefix stands with zero demand.
bool audit_prefix(const CCTable& cc, const CorePools& pools,
                  std::size_t total_cores, std::span<const std::size_t> prefix,
                  long double& total, std::vector<long double>& used) {
  if (prefix.size() > cc.cols()) return false;
  total = 0.0L;
  used.assign(pools.pool.size(), 0.0L);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] >= cc.rows()) return false;
    if (i > 0 && prefix[i] < prefix[i - 1]) return false;
    if (!cc.rung_feasible(prefix[i], i)) return false;
    const double need = cc.demand(prefix[i], i);
    total += need;
    used[pools.pool_of[prefix[i]]] += need;
  }
  if (!(total <= static_cast<long double>(total_cores) + kEps)) return false;
  for (std::size_t q = 0; pools.bounded && q < used.size(); ++q) {
    if (!(used[q] <= pools.pool[q].bound + kEps)) return false;
  }
  return true;
}

}  // namespace

const CorePools& describe_pools(const CCTable& cc, std::size_t total_cores,
                                const dvfs::FrequencyLadder* ladder) {
  CorePools& p = pools_scratch();
  const std::size_t r = cc.rows();
  p.pool_of.resize(r);
  p.rung.resize(r);
  if (const MachineTopology* topo = cc.topology()) {
    p.bounded = true;
    p.pool.resize(topo->type_count());
    for (std::size_t t = 0; t < p.pool.size(); ++t) {
      const std::size_t n = topo->type(t).count;
      p.pool[t] = CorePool{n, static_cast<long double>(n),
                           topo->slowest_row_of_type(t), topo->first_core(t)};
    }
    for (std::size_t j = 0; j < r; ++j) {
      p.pool_of[j] = topo->row_type(j);
      p.rung[j] = topo->row_rung(j);
    }
    return p;
  }
  if (ladder != nullptr && ladder->size() != r) {
    throw std::invalid_argument("CorePools: ladder size differs from table");
  }
  p.bounded = false;
  p.pool.assign(1, CorePool{total_cores, 0.0L, r - 1, 0});
  for (std::size_t j = 0; j < r; ++j) {
    p.pool_of[j] = 0;
    p.rung[j] = j;
  }
  return p;
}

const CorePools& price_pools(const CCTable& cc, std::size_t total_cores,
                             const energy::PowerModel* model) {
  describe_pools(cc, total_cores);
  CorePools& p = pools_scratch();
  // A typed table prices from its topology: a caller-supplied model
  // cannot price rows of different core types. Else `model`, or the
  // cubic proxy P ∝ f·V² with V roughly ∝ f, its slowdown F_0/F_j
  // recovered from the CC table itself: a single column is not enough
  // (it may be zero, and a memory-aware α_i > 0 understates the true
  // slowdown), so the table's proxy_slowdown — the largest ratio over
  // its usable columns, cached per row at construction — is the
  // estimate. Parked cores sit idle/halted under a model, exactly as
  // EnergyAccount bills them; the proxy has no idle curve.
  const MachineTopology* topo = cc.topology();
  const auto power = [&](std::size_t j, bool active) {
    if (topo != nullptr) {
      return active ? topo->row_active_w(j) : topo->row_park_w(j);
    }
    if (model != nullptr) return model->core_power_w(j, active);
    const double slowdown = cc.proxy_slowdown(j);
    const double rel = slowdown > 0.0
                           ? 1.0 / slowdown
                           : 1.0 / (1.0 + static_cast<double>(j));
    return rel * rel * rel;
  };
  p.active_w.resize(cc.rows());
  for (std::size_t j = 0; j < cc.rows(); ++j) {
    p.active_w[j] = power(j, /*active=*/true);
  }
  for (CorePool& q : p.pool) q.park_w = power(q.slowest_row, false);
  return p;
}

double proxy_rung_power(const CCTable& cc, std::size_t j) {
  return price_pools(cc, 0, nullptr).active_w.at(j);
}

// Widened accumulators: at k=256 a plain double running sum makes the
// result depend on column order at the 1e-16 scale, which is enough to
// flip the 1e-9 tie window between otherwise identical searches. The
// order (classes, then pools, ascending) is a contract: the pruned
// searcher's final evaluation reproduces it bit for bit.
double tuple_energy_estimate(const CCTable& cc,
                             const std::vector<std::size_t>& tuple,
                             std::size_t total_cores,
                             const energy::PowerModel* model) {
  const CorePools& pools = price_pools(cc, total_cores, model);
  std::vector<long double>& used = pool_usage();
  used.assign(pools.pool.size(), 0.0L);
  long double e = 0.0L;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    const double n = cc.demand(tuple[i], i);
    used[pools.pool_of[tuple[i]]] += n;
    e += static_cast<long double>(n) * pools.active_w[tuple[i]];
  }
  for (std::size_t q = 0; q < used.size(); ++q) {
    const auto cores = static_cast<long double>(pools.pool[q].cores);
    if (cores > used[q]) {
      e += (cores - used[q]) * static_cast<long double>(pools.pool[q].park_w);
    }
  }
  return static_cast<double>(e);
}

bool tuple_is_valid(const CCTable& cc, const std::vector<std::size_t>& tuple,
                    std::size_t total_cores) {
  long double total = 0.0L;
  return tuple.size() == cc.cols() &&
         audit_prefix(cc, describe_pools(cc, total_cores), total_cores, tuple,
                      total, pool_usage());
}

namespace {

/// Shared state for the descent searchers (Algorithm 1's a[], c_n).
/// Capacity is accounted in fractional core demands, as the paper's
/// Σ CC[a_i][i] <= m constraint does, and per core pool.
struct Backtracker {
  const CCTable& cc;
  const CorePools& pools;
  double total_cores;
  bool allow_backtrack;
  std::vector<std::size_t>& a;  ///< the caller's tuple storage
  std::vector<long double>& used_q;  ///< per-pool usage (per thread)
  // Widened: c_n is repeatedly incremented and decremented along the
  // descent; at k=256 double round-off would accumulate into the 1e-9
  // capacity epsilon.
  long double c_n = 0.0L;
  std::size_t nodes = 0;
  std::size_t node_budget = 0;  ///< 0 = unlimited
  bool aborted = false;
  // Suffix mode: classes [0, start_class) are pinned (already in `a`,
  // their demand in c_n and used_q) and the descent begins at
  // start_class with rungs >= lo0.
  std::size_t start_class = 0;
  std::size_t lo0 = 0;

  // Algorithm 1, SearchTuple(first), unrolled into a loop: class i tries
  // rungs from the slowest down to its lower bound (lo0 for `first`,
  // a[i-1] after it) and moves on to class i+1 at the first Select that
  // fits; when the classes after it dead-end, class i releases its rung
  // and resumes the scan just below it. Select calls happen in exactly
  // the recursive formulation's order, so node counts and aborts match
  // it. Once a budget abort or a greedy dead-end returns false, a[] and
  // c_n are left mid-descent; callers only read them after a success.
  bool search(std::size_t first) {
    const std::size_t k = cc.cols();
    const std::size_t r = cc.rows();
    if (first >= k) return true;
    const double limit = total_cores + kEps;
    const std::size_t* pool_of = pools.pool_of.data();
    // The hot counters live in locals for the loop, written back on exit.
    long double used = c_n;
    std::size_t n = nodes;
    const auto finish = [&](bool found) {
      c_n = used;
      nodes = n;
      return found;
    };
    std::size_t i = first;
    std::size_t j = r;  // class i tries rung j - 1 next
    for (;;) {
      const std::size_t lo = i == first ? lo0 : a[i - 1];
      const std::span<const char> feasible = cc.feasible_column(i);
      const std::span<const double> demand = cc.demand_column(i);
      bool placed = false;
      while (j > lo && !placed) {
        // Algorithm 1, Select(i, j), plus the critical-path guard: a
        // rung at which even one of the class's tasks would overrun T is
        // rejected.
        if (node_budget != 0 && n >= node_budget) {
          aborted = true;
          return finish(false);
        }
        ++n;
        if (!feasible[--j]) continue;
        const double need = demand[j];
        if (need + used > limit) continue;
        if (pools.bounded) {
          long double& in_pool = used_q[pool_of[j]];
          if (need + in_pool > pools.pool[pool_of[j]].bound + kEps) continue;
          in_pool += need;
        }
        a[i] = j;
        used += need;
        placed = true;
      }
      if (placed) {
        if (i + 1 == k) return finish(true);
        ++i;
        j = r;
        continue;
      }
      if (i == first || !allow_backtrack) return finish(false);
      // Class i's subtree dead-ended: class i - 1 releases its rung.
      --i;
      const double need = cc.demand(a[i], i);
      used -= need;
      if (pools.bounded) used_q[pool_of[a[i]]] -= need;
      j = a[i];
    }
  }
};

/// The descent searchers, written into `res`: the tuple is descended in
/// place in res.tuple's storage, so a search allocates nothing once that
/// storage has held a tuple of this width. A nonempty `prefix` is
/// audited and kept verbatim.
void run_descent(SearchResult& res, const CCTable& cc, const CorePools& pools,
                 std::size_t total_cores, bool allow_backtrack,
                 std::span<const std::size_t> prefix = {},
                 std::size_t node_budget = 0) {
  const auto start = Clock::now();
  res.found = false;
  res.cores_used = 0;
  res.nodes_visited = 0;
  res.aborted = false;
  res.tuple.resize(cc.cols());
  Backtracker bt{cc, pools, static_cast<double>(total_cores), allow_backtrack,
                 res.tuple, pool_usage()};
  bt.node_budget = node_budget;
  if (!audit_prefix(cc, pools, total_cores, prefix, bt.c_n, bt.used_q)) {
    res.tuple.clear();
    res.elapsed_us = elapsed_us_since(start);
    return;
  }
  std::copy(prefix.begin(), prefix.end(), res.tuple.begin());
  bt.start_class = prefix.size();
  bt.lo0 = prefix.empty() ? 0 : prefix.back();
  res.found = bt.search(bt.start_class);
  res.nodes_visited = bt.nodes;
  res.aborted = bt.aborted;
  if (res.found) {
    res.cores_used = static_cast<std::size_t>(
        std::ceil(static_cast<double>(bt.c_n) - kEps));
  } else {
    res.tuple.clear();
  }
  res.elapsed_us = elapsed_us_since(start);
}

SearchResult run_descent(const CCTable& cc, const CorePools& pools,
                         std::size_t total_cores, bool allow_backtrack,
                         std::span<const std::size_t> prefix = {},
                         std::size_t node_budget = 0) {
  SearchResult res;
  run_descent(res, cc, pools, total_cores, allow_backtrack, prefix,
              node_budget);
  return res;
}

}  // namespace

SearchResult search_backtracking(const CCTable& cc, std::size_t total_cores,
                                 std::size_t node_budget) {
  return run_descent(cc, describe_pools(cc, total_cores), total_cores,
                     /*allow_backtrack=*/true, {}, node_budget);
}

SearchResult search_greedy(const CCTable& cc, std::size_t total_cores) {
  return run_descent(cc, describe_pools(cc, total_cores), total_cores,
                     /*allow_backtrack=*/false);
}

namespace {

constexpr std::uint32_t kNoNode = 0xffffffffu;

/// Parent-pointer arena entry: one (rung chosen, predecessor) link.
struct PrunedNode {
  std::uint32_t parent = kNoNode;
  std::uint32_t rung = 0;
};

/// Allocator that maps each block as its own anonymous mapping, outside
/// the malloc heap. For the scratch arena, which lives as long as its
/// thread and grows with the search: kept in the heap, it would sit for
/// good among the caller's short-lived allocations.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}

  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, bytes(n), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { munmap(p, bytes(n)); }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }

 private:
  static std::size_t bytes(std::size_t n) {
    constexpr std::size_t kPage = 4096;
    return (std::max<std::size_t>(n, 1) * sizeof(T) + kPage - 1) / kPage *
           kPage;
  }
};

/// The parent-pointer arena of a pruned search, on its own pages.
using NodeArena = std::vector<PrunedNode, PageAllocator<PrunedNode>>;

/// Homogeneous DP state: a partial tuple summarized by its fractional
/// core usage, its adjusted energy, and the arena node from which the
/// actual rung assignment can be reconstructed. Its sums are plain
/// doubles: over k = 256 additions of values up to a few hundred their
/// round-off stays near 1e-11, well inside the 1e-9 windows every
/// capacity and bound test uses; only the final selection's energy
/// evaluation is widened.
struct PrunedState {
  double total = 0.0;
  double cost = 0.0;
  std::uint32_t node = kNoNode;
};

/// Typed DP state: as PrunedState, plus the usage split per core type
/// (capacity is a vector on typed tables). Kept in long double: the
/// typed fronts run a narrow beam on production-sized tables, and
/// double round-off there reorders near-tied states enough to move the
/// plans thinning keeps.
struct TypedState {
  long double total = 0.0L;
  long double cost = 0.0L;
  std::uint32_t node = kNoNode;
  std::vector<long double> used;
};

/// One sweep's frontiers, per last rung, and its running accumulator,
/// plus the per-row power above the leftover baseline (p minus the park
/// power of a core of the row's pool) in the state's own precision.
template <typename State>
struct SweepBuffers {
  using Value = decltype(State::cost);
  std::vector<std::vector<State>> cur, nxt;
  std::vector<State> acc;
  std::vector<Value> above_base;
};

/// Buffers the pruned DP reuses from call to call on one thread, so a
/// steady-state search does not regrow them. A call refills every entry
/// it reads before reading it: the per-pool usage, and the arena, chains
/// and frontiers from empty. Thread-local because planners run on
/// several threads. The arena follows the node count (~100 KB at
/// r = 16, k = 256) and has its own pages; the rest are a few KB.
struct PrunedScratch {
  /// Per-pool usage: the audited prefix's, and a candidate's.
  std::vector<long double> pool_used_kp, pool_used;
  NodeArena arena;
  std::vector<std::size_t> chain_a;
  std::vector<std::size_t> chain_b;
  SweepBuffers<PrunedState> scalar;
  SweepBuffers<TypedState> typed;
  std::vector<PrunedState> curU, curC, nxtU, nxtC;  ///< the scalar pilot
  std::vector<std::uint32_t> extra;  ///< bound-step completions
};

PrunedScratch& pruned_scratch() {
  thread_local PrunedScratch scratch;
  return scratch;
}

/// Adjusted cost of a class at a rung: its demand times the rung's power
/// above the leftover baseline. The energy of a full tuple decomposes as
///   E = Σ_leftover base + Σ_i d_i(a_i)·(p(a_i) - base(a_i))
/// so the DP minimizes the per-class adjusted cost; the leftover
/// constant drops out of every comparison.
template <typename V>
V adjusted_cost(double demand, V above_base) {
  return static_cast<V>(demand) * above_base;
}

/// Fill the admissible suffix lower bounds over the searched region —
/// classes [kp, k) at rungs [j0, r), the only cells a sweep reads — from
/// the table's cached columns and `above_base` (one entry per rung), in
/// the DP's value type V.
/// The bounds relax the chain constraint to "rung >= j" per class
/// independently (the cost is evaluated rung by rung, so convexity is
/// not even needed — the pointwise minimum is exact for the
/// relaxation), suffix-summed so lb[i][j] bounds any completion of
/// classes [i, k) at rungs >= j from below; row k is the empty suffix.
/// lbD bounds only the *total* demand, which stays admissible under
/// per-type capacity: Σ_t used_t <= m holds whatever the split.
///
/// `lbC` (adjusted cost) and `lbD` (core demand) are class-major
/// (k + 1) x r ([i * r + j]). Their size is fixed by the table, so each
/// search allocates them once, for the call: the planner holds no
/// 2·(k + 1)·r values (66 KB of doubles at r = 16, k = 256) of heap
/// between plans.
template <typename V>
void fill_lower_bounds(const CCTable& cc, std::size_t kp, std::size_t j0,
                       const std::vector<V>& above_base, std::vector<V>& lbC,
                       std::vector<V>& lbD) {
  const std::size_t r = cc.rows();
  const std::size_t k = cc.cols();
  const V inf = std::numeric_limits<V>::infinity();
  lbC.assign((k + 1) * r, V{0});  // row k: the empty suffix
  lbD.assign((k + 1) * r, V{0});
  for (std::size_t i = k; i-- > kp;) {
    const std::span<const char> feasible = cc.feasible_column(i);
    const std::span<const double> demand = cc.demand_column(i);
    V bc = inf;
    V bd = inf;
    for (std::size_t j = r; j-- > j0;) {
      const std::size_t at = i * r + j;
      if (feasible[j]) {
        bc = std::min(bc, adjusted_cost(demand[j], above_base[j]));
        bd = std::min(bd, static_cast<V>(demand[j]));
      }
      lbC[at] = bc + lbC[at + r];
      lbD[at] = bd + lbD[at + r];
    }
  }
}

/// Rebuild the rungs of the chain ending at arena node `node` into
/// `out` (`depth` classes, most recent last).
void reconstruct_chain(const NodeArena& arena, std::uint32_t node,
                       std::size_t depth, std::vector<std::size_t>& out) {
  out.assign(depth, 0);
  std::size_t at = depth;
  for (std::uint32_t n = node; n != kNoNode; n = arena[n].parent) {
    out[--at] = arena[n].rung;
  }
}

/// True when the chain ending at `na` is lexicographically greater than
/// the one at `nb` (both cover `depth` classes). Only consulted on exact
/// ties, where the documented tie-break wants the slower prefix kept:
/// equal prefixes share their completion set, so the lex-greater prefix
/// yields the lex-greater final tuple.
bool chain_lex_greater(PrunedScratch& s, std::uint32_t na, std::uint32_t nb,
                       std::size_t depth) {
  reconstruct_chain(s.arena, na, depth, s.chain_a);
  reconstruct_chain(s.arena, nb, depth, s.chain_b);
  return s.chain_a > s.chain_b;
}

/// One pruned search's lattice: classes [kp, k) at rungs [j0, r) after
/// the audited prefix, the capacity, and what the sweep and the bound
/// step read, in the DP's value type V.
template <typename V>
struct Lattice {
  const CCTable& cc;
  std::size_t total_cores;
  std::span<const std::size_t> prefix;
  std::size_t r, k, kp, j0;
  V cap;
  const std::vector<V>& above_base;
  const std::vector<V>& lbD;
  PrunedScratch& sc;

  /// Adjusted cost of a full tuple's searched classes.
  V chain_cost(const std::vector<std::size_t>& t) const {
    V c{0};
    for (std::size_t i = kp; i < k; ++i) {
      c += adjusted_cost(cc.demand(t[i], i), above_base[t[i]]);
    }
    return c;
  }
};

/// The homogeneous front: one capacity dimension. A frontier is a
/// proper Pareto front kept sorted by usage ascending / cost strictly
/// descending, so an insert is a binary search and thinning needs no
/// sort.
struct ScalarFront {
  using State = PrunedState;
  using Value = double;

  static SweepBuffers<State>& buffers(PrunedScratch& sc) { return sc.scalar; }

  explicit ScalarFront(const CorePools&) {}

  static State root(long double total, const std::vector<long double>&) {
    return State{static_cast<double>(total), 0.0, kNoNode};
  }
  bool fits(const State&, std::size_t, double) const { return true; }
  State extend(const State&, std::size_t, double, double u, double c,
               std::uint32_t node) const {
    return State{u, c, node};
  }

  // A state no cheaper on both axes than an existing one is dropped; on
  // an exact (used, cost) tie the lex-greater chain survives, matching
  // the documented tie-break.
  static void insert(PrunedScratch& sc, std::vector<State>& front,
                     const State& s, std::size_t depth) {
    auto it = std::lower_bound(
        front.begin(), front.end(), s,
        [](const State& a, const State& b) { return a.total < b.total; });
    if (it != front.begin() && (it - 1)->cost <= s.cost) {
      return;  // dominated by a strictly-fewer-cores state
    }
    if (it != front.end() && it->total == s.total) {
      if (it->cost < s.cost) return;  // dominated at equal cores
      if (it->cost == s.cost) {
        if (chain_lex_greater(sc, s.node, it->node, depth)) {
          it->node = s.node;
        }
        return;
      }
      *it = s;  // s dominates the equal-cores entry in place
    } else {
      it = front.insert(it, s);
    }
    // Drop the following entries s now dominates (more cores, no less
    // cost). Exact-cost twins at higher used lose the fewest-cores tie.
    auto tail = it + 1;
    auto last = tail;
    while (last != front.end() && last->cost >= s.cost) ++last;
    front.erase(tail, last);
  }

  /// Already in thinning order (usage ascending, cost descending).
  static void order_for_thinning(std::vector<State>&) {}

  // Bound step, a scalar two-chain pilot over the same lattice: per last
  // rung only the minimum-demand and minimum-cost chains survive, plain
  // scalars with no frontier machinery, so the whole pass is O(k·r)
  // arithmetic. The min-demand chain is an exact DP (the true
  // minimum-demand chain is preserved — the same argument that makes
  // frontier thinning feasibility-safe), so the pilot completes whenever
  // the table is feasible and its completion cost is a valid — usually
  // tight — upper bound that collapses the main pass's frontiers to the
  // near-optimal band. Without it the main pass would run against
  // ub = inf and visit orders of magnitude more states. Its completions
  // compete in the final selection: a tight pilot bound plus narrow-beam
  // thinning can starve the main sweep on an adversarial table (the
  // min-demand chain dies on the cost bound, the min-cost chain in
  // thinning), and the pilot chain is exactly the feasible completion
  // that proves found-ness there.
  void tighten(const Lattice<Value>& L, const State& root, Value& ub,
               std::size_t&) const {
    const double inf = std::numeric_limits<double>::infinity();
    const State none{inf, inf, kNoNode};
    PrunedScratch& sc = L.sc;
    auto& curU = sc.curU;
    auto& curC = sc.curC;
    auto& nxtU = sc.nxtU;
    auto& nxtC = sc.nxtC;
    curU.assign(L.r, none);
    curC.assign(L.r, none);
    nxtU.assign(L.r, none);
    nxtC.assign(L.r, none);
    curU[L.j0] = curC[L.j0] = root;
    for (std::size_t i = L.kp; i < L.k; ++i) {
      const std::span<const char> feasible = L.cc.feasible_column(i);
      const std::span<const double> demand = L.cc.demand_column(i);
      // Chains ending at rungs <= j with the least demand and the least
      // cost; they point into cur*, which this class only reads.
      const State* accU = &none;
      const State* accC = &none;
      for (std::size_t j = L.j0; j < L.r; ++j) {
        const State& u = curU[j];
        const State& c = curC[j];
        if (u.total < accU->total) accU = &u;
        if (c.total < accU->total) accU = &c;
        if (c.cost < accC->cost) accC = &c;
        if (u.cost < accC->cost) accC = &u;
        // A chain extends to rung j when it fits even optimistically.
        const auto step = [&](const State* from, State& out) {
          if (!feasible[j] || !(from->total < inf)) {
            out = none;
            return;
          }
          const double dij = demand[j];
          if (!(from->total + dij + L.lbD[(i + 1) * L.r + j] <=
                L.cap + kEps)) {
            out = none;
            return;
          }
          const auto node = static_cast<std::uint32_t>(sc.arena.size());
          sc.arena.push_back(
              PrunedNode{from->node, static_cast<std::uint32_t>(j)});
          out = State{from->total + dij,
                      from->cost + adjusted_cost(demand[j],
                                                 L.above_base[j]),
                      node};
        };
        step(accU, nxtU[j]);
        step(accC, nxtC[j]);
      }
      curU.swap(nxtU);
      curC.swap(nxtC);
    }
    for (std::size_t j = L.j0; j < L.r; ++j) {
      for (const State* s : {&curU[j], &curC[j]}) {
        if (s->total < inf) {
          ub = std::min(ub, s->cost);
          sc.extra.push_back(s->node);
        }
      }
    }
  }
};

/// The typed front: capacity, and so dominance, is per core type. A
/// state is dominated only when another is no worse on cost and on
/// every type's usage, so a frontier is a multi-dimensional Pareto set
/// kept in deterministic insertion order by linear scan. Past the
/// exactness regime, found-ness on an adversarial typed table rests on
/// the incumbent or greedy descent, or on a thinned chain surviving.
struct TypedFront {
  using State = TypedState;
  using Value = long double;

  const CorePools& pools;

  static SweepBuffers<State>& buffers(PrunedScratch& sc) { return sc.typed; }

  static State root(long double total, const std::vector<long double>& used) {
    return State{total, 0.0L, kNoNode, used};
  }
  bool fits(const State& s, std::size_t j, Value dij) const {
    const std::size_t t = pools.pool_of[j];
    return !(s.used[t] + dij > pools.pool[t].bound + kEps);
  }
  State extend(const State& s, std::size_t j, Value dij, Value u, Value c,
               std::uint32_t node) const {
    State ns = s;
    ns.used[pools.pool_of[j]] += dij;
    ns.total = u;
    ns.cost = c;
    ns.node = node;
    return ns;
  }

  static bool dominates(const State& a, const State& b) {
    if (a.cost > b.cost) return false;
    for (std::size_t t = 0; t < a.used.size(); ++t) {
      if (a.used[t] > b.used[t]) return false;
    }
    return true;
  }
  // On an exact all-axes tie the lex-greater chain survives, matching the
  // documented tie-break.
  static void insert(PrunedScratch& sc, std::vector<State>& front,
                     const State& s, std::size_t depth) {
    for (auto& e : front) {
      if (dominates(e, s)) {
        if (e.cost == s.cost && e.used == s.used &&
            chain_lex_greater(sc, s.node, e.node, depth)) {
          e.node = s.node;
        }
        return;
      }
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < front.size(); ++i) {
      if (!dominates(s, front[i])) {
        if (w != i) front[w] = std::move(front[i]);
        ++w;
      }
    }
    front.resize(w);
    front.push_back(s);
  }

  /// Order by (total demand asc, cost desc) — stable, so insertion order
  /// breaks exact ties. The min-total endpoint is the best single
  /// feasibility witness available, though with per-type capacity it is
  /// no longer an exactness proof.
  static void order_for_thinning(std::vector<State>& front) {
    std::stable_sort(front.begin(), front.end(),
                     [](const State& a, const State& b) {
                       if (a.total != b.total) return a.total < b.total;
                       return a.cost > b.cost;
                     });
  }

  // Bound step: the scalar pilot's min-demand chain is only exact for
  // one-dimensional capacity, so descents stand in as the found-ness and
  // upper-bound candidate: Algorithm 1's backtracking descent (per-type
  // capacity), budgeted at kIncumbentNodeBudget because adversarial
  // tables make it exponential, and when that gives up an unbudgeted
  // greedy descent (<= k·r selects, no backtracking). The typed beam
  // keeps the backtracking incumbent: its completion is the plan on
  // tables where thinning drops the optimal chain.
  void tighten(const Lattice<Value>& L, const State&, Value& ub,
               std::size_t& nodes) const {
    auto seed = run_descent(L.cc, pools, L.total_cores,
                            /*allow_backtrack=*/true, L.prefix,
                            kIncumbentNodeBudget);
    nodes += seed.nodes_visited;
    if (seed.aborted) {
      seed = run_descent(L.cc, pools, L.total_cores,
                         /*allow_backtrack=*/false, L.prefix);
      nodes += seed.nodes_visited;
    }
    if (!seed.found) return;
    ub = std::min(ub, L.chain_cost(seed.tuple));
    // Its completion competes in the final selection as an arena chain.
    std::uint32_t node = kNoNode;
    for (std::size_t i = L.kp; i < L.k; ++i) {
      L.sc.arena.push_back(
          PrunedNode{node, static_cast<std::uint32_t>(seed.tuple[i])});
      node = static_cast<std::uint32_t>(L.sc.arena.size() - 1);
    }
    L.sc.extra.push_back(node);
  }
};

/// Worst-case width guardrail: degenerate tables can make a frontier's
/// true Pareto front exponentially wide. Fronts past cap_w·2 are
/// thinned to an evenly-spaced cap_w-subset, in the front's thinning
/// order, keeping both endpoints — the min-demand end preserves
/// feasibility, the min-cost end the cheapest-energy candidate.
template <typename Front>
void thin(std::vector<typename Front::State>& front, std::size_t cap_w) {
  if (front.size() <= 2 * cap_w) return;
  Front::order_for_thinning(front);
  // In place: slot t reads from an index >= t, so writing front-to-back
  // never clobbers an unread source.
  const std::size_t n = front.size();
  for (std::size_t t = 0; t < cap_w; ++t) {
    front[t] = front[t * (n - 1) / (cap_w - 1)];
  }
  front.resize(cap_w);
}

/// The sweep, class by class, at frontier width `cap_w`, pruning
/// against the adjusted-cost bound `ub`. Leaves the final frontiers,
/// indexed by last rung, in the front's `cur` buffers (only rungs >= j0
/// are reachable) and returns the number of states it extended. A
/// function of its own, not a block of pruned_dp: compiled inside that
/// larger body, the same loop ran about 1.5x slower at r = 16, k = 256.
template <typename Front, typename V = typename Front::Value>
std::size_t sweep(const Lattice<V>& L, const Front& front,
                  const typename Front::State& root,
                  const std::vector<V>& lbC, std::size_t cap_w, V ub) {
  const CCTable& cc = L.cc;
  const std::size_t r = L.r;
  const std::size_t k = L.k;
  const std::size_t kp = L.kp;
  const std::size_t j0 = L.j0;
  const V cap = L.cap;
  const std::vector<V>& above_base = L.above_base;
  const std::vector<V>& lbD = L.lbD;
  PrunedScratch& sc = L.sc;
  NodeArena& arena = sc.arena;
  SweepBuffers<typename Front::State>& buf = Front::buffers(sc);
  auto& cur = buf.cur;
  auto& nxt = buf.nxt;
  auto& acc = buf.acc;
  cur.resize(r);
  nxt.resize(r);
  for (std::size_t j = 0; j < r; ++j) {
    cur[j].clear();
    nxt[j].clear();
  }
  cur[j0].push_back(root);
  std::size_t nodes = 0;
  for (std::size_t i = kp; i < k; ++i) {
    acc.clear();
    const std::size_t depth = i + 1 - kp;
    const std::span<const char> feasible = cc.feasible_column(i);
    const std::span<const double> demand = cc.demand_column(i);
    for (std::size_t j = j0; j < r; ++j) {
      // All states ending at rungs <= j are extendable at rung j; once
      // extended they all end at j, so merging them into one running
      // Pareto accumulator is exact.
      for (const auto& s : cur[j]) Front::insert(sc, acc, s, depth - 1);
      thin<Front>(acc, cap_w);
      nxt[j].clear();
      if (!feasible[j]) continue;
      const V dij = demand[j];
      const V cij = adjusted_cost(demand[j], above_base[j]);
      const V lb_d = lbD[(i + 1) * r + j];
      const V lb_c = lbC[(i + 1) * r + j];
      for (const auto& s : acc) {
        ++nodes;
        const V u = s.total + dij;
        if (u + lb_d > cap + kEps) continue;  // cannot fit even optimistically
        if (!front.fits(s, j, dij)) continue;
        const V c = s.cost + cij;
        if (c + lb_c > ub + 2 * kEps) continue;  // outside the tie window
        const auto node = static_cast<std::uint32_t>(arena.size());
        arena.push_back(PrunedNode{s.node, static_cast<std::uint32_t>(j)});
        Front::insert(sc, nxt[j], front.extend(s, j, dij, u, c, node), depth);
      }
      thin<Front>(nxt[j], cap_w);
    }
    cur.swap(nxt);
  }
  return nodes;
}

/// The pruned DP over the suffix after `prefix` (empty for a full
/// search). `Front` decides what a state counts against capacity: one
/// total (ScalarFront) or one usage per core pool (TypedFront).
template <typename Front>
SearchResult pruned_dp(const CCTable& cc, std::size_t total_cores,
                       const energy::PowerModel* model,
                       std::span<const std::size_t> prefix) {
  using State = typename Front::State;
  using V = typename Front::Value;
  const auto start = Clock::now();
  SearchResult res;
  PrunedScratch& sc = pruned_scratch();
  const CorePools& pools = price_pools(cc, total_cores, model);
  long double used_kp = 0.0L;
  if (!audit_prefix(cc, pools, total_cores, prefix, used_kp,
                    sc.pool_used_kp)) {
    res.elapsed_us = elapsed_us_since(start);
    return res;
  }
  const Front front{pools};
  const std::size_t r = cc.rows();
  const std::size_t k = cc.cols();
  const std::size_t kp = prefix.size();
  const std::size_t j0 = prefix.empty() ? 0 : prefix.back();
  const auto cap = static_cast<V>(total_cores);

  // Leftover cores park in their row's pool, so a row's baseline is its
  // pool's park power.
  std::vector<V>& above_base = Front::buffers(sc).above_base;
  above_base.resize(r);
  for (std::size_t j = 0; j < r; ++j) {
    above_base[j] = static_cast<V>(pools.active_w[j]) -
                    static_cast<V>(pools.pool[pools.pool_of[j]].park_w);
  }
  std::vector<V> lbC;
  std::vector<V> lbD;
  fill_lower_bounds(cc, kp, j0, above_base, lbC, lbD);
  const Lattice<V> lat{cc, total_cores, prefix, r, k, kp, j0, cap,
                       above_base, lbD, sc};

  // Upper bound: the front's bound step completes a few cheap chains
  // (the scalar pilot, or descents on typed tables). Each is feasible,
  // so the optimum's adjusted cost cannot exceed theirs, and the sweep
  // cuts anything provably above it (outside the tie window).
  V ub = std::numeric_limits<V>::infinity();
  std::size_t nodes = 0;
  NodeArena& arena = sc.arena;
  arena.clear();
  arena.reserve(1024);
  sc.extra.clear();
  const State root = Front::root(used_kp, sc.pool_used_kp);
  front.tighten(lat, root, ub, nodes);

  // Main-pass width: full (never binds at r·k <= 25, where exhaustive
  // equality is the contract; past that, natural fronts stay narrow up
  // to a few hundred lattice cells) in the exactness regime, a narrow
  // beam at production scale where the contract is feasibility
  // exactness, determinism and never-worse-than-backtracking — there the
  // sweep must fit a sub-millisecond plan budget (docs/performance.md).
  constexpr std::size_t kFrontierCap = 64;
  const std::size_t main_cap = (r - j0) * (k - kp) <= 256 ? kFrontierCap : 6;

  nodes += sweep(lat, front, root, lbC, main_cap, ub);
  const auto& cur = Front::buffers(sc).cur;

  // Final selection: evaluate the surviving completions with the exact
  // energy estimator and the exhaustive oracle's tie-break, so the two
  // agree on the winner. The evaluation reuses the priced rows and the
  // cached demands but accumulates in the same order and width as
  // tuple_energy_estimate (classes, then pools, ascending), so the
  // result is bit-identical to it. Every candidate shares the pinned
  // prefix, so it continues from the audit's usage sums and the
  // prefix's energy, taken once.
  const std::size_t n_pools = pools.pool.size();
  // One pool's usage is the running total itself; only a machine of
  // several pools sums its usage per pool.
  const bool split = n_pools > 1;
  long double e_kp = 0.0L;
  for (std::size_t i = 0; i < kp; ++i) {
    e_kp += static_cast<long double>(cc.demand(prefix[i], i)) *
            pools.active_w[prefix[i]];
  }
  const auto eval_energy = [&](const std::vector<std::size_t>& t,
                               long double* used_out) {
    long double used = used_kp;
    long double e = e_kp;
    std::vector<long double>& pool_used = sc.pool_used;
    if (split) pool_used = sc.pool_used_kp;
    for (std::size_t i = kp; i < k; ++i) {
      const double n = cc.demand(t[i], i);
      used += n;
      if (split) pool_used[pools.pool_of[t[i]]] += n;
      e += static_cast<long double>(n) * pools.active_w[t[i]];
    }
    for (std::size_t q = 0; q < n_pools; ++q) {
      const long double u = split ? pool_used[q] : used;
      const auto cores = static_cast<long double>(pools.pool[q].cores);
      if (cores > u) {
        e += (cores - u) * static_cast<long double>(pools.pool[q].park_w);
      }
    }
    *used_out = used;
    return static_cast<double>(e);
  };

  double best_e = std::numeric_limits<double>::infinity();
  double best_used = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> a(k, 0);
  std::copy(prefix.begin(), prefix.end(), a.begin());
  const auto consider = [&](std::uint32_t node) {
    reconstruct_chain(arena, node, k - kp, sc.chain_a);
    std::copy(sc.chain_a.begin(), sc.chain_a.end(), a.begin() + kp);
    long double u = 0.0L;
    const double e = eval_energy(a, &u);
    const double used_d = static_cast<double>(u);
    bool better = e < best_e - kEps;
    if (!better && e <= best_e + kEps) {
      if (used_d < best_used - kEps) {
        better = true;
      } else if (used_d <= best_used + kEps) {
        better = res.found && a > res.tuple;
      }
    }
    if (better) {
      best_e = std::min(best_e, e);
      best_used = used_d;
      res.found = true;
      res.tuple = a;
      res.cores_used = static_cast<std::size_t>(std::ceil(used_d - kEps));
    }
  };
  for (const std::uint32_t node : sc.extra) consider(node);
  for (std::size_t j = j0; j < r; ++j) {
    for (const auto& s : cur[j]) consider(s.node);
  }
  res.nodes_visited = nodes;
  res.elapsed_us = elapsed_us_since(start);
  return res;
}

/// A typed table keeps TypedFront even with one core type: the fronts
/// differ in value type and bound step, not only in pool count.
SearchResult pruned_search(const CCTable& cc, std::size_t total_cores,
                           const energy::PowerModel* model,
                           std::span<const std::size_t> prefix) {
  return cc.topology() == nullptr
             ? pruned_dp<ScalarFront>(cc, total_cores, model, prefix)
             : pruned_dp<TypedFront>(cc, total_cores, model, prefix);
}

}  // namespace

SearchResult search_pruned(const CCTable& cc, std::size_t total_cores,
                           const energy::PowerModel* model) {
  return pruned_search(cc, total_cores, model, {});
}

void search_suffix(const CCTable& cc, std::size_t total_cores,
                   SearchKind kind, const std::vector<std::size_t>& prefix,
                   const energy::PowerModel* model, SearchResult& out) {
  if (kind == SearchKind::kPruned) {
    out = pruned_search(cc, total_cores, model, prefix);
  } else {
    run_descent(out, cc, describe_pools(cc, total_cores), total_cores,
                /*allow_backtrack=*/true, prefix);
  }
}

SearchResult search_suffix(const CCTable& cc, std::size_t total_cores,
                           SearchKind kind,
                           const std::vector<std::size_t>& prefix,
                           const energy::PowerModel* model) {
  SearchResult out;
  search_suffix(cc, total_cores, kind, prefix, model, out);
  return out;
}

void search_ktuple(const CCTable& cc, std::size_t total_cores,
                   SearchKind kind, const energy::PowerModel* model,
                   SearchResult& out) {
  search_suffix(cc, total_cores, kind, {}, model, out);
}

SearchResult search_ktuple(const CCTable& cc, std::size_t total_cores,
                           SearchKind kind, const energy::PowerModel* model) {
  SearchResult out;
  search_ktuple(cc, total_cores, kind, model, out);
  return out;
}

}  // namespace eewa::core
