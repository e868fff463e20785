#include "testing/exhaustive_search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

namespace eewa::testing {

core::SearchResult search_exhaustive(const core::CCTable& cc,
                                     std::size_t total_cores,
                                     const energy::PowerModel* model) {
  constexpr double kEps = 1e-9;
  const auto start = std::chrono::steady_clock::now();
  core::SearchResult best;
  double best_e = std::numeric_limits<double>::infinity();
  double best_used = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> a(cc.cols(), 0);
  std::size_t nodes = 0;
  const core::MachineTopology* topo = cc.topology();
  std::vector<long double> tused(topo != nullptr ? topo->type_count() : 0,
                                 0.0L);

  // Enumerate all nondecreasing tuples; prune on capacity as we go.
  // Ties on energy break deterministically — fewest cores, then the
  // lexicographically greater (slower) tuple — so differential runs
  // reproduce the same winner regardless of enumeration quirks.
  auto rec = [&](auto&& self, std::size_t i, std::size_t lo,
                 long double used) -> void {
    if (i == cc.cols()) {
      const double e = core::tuple_energy_estimate(cc, a, total_cores, model);
      const double used_d = static_cast<double>(used);
      bool better = e < best_e - kEps;
      if (!better && e <= best_e + kEps) {
        if (used_d < best_used - kEps) {
          better = true;
        } else if (used_d <= best_used + kEps) {
          better = best.found && a > best.tuple;
        }
      }
      if (better) {
        best_e = std::min(best_e, e);
        best_used = used_d;
        best.found = true;
        best.tuple = a;
        best.cores_used =
            static_cast<std::size_t>(std::ceil(used_d - kEps));
      }
      return;
    }
    for (std::size_t j = lo; j < cc.rows(); ++j) {
      ++nodes;
      if (!cc.rung_feasible(j, i)) continue;
      const double need = cc.demand(j, i);
      if (used + need > static_cast<long double>(total_cores) + kEps) {
        continue;
      }
      if (topo != nullptr) {
        const std::size_t t = topo->row_type(j);
        if (tused[t] + need >
            static_cast<long double>(topo->type(t).count) + kEps) {
          continue;
        }
        a[i] = j;
        tused[t] += need;
        self(self, i + 1, j, used + need);
        tused[t] -= need;
        continue;
      }
      a[i] = j;
      self(self, i + 1, j, used + need);
    }
  };
  rec(rec, 0, 0, 0.0L);

  best.nodes_visited = nodes;
  best.elapsed_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return best;
}

}  // namespace eewa::testing
