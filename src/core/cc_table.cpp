#include "core/cc_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace eewa::core {

CCTable::CCTable(std::size_t r, std::size_t k, std::vector<double> data,
                 std::vector<ClassProfile> classes, double ideal_time_s)
    : r_(r),
      k_(k),
      data_(std::move(data)),
      classes_(std::move(classes)),
      ideal_time_s_(ideal_time_s) {
  derive_cells();
}

void CCTable::throw_out_of_range() {
  throw std::out_of_range("CCTable: index out of range");
}

void CCTable::check_profile(const std::vector<ClassProfile>& classes,
                            double ideal_time_s) {
  if (classes.empty()) {
    throw std::invalid_argument("CCTable: no task classes");
  }
  if (!std::isfinite(ideal_time_s) || ideal_time_s <= 0.0) {
    throw std::invalid_argument("CCTable: ideal time must be finite, > 0");
  }
  for (std::size_t i = 1; i < classes.size(); ++i) {
    if (classes[i].mean_workload > classes[i - 1].mean_workload) {
      throw std::invalid_argument(
          "CCTable: classes must be sorted by descending mean workload");
    }
  }
}

template <typename Slowdown>
void CCTable::fill(std::size_t r, Slowdown slowdown, double ideal_time_s,
                   bool memory_aware) {
  const std::size_t k = classes_.size();
  r_ = r;
  k_ = k;
  ideal_time_s_ = ideal_time_s;
  data_.resize(r * k);
  for (std::size_t i = 0; i < k; ++i) {
    const double base = classes_[i].total_workload() / ideal_time_s;
    const double alpha = memory_aware ? classes_[i].mean_alpha : 0.0;
    for (std::size_t j = 0; j < r; ++j) {
      const double eff_slowdown = alpha + (1.0 - alpha) * slowdown(j);
      data_[j * k + i] = eff_slowdown * base;
    }
  }
  derive_cells();
}

CCTable CCTable::build(std::vector<ClassProfile> classes,
                       const dvfs::FrequencyLadder& ladder,
                       double ideal_time_s, bool memory_aware) {
  check_profile(classes, ideal_time_s);
  CCTable table;
  table.classes_ = std::move(classes);
  table.fill(
      ladder.size(), [&](std::size_t j) { return ladder.slowdown(j); },
      ideal_time_s, memory_aware);
  return table;
}

CCTable CCTable::build_typed(std::vector<ClassProfile> classes,
                             const MachineTopology& topology,
                             double ideal_time_s, bool memory_aware) {
  check_profile(classes, ideal_time_s);
  CCTable table;
  table.classes_ = std::move(classes);
  table.topology_ = std::make_shared<const MachineTopology>(topology);
  const MachineTopology& topo = *table.topology_;
  table.fill(
      topo.row_count(), [&](std::size_t j) { return topo.row_slowdown(j); },
      ideal_time_s, memory_aware);
  return table;
}

void CCTable::rebuild(const std::vector<ClassProfile>& classes,
                      const dvfs::FrequencyLadder& ladder,
                      double ideal_time_s, bool memory_aware) {
  check_profile(classes, ideal_time_s);
  classes_.assign(classes.begin(), classes.end());
  topology_.reset();
  fill(
      ladder.size(), [&](std::size_t j) { return ladder.slowdown(j); },
      ideal_time_s, memory_aware);
}

void CCTable::rebuild_typed(const std::vector<ClassProfile>& classes,
                            std::shared_ptr<const MachineTopology> topology,
                            double ideal_time_s, bool memory_aware) {
  check_profile(classes, ideal_time_s);
  classes_.assign(classes.begin(), classes.end());
  topology_ = std::move(topology);
  const MachineTopology& topo = *topology_;
  fill(
      topo.row_count(), [&](std::size_t j) { return topo.row_slowdown(j); },
      ideal_time_s, memory_aware);
}

CCTable CCTable::from_matrix(std::vector<std::vector<double>> rows,
                             std::vector<ClassProfile> classes) {
  if (rows.empty() || rows[0].empty()) {
    throw std::invalid_argument("CCTable: empty matrix");
  }
  const std::size_t r = rows.size();
  const std::size_t k = rows[0].size();
  std::vector<double> data;
  data.reserve(r * k);
  for (const auto& row : rows) {
    if (row.size() != k) {
      throw std::invalid_argument("CCTable: ragged matrix");
    }
    data.insert(data.end(), row.begin(), row.end());
  }
  if (classes.empty()) {
    for (std::size_t i = 0; i < k; ++i) {
      classes.push_back(
          ClassProfile{i, "TC" + std::to_string(i), 1, 0.0});
    }
  } else if (classes.size() != k) {
    throw std::invalid_argument("CCTable: classes/columns mismatch");
  } else {
    // Explicit metadata gets the same ordering contract as build():
    // search_pruned's dominance and lower-bound tables assume columns
    // descend by mean workload. Bare matrices stay positional.
    for (std::size_t i = 1; i < k; ++i) {
      if (classes[i].mean_workload > classes[i - 1].mean_workload) {
        throw std::invalid_argument(
            "CCTable: classes must be sorted by descending mean workload");
      }
    }
  }
  return CCTable(r, k, std::move(data), std::move(classes), 0.0);
}

std::size_t CCTable::ceil_at(std::size_t j, std::size_t i) const {
  const double v = at(j, i);
  if (v <= 0.0) return 0;
  const auto c = static_cast<std::size_t>(std::ceil(v - 1e-9));
  return c == 0 ? 1 : c;
}

void CCTable::derive_cells() {
  // Plain locals throughout: the char stores into feasible_ may alias
  // anything, which would otherwise force the members to be reloaded
  // on every cell.
  const std::size_t r = r_;
  const std::size_t k = k_;
  const double ideal = ideal_time_s_;
  demand_.resize(r * k);
  feasible_.resize(r * k);
  proxy_slowdown_.assign(r, 0.0);
  const double* const cc = data_.data();
  double* const demand = demand_.data();
  char* const feasible = feasible_.data();
  double* const proxy = proxy_slowdown_.data();
  const bool timed = ideal > 0.0;  // bare matrices carry no T
  const double t_limit = ideal * (1.0 + 1e-9);
  for (std::size_t i = 0; i < k; ++i) {
    const ClassProfile& c = classes_[i];
    const double mean = c.mean_workload;
    const double c0 = cc[i];
    // The rung guard checks the larger of the observed max and the
    // mean. Profiles with missing max metadata (max == 0) — or a
    // cumulative mean above the per-iteration max — must not admit rungs
    // where the demand below finds that even a mean-sized task misses
    // T: for j > 0 the two predicates have to agree, or exhaustive
    // search ranks tuples by the rounds < 1 fallback demand of rungs the
    // guard was supposed to reject.
    const double critical = std::max(c.max_workload, mean);
    const bool guarded = timed && c0 > 0.0 && critical > 0.0;
    const bool packed = timed && c.count > 0 && mean > 0.0 && c0 > 0.0;
    const double tasks = static_cast<double>(c.count);
    for (std::size_t j = 0; j < r; ++j) {
      const double cj = cc[j * k + i];
      const double slowdown = c0 > 0.0 ? cj / c0 : 0.0;  // effective F0/Fj
      if (cj > 0.0 && c0 > 0.0) proxy[j] = std::max(proxy[j], slowdown);
      // F0 cannot be beaten: never reject it.
      feasible[i * r + j] =
          j == 0 || !guarded || critical * slowdown <= t_limit;
      // Demand: CC[j][i] raised to the task-packing lower bound.
      double need = cj;
      if (packed) {
        const double task_time = mean * slowdown;
        const double rounds = std::floor(ideal / task_time + 1e-9);
        if (rounds < 1.0) {
          // Even one mean-sized task misses T. The guard rejects every
          // such rung for j > 0, so the searchers never rank tuples by
          // this value; it remains reachable only at F0 and for callers
          // that skip the guard, where one core per task is the sane
          // answer.
          need = std::max(cj, tasks);
        } else if (!(cj * rounds > tasks)) {
          // Otherwise the bound is max(cj, tasks / rounds). Rounding is
          // monotone, so cj·rounds > tasks in floating point implies it
          // exactly, and then tasks / rounds rounds to at most cj: the
          // division only runs where the packing bound can bind.
          need = std::max(cj, tasks / rounds);
        }
      }
      demand[i * r + j] = need;
    }
  }
}

std::size_t CCTable::cores_needed(std::size_t j, std::size_t i) const {
  const double d = demand(j, i);
  if (d <= 0.0) return 0;
  const auto c = static_cast<std::size_t>(std::ceil(d - 1e-9));
  return c == 0 ? 1 : c;
}

std::string CCTable::to_string() const {
  std::string out = "      ";
  char buf[64];
  for (std::size_t i = 0; i < k_; ++i) {
    std::snprintf(buf, sizeof(buf), " %10s", classes_[i].name.c_str());
    out += buf;
  }
  out += '\n';
  for (std::size_t j = 0; j < r_; ++j) {
    std::snprintf(buf, sizeof(buf), "F%-5zu", j);
    out += buf;
    for (std::size_t i = 0; i < k_; ++i) {
      std::snprintf(buf, sizeof(buf), " %10.3f", at(j, i));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace eewa::core
