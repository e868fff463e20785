#include "core/actuation.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

namespace eewa::core {

std::string HealthReport::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "writes=%zu retries=%zu write_failures=%zu failed_cores=%zu "
                "reconciliations=%zu stuck_cores=%zu degradations=%zu "
                "makespan_blowups=%zu task_exceptions=%zu degraded=%s",
                writes, retries, write_failures, failed_cores,
                reconciliations, stuck_cores, degradations, makespan_blowups,
                task_exceptions, degraded ? "yes" : "no");
  return buf;
}

ActuationOutcome ActuationSupervisor::apply(const FrequencyPlan& plan,
                                            dvfs::DvfsBackend& backend) const {
  ActuationOutcome out;
  apply(plan, backend, out);
  return out;
}

void ActuationSupervisor::apply(const FrequencyPlan& plan,
                                dvfs::DvfsBackend& backend,
                                ActuationOutcome& out) const {
  const std::size_t n = backend.core_count();
  out.target.assign(n, 0);
  out.failed_cores.clear();
  out.writes = 0;
  out.retries = 0;
  out.write_failures = 0;
  out.backoff_s = 0.0;
  for (const auto& g : plan.layout.groups()) {
    for (std::size_t c : g.cores) {
      if (c < n) out.target[c] = g.freq_index;
    }
  }

  const std::size_t attempts = std::max<std::size_t>(1, options_.max_attempts);
  for (std::size_t c = 0; c < n; ++c) {
    // Cores no group holds are not driven.
    if (!plan.layout.core_assigned(c)) continue;
    double backoff = options_.backoff_base_s;
    bool landed = false;
    for (std::size_t attempt = 0; attempt < attempts && !landed; ++attempt) {
      if (attempt > 0) {
        ++out.retries;
        out.backoff_s += backoff;
        if (options_.sleep_on_backoff) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
        }
        backoff *= options_.backoff_multiplier;
      }
      ++out.writes;
      (void)backend.set_frequency(c, out.target[c]);
      // Readback is the truth: a bounced write on a core already at the
      // rung is fine; a "successful" write that drifted is not.
      landed = backend.frequency_index(c) == out.target[c];
      if (!landed) ++out.write_failures;
    }
    if (!landed) out.failed_cores.push_back(c);
  }

  out.achieved.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    out.achieved[c] = backend.frequency_index(c);
  }
}

FrequencyPlan reconcile_plan(const FrequencyPlan& intended,
                             const std::vector<std::size_t>& achieved) {
  const std::size_t total = intended.layout.total_cores();

  // Regroup: cores the backend reports on go by achieved rung; cores the
  // backend does not cover keep the plan's intent. On heterogeneous
  // machines each cluster owns an independent ladder, so rungs are only
  // comparable within a core type: groups are keyed by (type, rung) and
  // a core's type is whatever the intended layout assigned it (the
  // hardware cannot move a core between clusters).
  std::vector<std::size_t> type_of_core(total, 0);
  for (const auto& g : intended.layout.groups()) {
    for (std::size_t c : g.cores) {
      if (c < total) type_of_core[c] = g.core_type;
    }
  }
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      by_key;  // (type, rung) -> cores
  for (std::size_t c = 0; c < achieved.size() && c < total; ++c) {
    by_key[{type_of_core[c], achieved[c]}].push_back(c);
  }
  for (const auto& g : intended.layout.groups()) {
    for (std::size_t c : g.cores) {
      if (c >= achieved.size() && c < total) {
        by_key[{g.core_type, g.freq_index}].push_back(c);
      }
    }
  }

  std::vector<dvfs::CGroup> groups;
  std::vector<std::pair<std::size_t, std::size_t>> group_key;
  for (auto& [key, cores] : by_key) {
    std::sort(cores.begin(), cores.end());
    group_key.push_back(key);
    groups.push_back(dvfs::CGroup{
        .freq_index = key.second, .core_type = key.first,
        .cores = std::move(cores)});
  }

  // Every class moves to the group (of its intended type) whose rung is
  // nearest its intended one; ties go to the faster group so no class
  // loses feasibility.
  std::vector<std::size_t> class_to_group(intended.layout.class_count(), 0);
  for (std::size_t k = 0; k < class_to_group.size(); ++k) {
    const auto& home =
        intended.layout.group(intended.layout.group_of_class(k));
    const std::size_t want = home.freq_index;
    std::size_t best = 0;
    std::size_t best_dist = static_cast<std::size_t>(-1);
    for (std::size_t g = 0; g < group_key.size(); ++g) {
      if (group_key[g].first != home.core_type) continue;
      const std::size_t rung = group_key[g].second;
      const std::size_t dist = rung > want ? rung - want : want - rung;
      if (dist < best_dist) {
        best_dist = dist;
        best = g;
      }
    }
    class_to_group[k] = best;
  }

  FrequencyPlan plan;
  plan.planned = intended.planned;
  plan.tuple = intended.tuple;
  plan.claimed_cores = intended.claimed_cores;
  plan.layout = dvfs::CGroupLayout(std::move(groups),
                                   std::move(class_to_group), total);
  return plan;
}

}  // namespace eewa::core
