#include "core/adjuster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eewa::core {

Adjuster::Adjuster(dvfs::FrequencyLadder ladder, std::size_t total_cores,
                   AdjusterOptions options)
    : ladder_(std::move(ladder)), total_cores_(total_cores),
      options_(options) {
  if (total_cores_ == 0) {
    throw std::invalid_argument("Adjuster: need at least one core");
  }
  // std::clamp passes a NaN through, and T·(1 - NaN) plans nothing sane.
  if (!std::isfinite(options_.time_margin)) {
    throw std::invalid_argument("Adjuster: time_margin must be finite");
  }
  if (options_.topology != nullptr &&
      options_.topology->total_cores() != total_cores_) {
    throw std::invalid_argument(
        "Adjuster: topology core count does not match total_cores");
  }
  // The search prices rung j with model->core_power_w(j): a model over a
  // different ladder would first fail, out of range, mid-plan.
  if (options_.model != nullptr &&
      options_.model->ladder().size() != ladder_.size()) {
    throw std::invalid_argument(
        "Adjuster: power model ladder size does not match the ladder");
  }
}

void Adjuster::run(const std::vector<ClassProfile>& classes,
                   std::size_t registry_class_count, double ideal_time_s,
                   const std::vector<std::size_t>* prefix_rungs,
                   Adjustment& out) const {
  out.attempted = false;
  out.incremental = false;
  if (classes.empty() || !std::isfinite(ideal_time_s) ||
      ideal_time_s <= 0.0) {
    // Nothing to plan from: no table, no search.
    out.cc = CCTable{};
    out.search = SearchResult{};
    uniform_plan(total_cores_, registry_class_count, out.plan);
    return;
  }
  out.attempted = true;
  // The CC table is the profile against T·(1 - time_margin), typed when
  // a topology is set.
  const double margin = std::clamp(options_.time_margin, 0.0, 0.9);
  const double target_s = ideal_time_s * (1.0 - margin);
  if (options_.topology != nullptr) {
    out.cc.rebuild_typed(classes, options_.topology, target_s,
                         options_.memory_aware);
  } else {
    out.cc.rebuild(classes, ladder_, target_s, options_.memory_aware);
  }
  if (prefix_rungs != nullptr && !prefix_rungs->empty() &&
      prefix_rungs->size() <= out.cc.cols()) {
    search_suffix(out.cc, total_cores_, options_.search, *prefix_rungs,
                  options_.model, out.search);
    out.incremental = out.search.found;
  }
  if (!out.incremental) {
    // Full plan, or the kept prefix no longer fits the fresh table (a
    // workload spike broke its rung feasibility or capacity): search
    // from scratch.
    search_ktuple(out.cc, total_cores_, options_.search, options_.model,
                  out.search);
  }
  make_frequency_plan(out.cc, out.search, total_cores_, ladder_,
                      registry_class_count, options_.leftover, out.plan);
}

Adjustment Adjuster::adjust(std::vector<ClassProfile> classes,
                            std::size_t registry_class_count,
                            double ideal_time_s) const {
  Adjustment out;
  run(classes, registry_class_count, ideal_time_s, nullptr, out);
  return out;
}

void Adjuster::adjust(const std::vector<ClassProfile>& classes,
                      std::size_t registry_class_count, double ideal_time_s,
                      Adjustment& out) const {
  run(classes, registry_class_count, ideal_time_s, nullptr, out);
}

Adjustment Adjuster::adjust_incremental(
    std::vector<ClassProfile> classes, std::size_t registry_class_count,
    double ideal_time_s,
    const std::vector<std::size_t>& prefix_rungs) const {
  Adjustment out;
  run(classes, registry_class_count, ideal_time_s, &prefix_rungs, out);
  return out;
}

void Adjuster::adjust_incremental(
    const std::vector<ClassProfile>& classes,
    std::size_t registry_class_count, double ideal_time_s,
    const std::vector<std::size_t>& prefix_rungs, Adjustment& out) const {
  run(classes, registry_class_count, ideal_time_s, &prefix_rungs, out);
}

}  // namespace eewa::core
