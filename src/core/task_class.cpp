#include "core/task_class.hpp"

#include <algorithm>
#include <stdexcept>

namespace eewa::core {

std::size_t TaskClassRegistry::intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const std::size_t id = stats_.size();
  stats_.push_back(Stats{std::string(name), 0, 0, 0.0});
  ids_.emplace(std::string(name), id);
  return id;
}

std::size_t TaskClassRegistry::id_of(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    throw std::out_of_range("TaskClassRegistry: unknown class name");
  }
  return it->second;
}

bool TaskClassRegistry::contains(std::string_view name) const {
  return ids_.find(name) != ids_.end();
}

void TaskClassRegistry::record(std::size_t id, double w, double alpha) {
  if (w < 0.0) {
    throw std::invalid_argument("TaskClassRegistry: negative workload");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    throw std::invalid_argument("TaskClassRegistry: alpha outside [0,1]");
  }
  Stats& s = stats_.at(id);
  // TC(f, n, w̄) -> TC(f, n+1, (n·w̄ + w)/(n+1)) over the cumulative count.
  const auto n = static_cast<double>(s.total_count);
  s.mean_w = (n * s.mean_w + w) / (n + 1.0);
  s.mean_alpha = (n * s.mean_alpha + alpha) / (n + 1.0);
  s.iter_max_w = std::max(s.iter_max_w, w);
  ++s.total_count;
  ++s.iter_count;
}

void TaskClassRegistry::begin_iteration() {
  for (auto& s : stats_) {
    s.iter_count = 0;
    s.iter_max_w = 0.0;
  }
}

std::vector<ClassProfile> TaskClassRegistry::iteration_profile() const {
  std::vector<ClassProfile> out;
  iteration_profile(out);
  return out;
}

void TaskClassRegistry::iteration_profile(
    std::vector<ClassProfile>& out) const {
  // Sort (mean workload, class id) keys rather than the profiles, whose
  // names make every swap dear. The keys are a total order (class id
  // breaks ties), so the profiles come out in the order a sort of the
  // profiles themselves gives. The key buffer is per thread, reused
  // from call to call.
  struct Key {
    double mean_w;
    std::size_t id;
  };
  thread_local std::vector<Key> keys;
  keys.clear();
  for (std::size_t id = 0; id < stats_.size(); ++id) {
    if (stats_[id].iter_count != 0) keys.push_back({stats_[id].mean_w, id});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.mean_w != b.mean_w) return a.mean_w > b.mean_w;
    return a.id < b.id;  // deterministic tie-break
  });
  out.resize(keys.size());
  for (std::size_t n = 0; n < keys.size(); ++n) {
    const Stats& s = stats_[keys[n].id];
    ClassProfile& p = out[n];
    p.class_id = keys[n].id;
    p.name = s.name;  // reuses the slot's string capacity
    p.count = s.iter_count;
    p.mean_workload = s.mean_w;
    p.max_workload = s.iter_max_w;
    p.mean_alpha = s.mean_alpha;
  }
}

}  // namespace eewa::core
