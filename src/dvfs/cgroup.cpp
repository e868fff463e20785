#include "dvfs/cgroup.hpp"

#include <numeric>
#include <stdexcept>

namespace eewa::dvfs {

CGroupLayout::CGroupLayout(std::vector<CGroup> groups,
                           std::vector<std::size_t> class_to_group,
                           std::size_t total_cores)
    : groups_(std::move(groups)),
      count_(groups_.size()),
      class_to_group_(std::move(class_to_group)),
      total_cores_(total_cores) {
  seal();
}

CGroupLayout& CGroupLayout::operator=(const CGroupLayout& other) {
  if (this == &other) return *this;
  if (groups_.size() < other.count_) groups_.resize(other.count_);
  for (std::size_t g = 0; g < other.count_; ++g) groups_[g] = other.groups_[g];
  count_ = other.count_;
  class_to_group_ = other.class_to_group_;
  core_group_ = other.core_group_;
  total_cores_ = other.total_cores_;
  return *this;
}

CGroupLayout& CGroupLayout::operator=(CGroupLayout&& other) noexcept {
  groups_ = std::move(other.groups_);
  count_ = std::exchange(other.count_, 0);
  class_to_group_ = std::move(other.class_to_group_);
  core_group_ = std::move(other.core_group_);
  total_cores_ = std::exchange(other.total_cores_, 0);
  return *this;
}

void CGroupLayout::throw_out_of_range() {
  throw std::out_of_range("CGroupLayout: group index out of range");
}

void CGroupLayout::reset(std::size_t total_cores, std::size_t class_count) {
  count_ = 0;
  class_to_group_.assign(class_count, 0);
  total_cores_ = total_cores;
}

CGroup& CGroupLayout::add_group(std::size_t freq_index,
                                std::size_t core_type) {
  if (count_ == groups_.size()) groups_.emplace_back();
  CGroup& g = groups_[count_++];
  g.freq_index = freq_index;
  g.core_type = core_type;
  g.cores.clear();
  return g;
}

void CGroupLayout::reserve(std::size_t groups, std::size_t cores) {
  if (groups_.size() < groups) groups_.resize(groups);
  for (auto& g : groups_) g.cores.reserve(cores);
}

void CGroupLayout::seal() {
  if (count_ == 0) {
    throw std::invalid_argument("CGroupLayout: need at least one c-group");
  }
  core_group_.assign(total_cores_, npos);
  // Rung indices order groups only within one core type (each cluster
  // has its own ladder); across types the planner's global effective-
  // speed order decides. Homogeneous layouts (all core_type 0) keep the
  // historical strictly-increasing-freq_index contract verbatim.
  for (std::size_t g = 0; g < count_; ++g) {
    // The previous group of the same type is the one to beat.
    for (std::size_t h = g; h-- > 0;) {
      if (groups_[h].core_type != groups_[g].core_type) continue;
      if (groups_[g].freq_index <= groups_[h].freq_index) {
        throw std::invalid_argument(
            "CGroupLayout: groups must be ordered fastest-first with "
            "strictly increasing freq_index");
      }
      break;
    }
    for (std::size_t c : groups_[g].cores) {
      if (c >= total_cores_) {
        throw std::invalid_argument("CGroupLayout: core id out of range");
      }
      if (core_group_[c] != npos) {
        throw std::invalid_argument("CGroupLayout: core in two groups");
      }
      core_group_[c] = g;
    }
  }
  for (std::size_t k = 0; k < class_to_group_.size(); ++k) {
    if (class_to_group_[k] >= count_) {
      throw std::invalid_argument("CGroupLayout: class mapped to no group");
    }
  }
}

std::size_t CGroupLayout::group_of_core(std::size_t c) const {
  const std::size_t g = core_group_.at(c);
  if (g == npos) {
    throw std::out_of_range("CGroupLayout: core not in any c-group");
  }
  return g;
}

bool CGroupLayout::core_assigned(std::size_t c) const {
  return c < core_group_.size() && core_group_[c] != npos;
}

std::vector<std::size_t> CGroupLayout::cores_per_rung(
    std::size_t ladder_size) const {
  std::vector<std::size_t> counts(ladder_size, 0);
  for (const auto& g : groups()) {
    counts.at(g.freq_index) += g.cores.size();
  }
  return counts;
}

void CGroupLayout::assign_uniform(std::size_t cores, std::size_t classes,
                                  std::size_t freq_index) {
  reset(cores, classes);
  CGroup& g = add_group(freq_index);
  g.cores.resize(cores);
  std::iota(g.cores.begin(), g.cores.end(), 0);
  seal();
}

CGroupLayout CGroupLayout::uniform(std::size_t cores, std::size_t classes,
                                   std::size_t freq_index) {
  CGroupLayout layout;
  layout.assign_uniform(cores, classes, freq_index);
  return layout;
}

std::string CGroupLayout::to_string() const {
  std::string out;
  for (std::size_t g = 0; g < count_; ++g) {
    if (g) out += ' ';
    out += "G" + std::to_string(g) + "@";
    if (groups_[g].core_type != 0) {
      out += "T" + std::to_string(groups_[g].core_type);
    }
    out += "F" + std::to_string(groups_[g].freq_index) + ":{";
    for (std::size_t i = 0; i < groups_[g].cores.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(groups_[g].cores[i]);
    }
    out += '}';
  }
  return out;
}

}  // namespace eewa::dvfs
