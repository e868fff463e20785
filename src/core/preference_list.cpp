#include "core/preference_list.hpp"

#include <stdexcept>

namespace eewa::core {

namespace {

/// Fill `order` with the steal order of group `own` of `u` (own < u).
void fill_preference_list(std::size_t own, std::size_t u,
                          std::vector<std::size_t>& order) {
  order.clear();
  order.reserve(u);
  for (std::size_t g = own; g < u; ++g) order.push_back(g);
  for (std::size_t g = own; g-- > 0;) order.push_back(g);
}

}  // namespace

std::vector<std::size_t> preference_list(std::size_t own, std::size_t u) {
  if (own >= u) {
    throw std::invalid_argument("preference_list: group out of range");
  }
  std::vector<std::size_t> order;
  fill_preference_list(own, u, order);
  return order;
}

void PreferenceTable::reserve(std::size_t groups) {
  if (lists_.size() < groups) lists_.resize(groups);
  for (auto& list : lists_) list.reserve(groups);
}

void PreferenceTable::rebuild(const dvfs::CGroupLayout& layout) {
  const std::size_t u = layout.group_count();
  if (lists_.size() < u) lists_.resize(u);
  for (std::size_t g = 0; g < u; ++g) fill_preference_list(g, u, lists_[g]);
  count_ = u;
}

void PreferenceTable::throw_out_of_range() {
  throw std::out_of_range("PreferenceTable: group out of range");
}

}  // namespace eewa::core
