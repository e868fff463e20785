#include "runtime/service.hpp"

#include <algorithm>

namespace eewa::rt {

AdmissionController::AdmissionController(AdmissionPolicy policy,
                                         std::vector<std::size_t> class_sla,
                                         std::size_t high_watermark,
                                         std::size_t queue_capacity)
    : policy_(policy),
      class_sla_(std::move(class_sla)),
      high_watermark_(high_watermark),
      queue_capacity_(std::max(queue_capacity, high_watermark + 1)) {
  for (std::size_t sla : class_sla_) max_sla_ = std::max(max_sla_, sla);
}

std::size_t AdmissionController::shed_threshold(std::size_t sla) const {
  if (sla == 0) return kNeverShed;
  if (max_sla_ == 0) return kNeverShed;
  // The lowest tier sheds exactly at the high watermark; each better
  // tier gets an equal extra share of the remaining headroom, so gold
  // traffic keeps flowing while bronze is already being dropped.
  const std::size_t spread = queue_capacity_ > high_watermark_
                                 ? queue_capacity_ - high_watermark_
                                 : 0;
  const std::size_t tier = std::min(sla, max_sla_);
  return high_watermark_ + (max_sla_ - tier) * spread / max_sla_;
}

AdmissionController::Decision AdmissionController::decide(
    std::size_t class_id, std::size_t depth) const {
  switch (policy_) {
    case AdmissionPolicy::kBlock:
      // Backpressure happens at the ring boundary (submit()); once a
      // task is in, it is dispatched.
      return Decision::kAdmit;
    case AdmissionPolicy::kShedLowestSla:
      return depth >= shed_threshold(sla_of(class_id)) ? Decision::kShed
                                                       : Decision::kAdmit;
    case AdmissionPolicy::kShedOldest:
      return depth >= high_watermark_ ? Decision::kEvictOldest
                                      : Decision::kAdmit;
  }
  return Decision::kAdmit;
}

SlidingProfile::SlidingProfile(std::size_t window_epochs,
                               std::size_t classes)
    : window_(std::max<std::size_t>(window_epochs, 1)), per_class_(classes) {
  cells_.assign(window_ * per_class_, {});
}

void SlidingProfile::ensure_classes(std::size_t classes) {
  if (classes <= per_class_) return;
  std::vector<Cell> grown(window_ * classes);
  for (std::size_t b = 0; b < window_; ++b) {
    for (std::size_t c = 0; c < per_class_; ++c) {
      grown[b * classes + c] = cells_[b * per_class_ + c];
    }
  }
  cells_ = std::move(grown);
  per_class_ = classes;
}

void SlidingProfile::record(std::size_t class_id, double norm_w,
                            double alpha) {
  if (class_id >= per_class_) ensure_classes(class_id + 1);
  Cell& cell = cells_[head_ * per_class_ + class_id];
  cell.count += 1;
  cell.sum_w += norm_w;
  cell.max_w = std::max(cell.max_w, norm_w);
  cell.sum_alpha += alpha;
}

void SlidingProfile::rotate() {
  head_ = (head_ + 1) % window_;
  filled_ = std::min(filled_ + 1, window_);
  // The bucket we are reusing ages out of the window.
  std::fill(cells_.begin() + static_cast<std::ptrdiff_t>(head_ * per_class_),
            cells_.begin() +
                static_cast<std::ptrdiff_t>((head_ + 1) * per_class_),
            Cell{});
}

std::vector<core::ClassProfile> SlidingProfile::profile() const {
  std::vector<core::ClassProfile> out;
  for (std::size_t c = 0; c < per_class_; ++c) {
    std::uint64_t count = 0;
    double sum_w = 0.0;
    double max_w = 0.0;
    double sum_alpha = 0.0;
    for (std::size_t b = 0; b < window_; ++b) {
      const Cell& cell = cells_[b * per_class_ + c];
      count += cell.count;
      sum_w += cell.sum_w;
      max_w = std::max(max_w, cell.max_w);
      sum_alpha += cell.sum_alpha;
    }
    if (count == 0) continue;
    core::ClassProfile p;
    p.class_id = c;
    p.name = "c" + std::to_string(c);
    p.count = count;
    p.mean_workload = sum_w / static_cast<double>(count);
    p.max_workload = max_w;
    p.mean_alpha = sum_alpha / static_cast<double>(count);
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const core::ClassProfile& a, const core::ClassProfile& b) {
              if (a.mean_workload != b.mean_workload) {
                return a.mean_workload > b.mean_workload;
              }
              return a.class_id < b.class_id;
            });
  return out;
}

}  // namespace eewa::rt
