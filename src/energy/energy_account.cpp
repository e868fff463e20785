#include "energy/energy_account.hpp"

#include <algorithm>
#include <stdexcept>

namespace eewa::energy {

namespace {

std::size_t rung_axis(const PowerModel& model,
                      const std::vector<const PowerModel*>& core_models) {
  std::size_t n = model.ladder().size();
  for (const PowerModel* m : core_models) {
    if (m == nullptr) {
      throw std::invalid_argument("EnergyAccount: null per-core model");
    }
    n = std::max(n, m->ladder().size());
  }
  return n;
}

}  // namespace

EnergyAccount::EnergyAccount(const PowerModel& model, std::size_t cores,
                             std::vector<const PowerModel*> core_models)
    : model_(model),
      cores_(cores),
      core_models_(std::move(core_models)),
      stride_(rung_axis(model, core_models_)),
      residency_(cores * stride_, 0.0) {
  if (cores == 0) {
    throw std::invalid_argument("EnergyAccount: need at least one core");
  }
  if (!core_models_.empty() && core_models_.size() != cores_) {
    throw std::invalid_argument(
        "EnergyAccount: per-core model count does not match cores");
  }
  power_.assign(cores_ * stride_ * 2, 0.0);
  rungs_.resize(cores_);
  for (std::size_t c = 0; c < cores_; ++c) {
    const PowerModel& pm = core_model(c);
    rungs_[c] = pm.ladder().size();
    for (std::size_t j = 0; j < rungs_[c]; ++j) {
      power_[(c * stride_ + j) * 2] = pm.core_power_w(j, /*active=*/false);
      power_[(c * stride_ + j) * 2 + 1] = pm.core_power_w(j, /*active=*/true);
    }
  }
}

void EnergyAccount::add_core_time(std::size_t core, double dt,
                                  std::size_t rung, bool active) {
  if (dt < 0.0) {
    throw std::invalid_argument("EnergyAccount: negative time segment");
  }
  if (core >= cores_ || rung >= rungs_[core]) {
    throw std::out_of_range("EnergyAccount: core or rung out of range");
  }
  const std::size_t cell = core * stride_ + rung;
  residency_[cell] += dt;
  core_j_ += power_[cell * 2 + (active ? 1 : 0)] * dt;
  (active ? active_s_ : halted_s_) += dt;
}

double EnergyAccount::total_joules() const {
  return core_joules() + model_.floor_w() * makespan_s_;
}

double EnergyAccount::residency_s(std::size_t core, std::size_t rung) const {
  return residency_.at(core * stride_ + rung);
}

double EnergyAccount::rung_residency_s(std::size_t rung) const {
  double sum = 0.0;
  for (std::size_t c = 0; c < cores_; ++c) sum += residency_s(c, rung);
  return sum;
}

}  // namespace eewa::energy
