// Energy bookkeeping: integrates the power model over per-core
// (time-at-rung, activity) segments. The simulator feeds it exact
// segments; the runtime's ModelMeter feeds it segments reconstructed from
// the DVFS trace.
#pragma once

#include <cstddef>
#include <vector>

#include "energy/power_model.hpp"

namespace eewa::energy {

/// Accumulates joules and residency from core activity segments.
class EnergyAccount {
 public:
  /// `model` charges every core and provides the machine floor. On
  /// heterogeneous machines pass `core_models` (one per core, each
  /// outliving the account): core c then charges under *core_models[c]
  /// — its own cluster's ladder and power curve — while `model` still
  /// provides the floor and the default rung axis. Empty = homogeneous.
  EnergyAccount(const PowerModel& model, std::size_t cores,
                std::vector<const PowerModel*> core_models = {});

  /// Charge `dt` seconds of core `core` at ladder rung `rung` (of that
  /// core's own ladder), active (executing/spinning) or halted.
  void add_core_time(std::size_t core, double dt, std::size_t rung,
                     bool active);

  /// Charge a one-off energy cost (e.g. DVFS transition energy).
  void add_extra_joules(double j) { extra_j_ += j; }

  /// Set the wall-clock span over which the machine floor draws power.
  void set_makespan(double seconds) { makespan_s_ = seconds; }
  double makespan_s() const { return makespan_s_; }

  /// Joules from the cores only (dynamic + per-core static + extras).
  double core_joules() const { return core_j_ + extra_j_; }

  /// Whole-machine joules: cores + floor · makespan.
  double total_joules() const;

  /// Seconds core `core` spent at rung `rung` (any activity). The rung
  /// axis spans the largest per-core ladder; rungs a core's own ladder
  /// lacks simply read 0.
  double residency_s(std::size_t core, std::size_t rung) const;

  /// Seconds at rung `rung` summed over all cores.
  double rung_residency_s(std::size_t rung) const;

  /// Seconds of active time summed over all cores.
  double active_s() const { return active_s_; }

  /// Seconds of halted time summed over all cores.
  double halted_s() const { return halted_s_; }

  std::size_t core_count() const { return cores_; }
  const PowerModel& model() const { return model_; }

  /// The model core `c` charges under (the primary model when no
  /// per-core overrides were given).
  const PowerModel& core_model(std::size_t c) const {
    return core_models_.empty() ? model_ : *core_models_.at(c);
  }

 private:
  const PowerModel& model_;
  std::size_t cores_;
  std::vector<const PowerModel*> core_models_;  // empty = homogeneous
  std::size_t stride_;             // rung axis = max per-core ladder size
  std::vector<double> residency_;  // cores_ x stride_, row-major
  // core_power_w of core c's own model at (rung, active), precomputed:
  // power_[(c * stride_ + rung) * 2 + active]. rungs_[c] is core c's
  // ladder size (rungs at or past it are out of range).
  std::vector<double> power_;
  std::vector<std::size_t> rungs_;
  double core_j_ = 0.0;
  double extra_j_ = 0.0;
  double active_s_ = 0.0;
  double halted_s_ = 0.0;
  double makespan_s_ = 0.0;
};

}  // namespace eewa::energy
