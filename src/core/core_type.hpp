// Heterogeneous machine description: a machine is a list of typed core
// groups (big.LITTLE clusters, mixed x86/ARM parts), each with its own
// frequency ladder, per-rung MIPS scale and optional power model.
//
// The planner consumes the topology through its *flattened rows*: every
// (type, rung) pair, sorted by descending effective speed
// (ghz · mips_scale). Row 0 is the globally fastest operating point; all
// workloads are normalized to it, so `row_slowdown(j)` generalizes the
// homogeneous ladder's F0/Fj and the CC table's per-row effective
// slowdown becomes `alpha + (1 - alpha) * row_slowdown(j)`.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dvfs/frequency_ladder.hpp"
#include "energy/power_model.hpp"

namespace eewa::core {

/// One homogeneous cluster of cores inside a heterogeneous machine.
struct CoreType {
  std::string name;
  dvfs::FrequencyLadder ladder = dvfs::FrequencyLadder({1.0});
  /// Per-rung throughput multiplier relative to a 1-GHz reference core
  /// (parallel to the ladder). Effective speed at rung j is
  /// `ladder.ghz(j) * mips_scale[j]`; a LITTLE core with mips_scale < 1
  /// does less work per cycle than a big core at the same frequency.
  std::vector<double> mips_scale;
  /// Optional per-core power model (ladder-parallel). Either every type
  /// in a topology has one or none does.
  std::shared_ptr<const energy::PowerModel> model;
  /// Number of cores of this type in the machine.
  std::size_t count = 0;
};

/// An immutable machine made of typed core groups. Core ids are
/// contiguous per type, in declaration order: type 0 owns
/// [0, count_0), type 1 owns [count_0, count_0 + count_1), and so on.
class MachineTopology {
 public:
  /// Validates and flattens. Throws std::invalid_argument when: there
  /// are no types; a type has zero cores, an empty/mismatched
  /// mips_scale, or a non-positive scale; a type's effective speed is
  /// not strictly decreasing across its rungs; some types carry power
  /// models and others do not; or a model's ladder size differs from
  /// its type's.
  explicit MachineTopology(std::vector<CoreType> types);

  std::size_t type_count() const { return types_.size(); }
  const CoreType& type(std::size_t t) const { return types_.at(t); }
  std::size_t total_cores() const { return total_cores_; }

  /// Type owning core id `core`.
  std::size_t type_of_core(std::size_t core) const;

  /// First core id of type t (cores of a type are contiguous).
  std::size_t first_core(std::size_t t) const { return first_core_.at(t); }

  // ---- Flattened (type, rung) rows, descending effective speed ----

  /// Number of rows = Σ_t ladder_t.size().
  std::size_t row_count() const { return row_type_.size(); }
  std::size_t row_type(std::size_t row) const { return row_type_.at(row); }
  std::size_t row_rung(std::size_t row) const { return row_rung_.at(row); }

  /// Effective speed of a row: ghz(rung) · mips_scale[rung].
  double row_speed(std::size_t row) const { return row_speed_.at(row); }

  /// Generalized F0/Fj: row_speed(0) / row_speed(row) (>= 1).
  double row_slowdown(std::size_t row) const {
    return row_speed_.front() / row_speed_.at(row);
  }

  /// Flattened row of (type t, rung j).
  std::size_t row_of(std::size_t t, std::size_t rung) const;

  /// Row of type t's slowest rung (its largest row index).
  std::size_t slowest_row_of_type(std::size_t t) const;

  /// Slowdown of core `core` running at its type's rung `rung`,
  /// relative to the globally fastest row.
  double core_slowdown(std::size_t core, std::size_t rung) const {
    return row_slowdown(row_of(type_of_core(core), rung));
  }

  /// Relative speed of core `core` at rung `rung` vs the fastest row.
  double core_relative_speed(std::size_t core, std::size_t rung) const {
    return 1.0 / core_slowdown(core, rung);
  }

  /// Largest per-type ladder size.
  std::size_t max_rungs() const;

  /// True when every type has the same number of rungs (required by
  /// sim::Machine, whose per-core rung state is ladder-indexed).
  bool uniform_rung_count() const;

  /// True when every type carries a power model (all-or-none invariant).
  bool has_power_models() const { return types_.front().model != nullptr; }

  /// Active power of one core on `row`. With models: the type model's
  /// core_power_w(rung, true). Without: a cubic proxy
  /// (row_speed(row)/row_speed(0))^3 in arbitrary units — same family
  /// as the homogeneous search proxy, comparable across types only
  /// through the shared speed reference.
  double row_active_w(std::size_t row) const;

  /// Idle (halted) power of one core on `row`; proxy topologies fall
  /// back to active power (spinning, as the homogeneous proxy assumes).
  double row_idle_w(std::size_t row) const;

  /// Power of a leftover core parked on `row`: idle when models exist,
  /// active (spinning) under the proxy.
  double row_park_w(std::size_t row) const {
    return has_power_models() ? row_idle_w(row) : row_active_w(row);
  }

  /// "big.LITTLE[4+4]: big 4x[2.5, 1.8, 1.3, 0.8] GHz ..." summary.
  std::string to_string() const;

  /// 4 Opteron-class big cores (the paper's ladder + server power
  /// model) plus 4 LITTLE cores on a lower ladder with mips_scale 0.6
  /// and an embedded-class power model. Uniform 4-rung ladders, so it
  /// drops straight into sim::Machine.
  static MachineTopology big_little();

  /// Homogeneous topology wrapping one type (mips_scale = 1) — the
  /// degenerate case the typed planner must agree with build() on.
  static MachineTopology homogeneous(std::string name,
                                     dvfs::FrequencyLadder ladder,
                                     std::size_t cores,
                                     std::shared_ptr<const energy::PowerModel>
                                         model = nullptr);

 private:
  std::vector<CoreType> types_;
  std::vector<std::size_t> first_core_;
  std::size_t total_cores_ = 0;
  std::vector<std::size_t> row_type_;
  std::vector<std::size_t> row_rung_;
  std::vector<double> row_speed_;
  // row_of_[t][j] = flattened row of (t, j).
  std::vector<std::vector<std::size_t>> row_of_;
};

/// Eq. 1 effective slowdown of a task that ran at `rung` on a core of
/// type `core_type`, relative to the globally fastest operating point.
/// Only the frequency-scaled fraction of its time stretches, so the
/// result is `alpha + (1 - alpha) * slowdown`, where slowdown is
/// `row_slowdown(row_of(core_type, rung))` on a typed machine and
/// `ladder.slowdown(rung)` when `topology` is null. A measured time
/// divided by it is the task's F0-normalized workload.
inline double effective_slowdown(const MachineTopology* topology,
                                 const dvfs::FrequencyLadder& ladder,
                                 std::size_t core_type, std::size_t rung,
                                 double alpha) {
  const double slowdown =
      topology != nullptr
          ? topology->row_slowdown(topology->row_of(core_type, rung))
          : ladder.slowdown(rung);
  return alpha + (1.0 - alpha) * slowdown;
}

}  // namespace eewa::core
