// The four schedulers of the paper's evaluation, as simulator policies:
//
//  - CilkPolicy:  classic random work-stealing, every core at a fixed
//                 frequency (F0 by default, or a caller-supplied
//                 asymmetric configuration for the Fig. 7 experiment).
//  - CilkDPolicy: Cilk + the "D" energy tweak: a core that finds every
//                 pool empty scales itself to the lowest frequency; all
//                 cores are restored to F0 at the next batch.
//  - WatsPolicy:  workload-aware stealing on a *fixed* asymmetric
//                 configuration (rob-the-weaker-first preference lists,
//                 heavy classes allocated to fast c-groups), no DVFS.
//  - EewaPolicy:  the paper's contribution — wraps core::EewaController:
//                 measurement batch at F0, then per-batch frequency plans
//                 plus preference-based stealing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/eewa_controller.hpp"
#include "core/preference_list.hpp"
#include "core/task_class.hpp"
#include "sim/machine.hpp"
#include "util/tournament_tree.hpp"

namespace eewa::sim {

/// Task-sharing (the OpenMP-style alternative the paper's §I contrasts
/// with stealing): one central queue; every acquisition pays a lock
/// cost that grows with the number of cores contending for it. All
/// cores stay at F0.
class SharingPolicy : public Policy {
 public:
  /// `lock_base_s`: uncontended pop cost; the effective cost scales
  /// with the machine size (coarse contention model).
  explicit SharingPolicy(double lock_base_s = 1e-6)
      : lock_base_s_(lock_base_s) {}

  std::string name() const override { return "sharing"; }
  void batch_start(Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override;
  void place_task(Machine& m, TaskId id) override;
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override;
  void task_done(Machine& m, std::size_t core, const trace::TraceTask& task,
                 double exec_s) override;
  double batch_end(Machine& m, double makespan_s) override;

 private:
  double lock_base_s_;
};

/// Plain random work-stealing at fixed frequencies.
class CilkPolicy : public Policy {
 public:
  /// All cores at F0.
  CilkPolicy() = default;

  /// Fixed per-core rungs (the Fig. 7 asymmetric configuration).
  explicit CilkPolicy(std::vector<std::size_t> fixed_rungs);

  std::string name() const override { return "cilk"; }
  void batch_start(Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override;
  void place_task(Machine& m, TaskId id) override;
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override;
  void task_done(Machine& m, std::size_t core, const trace::TraceTask& task,
                 double exec_s) override;
  double batch_end(Machine& m, double makespan_s) override;

 private:
  std::vector<std::size_t> fixed_rungs_;  // empty = all F0
};

/// Cilk with idle cores self-scaling to the lowest frequency.
class CilkDPolicy : public Policy {
 public:
  std::string name() const override { return "cilk-d"; }
  void batch_start(Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override;
  void place_task(Machine& m, TaskId id) override;
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override;
  void task_done(Machine& m, std::size_t core, const trace::TraceTask& task,
                 double exec_s) override;
  double batch_end(Machine& m, double makespan_s) override;
};

/// A per-core reactive governor baseline (Linux "ondemand"-style, the
/// scheduler-oblivious alternative): random stealing like Cilk, but an
/// idle core steps one rung down per failed sweep and jumps straight
/// back to F0 when it gets work. Sits between Cilk-D (one big drop) and
/// EEWA (planned) in sophistication.
class OndemandPolicy : public Policy {
 public:
  std::string name() const override { return "ondemand"; }
  void batch_start(Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override;
  void place_task(Machine& m, TaskId id) override;
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override;
  void task_done(Machine& m, std::size_t core, const trace::TraceTask& task,
                 double exec_s) override;
  double batch_end(Machine& m, double makespan_s) override;
};

/// Workload-aware task stealing (WATS) on a fixed asymmetric machine.
class WatsPolicy : public Policy {
 public:
  /// `core_rungs[c]` is the fixed ladder rung of core c; `class_names`
  /// are the trace's class names (profiling identity).
  WatsPolicy(std::vector<std::size_t> core_rungs,
             std::vector<std::string> class_names);

  std::string name() const override { return "wats"; }
  void batch_start(Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override;
  void place_task(Machine& m, TaskId id) override;
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override;
  void task_done(Machine& m, std::size_t core, const trace::TraceTask& task,
                 double exec_s) override;
  double batch_end(Machine& m, double makespan_s) override;

 private:
  void build_groups(const Machine& m);

  std::vector<std::size_t> core_rungs_;
  std::vector<std::string> class_names_;
  core::TaskClassRegistry registry_;
  std::vector<std::size_t> class_ids_;  // trace class -> registry id

  // Fixed c-group structure (built once). On typed machines groups are
  // keyed per (core type, rung) — clusters own independent ladders — and
  // ordered by the topology's global effective-speed rows.
  std::vector<std::vector<std::size_t>> group_cores_;  // fastest first
  std::vector<std::size_t> group_rung_;
  std::vector<std::size_t> group_type_;
  std::vector<std::size_t> core_group_;
  core::PreferenceTable prefs_ = {};
  bool groups_built_ = false;

  // Allocation computed at each batch end for the next batch.
  std::vector<std::size_t> class_to_group_;
  std::vector<std::size_t> rr_;  // round-robin cursor per group
  bool first_batch_ = true;
};

/// Per-batch, per-core rungs: one row per batch, one entry per core,
/// stored flat and narrow (recording a batch appends to one vector,
/// which grows geometrically, instead of allocating a row).
class RungHistory {
 public:
  /// Batches recorded.
  std::size_t size() const { return width_ == 0 ? 0 : rungs_.size() / width_; }
  bool empty() const { return size() == 0; }

  /// Rungs of batch `b`, one per core (a copy of the row). Throws
  /// std::out_of_range for b >= size().
  std::vector<std::size_t> operator[](std::size_t b) const;

  /// Append a row of `cores` rungs, all 0. Every row has the first
  /// row's width; another width throws std::invalid_argument.
  void add_row(std::size_t cores);

  /// Set core `c`'s rung in the last row. Throws std::out_of_range for
  /// a core outside the row or a rung past 65535.
  void set(std::size_t c, std::size_t rung);

 private:
  std::vector<std::uint16_t> rungs_;
  std::size_t width_ = 0;
};

/// The EEWA scheduler.
class EewaPolicy : public Policy {
 public:
  /// `class_names` are the trace's class names (the "function names"
  /// EEWA groups tasks by).
  explicit EewaPolicy(std::vector<std::string> class_names,
                      core::ControllerOptions options = {});

  std::string name() const override { return "eewa"; }
  void batch_start(Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override;
  void place_task(Machine& m, TaskId id) override;
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override;
  void task_done(Machine& m, std::size_t core, const trace::TraceTask& task,
                 double exec_s) override;
  double batch_end(Machine& m, double makespan_s) override;

  /// The wrapped controller (valid after the first batch_start).
  const core::EewaController& controller() const { return *ctrl_; }

  /// Most frequently applied cores-per-rung configuration across the
  /// run so far (the Fig. 7 "most often used frequency configuration").
  std::vector<std::size_t> modal_rungs(const Machine& m) const;

  /// Per-batch, per-core rungs recorded by the (possibly reconciled)
  /// plan at each batch start.
  const RungHistory& planned_rungs() const { return planned_rungs_; }

  /// Per-batch, per-core rungs the simulated machine actually reached.
  /// Matches planned_rungs() whenever supervised actuation reconciled
  /// the plan to reality.
  const RungHistory& applied_rungs() const { return applied_rungs_; }

 private:
  std::vector<std::string> class_names_;
  core::ControllerOptions options_;
  std::unique_ptr<core::EewaController> ctrl_;
  std::vector<std::size_t> class_ids_;  // trace class -> controller id
  std::vector<std::size_t> core_group_;
  std::vector<std::size_t> rr_;  // round-robin cursor per group
  double overhead_us_seen_ = 0.0;
  RungHistory applied_rungs_;
  RungHistory planned_rungs_;
};

/// Shared helper: push the *released* tasks of `batch` round-robin over
/// all cores into pool group 0 (the classic single-pool distribution);
/// tasks with release_s > 0 arrive later through place_task.
void distribute_round_robin(Machine& m, const trace::Batch& batch);

/// Construct a per-machine scheduling policy by name ("cilk", "cilk-d",
/// "sharing", "ondemand", "eewa"). `class_names` are the trace's class
/// names (only EEWA uses them). Throws std::invalid_argument on an
/// unknown name. simulate_named and the fleet both build through here.
std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const std::vector<std::string>& class_names);

// --- fleet placement tier ---------------------------------------------------
// One tier above the per-machine schedulers: the fleet routes each
// arriving task to a machine, and only then does that machine's Policy
// decide which core runs it. Placements are deterministic by contract
// (no RNG) — fleet runs must be bitwise-reproducible from the seed.

/// What the placement tier sees of one machine at routing time.
struct MachineView {
  bool powered = true;
  std::size_t sleep_state = 0;  ///< ladder index while parked
  /// Committed-plus-staged work per core, in seconds: a proxy for how
  /// long a new task would wait before a core frees up.
  double backlog_s = 0.0;
  /// Latency to first instruction if routed here now (0 when powered).
  double wake_latency_s = 0.0;
};

/// Routes arriving tasks to machines.
///
/// Contract: call `begin_epoch(views)` after every view refresh, then
/// `place` once per arrival and `update(i, views)` whenever the caller
/// mutates views[i] (staging work, starting a wake). `begin_epoch`
/// builds an index that `place` answers from in O(log M) and `update`
/// repairs in O(log M). Ties go to the lowest machine index. Calling
/// `place` on indexed placements without a `begin_epoch` over views of
/// the same size throws std::logic_error.
class FleetPlacement {
 public:
  virtual ~FleetPlacement() = default;
  virtual std::string name() const = 0;
  /// Pick a machine index for a task of `work_s` normalized work.
  /// `views` is kept current by the fleet between calls.
  virtual std::size_t place(double work_s,
                            const std::vector<MachineView>& views) = 0;
  /// Build the O(log M) index over `views`. Call again whenever views
  /// were changed outside update()'s knowledge (the fleet calls it once
  /// per epoch, right after refreshing every view).
  virtual void begin_epoch(const std::vector<MachineView>& views) {
    (void)views;
  }
  /// Repair the index after views[i] changed. No-op for placements
  /// without an index (round-robin never looks at the views).
  virtual void update(std::size_t i, const std::vector<MachineView>& views) {
    (void)i;
    (void)views;
  }
};

/// Baseline: cycle through machines regardless of state — wakes parked
/// machines needlessly and spreads load thin (the anti-consolidation
/// strawman the energy comparison is made against).
class RoundRobinPlacement : public FleetPlacement {
 public:
  std::string name() const override { return "round-robin"; }
  std::size_t place(double work_s,
                    const std::vector<MachineView>& views) override;

 private:
  std::size_t cursor_ = 0;
};

/// Latency-greedy: the machine where the task would start soonest
/// (backlog plus any wake latency), ties to the lowest index.
class LeastLoadedPlacement : public FleetPlacement {
 public:
  std::string name() const override { return "least-loaded"; }
  std::size_t place(double work_s,
                    const std::vector<MachineView>& views) override;
  void begin_epoch(const std::vector<MachineView>& views) override;
  void update(std::size_t i, const std::vector<MachineView>& views) override;

 private:
  /// argmin over backlog + wake latency, ties to the lowest index.
  util::TournamentTree<double, std::less<double>> cost_;
};

/// Energy-greedy pack-and-park: fill the *busiest* powered machine that
/// still has room (keeping the working set dense so idle machines can
/// park and sink down the ladder), wake the shallowest sleeper only
/// when every powered machine is at the fill line, and spill to
/// least-loaded when nothing is parked.
class PackAndParkPlacement : public FleetPlacement {
 public:
  /// `fill_s`: per-core backlog at which a machine counts as full.
  explicit PackAndParkPlacement(double fill_s) : fill_s_(fill_s) {}

  std::string name() const override { return "pack"; }
  std::size_t place(double work_s,
                    const std::vector<MachineView>& views) override;
  void begin_epoch(const std::vector<MachineView>& views) override;
  void update(std::size_t i, const std::vector<MachineView>& views) override;

 private:
  double fill_s_;
  /// argmax backlog over powered machines below the fill line.
  util::TournamentTree<double, std::greater<double>> packable_;
  /// argmin wake latency over parked machines.
  util::TournamentTree<double, std::less<double>> sleepers_;
  /// Spill tier: least-loaded argmin over everything.
  util::TournamentTree<double, std::less<double>> cost_;
};

/// Placement factory: "round-robin", "least-loaded", "pack".
/// `pack_fill_s` parameterizes the pack policy (ignored by the others).
/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<FleetPlacement> make_placement(const std::string& name,
                                               double pack_fill_s);

}  // namespace eewa::sim
