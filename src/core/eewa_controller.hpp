// The EEWA batch state machine (paper Fig. 2):
//
//   batch 0: all cores at F_0; profile tasks; makespan becomes the ideal
//            iteration time T; cache-miss counters feed the CPU/memory-
//            bound gate.
//   batch d (d >= 1): at the end of batch d-1 the workload-aware
//            frequency adjuster produced a plan; cores run at the plan's
//            rungs, task classes go to their c-groups, idle cores steal
//            by preference list. Profiling continues so each batch's end
//            replans for the next.
//
// The controller is the single integration point shared by the real
// thread runtime and the simulator, and the only planning loop: the
// runtime's service mode runs one per service through replan() and
// apply_supervised() on its planner thread. It is not thread-safe:
// producers aggregate observations and feed them from one thread (the
// runtime merges per-worker profiles at the batch barrier; the service
// planner owns its controller; the simulator is single-threaded by
// construction).
#pragma once

#include <cstddef>
#include <string_view>

#include <vector>

#include "core/actuation.hpp"
#include "core/adjuster.hpp"
#include "core/classifier.hpp"
#include "core/frequency_plan.hpp"
#include "core/preference_list.hpp"
#include "core/task_class.hpp"
#include "dvfs/dvfs_backend.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "obs/tracer.hpp"

namespace eewa::core {

/// How the ideal iteration time T evolves.
enum class IdealTimeMode {
  /// The paper's rule: T is the first batch's makespan, forever.
  kFirstBatch,
  /// Extension: T ratchets down to the best makespan seen so far — a
  /// batch that finished faster proves the tighter target feasible, so
  /// an unluckily slow measurement batch cannot inflate T permanently.
  kRollingMin,
};

/// Batch watchdog thresholds. The watchdog tracks consecutive actuation
/// failures, makespan blowups versus the ideal time T, and task
/// exceptions; past a threshold it trips a degraded mode — all cores
/// forced to F0 with plain work-stealing, the same safe configuration
/// as the §IV-D memory gate — instead of keeping a plan the hardware
/// demonstrably cannot run.
struct WatchdogOptions {
  bool enabled = true;
  /// Consecutive batches with >= 1 core missing its rung before degrade.
  std::size_t max_consecutive_actuation_failures = 3;
  /// A batch slower than blowup_factor * T counts as a blowup strike.
  double makespan_blowup_factor = 4.0;
  std::size_t max_consecutive_blowups = 3;
  /// Cumulative task exceptions before degrade.
  std::size_t max_task_exceptions = 64;
  /// Consecutive per-core actuation failures before the core is
  /// reported stuck in HealthReport.
  std::size_t stuck_core_threshold = 2;
};

/// Controller configuration.
struct ControllerOptions {
  AdjusterOptions adjuster;
  IdealTimeMode ideal_time = IdealTimeMode::kFirstBatch;
  /// §IV-D gate: when most of a batch's tasks are memory-bound, keep
  /// plain work-stealing at F0. The verdict is re-evaluated every batch
  /// (counters are cheap and phases change): a contrary verdict must
  /// persist memory_gate_hysteresis consecutive batches before the mode
  /// flips, so one noisy batch cannot bounce the gate.
  bool memory_gate_enabled = true;
  double task_cmi_threshold = 0.01;
  double app_memory_fraction = 0.5;
  std::size_t memory_gate_hysteresis = 2;
  /// Retry/backoff policy for apply_supervised().
  ActuationOptions actuation;
  WatchdogOptions watchdog;
  /// Skip the Algorithm 1 backtracking search and keep the previous
  /// k-tuple when the workload profile is statistically unchanged: same
  /// set of active classes, every class's mean and max workload within
  /// plan_reuse_tolerance (relative) of the values the current plan was
  /// searched from, and the ideal time T unmoved. The search is a pure
  /// function of (profile, T), so an unchanged profile would reproduce
  /// the same plan anyway — reuse only cuts the end-of-batch overhead.
  bool plan_reuse_enabled = true;
  double plan_reuse_tolerance = 0.01;
  /// When full reuse fails but a prefix of the CC column order is still
  /// statistically unchanged (same classes in the same sorted positions,
  /// mean/max drift within plan_reuse_tolerance), keep that prefix's
  /// rungs verbatim and re-search only the suffix
  /// (Adjuster::adjust_incremental). Any order change — a drifted class
  /// merging into another c-group, a new class, a vanished class — cuts
  /// the stable prefix at that point, so the cached suffix beyond it is
  /// discarded rather than trusted.
  bool incremental_replan_enabled = true;
};

/// Drives EEWA across batches.
class EewaController {
 public:
  EewaController(dvfs::FrequencyLadder ladder, std::size_t total_cores,
                 ControllerOptions options = {});

  /// Intern a task-class (function) name; ids are stable for the run.
  std::size_t class_id(std::string_view name) {
    return registry_.intern(name);
  }

  /// Begin the next batch (clears per-iteration profile counts).
  void begin_batch();

  /// Record one completed task: its class, measured execution time, and
  /// the ladder rung of the core that executed it (for Eq. 1
  /// normalization). `cmi` is the cache-miss intensity when available;
  /// `alpha` the memory-stall fraction estimate (0 when unknown — pass
  /// estimate_alpha_from_cmi(cmi) when only counters are available).
  /// On heterogeneous machines (AdjusterOptions::topology set),
  /// `core_type` names the executing core's cluster so normalization
  /// uses that type's effective slowdown at `rung`.
  void record_task(std::size_t class_id, double exec_time_s,
                   std::size_t rung, double cmi = 0.0, double alpha = 0.0,
                   std::size_t core_type = 0);

  /// End the batch that just ran (its makespan in seconds) and compute
  /// the plan for the next batch. Returns that plan.
  const FrequencyPlan& end_batch(double batch_makespan_s);

  /// Plan from `profile` (sorted by mean workload descending, the CC
  /// column order) against ideal time `ideal_time_s`, for `class_count`
  /// classes. Keeps the current plan when the profile is statistically
  /// unchanged since its search (plan reuse), re-searches only the
  /// drifted suffix when a prefix of the class order is stable
  /// (incremental re-planning), and searches in full otherwise; an
  /// empty profile yields the uniform F0 plan. Updates plan(),
  /// preferences() and the plan basis, and actuates nothing.
  /// end_batch() calls it with the batch profile and T; the runtime's
  /// service planner calls it every epoch with its sliding window.
  /// Returns true when a search ran.
  bool replan(const std::vector<ClassProfile>& profile,
              std::size_t class_count, double ideal_time_s);

  /// The plan the *next* batch should run under.
  const FrequencyPlan& plan() const { return plan_; }

  /// Preference lists matching plan().layout.
  const PreferenceTable& preferences() const { return prefs_; }

  /// C-group the given class's tasks should be pushed to under plan().
  /// Unknown/unplanned classes go to the fastest group (0).
  std::size_t group_of_class(std::size_t class_id) const;

  /// Apply plan() to a DVFS backend; returns cores successfully set.
  /// Raw fire-and-forget path — prefer apply_supervised() anywhere the
  /// writes can fail.
  std::size_t apply(dvfs::DvfsBackend& backend) const;

  /// Fault-tolerant actuation of plan(): retry each core's write with
  /// exponential backoff, read back achieved rungs, and on failure
  /// reconcile the plan (cores regroup by achieved rung, classes and
  /// preference lists follow) so profiling normalization and stealing
  /// order stay consistent with reality. Feeds the watchdog: enough
  /// consecutive failed actuations trip degraded mode.
  const ActuationOutcome& apply_supervised(dvfs::DvfsBackend& backend);

  /// Report task exceptions observed in the running batch; enough of
  /// them trip the watchdog into degraded mode.
  void note_task_failures(std::size_t count);

  /// Trip degraded mode now: plan() becomes the uniform all-F0 plan,
  /// which end_batch() keeps for the rest of the run (a caller of
  /// replan() checks degraded() itself). With a backend, the safe
  /// configuration is pushed to it (supervised, counted in health()
  /// writes/retries/write_failures) and the plan is reconciled around
  /// any core that still cannot switch, so plan() then describes the
  /// rungs the push reached.
  void degrade(dvfs::DvfsBackend* backend);

  /// Fault-tolerance counters (retries, reconciliations, degradations).
  const HealthReport& health() const { return health_; }

  /// Outcome of the most recent apply_supervised().
  const ActuationOutcome& last_actuation() const { return last_outcome_; }

  /// True when the watchdog tripped: all cores forced to F0, plain
  /// work-stealing (the §IV-D memory-gate configuration) until the run
  /// ends.
  bool degraded() const { return degraded_; }

  /// Ideal iteration time T (0 until the first batch completes).
  double ideal_time_s() const { return ideal_time_s_; }

  /// Number of completed batches.
  std::size_t batches_completed() const { return batches_; }

  /// True when the §IV-D gate is tripped: EEWA runs plain work-stealing
  /// at F0. Re-evaluated every batch (with hysteresis), so a workload
  /// whose memory-bound phase ends resumes planning.
  bool memory_bound_mode() const { return memory_bound_mode_; }

  /// Times the §IV-D gate changed its verdict after batch 0 (a phase
  /// change survived the hysteresis window in either direction).
  std::size_t memory_gate_flips() const { return gate_flips_; }

  /// Diagnostics from the most recent adjustment.
  const SearchResult& last_search() const { return last_.search; }
  const Adjustment& last_adjustment() const { return last_; }

  /// Batches whose plan was reused without re-running the search
  /// (profile drift below plan_reuse_tolerance).
  std::size_t plans_reused() const { return plans_reused_; }

  /// Batches re-planned incrementally: a stable prefix of the class
  /// order kept its rungs and only the suffix was re-searched.
  std::size_t plans_incremental() const { return plans_incremental_; }

  /// Total microseconds spent in the adjuster so far (Table III metric).
  double adjust_overhead_us() const { return overhead_us_; }

  /// Attach an event tracer; controller phases (plan, k-tuple search,
  /// actuation, reconciliation) are emitted on `control_track`. Pass
  /// nullptr to detach. Timestamps come from the tracer's own clock, so
  /// only attach from hosts living on the same timeline as the other
  /// tracks (the real runtime — never the simulator, whose tracks carry
  /// simulated time).
  void set_tracer(obs::EventTracer* tracer, std::size_t control_track) {
    tracer_ = tracer;
    control_track_ = control_track;
  }

  const dvfs::FrequencyLadder& ladder() const { return adjuster_.ladder(); }
  std::size_t total_cores() const { return adjuster_.total_cores(); }
  const TaskClassRegistry& registry() const { return registry_; }

 private:
  bool plan_reusable_for(const std::vector<ClassProfile>& profile,
                         double ideal_time_s) const;
  /// Longest prefix of `profile` whose classes sit in the same sorted
  /// positions as the plan basis with mean/max drift within tolerance.
  /// 0 when there is no basis tuple or T moved.
  std::size_t stable_prefix_len(const std::vector<ClassProfile>& profile,
                                double ideal_time_s) const;
  void save_plan_basis(const std::vector<ClassProfile>& profile,
                       std::size_t class_count, double ideal_time_s);

  Adjuster adjuster_;
  ControllerOptions options_;
  TaskClassRegistry registry_;
  BoundednessClassifier classifier_;
  FrequencyPlan plan_;
  PreferenceTable prefs_;
  Adjustment last_;
  // Reused every batch: the batch profile end_batch plans from and the
  // stable prefix a suffix re-plan pins.
  std::vector<ClassProfile> profile_;
  std::vector<std::size_t> prefix_;
  double ideal_time_s_ = 0.0;
  std::size_t batches_ = 0;
  bool memory_bound_mode_ = false;
  std::size_t gate_contrary_streak_ = 0;
  std::size_t gate_flips_ = 0;
  double overhead_us_ = 0.0;
  obs::EventTracer* tracer_ = nullptr;
  std::size_t control_track_ = 0;

  // Plan-reuse state: the per-class mean and max workloads (by class
  // id; NaN = inactive), the sorted class order and k-tuple the current
  // plan was searched from, and the ideal time at that search.
  // Invalidated whenever the plan stops matching its search inputs
  // (reconciliation, degrade, memory gate).
  std::vector<double> plan_basis_means_;
  std::vector<double> plan_basis_max_;
  std::vector<std::size_t> plan_basis_order_;  ///< class ids, CC column order
  std::vector<std::size_t> plan_basis_tuple_;  ///< empty when search failed
  double plan_basis_ideal_s_ = 0.0;
  bool plan_basis_valid_ = false;
  std::size_t plans_reused_ = 0;
  std::size_t plans_incremental_ = 0;

  // Fault-tolerance state.
  ActuationOutcome last_outcome_;
  HealthReport health_;
  std::vector<std::size_t> core_failure_streak_;
  std::size_t consecutive_actuation_failures_ = 0;
  std::size_t consecutive_blowups_ = 0;
  bool degraded_ = false;
};

}  // namespace eewa::core
