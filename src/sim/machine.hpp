// Discrete-event simulator of a DVFS-capable multi-core machine.
//
// This is the substitute for the paper's 16-core Opteron 8380 testbed
// (see DESIGN.md §2): cores execute trace tasks in
//   exec(f) = work · (alpha + (1 - alpha) · F0/f)
// seconds, idle cores spin (burning full dynamic power at their current
// frequency — the effect the paper's §II example is built on), stealing
// probes and DVFS transitions cost time, and an EnergyAccount integrates
// the PowerModel over everything.
//
// Scheduling decisions are delegated to a Policy (Cilk, Cilk-D, WATS,
// EEWA — see policies.hpp); the machine provides the pools, frequency
// control and clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "core/core_type.hpp"
#include "dvfs/dvfs_backend.hpp"
#include "dvfs/fault_backend.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "dvfs/transition_model.hpp"
#include "energy/energy_account.hpp"
#include "energy/power_model.hpp"
#include "obs/tracer.hpp"
#include "trace/task_trace.hpp"
#include "util/rng.hpp"

namespace eewa::sim {

/// Index of a task within the current batch.
using TaskId = std::size_t;

/// Simulator configuration.
struct SimOptions {
  std::size_t cores = 16;
  energy::PowerModel power = energy::PowerModel::opteron8380_server();
  dvfs::TransitionModel transition{};
  /// Cost of one steal probe (check a victim's deque).
  double steal_attempt_s = 2e-6;
  /// Cores per socket (the paper's server is 4 × quad-core Opteron).
  /// 0 disables topology: every probe costs steal_attempt_s.
  std::size_t cores_per_socket = 0;
  /// Probe-cost multiplier when thief and victim sit on different
  /// sockets (remote cache line transfer).
  double remote_steal_multiplier = 3.0;
  /// Fixed dispatch cost per acquired task.
  double dispatch_overhead_s = 0.5e-6;
  /// Multiplier on the measured end-of-batch adjuster time (models the
  /// paper's slower 2008-era cores when reproducing Table III).
  double adjuster_overhead_scale = 1.0;
  /// When >= 0, charge this fixed per-batch adjuster overhead instead
  /// of the host-measured time: the run becomes bit-exactly
  /// deterministic (the measured default injects microsecond-scale
  /// host-clock noise into the timeline).
  double fixed_adjuster_overhead_s = -1.0;
  /// When true, a core that has given up on finding work halts (mwait)
  /// instead of spinning, drawing PowerModel's halt power. The paper's
  /// runtimes all spin (that is the waste EEWA attacks); this switch
  /// exists for the thrifty-barrier-style ablation.
  bool idle_halt = false;
  /// When false, run_batch does not retain a per-batch BatchStats entry
  /// (the run totals and the EnergyAccount still accumulate). Fleet runs
  /// push millions of tasks through hundreds of thousands of batches;
  /// retaining every BatchStats would dominate memory.
  bool keep_batch_stats = true;
  /// Seeded DVFS actuation faults (transient write failures, stuck
  /// cores, rung drift) applied to request_rung — the deterministic
  /// test hook for the retry/reconcile/degrade ladder. The fault stream
  /// has its own seed so enabling faults does not perturb scheduling
  /// randomness.
  dvfs::FaultSpec faults{};
  std::uint64_t seed = 42;
  /// Heterogeneous machine description (e.g.
  /// core::MachineTopology::big_little()). When set it must cover
  /// exactly `cores` cores and carry a power model on every type; each
  /// core then charges energy under its own cluster's model, task
  /// execution scales by the core's type-relative slowdown, and `power`
  /// only supplies the machine floor and the type-0 ladder that
  /// ladder() keeps advertising (its size must match type 0's).
  std::shared_ptr<const core::MachineTopology> topology;
  /// Optional event tracer. Needs cores + 1 tracks (one per core plus a
  /// control track). All timestamps are *simulated* time converted to
  /// microseconds — never mix a Machine and a wall-clock host (the real
  /// Runtime) in one tracer, the timelines are incommensurable.
  obs::EventTracer* tracer = nullptr;

  const dvfs::FrequencyLadder& ladder() const { return power.ladder(); }
};

/// Per-batch outcome.
struct BatchStats {
  double span_s = 0.0;      ///< barrier-to-barrier work time
  double overhead_s = 0.0;  ///< end-of-batch scheduler overhead
  std::vector<std::size_t> cores_per_rung;  ///< Fig. 8 series
  std::size_t steals = 0;
  std::size_t probes = 0;
  std::size_t transitions = 0;
  double core_energy_j = 0.0;  ///< cores only, this batch
  double energy_j = 0.0;       ///< incl. machine-floor share
};

/// Whole-run outcome.
struct SimResult {
  std::string policy;
  std::string workload;
  double time_s = 0.0;
  double energy_j = 0.0;      ///< whole machine (paper's wall measure)
  double cpu_energy_j = 0.0;  ///< cores only
  std::size_t steals = 0;
  std::size_t probes = 0;
  std::size_t transitions = 0;
  std::vector<BatchStats> batches;
  std::vector<double> rung_residency_s;  ///< core-seconds per rung
};

class Machine;

/// A scheduling policy drives one simulated run. Policies own all
/// cross-batch state (profiles, controllers, plans).
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Configure pools, distribute the batch's *already released* tasks
  /// (release_s == 0), and set core frequencies for the coming batch
  /// (via Machine::configure_pools, push_task, request_rung). Tasks
  /// with a later release are delivered through place_task when their
  /// time comes.
  virtual void batch_start(Machine& m, const trace::Batch& batch,
                           std::size_t batch_index) = 0;

  /// Place one task that was just spawned mid-batch into some pool
  /// (same placement rule the policy uses at batch start).
  virtual void place_task(Machine& m, TaskId id) = 0;

  /// Get the next task for `core`: pop locally, steal, or give up
  /// (return nullopt — the core then spins at its current frequency
  /// until the batch barrier). May call Machine::request_rung (Cilk-D's
  /// drop-to-minimum lives here).
  virtual std::optional<TaskId> acquire(Machine& m, std::size_t core) = 0;

  /// Called when a task finishes (profiling hook).
  virtual void task_done(Machine& m, std::size_t core,
                         const trace::TraceTask& task, double exec_s) = 0;

  /// Called at the batch barrier with the batch's simulated makespan;
  /// returns the scheduler overhead in simulated seconds to append
  /// (EEWA's adjuster runs here).
  virtual double batch_end(Machine& m, double makespan_s) = 0;
};

/// The simulated machine. Create once per run; call run_batch per batch
/// (simulate() in simulate.hpp does this for a whole trace).
class Machine {
 public:
  /// Most cores a Machine simulates: a core index must fit the 30-bit
  /// core field of an event key (see Ev below).
  static constexpr std::size_t kMaxCores = std::size_t{1} << 30;
  /// Most tasks one batch may hold: a task index must fit an event's
  /// 32-bit task field.
  static constexpr std::size_t kMaxBatchTasks = std::size_t{1} << 32;

  /// Throws std::invalid_argument on 0 or more than kMaxCores cores and
  /// on a tracer with too few tracks, before allocating anything.
  explicit Machine(const SimOptions& options);
  ~Machine();
  // The energy account refers to options_.power, and queued tasks live
  // in per-thread storage this machine holds: neither survives a copy.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- topology / config -------------------------------------------------
  std::size_t cores() const { return rung_.size(); }
  const dvfs::FrequencyLadder& ladder() const {
    return options_.power.ladder();
  }
  const SimOptions& options() const { return options_; }

  /// Heterogeneous description, or nullptr on a homogeneous machine.
  const core::MachineTopology* topology() const {
    return options_.topology.get();
  }
  /// Cluster of `core` (0 on homogeneous machines).
  std::size_t core_type_of(std::size_t core) const {
    return options_.topology != nullptr
               ? options_.topology->type_of_core(core)
               : 0;
  }
  /// Rungs on `core`'s own ladder.
  std::size_t core_ladder_size(std::size_t core) const {
    return options_.topology != nullptr
               ? options_.topology->type(core_type_of(core)).ladder.size()
               : ladder().size();
  }
  /// Slowdown of `core` at `rung` relative to the machine's globally
  /// fastest (type, rung) row; ladder().slowdown(rung) when homogeneous.
  double core_slowdown(std::size_t core, std::size_t rung) const {
    return options_.topology != nullptr
               ? options_.topology->core_slowdown(core, rung)
               : ladder().slowdown(rung);
  }
  /// Size of the rung axis spanning every cluster's ladder (BatchStats
  /// cores_per_rung / SimResult rung_residency_s indexing).
  std::size_t rung_axis_size() const {
    return options_.topology != nullptr ? options_.topology->max_rungs()
                                        : ladder().size();
  }

  util::Xoshiro256& rng() { return rng_; }
  std::size_t batch_index() const { return batch_index_; }
  /// Absolute simulated time of the activity currently being processed
  /// (open-loop policies use it for sojourn accounting against
  /// TraceTask::release_s).
  double now_s() const { return sim_now_s_; }

  // --- pools (policy API, valid during batch_start/acquire) ---------------
  /// Reset to `groups` pools per core (drops any leftover tasks).
  void configure_pools(std::size_t groups);
  std::size_t group_count() const { return group_count_; }

  /// Push a task into `core`'s pool for group `group`.
  void push_task(std::size_t core, std::size_t group, TaskId id);

  /// LIFO pop from own pool (no locking in the real runtime; free here).
  std::optional<TaskId> pop_local(std::size_t core, std::size_t group);

  /// Random-victim FIFO steal from other cores' pools of `group`.
  /// Each probe costs options().steal_attempt_s of simulated time
  /// (times remote_steal_multiplier across sockets).
  std::optional<TaskId> steal(std::size_t thief, std::size_t group);

  /// Socket of a core under the configured topology (0 when disabled).
  std::size_t socket_of(std::size_t core) const {
    return options_.cores_per_socket == 0
               ? 0
               : core / options_.cores_per_socket;
  }

  /// Tasks currently enqueued for `group` across all cores.
  std::size_t group_task_count(std::size_t group) const {
    return group_counts_.at(group);
  }

  /// FIFO take from a specific pool without probe accounting (the
  /// task-sharing central-queue model; pair with add_acquire_cost).
  std::optional<TaskId> take_front(std::size_t core, std::size_t group);

  /// Charge extra acquisition time (lock contention, bookkeeping) to
  /// the core currently inside Policy::acquire.
  void add_acquire_cost(double seconds) { acquire_probe_cost_s_ += seconds; }

  /// Called from Policy::acquire when returning nullopt: instead of
  /// parking until the barrier (or an injection), wake this core again
  /// after `delay_s` to re-evaluate (reactive governors sample
  /// periodically). Ignored when a task was returned.
  void request_repoll(double delay_s) { pending_repoll_s_ = delay_s; }

  // --- frequency (policy API) ---------------------------------------------
  std::size_t rung(std::size_t core) const { return rung_.at(core); }

  /// Request a frequency change; applied immediately, with the transition
  /// latency and energy charged to the core at its next activity.
  /// Returns false when SimOptions::faults rejected the write (stuck
  /// core or transient failure); a drift fault reports success but the
  /// core lands one rung slower — read rung() back to notice, exactly
  /// as on real cpufreq.
  bool request_rung(std::size_t core, std::size_t new_rung);

  /// Writes rejected / drifted by the configured FaultSpec so far.
  std::size_t fault_rejections() const { return fault_rejections_; }
  std::size_t fault_drifts() const { return fault_drifts_; }

  /// The task table of the current batch.
  const trace::TraceTask& task(TaskId id) const { return (*tasks_).at(id); }

  // --- execution -----------------------------------------------------------
  /// Execution time of `t` on a *type-0* core at `rung` (the paper's
  /// CPU-bound model, extended with the memory-stall fraction alpha).
  double exec_time(const trace::TraceTask& t, std::size_t core_rung) const;

  /// Execution time of `t` on a specific core at `core_rung` — the
  /// typed generalization (identical to exec_time on homogeneous
  /// machines); run_batch charges this.
  double exec_time_on(const trace::TraceTask& t, std::size_t core,
                      std::size_t core_rung) const;

  /// Run one batch starting at absolute sim time `start_s`; returns the
  /// absolute end time (barrier + policy overhead). Appends a BatchStats.
  /// Throws std::invalid_argument on a batch of more than kMaxBatchTasks
  /// tasks.
  double run_batch(Policy& policy, const trace::Batch& batch,
                   double start_s);

  // --- power state (fleet park/drain/wake API) -----------------------------
  // A Machine historically assumed it was always powered: batches ran
  // back to back and every simulated second belonged to some batch. A
  // fleet parks idle machines into S-states, so the power boundary is
  // explicit: run_idle charges the powered-idle gaps between batches,
  // park/wake bracket the intervals whose (S-state) energy the caller
  // accounts. The charge clock never rewinds across the cycle — the
  // same monotonicity contract charged_until_ enforces inside a batch.

  /// False between park() and wake(). run_batch / run_idle / park throw
  /// std::logic_error on a parked machine — simulated silicon cannot
  /// execute while powered off.
  bool powered() const { return powered_; }

  /// Absolute simulated time through which every core's energy has been
  /// charged (batch ends, idle charges and wake points all advance it).
  double charged_through() const { return session_charged_s_; }

  /// Charge powered-idle spin (or halt, with SimOptions::idle_halt) on
  /// every core from charged_through() to until_s at its current rung.
  /// No-op when until_s has already been charged.
  void run_idle(double until_s);

  /// Power down at at_s (charging the idle tail up to at_s first). The
  /// machine must be drained: throws std::logic_error when any pool
  /// still holds a task — parking must never strand queued work.
  void park(double at_s);

  /// Power back up at at_s. The parked interval's energy is the
  /// caller's to account (S-state ladder); core charging resumes at
  /// at_s, so a park/wake cycle never re-bills or skips a core-second.
  /// Throws std::logic_error when powered or when at_s would rewind the
  /// charge clock.
  void wake(double at_s);

  /// Tasks still sitting in pools (0 after every completed batch).
  std::size_t queued_tasks() const { return queued_; }

  // --- results ---------------------------------------------------------------
  const energy::EnergyAccount& account() const { return account_; }
  const std::vector<BatchStats>& batch_stats() const { return stats_; }
  std::size_t total_steals() const { return total_steals_; }
  std::size_t total_probes() const { return total_probes_; }
  std::size_t total_transitions() const { return total_transitions_; }
  /// Tasks completed across all batches.
  std::size_t total_completed() const { return total_completed_; }

  /// Finalize accounting at absolute end time `end_s` and build the
  /// result summary.
  SimResult finish(double end_s, std::string policy_name,
                   std::string workload_name);

 private:
  void charge(std::size_t core, double from_s, double to_s, std::size_t rung,
              bool active);

  /// A pool is a doubly linked list of queue nodes: back is the LIFO
  /// end (push_task, pop_local), front the FIFO end (steal,
  /// take_front), the order a deque gives. The nodes live in a
  /// per-thread NodeStore (machine.cpp): a machine takes its thread's
  /// store with its first queued task and hands it back when its last
  /// queued task leaves (or configure_pools drops the rest), so the
  /// store never holds two machines' tasks, and node storage is one
  /// batch's worth per thread however many machines the thread steps.
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);
  struct Node {
    TaskId task;
    std::uint32_t prev;
    std::uint32_t next;
  };
  struct Pool {
    std::uint32_t front = kNil;
    std::uint32_t back = kNil;
  };
  struct NodeStore;
  static NodeStore& thread_node_store();
  /// Pool of (core, group); throws std::out_of_range outside the current
  /// shape.
  Pool& pool(std::size_t core, std::size_t group) {
    return pools_.at(core * group_count_ + group);
  }
  TaskId unlink(Pool& p, std::uint32_t node, std::size_t group);
  void release_store();

  /// Discrete events: task completions, mid-batch task injections
  /// (spawns), and wakeups of idle cores after an injection. An event
  /// is 16 bytes: its time, one key packing (kind, core) as
  /// kind << kCoreBits | core, and the task index (kComplete/kInject;
  /// 0 for kWake, and core is 0 for kInject). A completing task's
  /// execution time is not carried: each core runs at most one task, so
  /// it sits in a per-core scratch slot until the completion pops.
  ///
  /// The heap orders events by (t, kind, core), compared as (t, key):
  /// the packed key sorts exactly as the (kind, core) pair, so every
  /// comparison, and with it every heap move and the popped sequence,
  /// is what an unpacked (t, kind, core) record gives. Among equal
  /// times completions pop first, then injections, then wakes, so an
  /// injection is placed before the cores it wakes re-probe.
  struct Ev {
    enum Kind : std::uint32_t { kComplete, kInject, kWake };
    static constexpr unsigned kCoreBits = 30;
    double t;
    std::uint32_t key;
    std::uint32_t task;

    static Ev make(double t, Kind kind, std::size_t core, TaskId task) {
      return Ev{t, static_cast<std::uint32_t>(kind) << kCoreBits |
                       static_cast<std::uint32_t>(core),
                static_cast<std::uint32_t>(task)};
    }
    Kind kind() const { return static_cast<Kind>(key >> kCoreBits); }
    std::size_t core() const { return key & ((1u << kCoreBits) - 1); }
    bool operator>(const Ev& o) const {
      if (t != o.t) return t > o.t;
      return key > o.key;
    }
  };
  static_assert(sizeof(Ev) == 16);
  static_assert(kMaxCores == std::size_t{1} << Ev::kCoreBits);

  /// Per-thread storage of run_batch's event heap, idle marks and
  /// running tasks' execution times: their size grows with the batch,
  /// and one thread runs one batch at a time, so one copy per thread
  /// serves every Machine it steps (a fleet of machines costs one
  /// batch's worth, not one per machine).
  struct BatchScratch;
  static BatchScratch& batch_scratch();

  bool fault_chance(double p);

  SimOptions options_;
  energy::EnergyAccount account_;
  util::Xoshiro256 rng_;
  util::SplitMix64 fault_rng_;
  std::size_t fault_rejections_ = 0;
  std::size_t fault_drifts_ = 0;

  std::vector<std::size_t> rung_;
  std::vector<double> pending_latency_s_;  // unpaid DVFS stall per core
  std::vector<double> charged_until_;      // energy charged up to, per core
  std::size_t acquire_probes_ = 0;         // probes in the current acquire

  std::size_t group_count_ = 1;
  // pools_[core * group_count_ + group]; store_ holds the nodes of the
  // queued_ tasks (null while none is queued).
  std::vector<Pool> pools_;
  NodeStore* store_ = nullptr;
  std::size_t queued_ = 0;
  std::vector<std::size_t> group_counts_;
  double acquire_probe_cost_s_ = 0.0;  // time cost of the current acquire
  double pending_repoll_s_ = 0.0;      // repoll request from acquire

  const std::vector<trace::TraceTask>* tasks_ = nullptr;
  std::size_t batch_index_ = 0;
  double sim_now_s_ = 0.0;  // sim time of the activity being processed

  bool powered_ = true;
  double session_charged_s_ = 0.0;  // all cores charged through here
  std::size_t total_completed_ = 0;

  std::vector<BatchStats> stats_;
  std::size_t total_steals_ = 0;
  std::size_t total_probes_ = 0;
  std::size_t total_transitions_ = 0;
  std::size_t batch_steals_ = 0;
  std::size_t batch_probes_ = 0;
  std::size_t batch_transitions_ = 0;
};

/// DvfsBackend view over a Machine's frequency controls, so the
/// EewaController's fault-tolerant actuation path (retry, readback,
/// reconcile) drives simulated cores through the exact same interface
/// as real cpufreq hardware. The Machine must outlive the adapter.
class MachineDvfsBackend : public dvfs::DvfsBackend {
 public:
  explicit MachineDvfsBackend(Machine& m) : m_(m) {}

  const dvfs::FrequencyLadder& ladder() const override {
    return m_.ladder();
  }
  std::size_t core_count() const override { return m_.cores(); }
  bool set_frequency(std::size_t core, std::size_t freq_index) override {
    return m_.request_rung(core, freq_index);
  }
  std::size_t frequency_index(std::size_t core) const override {
    return m_.rung(core);
  }
  bool is_live() const override { return true; }
  std::size_t transition_count() const override {
    return m_.total_transitions();
  }

 private:
  Machine& m_;
};

}  // namespace eewa::sim
