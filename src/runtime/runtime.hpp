// The real-thread work-stealing runtime (paper Fig. 4 architecture).
//
// N worker threads, each owning r Chase–Lev deques (one per c-group).
// Batches of tasks are submitted from the control thread; workers pop
// locally, steal randomly within a c-group, and fall through c-groups in
// rob-the-weaker-first preference order. Between batches the
// EewaController replans frequencies and the plan is applied through a
// DvfsBackend (real sysfs cpufreq on hardware, a recording TraceBackend
// elsewhere — energy then comes from ModelMeter).
//
// Scheduler kinds:
//   kCilk  — single pool group, random stealing, frequencies untouched
//            (or pinned to `fixed_rungs` for AMC experiments).
//   kCilkD — kCilk + self-scaling to the bottom rung when a worker finds
//            every pool empty; restored on the next acquire/batch.
//   kWats  — fixed `fixed_rungs`, preference stealing, workload-aware
//            class allocation, no DVFS at runtime.
//   kEewa  — the paper's scheduler: measurement batch at F0, then
//            per-batch frequency plans from the workload-aware adjuster.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/actuation.hpp"
#include "core/eewa_controller.hpp"
#include "core/intern_table.hpp"
#include "dvfs/dvfs_backend.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "dvfs/trace_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/service_metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/ingress.hpp"
#include "runtime/plan_epoch.hpp"
#include "runtime/pmc.hpp"
#include "runtime/profiler.hpp"
#include "runtime/service.hpp"
#include "runtime/task.hpp"
#include "trace/task_trace.hpp"
#include "util/aligned.hpp"

namespace eewa::rt {

/// Which scheduling policy the runtime applies.
enum class SchedulerKind { kCilk, kCilkD, kWats, kEewa };

/// Runtime configuration.
struct RuntimeOptions {
  /// Worker count; 0 means one per hardware CPU.
  std::size_t workers = 0;
  SchedulerKind kind = SchedulerKind::kEewa;
  dvfs::FrequencyLadder ladder = dvfs::FrequencyLadder::opteron8380();
  core::ControllerOptions controller{};
  /// Fixed per-worker rungs for kWats / asymmetric kCilk runs.
  std::vector<std::size_t> fixed_rungs;
  /// Pin workers to CPUs (no-op where unsupported).
  bool pin_threads = false;
  /// External DVFS backend (e.g. a probed SysfsBackend). When null the
  /// runtime creates an internal TraceBackend over `ladder`.
  dvfs::DvfsBackend* backend = nullptr;
  /// Sample per-task cache-miss intensity with perf_event counters
  /// (silently disabled where perf_event_open is forbidden).
  bool enable_pmc = true;
  /// Record every executed batch as a task trace (normalized workloads,
  /// CMI, estimated stall fractions) retrievable via recorded_trace():
  /// profile an application here, replay it on any simulated machine.
  bool record_trace = false;
  /// Optional event tracer (task spans, steal/DVFS events, controller
  /// phases). Must have at least workers + 1 tracks: one per worker plus
  /// a control track. The runtime never enables/disables it — callers
  /// own the gate. Null = no tracing (scheduler counters in metrics()
  /// are always collected; they are cheap).
  obs::EventTracer* tracer = nullptr;
};

/// Round-robin distribution target for one task bound to c-group
/// `group`: {group, worker}. When the group has no workers (possible
/// after plan reconciliation leaves a layout group whose cores all
/// exceed the worker count), the task falls back to the fastest
/// non-empty group rather than computing worker % 0. `rr` holds the
/// per-group round-robin cursors. Throws std::logic_error when every
/// group is empty.
std::pair<std::size_t, std::size_t> distribution_target(
    const std::vector<std::vector<std::size_t>>& group_workers,
    std::vector<std::size_t>& rr, std::size_t group);

/// Work-stealing runtime with batch (iteration) semantics.
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Run one batch to completion (blocking). Returns the batch makespan
  /// in seconds. If any task threw, the batch still runs to completion
  /// (remaining tasks execute), then the first captured exception is
  /// rethrown here.
  double run_batch(std::vector<TaskDesc> tasks);

  /// Spawn a task into the *current* batch; only valid while run_batch
  /// is in flight, typically called from inside a running task. The
  /// steady-state cost is lock-free and allocation-free: the class id
  /// resolves through the read-lock-free intern table, the Task lands in
  /// the calling worker's slab arena, and the push goes to the worker's
  /// own deque.
  void spawn(std::string_view class_name, TaskFn fn) {
    spawn(handle(class_name), std::move(fn));
  }

  /// Spawn through a pre-interned handle: zero string hashing.
  void spawn(ClassHandle handle, TaskFn fn);

  /// Resolve (interning on first sight) a class name to a handle.
  /// Thread-safe; lock-free after the first call for a given name. Call
  /// sites on hot paths should resolve once and spawn by handle.
  ClassHandle handle(std::string_view class_name);

  /// Intern a class name ahead of time (thread-safe).
  std::size_t class_id(std::string_view name) { return handle(name).id; }

  /// The controller (plans, profiles, overhead accounting).
  const core::EewaController& controller() const { return *controller_; }

  /// The DVFS backend in use.
  dvfs::DvfsBackend& backend() { return *backend_; }

  /// The internal TraceBackend, or nullptr when an external backend was
  /// supplied (feed this to energy::ModelMeter).
  const dvfs::TraceBackend* trace_backend() const {
    return owned_backend_.get();
  }

  std::size_t worker_count() const { return pools_.size(); }

  /// Cumulative counters.
  std::size_t total_steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  std::size_t batches_run() const { return batches_; }
  std::size_t tasks_run() const { return tasks_run_; }

  /// The recorded trace (empty unless options.record_trace was set).
  const trace::TaskTrace& recorded_trace() const { return recorded_; }

  /// Tasks that threw, across all batches (their exceptions are
  /// rethrown from run_batch, first one wins per batch).
  std::size_t failed_tasks() const {
    return failed_tasks_.load(std::memory_order_relaxed);
  }

  /// Fault-tolerance counters from the controller (retries,
  /// reconciliations, stuck cores, degradations).
  const core::HealthReport& health() const { return controller_->health(); }

  /// Per-worker scheduler counters (always collected; aggregated into a
  /// BatchReport at each batch barrier).
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// The report of the most recently completed batch; throws
  /// std::out_of_range before the first batch finishes.
  const obs::BatchReport& last_batch_report() const {
    return metrics_->reports().at(metrics_->reports().size() - 1);
  }

  /// The event tracer passed in RuntimeOptions (null when none).
  obs::EventTracer* tracer() const { return options_.tracer; }

  // --- Open-loop service mode (docs/service_mode.md) ---------------------
  //
  // Instead of batch barriers, traffic flows continuously: submit() pushes
  // into a bounded ingress ring, a dispatcher thread applies admission
  // control and routes tasks to per-worker inboxes under the currently
  // published plan, and a planner thread re-runs Algorithm 1 every epoch
  // off the critical path, publishing new plans atomically while workers
  // keep executing.

  /// Enter service mode. Classes must be declared in `opts.classes`
  /// (submit() rejects undeclared ids). Throws if a batch or another
  /// service is active.
  void start_service(ServiceOptions opts);

  /// Submit one task (any thread). kQueued means the task entered the
  /// ingress ring — it may still be shed by admission control before it
  /// runs; the per-class counters (service_metrics()) and the optional
  /// shed hook account for every outcome. `tag` is an opaque caller id
  /// passed through to the shed hook.
  SubmitResult submit(ClassHandle handle, TaskFn fn, std::uint64_t tag = 0);
  SubmitResult submit(std::string_view class_name, TaskFn fn,
                      std::uint64_t tag = 0) {
    return submit(handle(class_name), std::move(fn), tag);
  }

  bool service_active() const {
    return service_active_.load(std::memory_order_acquire);
  }

  /// Wait until the ingress ring, staging and every inbox/deque are empty
  /// (pending == 0 and in_flight == 0). Returns false on timeout.
  bool drain_service(double timeout_s);

  /// Stop accepting, drain, stop dispatcher/planner/worker loops and
  /// return the final cumulative report (which must reconcile exactly).
  obs::EpochReport stop_service();

  /// Live cumulative snapshot (any thread, any time while serving).
  obs::EpochReport service_snapshot() const;

  /// Per-epoch delta reports recorded by the planner (copy).
  std::vector<obs::EpochReport> epoch_reports() const;

  /// The planner's health (actuation retries, reconciliations,
  /// staleness degradations) — service-mode analogue of health().
  core::HealthReport service_health() const;

  /// Service counters; null before the first start_service, survives
  /// stop_service until the next start.
  const obs::ServiceMetrics* service_metrics() const {
    return service_metrics_.get();
  }

  /// Epochs published by the service planner so far (0 when none).
  std::uint64_t plan_epochs_published() const;

 private:
  struct WorkerPools {
    // One deque per c-group (allocated for the full ladder size; a batch
    // uses the first `group_count_`).
    std::vector<std::unique_ptr<ChaseLevDeque<Task*>>> deques;
  };

  // The worker core both modes run (paper Fig. 4). A sink says where
  // counts and profile records go (BatchSink / ServiceSink, runtime.cpp).
  // acquire() pops, steals and robs down `order`, then does the same for
  // groups [order.size(), sweep_end).
  struct BatchSink;
  struct ServiceSink;
  template <typename Sink>
  std::optional<Task*> acquire(std::size_t id, std::size_t my_group,
                               const std::vector<std::size_t>& order,
                               std::size_t sweep_end, Sink& sink);
  template <typename Sink>
  std::optional<Task*> steal(std::size_t id, std::size_t group, bool cross,
                             Sink& sink);
  template <typename Sink>
  void execute(std::size_t id, Task* task, std::size_t rung,
               PerfCounters* pmc, Sink& sink);

  void worker_main(std::size_t id);
  // The generation gate: start every worker's next loop (batch or
  // service), then wait for all of them to leave it.
  void release_workers();
  void await_workers();
  bool run_one_task(std::size_t id, PerfCounters* pmc, BatchSink& sink);
  void reset_pools();  ///< reclaim deque rings, zero group counts (parked)
  void prepare_batch(std::vector<TaskDesc>& tasks);
  void finish_batch(double makespan_s);

  // Service-mode internals.
  struct ServiceItem {
    TaskFn fn;
    std::uint32_t class_id = 0;
    std::uint64_t tag = 0;
    std::uint64_t submit_ticks = 0;
  };
  // A service task's identity while it lives in a deque. Task must stay
  // the first member: the deques carry Task*, and the service worker
  // recovers the node by pointer identity.
  struct ServiceNode {
    Task task;
    std::uint64_t tag = 0;
    std::uint64_t submit_ticks = 0;
  };
  struct ProfileRec {
    std::uint32_t class_id = 0;
    std::uint32_t rung = 0;
    double exec_s = 0.0;
    double cmi = 0.0;
  };
  struct ServiceState;

  void service_worker_loop(std::size_t id, PerfCounters* pmc);
  void dispatcher_main();
  void planner_main();
  bool dispatch_item(ServiceItem& item, const PlanSnapshot* snap);
  /// A filled envelope from worker `id`'s recycle list (new when empty).
  ServiceNode* alloc_service_node(std::size_t id, std::size_t class_id,
                                  TaskFn&& fn, std::uint64_t tag,
                                  std::uint64_t submit_ticks);
  void service_shed(std::size_t class_id, std::uint64_t tag);

  // Deep-sleep wakeup (shared by batch and service idle loops): workers
  // park on a condvar once the idle ramp hits its cap; producers wake
  // them with one load on the hot path (deep_sleepers_ == 0).
  void wake_sleepers();
  /// Park until wake_sleepers() or `max_us`. `has_work` is re-checked
  /// after the sleeper registers itself (under wake_mu_, which the waker
  /// also takes), closing the check-then-sleep window; the timeout is
  /// the backstop for any residual miss, bounding wakeup latency at the
  /// old open-loop sleep cap. Returns false when the backstop expired
  /// with no wake and no work.
  template <typename HasWork>
  bool deep_park(std::uint64_t max_us, HasWork&& has_work) {
    std::unique_lock<std::mutex> lock(wake_mu_);
    const std::uint64_t seen = wake_seq_.load(std::memory_order_relaxed);
    deep_sleepers_.fetch_add(1, std::memory_order_seq_cst);
    bool woken = true;
    if (!has_work()) {
      woken = wake_cv_.wait_for(lock, std::chrono::microseconds(max_us), [&] {
        return wake_seq_.load(std::memory_order_relaxed) != seen;
      });
    }
    deep_sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return woken;
  }

  RuntimeOptions options_;
  std::unique_ptr<dvfs::TraceBackend> owned_backend_;
  dvfs::DvfsBackend* backend_ = nullptr;
  std::unique_ptr<core::EewaController> controller_;
  // Read-lock-free name -> class-id cache mirroring the controller's
  // registry. Every intern goes through it, so its writer mutex is also
  // what serializes the registry's map mutations (the only controller
  // state that can change while workers run).
  core::InternTable interner_;

  std::vector<WorkerPools> pools_;
  std::vector<WorkerProfile> profiles_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  // Per-worker victim-selection RNG state, seeded once per worker in
  // worker_main (never reseeded from the clock: coarse clock reads in
  // the steal path are both slow and correlate victim sequences across
  // concurrent sweeps, defeating the paper's random-stealing assumption).
  std::vector<util::CachelinePadded<std::uint64_t>> steal_rng_;
  // Each worker's current frequency rung, cached so run_one_task never
  // queries the backend per task (frequency_index is virtual and, on
  // some backends, mutex-guarded). Written by the control thread at the
  // batch barrier and by the owning worker at Cilk-D self-scaling
  // transitions; read only by the owner.
  std::vector<util::CachelinePadded<std::size_t>> worker_rung_;
  // Sharded in-flight task counts: one cacheline-padded slot per
  // (group, worker) pair, indexed [group * workers + worker]. Each slot
  // has a single writer — worker w adds 1 to its own slot when it pushes
  // into group g and subtracts 1 from its own slot when it acquires from
  // g (pop or steal) — so the hot path is a plain load/store pair, never
  // a lock-prefixed RMW. A group's in-flight total (the steal gate) is
  // the sum over its worker slots; individual slots may go negative
  // (a worker that steals more than it spawns), only the sum is
  // meaningful. The control thread writes at the batch barrier, where
  // workers are parked.
  std::vector<util::CachelinePadded<std::atomic<std::int64_t>>>
      group_counts_;
  std::int64_t group_count_approx(std::size_t group) const;
  void group_count_bump(std::size_t group, std::size_t worker,
                        std::int64_t delta) {
    auto& slot = *group_counts_[group * pools_.size() + worker];
    slot.store(slot.load(std::memory_order_relaxed) + delta,
               std::memory_order_release);
  }
  std::size_t group_count_ = 1;
  std::vector<std::size_t> worker_group_;
  // Per-batch scratch, all reused across batches (prepare_batch clears
  // instead of reallocating): preference lists are rebuilt only when the
  // group count changes, group_workers_/rr_ keep their buffers.
  std::vector<std::vector<std::size_t>> pref_lists_;
  std::vector<std::vector<std::size_t>> group_workers_;
  std::vector<std::size_t> class_to_group_;
  std::vector<std::size_t> rr_;

  std::vector<Task> batch_tasks_;
  // One slab arena per worker for mid-batch spawns: the owning worker
  // bump-allocates without synchronization; the control thread resets
  // them at the next prepare_batch, where workers are parked.
  std::vector<util::CachelinePadded<TaskArena>> arenas_;

  std::atomic<std::int64_t> remaining_{0};
  std::atomic<std::size_t> steals_{0};
  std::mutex failure_mu_;
  std::exception_ptr first_failure_;
  std::atomic<std::size_t> failed_tasks_{0};
  std::size_t failed_seen_ = 0;  // failures already reported to watchdog

  // Batch lifecycle.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t workers_active_ = 0;
  bool shutdown_ = false;

  // Deep-sleep tier: a worker that exhausts the idle backoff ramp parks
  // here instead of open-loop sleeping; wake_sleepers() costs producers a
  // single relaxed load while nobody is parked. wake_seq_ is bumped under
  // wake_mu_, which is what makes the sleep/notify handshake lossless.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> wake_seq_{0};
  std::atomic<std::size_t> deep_sleepers_{0};

  // Service mode. service_active_ selects the worker loop; the heavy
  // state lives behind a pointer so batch-only users pay nothing.
  std::atomic<bool> service_active_{false};
  std::unique_ptr<ServiceState> service_;
  std::unique_ptr<obs::ServiceMetrics> service_metrics_;
  // Per-epoch reports and planner health outlive stop_service (the
  // planner appends under the mutex; accessors copy under it).
  mutable std::mutex service_report_mu_;
  std::vector<obs::EpochReport> service_reports_;
  core::HealthReport service_health_;

  std::vector<std::thread> threads_;
  std::size_t batches_ = 0;
  std::size_t tasks_run_ = 0;
  trace::TaskTrace recorded_;
};

}  // namespace eewa::rt
