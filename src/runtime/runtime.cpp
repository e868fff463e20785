#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <type_traits>

#include "util/fast_clock.hpp"
#include "util/rng.hpp"

#include "core/preference_list.hpp"
#include "core/wats_allocation.hpp"
#include "util/cpu_affinity.hpp"

namespace eewa::rt {

namespace {

thread_local std::size_t tl_worker_id = static_cast<std::size_t>(-1);
thread_local Runtime* tl_runtime = nullptr;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Idle backoff thresholds (worker_main): pure spin for the first sweeps,
// sched_yield up to the next bound, then 1us exponential sleep, with the
// final tier (2^8 us) parking on the deep-sleep condvar instead of an
// open-loop sleep so producers can end the wait early.
constexpr std::size_t kIdleSpinSweeps = 16;
constexpr std::size_t kIdleYieldSweeps = 48;
constexpr std::size_t kIdleSleepMaxShift = 8;  // 2^8 us = 256us cap

// How many inbox items a service worker moves into its deques per
// scheduling loop: enough to amortize the ring hops, small enough that a
// worker sitting on a full inbox starts executing promptly.
constexpr std::size_t kInboxDrainChunk = 64;

}  // namespace

// Service-mode shared state, heap-allocated per start_service so the
// batch-only footprint of Runtime stays unchanged.
struct Runtime::ServiceState {
  ServiceOptions opts;
  std::vector<std::uint8_t> declared;  ///< class-id -> declared in opts
  std::size_t class_count = 0;
  BoundedMpscQueue<ServiceItem> ingress;
  std::vector<std::unique_ptr<SpscRing<ServiceItem>>> inboxes;
  std::vector<std::unique_ptr<SpscRing<ProfileRec>>> profile_rings;
  std::deque<ServiceItem> staging;  ///< dispatcher-local overflow, FIFO
  AdmissionController admission;
  PlanPublisher publisher;  ///< readers: workers, then the dispatcher
  /// Snapshot each worker currently holds a hazard pin on; owner-written,
  /// read by spawn() on the same thread.
  std::vector<util::CachelinePadded<const PlanSnapshot*>> worker_snap;
  /// Per-worker ServiceNode recycle lists (owner-only): task envelopes
  /// cycle inbox -> deque -> execute -> freelist, so steady-state service
  /// execution allocates nothing and memory stays bounded by the queue
  /// capacities.
  std::vector<std::vector<ServiceNode*>> freelists;
  std::vector<std::size_t> rr;  ///< dispatcher round-robin cursors
  /// The planner's controller: plan reuse, suffix or full search,
  /// supervised actuation, reconcile, degrade. Only the planner thread
  /// touches it once the service runs.
  core::EewaController ctrl;

  std::atomic<bool> accepting{false};
  std::atomic<bool> dispatcher_stop{false};
  std::atomic<bool> planner_stop{false};
  std::atomic<bool> workers_exit{false};
  /// Tasks in the ingress ring or staging (offered, not yet admitted).
  std::atomic<std::uint64_t> pending{0};
  /// Tasks admitted or spawned and not yet executed (inboxes + deques +
  /// currently running).
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> profile_drops{0};

  std::thread dispatcher;
  std::thread planner;
  Clock::time_point t0;

  ServiceState(const ServiceOptions& o, std::size_t workers,
               std::vector<std::size_t> sla, std::vector<std::uint8_t> decl,
               std::size_t classes, const dvfs::FrequencyLadder& ladder,
               const core::ControllerOptions& planner_opts)
      : opts(o),
        declared(std::move(decl)),
        class_count(classes),
        ingress(o.queue_capacity),
        admission(o.policy, std::move(sla), o.high_watermark,
                  o.queue_capacity),
        publisher(workers + 1, workers),
        worker_snap(workers),
        freelists(workers),
        ctrl(ladder, workers, planner_opts) {
    for (std::size_t w = 0; w < workers; ++w) {
      inboxes.push_back(
          std::make_unique<SpscRing<ServiceItem>>(o.inbox_capacity));
      profile_rings.push_back(
          std::make_unique<SpscRing<ProfileRec>>(8192));
      *worker_snap[w] = nullptr;
    }
  }

  ~ServiceState() {
    for (auto& fl : freelists) {
      for (ServiceNode* node : fl) delete node;
    }
  }
};


Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  const std::size_t n =
      options_.workers ? options_.workers : util::hardware_cpu_count();
  if (!options_.fixed_rungs.empty() && options_.fixed_rungs.size() != n) {
    throw std::invalid_argument("Runtime: fixed_rungs size != workers");
  }
  if (options_.kind == SchedulerKind::kWats && options_.fixed_rungs.empty()) {
    throw std::invalid_argument("Runtime: kWats requires fixed_rungs");
  }
  if (options_.tracer != nullptr && options_.tracer->track_count() < n + 1) {
    throw std::invalid_argument(
        "Runtime: tracer needs workers + 1 tracks (one per worker plus "
        "the control track)");
  }

  if (options_.backend != nullptr) {
    backend_ = options_.backend;
  } else {
    owned_backend_ =
        std::make_unique<dvfs::TraceBackend>(options_.ladder, n);
    backend_ = owned_backend_.get();
  }
  controller_ = std::make_unique<core::EewaController>(
      options_.ladder, n, options_.controller);
  // Controller phases (plan, k-tuple search, actuation, reconciliation)
  // land on the control track, after the per-worker tracks.
  controller_->set_tracer(options_.tracer, n);
  metrics_ = std::make_unique<obs::MetricsRegistry>(n);
  steal_rng_ = std::vector<util::CachelinePadded<std::uint64_t>>(n);
  worker_rung_ = std::vector<util::CachelinePadded<std::size_t>>(n);
  arenas_ = std::vector<util::CachelinePadded<TaskArena>>(n);
  // Calibrate the task-timing clock now so the ~2ms window is paid at
  // construction, not inside the first task measurement.
  (void)util::FastClock::seconds_per_tick();

  pools_.resize(n);
  for (auto& wp : pools_) {
    for (std::size_t g = 0; g < options_.ladder.size(); ++g) {
      wp.deques.push_back(std::make_unique<ChaseLevDeque<Task*>>());
    }
  }
  profiles_.resize(n);
  group_counts_ = std::vector<util::CachelinePadded<std::atomic<std::int64_t>>>(
      options_.ladder.size() * n);
  for (auto& gc : group_counts_) gc->store(0, std::memory_order_relaxed);
  worker_group_.assign(n, 0);

  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Runtime::~Runtime() {
  if (service_active_.load(std::memory_order_acquire)) {
    try {
      stop_service();
    } catch (...) {
      // Destructors must not throw; the service threads are joined by
      // stop_service before anything can propagate here anyway.
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  wake_sleepers();
  for (auto& t : threads_) t.join();
}

ClassHandle Runtime::handle(std::string_view class_name) {
  // Fast path: a wait-free snapshot probe. The writer callback (rare:
  // first sight of a name) interns into the controller's registry under
  // the table's mutex, keeping the cache and the authority in lockstep.
  return ClassHandle{interner_.intern(
      class_name, [&] { return controller_->class_id(class_name); })};
}

std::size_t Runtime::group_of_worker(std::size_t id) const {
  return worker_group_[id];
}

std::int64_t Runtime::group_count_approx(std::size_t group) const {
  const std::size_t n = pools_.size();
  std::int64_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total +=
        group_counts_[group * n + w]->load(std::memory_order_acquire);
  }
  return total;
}

std::pair<std::size_t, std::size_t> distribution_target(
    const std::vector<std::vector<std::size_t>>& group_workers,
    std::vector<std::size_t>& rr, std::size_t group) {
  std::size_t g = group;
  if (g >= group_workers.size() || group_workers[g].empty()) {
    // Fastest (lowest-index) non-empty group takes the orphaned tasks.
    g = group_workers.size();
    for (std::size_t cand = 0; cand < group_workers.size(); ++cand) {
      if (!group_workers[cand].empty()) {
        g = cand;
        break;
      }
    }
    if (g == group_workers.size()) {
      throw std::logic_error(
          "distribution_target: no c-group has any worker");
    }
  }
  const auto& workers = group_workers[g];
  return {g, workers[rr[g]++ % workers.size()]};
}

void Runtime::prepare_batch(std::vector<TaskDesc>& tasks) {
  obs::EventTracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const double prep_ts = tracing ? tracer->now_us() : 0.0;
  controller_->begin_batch();
  const std::size_t n = pools_.size();

  // Workers are parked at the barrier: the control thread is the sole
  // owner of every deque and arena. Retire last batch's spawned tasks
  // (keeping the slabs) and free deque rings grown by spawn bursts.
  for (auto& arena : arenas_) arena->reset();
  for (auto& wp : pools_) {
    for (auto& dq : wp.deques) dq->reclaim();
  }

  // 1. Frequencies + c-group structure for this batch. group_workers_
  // and class_to_group_ are member scratch reused across batches.
  auto& group_workers = group_workers_;
  for (auto& g : group_workers) g.clear();
  auto& class_to_group = class_to_group_;
  class_to_group.clear();
  switch (options_.kind) {
    case SchedulerKind::kCilk: {
      for (std::size_t c = 0; c < n; ++c) {
        backend_->set_frequency(
            c, options_.fixed_rungs.empty() ? 0 : options_.fixed_rungs[c]);
      }
      group_workers.resize(1);
      for (std::size_t c = 0; c < n; ++c) group_workers[0].push_back(c);
      break;
    }
    case SchedulerKind::kCilkD: {
      backend_->set_all(0);
      group_workers.resize(1);
      for (std::size_t c = 0; c < n; ++c) group_workers[0].push_back(c);
      break;
    }
    case SchedulerKind::kWats: {
      // Fixed asymmetric configuration; groups by distinct rung.
      std::vector<std::size_t> rungs = options_.fixed_rungs;
      for (std::size_t c = 0; c < n; ++c) {
        backend_->set_frequency(c, rungs[c]);
      }
      std::vector<std::size_t> distinct;
      for (std::size_t r : rungs) {
        bool seen = false;
        for (std::size_t d : distinct) seen = seen || d == r;
        if (!seen) distinct.push_back(r);
      }
      std::sort(distinct.begin(), distinct.end());
      group_workers.resize(distinct.size());
      std::vector<double> capacity(distinct.size(), 0.0);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t g = 0; g < distinct.size(); ++g) {
          if (rungs[c] == distinct[g]) {
            group_workers[g].push_back(c);
            capacity[g] += options_.ladder.relative_speed(distinct[g]);
          }
        }
      }
      class_to_group = core::allocate_classes_proportional(
          controller_->registry().iteration_profile(), capacity,
          controller_->registry().class_count());
      break;
    }
    case SchedulerKind::kEewa: {
      // Supervised actuation: retries with backoff, readback, and plan
      // reconciliation when cores miss their rung — the layout below is
      // the post-reconciliation one, so worker groups and preference
      // lists always describe what the hardware actually runs.
      controller_->apply_supervised(*backend_);
      const auto& layout = controller_->plan().layout;
      group_workers.resize(layout.group_count());
      for (std::size_t g = 0; g < layout.group_count(); ++g) {
        for (std::size_t c : layout.group(g).cores) {
          if (c < n) group_workers[g].push_back(c);
        }
      }
      break;
    }
  }

  group_count_ = group_workers.size();
  for (std::size_t g = 0; g < group_workers.size(); ++g) {
    for (std::size_t c : group_workers[g]) worker_group_[c] = g;
  }
  // preference_list(g, count) is a pure function of (g, count): reuse
  // the cached lists whenever the group count is unchanged.
  if (pref_lists_.size() != group_count_) {
    pref_lists_.clear();
    for (std::size_t g = 0; g < group_count_; ++g) {
      pref_lists_.push_back(core::preference_list(g, group_count_));
    }
  }
  for (auto& gc : group_counts_) gc->store(0, std::memory_order_relaxed);
  metrics_->begin_batch(group_count_);
  // Cache the achieved rung per worker for the batch (readback, not the
  // requested value: actuation can fail under injection). run_one_task
  // reads this cache once per task instead of calling frequency_index —
  // a virtual call that some backends guard with a mutex.
  for (std::size_t c = 0; c < n; ++c) {
    *worker_rung_[c] = backend_->frequency_index(c);
  }
  if (tracing) {
    // Snapshot the per-core rungs this batch runs at (the DVFS series a
    // trace viewer shows alongside the task spans).
    const double ts = tracer->now_us();
    for (std::size_t c = 0; c < n; ++c) {
      tracer->rung(n, ts, static_cast<std::uint32_t>(c),
                   static_cast<std::uint32_t>(*worker_rung_[c]));
    }
  }

  // 2. Pre-intern classes and materialize tasks. Repeated names hit the
  // intern table's wait-free path; only first-sight names lock.
  batch_tasks_.clear();
  batch_tasks_.reserve(tasks.size());
  for (auto& td : tasks) {
    batch_tasks_.push_back(
        Task{handle(td.class_name).id, std::move(td.fn)});
  }

  // 3. Distribute round-robin into the owning group's workers. Workers
  // are parked at the batch barrier, so the control thread may safely
  // act as the deque owner here.
  auto& rr = rr_;
  rr.assign(group_count_, 0);
  for (auto& task : batch_tasks_) {
    std::size_t g = 0;
    if (options_.kind == SchedulerKind::kEewa) {
      g = controller_->group_of_class(task.class_id);
    } else if (options_.kind == SchedulerKind::kWats &&
               task.class_id < class_to_group.size()) {
      g = class_to_group[task.class_id];
    }
    if (g >= group_count_) g = 0;
    // A reconciled layout can leave a group with no workers below n;
    // distribution_target then reroutes to the fastest non-empty group
    // instead of taking worker % 0.
    const auto [dg, w] = distribution_target(group_workers, rr, g);
    pools_[w].deques[dg]->push(&task);
    group_count_bump(dg, w, 1);
  }
  remaining_.store(static_cast<std::int64_t>(batch_tasks_.size()),
                   std::memory_order_release);
  if (tracing) {
    tracer->phase(n, prep_ts, tracer->now_us() - prep_ts,
                  obs::PhaseKind::kPrepare, batch_tasks_.size());
  }
}

double Runtime::run_batch(std::vector<TaskDesc> tasks) {
  if (service_active_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Runtime::run_batch: service mode active (stop_service first)");
  }
  prepare_batch(tasks);
  const auto t0 = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    workers_active_ = pools_.size();
  }
  cv_start_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return workers_active_ == 0; });
  }
  const double makespan = seconds_since(t0);
  finish_batch(makespan);
  std::exception_ptr failure;
  {
    std::lock_guard<std::mutex> lock(failure_mu_);
    failure = first_failure_;
    first_failure_ = nullptr;
  }
  if (failure) std::rethrow_exception(failure);
  return makespan;
}

void Runtime::finish_batch(double makespan_s) {
  obs::EventTracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const double profile_ts = tracing ? tracer->now_us() : 0.0;
  trace::Batch* recording = nullptr;
  if (options_.record_trace) {
    recorded_.batches.emplace_back();
    recording = &recorded_.batches.back();
  }
  // Worker w profiles core w: on a typed topology its observations are
  // attributed to that core's type so the typed CC table normalizes
  // them against the right cluster's rows.
  const core::MachineTopology* topo =
      options_.controller.adjuster.topology.get();
  for (std::size_t w = 0; w < profiles_.size(); ++w) {
    auto& profile = profiles_[w];
    const std::size_t core_type =
        topo != nullptr && w < topo->total_cores() ? topo->type_of_core(w)
                                                   : 0;
    for (const auto& rec : profile.records()) {
      const double alpha = core::estimate_alpha_from_cmi(rec.cmi);
      controller_->record_task(rec.class_id, rec.exec_s, rec.rung, rec.cmi,
                               alpha, core_type);
      if (recording != nullptr) {
        // Normalized (F0) workload via the alpha-corrected Eq. 1 — the
        // simulator's exec-time model inverts this exactly.
        const double eff = core::effective_slowdown(
            topo, options_.ladder, core_type, rec.rung, alpha);
        recording->tasks.push_back(trace::TraceTask{
            rec.class_id, std::max(rec.exec_s / eff, 1e-9), rec.cmi,
            alpha});
      }
    }
    profile.clear();
  }
  if (recording != nullptr) {
    // Keep the class-name table in sync with the registry.
    const auto& reg = controller_->registry();
    recorded_.name = "recorded";
    recorded_.class_names.clear();
    for (std::size_t id = 0; id < reg.class_count(); ++id) {
      recorded_.class_names.push_back(reg.name(id));
    }
  }
  if (tracing) {
    tracer->phase(pools_.size(), profile_ts, tracer->now_us() - profile_ts,
                  obs::PhaseKind::kProfile, batch_tasks_.size());
  }
  metrics_->finalize_batch();
  // Feed the watchdog the batch's task exceptions before replanning;
  // enough of them degrade the run to the safe all-F0 configuration.
  const std::size_t failed_now =
      failed_tasks_.load(std::memory_order_relaxed);
  controller_->note_task_failures(failed_now - failed_seen_);
  failed_seen_ = failed_now;
  controller_->end_batch(makespan_s);
  ++batches_;
  std::size_t spawned = 0;
  for (const auto& arena : arenas_) spawned += arena->size();
  tasks_run_ += batch_tasks_.size() + spawned;
}

void Runtime::spawn(ClassHandle handle, TaskFn fn) {
  if (tl_runtime != this) {
    throw std::logic_error("Runtime::spawn called outside a worker task");
  }
  const std::size_t id = tl_worker_id;
  if (service_active_.load(std::memory_order_relaxed)) {
    // Service-mode spawn: the node comes from the worker's own recycle
    // list and the c-group from the snapshot this worker already holds a
    // hazard pin on — still no locks, no cross-thread allocation.
    ServiceState& st = *service_;
    ServiceNode* node = alloc_service_node(id);
    node->task.class_id = handle.id;
    node->task.fn = std::move(fn);
    node->tag = 0;
    node->submit_ticks = util::FastClock::ticks();
    const PlanSnapshot* snap = *st.worker_snap[id];
    std::size_t g = 0;
    if (snap != nullptr && handle.id < snap->plan.layout.class_count()) {
      g = snap->plan.layout.group_of_class(handle.id);
      if (g >= snap->group_workers.size()) g = 0;
    }
    st.in_flight.fetch_add(1, std::memory_order_acq_rel);
    pools_[id].deques[g]->push(&node->task);
    group_count_bump(g, id, 1);
    obs::ServiceWorkerCounters& wc = service_metrics_->worker(id);
    wc.bump(wc.spawned);
    wake_sleepers();
    return;
  }
  // Steady-state hot path: no mutex, no heap allocation. The task lives
  // in the calling worker's arena (slab growth is amortized and batch-
  // local), the capture sits inline in the TaskFn, and the push goes to
  // the worker's own deque bottom.
  Task* raw = arenas_[id]->create(handle.id, std::move(fn));
  std::size_t g = options_.kind == SchedulerKind::kEewa
                      ? controller_->group_of_class(handle.id)
                      : worker_group_[id];
  if (g >= group_count_) g = 0;
  remaining_.fetch_add(1, std::memory_order_acq_rel);
  pools_[id].deques[g]->push(raw);
  group_count_bump(g, id, 1);
  ++metrics_->worker(id).spawns;
  wake_sleepers();
}

std::optional<Task*> Runtime::steal_from_group(std::size_t id,
                                               std::size_t group) {
  if (group_count_approx(group) <= 0) {
    return std::nullopt;
  }
  const std::size_t n = pools_.size();
  obs::WorkerCounters& wc = metrics_->worker(id);
  // Random victim probing, bounded per sweep; callers loop while work
  // remains, so a failed sweep is retried from the top-level loop. The
  // RNG state persists across calls (seeded once in worker_main): a
  // per-call clock reseed is a syscall-adjacent read in the hottest
  // path, and coarse clocks hand concurrent sweeps identical victim
  // sequences — correlated probing the paper's analysis assumes away.
  std::uint64_t& state = *steal_rng_[id];
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    state = util::mix64(state);
    // Draw over the n-1 non-self workers; remapping a self-hit to id+1
    // would double that neighbour's probing probability.
    const std::size_t victim =
        n > 1 ? util::uniform_excluding(state, id, n) : id;
    ++wc.probes;
    if (auto t = pools_[victim].deques[group]->steal()) {
      group_count_bump(group, id, -1);
      steals_.fetch_add(1, std::memory_order_relaxed);
      const bool cross = group != worker_group_[id];
      if (cross) {
        ++wc.robs[group];
      } else {
        ++wc.steals[group];
      }
      if (obs::EventTracer* tracer = options_.tracer;
          tracer != nullptr && tracer->enabled()) {
        tracer->steal(id, tracer->now_us(),
                      static_cast<std::uint32_t>(group),
                      static_cast<std::uint32_t>(victim), cross);
      }
      return t;
    }
    if (group_count_approx(group) <= 0) break;
  }
  ++wc.failed_sweeps;
  return std::nullopt;
}

std::optional<Task*> Runtime::acquire(std::size_t id) {
  const auto& order = pref_lists_[worker_group_[id]];
  for (std::size_t g : order) {
    if (auto t = pools_[id].deques[g]->pop()) {
      group_count_bump(g, id, -1);
      ++metrics_->worker(id).pops[g];
      return t;
    }
    if (auto t = steal_from_group(id, g)) return t;
  }
  return std::nullopt;
}

bool Runtime::run_one_task(std::size_t id, PerfCounters* pmc) {
  auto got = acquire(id);
  if (!got) return false;
  Task* task = *got;
  obs::EventTracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  std::size_t rung = *worker_rung_[id];
  // Cilk-D ramps back up the moment it has work again. Read the rung
  // back after actuating: under fault injection the request can fail,
  // and the profile must record what the core actually ran at.
  if (options_.kind == SchedulerKind::kCilkD && rung != 0) {
    backend_->set_frequency(id, 0);
    rung = backend_->frequency_index(id);
    *worker_rung_[id] = rung;
  }
  if (pmc != nullptr) pmc->start();
  Clock::time_point t0_tp;
  if (tracing) t0_tp = Clock::now();
  const std::uint64_t t0 = util::FastClock::ticks();
  bool failed = false;
  try {
    task->fn();
  } catch (...) {
    // A throwing task must not take the worker (and the batch barrier)
    // down with it; capture the first failure for run_batch to rethrow.
    failed = true;
    failed_tasks_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failure_mu_);
    if (!first_failure_) first_failure_ = std::current_exception();
  }
  const double exec_s = util::FastClock::seconds_since(t0);
  const double cmi = pmc != nullptr ? pmc->stop().cmi() : 0.0;
  if (!failed) {
    // Failed tasks are excluded from the profile (and their CMI from
    // the §IV-D gate): a task that threw early looks ultra-fast and
    // would drag its class's Eq. 1 workload mean down, corrupting the
    // CC table the next plan is built from.
    profiles_[id].record(task->class_id, exec_s, rung, cmi);
  }
  obs::WorkerCounters& wc = metrics_->worker(id);
  ++wc.tasks;
  wc.cls(task->class_id).observe(exec_s, failed);
  if (tracing) {
    tracer->task(id, tracer->to_us(t0_tp), exec_s * 1e6,
                 static_cast<std::uint32_t>(task->class_id),
                 static_cast<std::uint32_t>(rung), failed);
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Batch complete: end deep-parked peers' waits now rather than after
    // their sleep cap expires.
    wake_sleepers();
  }
  return true;
}

void Runtime::worker_main(std::size_t id) {
  tl_worker_id = id;
  tl_runtime = this;
  // Seed the persistent victim-selection RNG exactly once per worker;
  // distinct non-zero seeds keep concurrent sweeps decorrelated.
  *steal_rng_[id] = util::mix64(static_cast<std::uint64_t>(id) + 1);
  if (options_.pin_threads) util::pin_current_thread(id);
  PerfCounters pmc_storage;
  PerfCounters* pmc =
      options_.enable_pmc && pmc_storage.available() ? &pmc_storage
                                                     : nullptr;

  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }

    if (service_active_.load(std::memory_order_acquire)) {
      service_worker_loop(id, pmc);
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_active_ == 0) cv_done_.notify_all();
      continue;
    }

    std::size_t idle_sweeps = 0;
    while (remaining_.load(std::memory_order_acquire) > 0) {
      if (run_one_task(id, pmc)) {
        idle_sweeps = 0;
        continue;
      }
      ++idle_sweeps;
      ++metrics_->worker(id).idle_sweeps;
      if (options_.kind == SchedulerKind::kCilkD && idle_sweeps == 2 &&
          *worker_rung_[id] != options_.ladder.slowest_index()) {
        backend_->set_frequency(id, options_.ladder.slowest_index());
        *worker_rung_[id] = backend_->frequency_index(id);
      }
      // Idle backoff ramp: spin the first sweeps (work usually appears
      // within a steal sweep or two), then yield, then sleep with an
      // exponentially growing interval. The final tier parks on the
      // deep-sleep condvar instead of an open-loop sleep: a spawn (or
      // the batch completing) ends the wait in microseconds, while the
      // old 256us cap remains as the timeout backstop, so worst-case
      // wakeup latency is unchanged and an idle worker still stops
      // burning the memory bandwidth the CMI gate (§IV-D) measures.
      if (idle_sweeps > kIdleSpinSweeps) {
        if (idle_sweeps <= kIdleYieldSweeps) {
          std::this_thread::yield();
        } else {
          const std::size_t ramp =
              std::min<std::size_t>(idle_sweeps - kIdleYieldSweeps - 1,
                                    kIdleSleepMaxShift);
          if (ramp < kIdleSleepMaxShift) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(1u << ramp));
          } else {
            deep_park(1u << kIdleSleepMaxShift, [&] {
              return remaining_.load(std::memory_order_seq_cst) <= 0;
            });
          }
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_active_ == 0) cv_done_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Open-loop service mode (docs/service_mode.md).

void Runtime::wake_sleepers() {
  // Producers pay one load while nobody is parked. The seq_cst load
  // orders against the sleeper's seq_cst registration in deep_park: a
  // sleeper that registered before our work became visible is seen here.
  if (deep_sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_seq_.store(wake_seq_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
}

void Runtime::start_service(ServiceOptions opts) {
  if (service_active_.load(std::memory_order_acquire)) {
    throw std::logic_error("Runtime::start_service: service already active");
  }
  if (opts.classes.empty()) {
    throw std::invalid_argument(
        "Runtime::start_service: declare at least one class");
  }
  if (opts.epoch_s <= 0.0) {
    throw std::invalid_argument("Runtime::start_service: epoch_s <= 0");
  }
  if (opts.queue_capacity == 0 || opts.inbox_capacity == 0) {
    throw std::invalid_argument(
        "Runtime::start_service: zero queue/inbox capacity");
  }
  if (opts.high_watermark == 0) opts.high_watermark = opts.queue_capacity / 2;

  const std::size_t n = pools_.size();
  // Intern the declared classes now; submit() rejects anything else, so
  // the admission/metrics tables stay fixed-size while the service runs
  // and the planner never races the interner.
  std::size_t table = 0;
  std::vector<std::pair<std::size_t, std::size_t>> ids;
  ids.reserve(opts.classes.size());
  for (const auto& cfg : opts.classes) {
    const std::size_t id = handle(cfg.name).id;
    ids.emplace_back(id, cfg.sla);
    table = std::max(table, id + 1);
  }
  std::vector<std::size_t> sla(table, 1);
  std::vector<std::uint8_t> declared(table, 0);
  for (const auto& [id, s] : ids) {
    declared[id] = 1;
    sla[id] = s;
  }

  // The planner runs the batch controller's options with the pruned
  // search: a re-plan has to fit well inside one epoch.
  core::ControllerOptions planner_opts = options_.controller;
  planner_opts.adjuster.search = core::SearchKind::kPruned;
  auto st = std::make_unique<ServiceState>(opts, n, std::move(sla),
                                           std::move(declared), table,
                                           options_.ladder, planner_opts);
  // Same class ids in the planner's registry, so a degraded plan covers
  // every class the runtime knows.
  for (std::size_t id = 0; id < table; ++id) {
    st->ctrl.class_id(controller_->registry().name(id));
  }
  service_metrics_ = std::make_unique<obs::ServiceMetrics>(n, table);
  {
    std::lock_guard<std::mutex> lock(service_report_mu_);
    service_reports_.clear();
    service_health_ = core::HealthReport{};
  }

  // Workers are parked at the barrier: reset the deques and the sharded
  // group counters the service will reuse.
  for (auto& wp : pools_) {
    for (auto& dq : wp.deques) dq->reclaim();
  }
  for (auto& gc : group_counts_) gc->store(0, std::memory_order_relaxed);

  // Epoch 0: uniform F0, single group — the safe configuration every
  // service starts (and degrades) to. Actuated before any worker runs.
  core::FrequencyPlan init = core::uniform_plan(n, table);
  for (std::size_t c = 0; c < n; ++c) backend_->set_frequency(c, 0);
  std::vector<std::size_t> achieved(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    achieved[c] = backend_->frequency_index(c);
  }
  if (!st->publisher.publish(
          PlanSnapshot::build(0, std::move(init), achieved, n))) {
    throw std::logic_error(
        "Runtime::start_service: initial plan failed validation");
  }
  service_metrics_->plan_publishes().fetch_add(1, std::memory_order_relaxed);

  st->t0 = Clock::now();
  st->accepting.store(true, std::memory_order_release);
  service_ = std::move(st);
  service_active_.store(true, std::memory_order_release);

  // Release the workers into the service loop through the same
  // generation gate batches use.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    workers_active_ = n;
  }
  cv_start_.notify_all();

  service_->dispatcher = std::thread([this] { dispatcher_main(); });
  service_->planner = std::thread([this] { planner_main(); });
}

SubmitResult Runtime::submit(ClassHandle handle, TaskFn fn,
                             std::uint64_t tag) {
  if (!service_active_.load(std::memory_order_acquire)) {
    return SubmitResult::kStopped;
  }
  ServiceState& st = *service_;
  if (!st.accepting.load(std::memory_order_acquire)) {
    return SubmitResult::kStopped;
  }
  if (handle.id >= st.declared.size() || !st.declared[handle.id]) {
    throw std::invalid_argument(
        "Runtime::submit: class not declared in ServiceOptions");
  }
  auto& cls = service_metrics_->cls(handle.id);
  cls.offered.fetch_add(1, std::memory_order_relaxed);
  ServiceItem item;
  item.fn = std::move(fn);
  item.class_id = static_cast<std::uint32_t>(handle.id);
  item.tag = tag;
  item.submit_ticks = util::FastClock::ticks();
  if (st.ingress.push(std::move(item))) {
    st.pending.fetch_add(1, std::memory_order_relaxed);
    wake_sleepers();
    return SubmitResult::kQueued;
  }
  // Ring full — the first line of overload defense. Blocking policy (and
  // gold-tier traffic under any policy) gets backpressure; shed policies
  // drop here with full accounting.
  if (st.opts.policy == AdmissionPolicy::kBlock ||
      st.admission.sla_of(handle.id) == 0) {
    cls.deferred.fetch_add(1, std::memory_order_relaxed);
    return SubmitResult::kBackpressure;
  }
  cls.shed.fetch_add(1, std::memory_order_relaxed);
  if (st.opts.shed_hook) st.opts.shed_hook(handle.id, tag);
  return SubmitResult::kShed;
}

void Runtime::service_shed(std::size_t class_id, std::uint64_t tag) {
  // Dispatcher-side shed of a task that was pending (counted at submit).
  service_metrics_->cls(class_id).shed.fetch_add(1,
                                                 std::memory_order_relaxed);
  service_->pending.fetch_sub(1, std::memory_order_relaxed);
  if (service_->opts.shed_hook) service_->opts.shed_hook(class_id, tag);
}

Runtime::ServiceNode* Runtime::alloc_service_node(std::size_t id) {
  auto& fl = service_->freelists[id];
  if (!fl.empty()) {
    ServiceNode* node = fl.back();
    fl.pop_back();
    return node;
  }
  return new ServiceNode();
}

bool Runtime::dispatch_item(ServiceItem& item, const PlanSnapshot* snap) {
  ServiceState& st = *service_;
  const auto& layout = snap->plan.layout;
  std::size_t g = item.class_id < layout.class_count()
                      ? layout.group_of_class(item.class_id)
                      : 0;
  if (g >= snap->group_workers.size() || snap->group_workers[g].empty()) {
    // Orphaned c-group (all its cores above the worker count): route to
    // the fastest non-empty group, mirroring distribution_target.
    g = snap->group_workers.size();
    for (std::size_t cand = 0; cand < snap->group_workers.size(); ++cand) {
      if (!snap->group_workers[cand].empty()) {
        g = cand;
        break;
      }
    }
    if (g == snap->group_workers.size()) return false;
  }
  if (st.rr.size() < snap->group_workers.size()) {
    st.rr.resize(snap->group_workers.size(), 0);
  }
  const auto& members = snap->group_workers[g];
  const std::uint32_t cls = item.class_id;
  // in_flight moves up before the inbox push: the worker's decrement at
  // completion must never observe the counter at zero.
  st.in_flight.fetch_add(1, std::memory_order_acq_rel);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::size_t w = members[(st.rr[g] + i) % members.size()];
    if (st.inboxes[w]->push(std::move(item))) {
      st.rr[g] = (st.rr[g] + i + 1) % members.size();
      st.pending.fetch_sub(1, std::memory_order_relaxed);
      service_metrics_->cls(cls).admitted.fetch_add(
          1, std::memory_order_relaxed);
      wake_sleepers();
      return true;
    }
  }
  st.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  return false;
}

void Runtime::dispatcher_main() {
  ServiceState& st = *service_;
  const std::size_t n = pools_.size();
  const std::size_t reader = n;  // the publisher slot after the workers
  // Dispatch stalls once the executing backlog reaches the ring
  // capacity: with inboxes and staging also capped, total service memory
  // is bounded by a small multiple of queue_capacity — overload fills
  // the ingress ring and turns into backpressure/shedding instead of
  // unbounded RSS.
  const std::size_t dispatch_limit = st.opts.queue_capacity;
  const std::size_t staging_limit = st.opts.queue_capacity;
  std::size_t idle = 0;
  for (;;) {
    const PlanSnapshot* snap = st.publisher.acquire(reader);
    bool progress = false;
    // Oldest staged items first (FIFO matters for shed-oldest).
    while (!st.staging.empty() &&
           st.in_flight.load(std::memory_order_acquire) < dispatch_limit) {
      if (!dispatch_item(st.staging.front(), snap)) break;
      st.staging.pop_front();
      progress = true;
    }
    ServiceItem item;
    while (st.staging.size() < staging_limit && st.ingress.pop(item)) {
      progress = true;
      const std::size_t depth =
          static_cast<std::size_t>(
              st.pending.load(std::memory_order_relaxed)) +
          static_cast<std::size_t>(
              st.in_flight.load(std::memory_order_relaxed));
      const auto decision = st.admission.decide(item.class_id, depth);
      if (decision == AdmissionController::Decision::kShed) {
        service_shed(item.class_id, item.tag);
        continue;
      }
      if (decision == AdmissionController::Decision::kEvictOldest) {
        // SLA tier 0 is never-shed under every policy: the victim is the
        // oldest *sheddable* staged item. When everything staged is
        // protected, the arriving task is shed instead — unless it is
        // itself tier 0, in which case nothing sheds and it stages.
        auto victim = st.staging.begin();
        while (victim != st.staging.end() &&
               st.admission.sla_of(victim->class_id) == 0) {
          ++victim;
        }
        if (victim != st.staging.end()) {
          service_shed(victim->class_id, victim->tag);
          st.staging.erase(victim);
        } else if (st.admission.sla_of(item.class_id) != 0) {
          service_shed(item.class_id, item.tag);
          continue;
        }
      }
      if (st.in_flight.load(std::memory_order_relaxed) >= dispatch_limit ||
          !dispatch_item(item, snap)) {
        st.staging.push_back(std::move(item));
      }
    }
    service_metrics_->set_queue_depth(
        st.pending.load(std::memory_order_relaxed) +
        st.in_flight.load(std::memory_order_relaxed));
    if (progress) {
      idle = 0;
      continue;
    }
    if (st.dispatcher_stop.load(std::memory_order_acquire)) {
      // Shed whatever never got dispatched (normally nothing — the stop
      // path drains first). Conservation: these were pending, now shed.
      while (st.ingress.pop(item)) service_shed(item.class_id, item.tag);
      for (auto& s : st.staging) service_shed(s.class_id, s.tag);
      st.staging.clear();
      if (st.ingress.size_approx() == 0) break;
      continue;
    }
    ++idle;
    if (idle <= kIdleSpinSweeps) {
      // spin: arrivals usually land within a sweep under load
    } else if (idle <= kIdleYieldSweeps) {
      std::this_thread::yield();
    } else {
      st.publisher.release(reader);
      deep_park(1u << kIdleSleepMaxShift, [&] {
        return st.ingress.size_approx() > 0 ||
               st.dispatcher_stop.load(std::memory_order_acquire);
      });
      idle = kIdleYieldSweeps;  // stay in the park tier while idle
    }
  }
  st.publisher.release(reader);
}

std::optional<Task*> Runtime::service_steal(std::size_t id,
                                            std::size_t group, bool cross,
                                            obs::ServiceWorkerCounters& wc) {
  if (group_count_approx(group) <= 0) return std::nullopt;
  const std::size_t n = pools_.size();
  std::uint64_t& state = *steal_rng_[id];
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    state = util::mix64(state);
    const std::size_t victim =
        n > 1 ? util::uniform_excluding(state, id, n) : id;
    if (auto t = pools_[victim].deques[group]->steal()) {
      group_count_bump(group, id, -1);
      steals_.fetch_add(1, std::memory_order_relaxed);
      wc.bump(cross ? wc.robs : wc.steals);
      if (obs::EventTracer* tracer = options_.tracer;
          tracer != nullptr && tracer->enabled()) {
        tracer->steal(id, tracer->now_us(),
                      static_cast<std::uint32_t>(group),
                      static_cast<std::uint32_t>(victim), cross);
      }
      return t;
    }
    if (group_count_approx(group) <= 0) break;
  }
  return std::nullopt;
}

std::optional<Task*> Runtime::service_acquire(std::size_t id,
                                              const PlanSnapshot* snap) {
  obs::ServiceWorkerCounters& wc = service_metrics_->worker(id);
  const std::size_t my_group = snap->worker_group[id];
  const auto& order = snap->prefs.for_group(my_group);
  for (std::size_t g : order) {
    if (auto t = pools_[id].deques[g]->pop()) {
      group_count_bump(g, id, -1);
      wc.bump(wc.pops);
      return t;
    }
    if (auto t = service_steal(id, g, g != my_group, wc)) return t;
  }
  // A plan with fewer groups than its predecessor leaves tasks stranded
  // in deques outside the preference order; sweep those too so every
  // admitted task eventually runs (task conservation).
  for (std::size_t g = order.size(); g < options_.ladder.size(); ++g) {
    if (auto t = pools_[id].deques[g]->pop()) {
      group_count_bump(g, id, -1);
      wc.bump(wc.pops);
      return t;
    }
    if (auto t = service_steal(id, g, true, wc)) return t;
  }
  return std::nullopt;
}

void Runtime::run_service_task(std::size_t id, Task* task, std::size_t rung,
                               PerfCounters* pmc) {
  // The deques carry Task*; the service envelope starts with its Task.
  static_assert(offsetof(ServiceNode, task) == 0,
                "ServiceNode must start with its Task");
  ServiceNode* node = reinterpret_cast<ServiceNode*>(task);
  ServiceState& st = *service_;
  obs::EventTracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  if (pmc != nullptr) pmc->start();
  Clock::time_point t0_tp;
  if (tracing) t0_tp = Clock::now();
  const std::uint64_t t0 = util::FastClock::ticks();
  bool failed = false;
  try {
    task->fn();
  } catch (...) {
    // Service mode has no run_batch to rethrow from: exceptions are
    // counted (per class and in the planner's health report) and the
    // worker moves on.
    failed = true;
    failed_tasks_.fetch_add(1, std::memory_order_relaxed);
  }
  const double exec_s = util::FastClock::seconds_since(t0);
  const double cmi = pmc != nullptr ? pmc->stop().cmi() : 0.0;
  if (!failed) {
    // Same exclusion rule as batch profiling: a task that threw early
    // would corrupt its class's Eq. 1 workload mean.
    if (!st.profile_rings[id]->push(
            ProfileRec{static_cast<std::uint32_t>(task->class_id),
                       static_cast<std::uint32_t>(rung), exec_s, cmi})) {
      st.profile_drops.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const double sojourn_s =
      node->submit_ticks != 0
          ? util::FastClock::seconds_since(node->submit_ticks)
          : exec_s;
  service_metrics_->record_executed(id, task->class_id, sojourn_s, failed);
  if (tracing) {
    tracer->task(id, tracer->to_us(t0_tp), exec_s * 1e6,
                 static_cast<std::uint32_t>(task->class_id),
                 static_cast<std::uint32_t>(rung), failed);
  }
  // Recycle: drop the captured state now (it may pin caller resources),
  // then return the envelope to this worker's freelist.
  node->task.fn = TaskFn{};
  st.freelists[id].push_back(node);
  st.in_flight.fetch_sub(1, std::memory_order_acq_rel);
}

void Runtime::service_worker_loop(std::size_t id, PerfCounters* pmc) {
  ServiceState& st = *service_;
  SpscRing<ServiceItem>& inbox = *st.inboxes[id];
  std::uint64_t seen_seq = 0;
  std::size_t idle_sweeps = 0;
  for (;;) {
    const PlanSnapshot* snap = st.publisher.acquire(id);
    *st.worker_snap[id] = snap;
    if (snap->seq != seen_seq) {
      seen_seq = snap->seq;
      // Adopt the new plan: rung for Eq. 1 normalization. The rung tuple
      // arrived atomically with the layout and preference lists — this
      // is the whole point of the snapshot indirection. Keyed on the
      // publication seq, not the planner epoch: the staleness watchdog
      // can publish its degraded F0 snapshot in the same epoch as a
      // slow-but-valid plan, and that rung change must be adopted too.
      *worker_rung_[id] = snap->worker_rung[id];
    }
    // Move a bounded chunk from the inbox into our own deques (the
    // single-writer contract: only the owner pushes its deque bottoms).
    ServiceItem item;
    std::size_t drained = 0;
    const auto& layout = snap->plan.layout;
    while (drained < kInboxDrainChunk && inbox.pop(item)) {
      ServiceNode* node = alloc_service_node(id);
      node->task.class_id = item.class_id;
      node->task.fn = std::move(item.fn);
      node->tag = item.tag;
      node->submit_ticks = item.submit_ticks;
      std::size_t g = item.class_id < layout.class_count()
                          ? layout.group_of_class(item.class_id)
                          : 0;
      if (g >= snap->group_workers.size()) g = 0;
      pools_[id].deques[g]->push(&node->task);
      group_count_bump(g, id, 1);
      ++drained;
    }
    if (auto got = service_acquire(id, snap)) {
      run_service_task(id, *got, *worker_rung_[id], pmc);
      idle_sweeps = 0;
      continue;
    }
    if (drained > 0) {
      idle_sweeps = 0;
      continue;
    }
    if (st.workers_exit.load(std::memory_order_acquire)) break;
    ++idle_sweeps;
    if (idle_sweeps <= kIdleSpinSweeps) {
      // spin
    } else if (idle_sweeps <= kIdleYieldSweeps) {
      std::this_thread::yield();
    } else {
      const std::size_t ramp = std::min<std::size_t>(
          idle_sweeps - kIdleYieldSweeps - 1, kIdleSleepMaxShift);
      if (ramp < kIdleSleepMaxShift) {
        std::this_thread::sleep_for(std::chrono::microseconds(1u << ramp));
      } else {
        // Deep sleep: release the hazard pin so the planner can reclaim
        // retired snapshots while we park; re-acquired on wake.
        *st.worker_snap[id] = nullptr;
        st.publisher.release(id);
        const bool woken = deep_park(1u << kIdleSleepMaxShift, [&] {
          return inbox.size_approx() > 0 ||
                 st.workers_exit.load(std::memory_order_acquire);
        });
        // A wake means an arrival is being routed (the dispatcher parks
        // on the same condvar and is woken with us): spin for it rather
        // than park for a second wake. A backstop expiry stays in the
        // park tier — restarting the ramp would spend most of every idle
        // stretch in open-loop sleeps that no arrival can cut short.
        idle_sweeps = woken ? 0 : kIdleYieldSweeps + kIdleSleepMaxShift;
      }
    }
  }
  *st.worker_snap[id] = nullptr;
  st.publisher.release(id);
}

void Runtime::planner_main() {
  ServiceState& st = *service_;
  core::EewaController& ctrl = st.ctrl;
  const std::size_t n = pools_.size();
  const double epoch_s = st.opts.epoch_s;
  SlidingProfile sliding(st.opts.profile_window_epochs, st.class_count);
  const core::MachineTopology* topo =
      options_.controller.adjuster.topology.get();
  obs::EpochReport prev = service_metrics_->snapshot(0, 0.0, 0, 0);
  auto last_publish = Clock::now();
  std::size_t strikes = 0;
  std::uint64_t epoch = 1;

  const auto epoch_duration =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(epoch_s));
  auto deadline = st.t0 + epoch_duration;

  // Publish ctrl.plan() with the per-worker rungs the hardware reached;
  // false when the publisher rejected it.
  const auto publish = [&](const std::vector<std::size_t>& achieved,
                           bool reconciled, bool degraded) {
    auto snap = PlanSnapshot::build(epoch, ctrl.plan(), achieved, n);
    snap->reconciled = reconciled;
    snap->degraded = degraded;
    if (!st.publisher.publish(std::move(snap))) {
      service_metrics_->plan_rejects().fetch_add(1,
                                                 std::memory_order_relaxed);
      return false;
    }
    service_metrics_->plan_publishes().fetch_add(1,
                                                 std::memory_order_relaxed);
    if (obs::EventTracer* tracer = options_.tracer;
        tracer != nullptr && tracer->enabled()) {
      const double ts = tracer->now_us();
      for (std::size_t c = 0; c < achieved.size(); ++c) {
        tracer->rung(n, ts, static_cast<std::uint32_t>(c),
                     static_cast<std::uint32_t>(achieved[c]));
      }
    }
    return true;
  };

  while (!st.planner_stop.load(std::memory_order_acquire)) {
    // Sleep to the epoch boundary in short slices so stop is prompt.
    for (;;) {
      if (st.planner_stop.load(std::memory_order_acquire)) break;
      const auto now = Clock::now();
      if (now >= deadline) break;
      std::this_thread::sleep_for(std::min<Clock::duration>(
          deadline - now, std::chrono::milliseconds(1)));
    }
    if (st.planner_stop.load(std::memory_order_acquire)) break;

    // 1. Drain the workers' profile rings into the sliding window,
    // applying the alpha-corrected Eq. 1 normalization per record.
    // Worker w runs on core w, so its records carry that core's type.
    ProfileRec rec;
    for (std::size_t w = 0; w < n; ++w) {
      const std::size_t core_type =
          topo != nullptr && w < topo->total_cores() ? topo->type_of_core(w)
                                                     : 0;
      while (st.profile_rings[w]->pop(rec)) {
        const double alpha = core::estimate_alpha_from_cmi(rec.cmi);
        const double eff = core::effective_slowdown(
            topo, options_.ladder, core_type, rec.rung, alpha);
        sliding.record(rec.class_id, std::max(rec.exec_s / eff, 1e-9),
                       alpha);
      }
    }

    // 2. Re-plan off the critical path through the shared controller:
    // plan reuse, suffix or full search over the window, supervised
    // actuation with reconciliation, atomic publication. Workers never
    // stop executing while this happens.
    if (st.opts.planner_enabled && !ctrl.degraded()) {
      // T = the window the profile spans: demand is work per window,
      // capacity is cores x window. An overloaded window fails the
      // search and falls back to uniform F0 — full capacity is the
      // correct overload response, distinct from watchdog degrade.
      const double window_s =
          epoch_s * static_cast<double>(sliding.filled_epochs());
      ctrl.replan(sliding.profile(), st.class_count, window_s);
      const core::ActuationOutcome& outcome = ctrl.apply_supervised(*backend_);
      // Enough consecutive actuation failures degrade inside
      // apply_supervised (the controller's watchdog threshold).
      if (!ctrl.degraded()) {
        if (publish(outcome.achieved, !outcome.ok(), false)) {
          const auto now = Clock::now();
          const double gap =
              std::chrono::duration<double>(now - last_publish).count();
          last_publish = now;
          if (gap >
              epoch_s * static_cast<double>(st.opts.max_staleness_epochs)) {
            // The plan workers ran under went stale before this publish
            // landed (slow search, slow actuation, scheduling delay).
            service_metrics_->staleness_events().fetch_add(
                1, std::memory_order_relaxed);
            ++strikes;
          } else {
            strikes = 0;
          }
        } else {
          ++strikes;
        }
        if (strikes >= st.opts.max_staleness_strikes) ctrl.degrade(backend_);
      }
      if (ctrl.degraded()) {
        // Watchdog escalation: degrade pushed the whole machine to F0
        // and reconciled around any core that stayed behind; publish
        // that safe configuration with the rungs it reached. Planning
        // stays off for the rest of the run.
        std::vector<std::size_t> reached(
            std::min(n, backend_->core_count()));
        for (std::size_t c = 0; c < reached.size(); ++c) {
          reached[c] = backend_->frequency_index(c);
        }
        publish(reached, false, true);
      }
    }

    // 3. Per-epoch report: delta of the cumulative counters, with the
    // live queue gauges. Identity slack here is bounded by in-transit
    // bumps; the final post-drain report must reconcile exactly.
    const obs::EpochReport cum = service_metrics_->snapshot(
        epoch, seconds_since(st.t0),
        st.pending.load(std::memory_order_relaxed),
        st.in_flight.load(std::memory_order_relaxed));
    obs::EpochReport delta = obs::ServiceMetrics::delta(cum, prev);
    prev = cum;
    {
      std::lock_guard<std::mutex> lock(service_report_mu_);
      service_reports_.push_back(std::move(delta));
      service_health_ = ctrl.health();
      service_health_.task_exceptions = static_cast<std::size_t>(cum.failed);
    }
    sliding.rotate();
    ++epoch;
    deadline += epoch_duration;
    const auto now = Clock::now();
    if (deadline < now) deadline = now;  // overran: don't spiral
  }
}

bool Runtime::drain_service(double timeout_s) {
  if (!service_active_.load(std::memory_order_acquire)) return true;
  ServiceState& st = *service_;
  const auto t0 = Clock::now();
  for (;;) {
    if (st.pending.load(std::memory_order_acquire) == 0 &&
        st.in_flight.load(std::memory_order_acquire) == 0 &&
        st.ingress.size_approx() == 0) {
      return true;
    }
    if (seconds_since(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

obs::EpochReport Runtime::service_snapshot_unlocked() const {
  const ServiceState& st = *service_;
  const std::uint64_t published = st.publisher.epochs_published();
  return service_metrics_->snapshot(
      published == 0 ? 0 : published - 1, seconds_since(st.t0),
      st.pending.load(std::memory_order_acquire),
      st.in_flight.load(std::memory_order_acquire));
}

obs::EpochReport Runtime::service_snapshot() const {
  if (!service_active_.load(std::memory_order_acquire)) {
    throw std::logic_error("Runtime::service_snapshot: no service active");
  }
  return service_snapshot_unlocked();
}

std::vector<obs::EpochReport> Runtime::epoch_reports() const {
  std::lock_guard<std::mutex> lock(service_report_mu_);
  return service_reports_;
}

core::HealthReport Runtime::service_health() const {
  std::lock_guard<std::mutex> lock(service_report_mu_);
  return service_health_;
}

std::uint64_t Runtime::plan_epochs_published() const {
  if (service_ == nullptr) return 0;
  return service_->publisher.epochs_published();
}

obs::EpochReport Runtime::stop_service() {
  if (!service_active_.load(std::memory_order_acquire)) {
    throw std::logic_error("Runtime::stop_service: no service active");
  }
  ServiceState& st = *service_;
  st.accepting.store(false, std::memory_order_release);
  // Best-effort drain; anything still pending after the timeout is shed
  // by the dispatcher's stop path with full accounting.
  drain_service(10.0);
  st.planner_stop.store(true, std::memory_order_release);
  st.dispatcher_stop.store(true, std::memory_order_release);
  wake_sleepers();
  st.dispatcher.join();
  st.planner.join();
  st.workers_exit.store(true, std::memory_order_release);
  wake_sleepers();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return workers_active_ == 0; });
  }
  // Everything is quiescent: the final cumulative report must reconcile
  // exactly (pending/in_flight still counted if the drain timed out).
  obs::EpochReport report = service_snapshot_unlocked();
  service_active_.store(false, std::memory_order_release);
  tasks_run_ += static_cast<std::size_t>(report.executed);
  // Free envelopes a timed-out drain left behind in inboxes and deques
  // (workers are parked; the control thread owns everything again).
  for (std::size_t w = 0; w < pools_.size(); ++w) {
    ServiceItem item;
    while (st.inboxes[w]->pop(item)) {
    }
    for (auto& dq : pools_[w].deques) {
      while (auto t = dq->pop()) {
        delete reinterpret_cast<ServiceNode*>(*t);
      }
      dq->reclaim();
    }
  }
  for (auto& gc : group_counts_) gc->store(0, std::memory_order_relaxed);
  service_.reset();
  return report;
}

}  // namespace eewa::rt
