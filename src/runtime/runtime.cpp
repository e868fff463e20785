#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>

#include "runtime/service_state.hpp"
#include "util/fast_clock.hpp"
#include "util/rng.hpp"

#include "core/preference_list.hpp"
#include "core/wats_allocation.hpp"
#include "util/cpu_affinity.hpp"

namespace eewa::rt {

namespace {

thread_local std::size_t tl_worker_id = static_cast<std::size_t>(-1);
thread_local Runtime* tl_runtime = nullptr;

// How many inbox items a service worker moves into its deques per
// scheduling loop: enough to amortize the ring hops, small enough that a
// worker sitting on a full inbox starts executing promptly.
constexpr std::size_t kInboxDrainChunk = 64;

// The idle ramp both worker loops share, after `idle_sweeps` fruitless
// sweeps in a row: spin the first sweeps (work usually appears within a
// steal sweep or two), then yield, then sleep with an exponentially
// growing interval. The final tier calls `park` (a deep_park on the
// condvar, true when a producer woke it) instead of an open-loop sleep:
// a spawn, a dispatched arrival or the batch completing ends the wait in
// microseconds, while the 256us cap remains as the timeout backstop, so
// worst-case wakeup latency is unchanged and an idle worker still stops
// burning the memory bandwidth the CMI gate (§IV-D) measures.
template <typename Park>
void idle_backoff(std::size_t& idle_sweeps, Park&& park) {
  if (idle_sweeps <= kIdleSpinSweeps) return;
  if (idle_sweeps <= kIdleYieldSweeps) {
    std::this_thread::yield();
    return;
  }
  const std::size_t ramp = idle_sweeps - kIdleYieldSweeps - 1;
  if (ramp < kIdleSleepMaxShift) {
    std::this_thread::sleep_for(std::chrono::microseconds(1u << ramp));
    return;
  }
  // A wake means work is on its way (in service mode the dispatcher
  // parks on the same condvar and is woken with us): spin for it rather
  // than park for a second wake. A backstop expiry stays in the park
  // tier — restarting the ramp would spend most of every idle stretch
  // in open-loop sleeps that no arrival can cut short.
  idle_sweeps = park() ? 0 : kIdleYieldSweeps + kIdleSleepMaxShift;
}

}  // namespace

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

std::int64_t Runtime::group_count_approx(std::size_t group) const {
  const std::size_t n = pools_.size();
  std::int64_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total +=
        group_counts_[group * n + w]->load(std::memory_order_acquire);
  }
  return total;
}

void Runtime::reset_pools() {
  for (auto& wp : pools_) {
    for (auto& dq : wp.deques) dq->reclaim();
  }
  for (auto& gc : group_counts_) gc->store(0, std::memory_order_relaxed);
}

std::pair<std::size_t, std::size_t> distribution_target(
    const std::vector<std::vector<std::size_t>>& group_workers,
    std::vector<std::size_t>& rr, std::size_t group) {
  const std::size_t g = staffed_group(group_workers, group);
  if (g == group_workers.size()) {
    throw std::logic_error("distribution_target: no c-group has any worker");
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
  reset_pools();

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

void Runtime::release_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    workers_active_ = pools_.size();
  }
  cv_start_.notify_all();
}

void Runtime::await_workers() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return workers_active_ == 0; });
}

double Runtime::run_batch(std::vector<TaskDesc> tasks) {
  if (service_active_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Runtime::run_batch: service mode active (stop_service first)");
  }
  prepare_batch(tasks);
  const auto t0 = Clock::now();
  release_workers();
  await_workers();
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
  Task* task = nullptr;
  std::size_t g = 0;
  if (service_active_.load(std::memory_order_relaxed)) {
    // Service-mode spawn: the node comes from the worker's own recycle
    // list and the c-group from the snapshot this worker already holds a
    // hazard pin on — still no locks, no cross-thread allocation.
    ServiceState& st = *service_;
    ServiceNode* node = alloc_service_node(id, handle.id, std::move(fn), 0,
                                           util::FastClock::ticks());
    task = &node->task;
    const PlanSnapshot* snap = *st.worker_snap[id];
    g = snap != nullptr ? snap->group_of(handle.id) : 0;
    st.in_flight.fetch_add(1, std::memory_order_acq_rel);
    obs::ServiceWorkerCounters& wc = service_metrics_->worker(id);
    wc.bump(wc.spawned);
  } else {
    // Steady-state hot path: no mutex, no heap allocation. The task
    // lives in the calling worker's arena (slab growth is amortized and
    // batch-local), the capture sits inline in the TaskFn, and the push
    // goes to the worker's own deque bottom.
    task = arenas_[id]->create(handle.id, std::move(fn));
    g = options_.kind == SchedulerKind::kEewa
            ? controller_->group_of_class(handle.id)
            : worker_group_[id];
    if (g >= group_count_) g = 0;
    remaining_.fetch_add(1, std::memory_order_acq_rel);
    ++metrics_->worker(id).spawns;
  }
  pools_[id].deques[g]->push(task);
  group_count_bump(g, id, 1);
  wake_sleepers();
}

// ---------------------------------------------------------------------------
// The worker core (paper §III-B, Fig. 4), shared by batch and service mode:
// pop from your c-group's pool, steal within the group, then rob the weaker
// groups down the preference list. A sink says where counts and profile
// records go; each mode keeps only its own steps around the core.

// Batch: the worker's WorkerCounters and WorkerProfile, merged at the
// barrier, and the first failure for run_batch to rethrow.
struct Runtime::BatchSink {
  Runtime& rt;
  std::size_t id;
  obs::WorkerCounters& wc;

  void popped(std::size_t g) { ++wc.pops[g]; }
  void probed(std::size_t probes) { wc.probes += probes; }
  void stole(std::size_t g, bool cross) { ++(cross ? wc.robs : wc.steals)[g]; }
  void missed() { ++wc.failed_sweeps; }
  // Runs inside the catch handler: capture the first failure.
  void failed() {
    std::lock_guard<std::mutex> lock(rt.failure_mu_);
    if (!rt.first_failure_) rt.first_failure_ = std::current_exception();
  }
  void profile(std::size_t class_id, std::size_t rung, double exec_s,
               double cmi) {
    rt.profiles_[id].record(class_id, exec_s, rung, cmi);
  }
  void executed(const Task& task, double exec_s, bool failed) {
    ++wc.tasks;
    wc.cls(task.class_id).observe(exec_s, failed);
  }
};

// Service: the worker's live ServiceWorkerCounters, the SPSC profile ring
// the planner drains, and the sojourn histogram.
struct Runtime::ServiceSink {
  ServiceState& st;
  obs::ServiceMetrics& metrics;
  obs::ServiceWorkerCounters& wc;
  std::size_t id;

  void popped(std::size_t) { wc.bump(wc.pops); }
  void probed(std::size_t probes) { wc.bump(wc.probes, probes); }
  void stole(std::size_t, bool cross) { wc.bump(cross ? wc.robs : wc.steals); }
  void missed() { wc.bump(wc.failed_sweeps); }
  // Service mode has no run_batch to rethrow from: exceptions are
  // counted (per class and in the planner's health report) and the
  // worker moves on.
  void failed() {}
  void profile(std::size_t class_id, std::size_t rung, double exec_s,
               double cmi) {
    if (!st.profile_rings[id]->push(
            ProfileRec{static_cast<std::uint32_t>(class_id),
                       static_cast<std::uint32_t>(rung), exec_s, cmi})) {
      st.profile_drops.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void executed(const Task& task, double exec_s, bool failed) {
    // The deques carry Task*; the service envelope starts with its Task.
    static_assert(offsetof(ServiceNode, task) == 0,
                  "ServiceNode must start with its Task");
    const auto& node = reinterpret_cast<const ServiceNode&>(task);
    const double sojourn_s =
        node.submit_ticks != 0
            ? util::FastClock::seconds_since(node.submit_ticks)
            : exec_s;
    metrics.record_executed(id, task.class_id, sojourn_s, failed);
  }
};

template <typename Sink>
std::optional<Task*> Runtime::steal(std::size_t id, std::size_t group,
                                    bool cross, Sink& sink) {
  if (group_count_approx(group) <= 0) return std::nullopt;
  const std::size_t n = pools_.size();
  // Random victim probing, bounded per sweep; callers loop while work
  // remains, so a failed sweep is retried from the top-level loop. The
  // RNG state persists across calls (seeded once in worker_main): a
  // per-call clock reseed is a syscall-adjacent read in the hottest
  // path, and coarse clocks hand concurrent sweeps identical victim
  // sequences — correlated probing the paper's analysis assumes away.
  std::uint64_t& state = *steal_rng_[id];
  std::size_t probes = 0;
  while (probes < 2 * n) {
    state = util::mix64(state);
    // Draw over the n-1 non-self workers; remapping a self-hit to id+1
    // would double that neighbour's probing probability.
    const std::size_t victim =
        n > 1 ? util::uniform_excluding(state, id, n) : id;
    ++probes;
    if (auto t = pools_[victim].deques[group]->steal()) {
      group_count_bump(group, id, -1);
      steals_.fetch_add(1, std::memory_order_relaxed);
      sink.probed(probes);
      sink.stole(group, cross);
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
  sink.probed(probes);
  sink.missed();
  return std::nullopt;
}

template <typename Sink>
std::optional<Task*> Runtime::acquire(std::size_t id, std::size_t my_group,
                                      const std::vector<std::size_t>& order,
                                      std::size_t sweep_end, Sink& sink) {
  const auto pop_or_steal = [&](std::size_t g) -> std::optional<Task*> {
    if (auto t = pools_[id].deques[g]->pop()) {
      group_count_bump(g, id, -1);
      sink.popped(g);
      return t;
    }
    return steal(id, g, g != my_group, sink);
  };
  for (std::size_t g : order) {
    if (auto t = pop_or_steal(g)) return t;
  }
  // A service plan with fewer groups than its predecessor leaves tasks
  // stranded in deques outside the preference order; service mode sweeps
  // those too (sweep_end = ladder size) so every admitted task eventually
  // runs (task conservation). Batch deques beyond the plan are empty, and
  // an empty-deque pop() still costs a fence: batch passes order.size().
  for (std::size_t g = order.size(); g < sweep_end; ++g) {
    if (auto t = pop_or_steal(g)) return t;
  }
  return std::nullopt;
}

template <typename Sink>
void Runtime::execute(std::size_t id, Task* task, std::size_t rung,
                      PerfCounters* pmc, Sink& sink) {
  obs::EventTracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  if (pmc != nullptr) pmc->start();
  const Clock::time_point t0_tp = tracing ? Clock::now() : Clock::time_point{};
  const std::uint64_t t0 = util::FastClock::ticks();
  bool failed = false;
  try {
    task->fn();
  } catch (...) {
    // A throwing task must not take the worker (and the batch barrier)
    // down with it.
    failed = true;
    failed_tasks_.fetch_add(1, std::memory_order_relaxed);
    sink.failed();
  }
  const double exec_s = util::FastClock::seconds_since(t0);
  const double cmi = pmc != nullptr ? pmc->stop().cmi() : 0.0;
  if (!failed) {
    // Failed tasks are excluded from the profile (and their CMI from
    // the §IV-D gate): a task that threw early looks ultra-fast and
    // would drag its class's Eq. 1 workload mean down, corrupting the
    // CC table the next plan is built from.
    sink.profile(task->class_id, rung, exec_s, cmi);
  }
  sink.executed(*task, exec_s, failed);
  if (tracing) {
    tracer->task(id, tracer->to_us(t0_tp), exec_s * 1e6,
                 static_cast<std::uint32_t>(task->class_id),
                 static_cast<std::uint32_t>(rung), failed);
  }
}

bool Runtime::run_one_task(std::size_t id, PerfCounters* pmc,
                           BatchSink& sink) {
  const auto& order = pref_lists_[worker_group_[id]];
  auto got = acquire(id, worker_group_[id], order, order.size(), sink);
  if (!got) return false;
  std::size_t rung = *worker_rung_[id];
  // Cilk-D ramps back up the moment it has work again. Read the rung
  // back after actuating: under fault injection the request can fail,
  // and the profile must record what the core actually ran at.
  if (options_.kind == SchedulerKind::kCilkD && rung != 0) {
    backend_->set_frequency(id, 0);
    rung = backend_->frequency_index(id);
    *worker_rung_[id] = rung;
  }
  execute(id, *got, rung, pmc, sink);
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
    } else {
      BatchSink sink{*this, id, metrics_->worker(id)};
      std::size_t idle_sweeps = 0;
      while (remaining_.load(std::memory_order_acquire) > 0) {
        if (run_one_task(id, pmc, sink)) {
          idle_sweeps = 0;
          continue;
        }
        ++idle_sweeps;
        ++sink.wc.idle_sweeps;
        if (options_.kind == SchedulerKind::kCilkD && idle_sweeps == 2 &&
            *worker_rung_[id] != options_.ladder.slowest_index()) {
          backend_->set_frequency(id, options_.ladder.slowest_index());
          *worker_rung_[id] = backend_->frequency_index(id);
        }
        idle_backoff(idle_sweeps, [&] {
          return deep_park(1u << kIdleSleepMaxShift, [&] {
            return remaining_.load(std::memory_order_seq_cst) <= 0;
          });
        });
      }
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (--workers_active_ == 0) cv_done_.notify_all();
  }
}

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

// ---------------------------------------------------------------------------
// Service-mode worker side (docs/service_mode.md); the control plane lives
// in runtime_service.cpp.

Runtime::ServiceNode* Runtime::alloc_service_node(
    std::size_t id, std::size_t class_id, TaskFn&& fn, std::uint64_t tag,
    std::uint64_t submit_ticks) {
  auto& fl = service_->freelists[id];
  ServiceNode* node = fl.empty() ? new ServiceNode() : fl.back();
  if (!fl.empty()) fl.pop_back();
  node->task.class_id = class_id;
  node->task.fn = std::move(fn);
  node->tag = tag;
  node->submit_ticks = submit_ticks;
  return node;
}

void Runtime::service_worker_loop(std::size_t id, PerfCounters* pmc) {
  ServiceState& st = *service_;
  SpscRing<ServiceItem>& inbox = *st.inboxes[id];
  ServiceSink sink{st, *service_metrics_, service_metrics_->worker(id), id};
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
    while (drained < kInboxDrainChunk && inbox.pop(item)) {
      ServiceNode* node = alloc_service_node(
          id, item.class_id, std::move(item.fn), item.tag, item.submit_ticks);
      const std::size_t g = snap->group_of(item.class_id);
      pools_[id].deques[g]->push(&node->task);
      group_count_bump(g, id, 1);
      ++drained;
    }
    const std::size_t my_group = snap->worker_group[id];
    if (auto got = acquire(id, my_group, snap->prefs.for_group(my_group),
                           options_.ladder.size(), sink)) {
      execute(id, *got, *worker_rung_[id], pmc, sink);
      // Recycle: drop the captured state now (it may pin caller
      // resources), then return the envelope to this worker's freelist.
      ServiceNode* node = reinterpret_cast<ServiceNode*>(*got);
      node->task.fn = TaskFn{};
      st.freelists[id].push_back(node);
      st.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      idle_sweeps = 0;
      continue;
    }
    if (drained > 0) {
      idle_sweeps = 0;
      continue;
    }
    if (st.workers_exit.load(std::memory_order_acquire)) break;
    ++idle_sweeps;
    idle_backoff(idle_sweeps, [&] {
      // Deep sleep: release the hazard pin so the planner can reclaim
      // retired snapshots while we park; re-acquired on wake.
      *st.worker_snap[id] = nullptr;
      st.publisher.release(id);
      return deep_park(1u << kIdleSleepMaxShift, [&] {
        return inbox.size_approx() > 0 ||
               st.workers_exit.load(std::memory_order_acquire);
      });
    });
  }
  *st.worker_snap[id] = nullptr;
  st.publisher.release(id);
}

}  // namespace eewa::rt
