// The open-loop service control plane (docs/service_mode.md): start,
// submit, the dispatcher, the epoch planner, drain, snapshots and stop.
// The service worker loop runs the shared worker core in runtime.cpp.
#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "runtime/service_state.hpp"
#include "util/fast_clock.hpp"

namespace eewa::rt {

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
  reset_pools();

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
  release_workers();

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

bool Runtime::dispatch_item(ServiceItem& item, const PlanSnapshot* snap) {
  ServiceState& st = *service_;
  // Orphaned c-group (all its cores above the worker count): route to
  // the fastest non-empty group, as distribution_target does.
  const std::size_t g =
      staffed_group(snap->group_workers, snap->group_of(item.class_id));
  if (g == snap->group_workers.size()) return false;
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

obs::EpochReport Runtime::service_snapshot() const {
  if (!service_active_.load(std::memory_order_acquire)) {
    throw std::logic_error("Runtime::service_snapshot: no service active");
  }
  const ServiceState& st = *service_;
  const std::uint64_t published = st.publisher.epochs_published();
  return service_metrics_->snapshot(
      published == 0 ? 0 : published - 1, seconds_since(st.t0),
      st.pending.load(std::memory_order_acquire),
      st.in_flight.load(std::memory_order_acquire));
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
  await_workers();
  // Everything is quiescent: the final cumulative report must reconcile
  // exactly (pending/in_flight still counted if the drain timed out).
  obs::EpochReport report = service_snapshot();
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
    }
  }
  reset_pools();
  service_.reset();
  return report;
}

}  // namespace eewa::rt
