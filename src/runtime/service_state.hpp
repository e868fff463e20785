// Private to src/runtime: the service-mode state and the few internals
// runtime.cpp (worker core, spawn, batch mode) and runtime_service.cpp
// (the service control plane) share. Not part of the public API.
#pragma once

#include <chrono>

#include "runtime/runtime.hpp"

namespace eewa::rt {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Idle backoff thresholds (idle_backoff, runtime.cpp): pure spin for the
// first sweeps, sched_yield up to the next bound, then 1us exponential
// sleep, with the final tier (2^8 us) parking on the deep-sleep condvar
// instead of an open-loop sleep so producers can end the wait early.
inline constexpr std::size_t kIdleSpinSweeps = 16;
inline constexpr std::size_t kIdleYieldSweeps = 48;
inline constexpr std::size_t kIdleSleepMaxShift = 8;  // 2^8 us = 256us cap

/// `group` when it has workers, else the fastest (lowest-index) non-empty
/// group, which takes the orphaned tasks; group_workers.size() when no
/// group has any worker.
inline std::size_t staffed_group(
    const std::vector<std::vector<std::size_t>>& group_workers,
    std::size_t group) {
  if (group < group_workers.size() && !group_workers[group].empty()) {
    return group;
  }
  for (std::size_t cand = 0; cand < group_workers.size(); ++cand) {
    if (!group_workers[cand].empty()) return cand;
  }
  return group_workers.size();
}

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

}  // namespace eewa::rt
