// Service-mode observability: ingress and shedding accounting for the
// epoch-based open-loop runtime (docs/service_mode.md).
//
// Batch mode reads its WorkerCounters at the barrier, where workers are
// parked; service mode has no barrier, so everything here is written
// with atomics and may be read live. Two write disciplines:
//
//   - multi-writer counters (offered/deferred from submitter threads,
//     completed from whichever worker executed the task) use fetch_add;
//   - single-writer slots (per-worker task/acquire counters, the
//     dispatcher's queue-depth gauge) use the load+store idiom, which
//     compiles to a plain add but stays data-race-free for readers.
//
// The EpochReport extends the BatchReport reconciliation idea
// (acquires() == tasks) to open-loop accounting, where shed tasks must
// reconcile too:  offered == admitted + shed + deferred + pending  and
// admitted + spawned == executed + in_flight.  Live snapshots tolerate
// a bounded in-transit slack (a task between two counter bumps); after
// a drain the identities are exact.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/aligned.hpp"

namespace eewa::obs {

/// Ingress accounting for one task class.
struct ServiceClassCounters {
  std::atomic<std::uint64_t> offered{0};   ///< submit() calls
  std::atomic<std::uint64_t> admitted{0};  ///< dispatched to a worker
  std::atomic<std::uint64_t> shed{0};      ///< dropped by admission
  std::atomic<std::uint64_t> deferred{0};  ///< backpressure rejections
  std::atomic<std::uint64_t> executed{0};  ///< ran to completion (or threw)
  std::atomic<std::uint64_t> failed{0};    ///< threw
};

/// Plain-value snapshot of one class's counters.
struct ServiceClassSnapshot {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t executed = 0;
  std::uint64_t failed = 0;
};

/// Per-worker single-writer service counters (the owning worker is the
/// only writer; planner/report readers see monotonic values).
struct ServiceWorkerCounters {
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> pops{0};
  std::atomic<std::uint64_t> steals{0};  ///< within own c-group
  std::atomic<std::uint64_t> robs{0};    ///< cross-group
  std::atomic<std::uint64_t> probes{0};  ///< victim probes, hit or miss
  std::atomic<std::uint64_t> failed_sweeps{0};  ///< steal sweeps that gave up
  std::atomic<std::uint64_t> spawned{0};
  /// Sojourn (submit → completion) log2-microsecond histogram, same
  /// bucketing as ClassExecStats (exec_bucket()).
  std::atomic<std::uint64_t> sojourn_hist[kExecBuckets] = {};

  void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }
};

/// One epoch's (or the whole run's) reconciled view of the service.
struct EpochReport {
  std::uint64_t epoch = 0;      ///< plan epoch at snapshot time
  double span_s = 0.0;          ///< wall span this report covers
  std::uint64_t offered = 0;    ///< submit() calls
  std::uint64_t admitted = 0;   ///< handed to a worker inbox
  std::uint64_t shed = 0;       ///< dropped by admission control
  std::uint64_t deferred = 0;   ///< rejected with backpressure
  std::uint64_t spawned = 0;    ///< spawned mid-task inside the service
  std::uint64_t executed = 0;   ///< ran (includes failed)
  std::uint64_t failed = 0;
  std::uint64_t pops = 0;
  std::uint64_t steals = 0;
  std::uint64_t robs = 0;
  std::uint64_t probes = 0;     ///< victim probes, hit or miss
  std::uint64_t failed_sweeps = 0;  ///< steal sweeps that probed, gave up
  std::uint64_t pending = 0;    ///< ingress ring + staging, at snapshot
  std::uint64_t in_flight = 0;  ///< admitted+spawned not yet executed
  std::uint64_t queue_depth_hwm = 0;  ///< high-water queue depth so far
  std::uint64_t plan_publishes = 0;
  std::uint64_t plan_rejects = 0;
  std::uint64_t staleness_events = 0;
  double p50_sojourn_us = 0.0;
  double p99_sojourn_us = 0.0;
  std::vector<ServiceClassSnapshot> classes;

  /// The batch-mode invariant, carried over: every executed task was
  /// acquired exactly once.
  std::uint64_t acquires() const { return pops + steals + robs; }

  /// Largest violation of the conservation identities, in tasks. On a
  /// live snapshot each identity can be off by at most ~one in-transit
  /// bump per thread; after a drain (pending == in_flight == 0) every
  /// identity must hold exactly.
  std::uint64_t reconcile_slack() const;

  /// reconcile_slack() == 0.
  bool reconciles() const { return reconcile_slack() == 0; }

  /// Human-readable one-epoch summary.
  std::string to_string() const;
};

/// Live registry of service counters; owned by the runtime, written by
/// submitters, dispatcher, planner and workers per the per-field
/// disciplines above.
class ServiceMetrics {
 public:
  ServiceMetrics(std::size_t workers, std::size_t classes);

  /// Grow the class table (control thread, before workers can see the
  /// new id). Never shrinks.
  void ensure_classes(std::size_t classes);

  std::size_t class_count() const { return classes_.size(); }
  std::size_t worker_count() const { return workers_.size(); }

  ServiceClassCounters& cls(std::size_t id) { return *classes_.at(id); }
  ServiceWorkerCounters& worker(std::size_t id) { return *workers_.at(id); }

  /// Record one completed task (worker thread): sojourn in seconds.
  void record_executed(std::size_t worker, std::size_t class_id,
                       double sojourn_s, bool failed);

  // Dispatcher-only gauge.
  void set_queue_depth(std::uint64_t depth);
  std::uint64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  std::uint64_t queue_depth_hwm() const {
    return depth_hwm_.load(std::memory_order_relaxed);
  }

  // Planner-side counters.
  std::atomic<std::uint64_t>& plan_publishes() { return plan_publishes_; }
  std::atomic<std::uint64_t>& plan_rejects() { return plan_rejects_; }
  std::atomic<std::uint64_t>& staleness_events() {
    return staleness_events_;
  }

  /// Cumulative snapshot of everything (any thread; live values).
  /// `pending` and `in_flight` are supplied by the runtime, which owns
  /// those queues.
  EpochReport snapshot(std::uint64_t epoch, double span_s,
                       std::uint64_t pending,
                       std::uint64_t in_flight) const;

  /// Delta view: cumulative `now` minus cumulative `prev` (per-epoch
  /// reporting). Gauges and high-water marks keep `now`'s values.
  static EpochReport delta(const EpochReport& now, const EpochReport& prev);

 private:
  std::vector<util::CachelinePadded<ServiceWorkerCounters>> workers_;
  // Stable addresses under growth: ensure_classes appends while workers
  // hold references to existing slots.
  std::vector<std::unique_ptr<ServiceClassCounters>> classes_;
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> depth_hwm_{0};
  std::atomic<std::uint64_t> plan_publishes_{0};
  std::atomic<std::uint64_t> plan_rejects_{0};
  std::atomic<std::uint64_t> staleness_events_{0};
};

/// Percentile (0..100) from a log2-us histogram, interpolated within the
/// winning bucket; 0 when the histogram is empty.
double sojourn_percentile_us(const std::uint64_t (&hist)[kExecBuckets],
                             double pct);

}  // namespace eewa::obs
