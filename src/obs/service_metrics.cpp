#include "obs/service_metrics.hpp"

#include <algorithm>
#include <sstream>

namespace eewa::obs {

namespace {

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

}  // namespace

std::uint64_t EpochReport::reconcile_slack() const {
  // Identity 1: every offered task went exactly one way.
  const std::uint64_t routed = admitted + shed + deferred + pending;
  std::uint64_t slack = abs_diff(offered, routed);
  // Identity 2: admitted + spawned tasks are executed or still queued.
  const std::uint64_t settled = executed + in_flight;
  slack = std::max(slack, abs_diff(admitted + spawned, settled));
  // Identity 3 (the BatchReport invariant, extended): acquires ==
  // executed, up to tasks currently between acquire and completion —
  // those are part of in_flight, so cumulative acquires can only lead.
  const std::uint64_t acq = acquires();
  if (acq >= executed) {
    // Tasks between acquire and completion are still in flight.
    const std::uint64_t executing = acq - executed;
    slack = std::max(slack, executing > in_flight ? executing - in_flight
                                                  : 0);
  } else {
    slack = std::max(slack, executed - acq);
  }
  return slack;
}

std::string EpochReport::to_string() const {
  std::ostringstream os;
  os << "epoch " << epoch << ": offered=" << offered
     << " admitted=" << admitted << " shed=" << shed
     << " deferred=" << deferred << " spawned=" << spawned
     << " executed=" << executed << " failed=" << failed
     << " probes=" << probes << " failed_sweeps=" << failed_sweeps
     << " pending=" << pending << " in_flight=" << in_flight
     << " depth_hwm=" << queue_depth_hwm << " publishes=" << plan_publishes
     << " staleness=" << staleness_events << " p50=" << p50_sojourn_us
     << "us p99=" << p99_sojourn_us << "us";
  return os.str();
}

ServiceMetrics::ServiceMetrics(std::size_t workers, std::size_t classes)
    : workers_(workers) {
  ensure_classes(classes);
}

void ServiceMetrics::ensure_classes(std::size_t classes) {
  while (classes_.size() < classes) {
    classes_.push_back(std::make_unique<ServiceClassCounters>());
  }
}

void ServiceMetrics::record_executed(std::size_t worker,
                                     std::size_t class_id, double sojourn_s,
                                     bool failed) {
  auto& wc = *workers_[worker];
  wc.bump(wc.tasks);
  auto& bucket = wc.sojourn_hist[exec_bucket(sojourn_s)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  if (class_id < classes_.size()) {
    classes_[class_id]->executed.fetch_add(1, std::memory_order_relaxed);
    if (failed) {
      classes_[class_id]->failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ServiceMetrics::set_queue_depth(std::uint64_t depth) {
  queue_depth_.store(depth, std::memory_order_relaxed);
  if (depth > depth_hwm_.load(std::memory_order_relaxed)) {
    depth_hwm_.store(depth, std::memory_order_relaxed);
  }
}

EpochReport ServiceMetrics::snapshot(std::uint64_t epoch, double span_s,
                                     std::uint64_t pending,
                                     std::uint64_t in_flight) const {
  EpochReport r;
  r.epoch = epoch;
  r.span_s = span_s;
  r.pending = pending;
  r.in_flight = in_flight;
  std::uint64_t hist[kExecBuckets] = {};
  for (const auto& w : workers_) {
    r.executed += w->tasks.load(std::memory_order_relaxed);
    r.pops += w->pops.load(std::memory_order_relaxed);
    r.steals += w->steals.load(std::memory_order_relaxed);
    r.robs += w->robs.load(std::memory_order_relaxed);
    r.probes += w->probes.load(std::memory_order_relaxed);
    r.failed_sweeps += w->failed_sweeps.load(std::memory_order_relaxed);
    r.spawned += w->spawned.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kExecBuckets; ++b) {
      hist[b] += w->sojourn_hist[b].load(std::memory_order_relaxed);
    }
  }
  r.classes.resize(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& cc = *classes_[c];
    auto& out = r.classes[c];
    out.offered = cc.offered.load(std::memory_order_relaxed);
    out.admitted = cc.admitted.load(std::memory_order_relaxed);
    out.shed = cc.shed.load(std::memory_order_relaxed);
    out.deferred = cc.deferred.load(std::memory_order_relaxed);
    out.executed = cc.executed.load(std::memory_order_relaxed);
    out.failed = cc.failed.load(std::memory_order_relaxed);
    r.offered += out.offered;
    r.admitted += out.admitted;
    r.shed += out.shed;
    r.deferred += out.deferred;
    r.failed += out.failed;
  }
  r.queue_depth_hwm = depth_hwm_.load(std::memory_order_relaxed);
  r.plan_publishes = plan_publishes_.load(std::memory_order_relaxed);
  r.plan_rejects = plan_rejects_.load(std::memory_order_relaxed);
  r.staleness_events = staleness_events_.load(std::memory_order_relaxed);
  r.p50_sojourn_us = sojourn_percentile_us(hist, 50.0);
  r.p99_sojourn_us = sojourn_percentile_us(hist, 99.0);
  return r;
}

EpochReport ServiceMetrics::delta(const EpochReport& now,
                                  const EpochReport& prev) {
  EpochReport d = now;
  d.span_s = now.span_s - prev.span_s;
  d.offered -= prev.offered;
  d.admitted -= prev.admitted;
  d.shed -= prev.shed;
  d.deferred -= prev.deferred;
  d.spawned -= prev.spawned;
  d.executed -= prev.executed;
  d.failed -= prev.failed;
  d.pops -= prev.pops;
  d.steals -= prev.steals;
  d.robs -= prev.robs;
  d.probes -= prev.probes;
  d.failed_sweeps -= prev.failed_sweeps;
  for (std::size_t c = 0; c < d.classes.size(); ++c) {
    if (c >= prev.classes.size()) break;
    d.classes[c].offered -= prev.classes[c].offered;
    d.classes[c].admitted -= prev.classes[c].admitted;
    d.classes[c].shed -= prev.classes[c].shed;
    d.classes[c].deferred -= prev.classes[c].deferred;
    d.classes[c].executed -= prev.classes[c].executed;
    d.classes[c].failed -= prev.classes[c].failed;
  }
  return d;
}

double sojourn_percentile_us(const std::uint64_t (&hist)[kExecBuckets],
                             double pct) {
  std::uint64_t total = 0;
  for (std::uint64_t c : hist) total += c;
  if (total == 0) return 0.0;
  const double target = pct / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kExecBuckets; ++b) {
    if (hist[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += hist[b];
    if (static_cast<double>(seen) >= target) {
      // Interpolate inside the winning log2 bucket.
      const double lo = exec_bucket_lo_s(b) * 1e6;
      const double hi = b + 1 < kExecBuckets
                            ? exec_bucket_lo_s(b + 1) * 1e6
                            : lo * 2.0;
      const double frac =
          (target - before) / static_cast<double>(hist[b]);
      return lo + frac * (hi - lo);
    }
  }
  return exec_bucket_lo_s(kExecBuckets - 1) * 1e6;
}

}  // namespace eewa::obs
