// Open-loop service mode: configuration, admission control and the
// planner's sliding-window profile (docs/service_mode.md).
//
// Batch mode answers "run these N tasks, then replan at the barrier";
// service mode answers "traffic never stops": submitters push tasks into
// a bounded ingress ring at any time, a dispatcher routes them to
// per-worker inboxes under the currently published plan, and a planner
// thread re-runs Algorithm 1 every epoch off the critical path. Overload
// is a first-class input, not an error: admission control decides, per
// class, between backpressure and shedding, with explicit accounting so
// task conservation still holds (obs::EpochReport::reconciles()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/task_class.hpp"

namespace eewa::rt {

/// What the ingress does when the service is over its watermarks.
enum class AdmissionPolicy {
  /// Never shed: a full ingress ring rejects submit() with
  /// kBackpressure and the caller decides (retry, drop, slow down).
  kBlock,
  /// Shed arriving tasks of the lowest SLA tier first: tier 2 sheds at
  /// the high watermark, tier 1 at a higher depth, tier 0 never (it
  /// falls back to backpressure when the ring itself is full).
  kShedLowestSla,
  /// Keep the newest arrivals, evict the oldest undispatched task when
  /// over the watermark (bufferbloat control for latency-tolerant
  /// but freshness-sensitive traffic). SLA tier 0 stays never-shed:
  /// eviction skips protected items and a protected arrival is never
  /// the victim.
  kShedOldest,
};

const char* admission_policy_name(AdmissionPolicy policy);

/// Per-class service configuration. Classes must be declared before
/// start_service so the planner and the admission controller never
/// race the interner.
struct ServiceClassConfig {
  std::string name;
  /// SLA tier: 0 = never shed (gold), larger = shed earlier.
  std::size_t sla = 1;
};

/// Service-mode configuration.
struct ServiceOptions {
  /// Ingress ring slots (rounded up to a power of two). The hard bound
  /// on memory between submitters and the dispatcher.
  std::size_t queue_capacity = 8192;
  /// Per-worker inbox slots (rounded up to a power of two).
  std::size_t inbox_capacity = 2048;
  /// Undispatched depth (ring + staging) at which shedding activates;
  /// 0 means queue_capacity / 2.
  std::size_t high_watermark = 0;
  AdmissionPolicy policy = AdmissionPolicy::kShedLowestSla;
  /// Planner epoch length. Every epoch the planner drains the profile
  /// rings, re-plans, actuates and publishes. It plans through a
  /// core::EewaController built from RuntimeOptions::controller with the
  /// pruned search, whose watchdog also sets how many consecutive failed
  /// actuations degrade the service.
  double epoch_s = 0.005;
  /// Sliding profile window, in epochs.
  std::size_t profile_window_epochs = 4;
  /// A publish that lands more than this many epochs after the previous
  /// one is a staleness event (the plan workers run under is outdated).
  std::size_t max_staleness_epochs = 4;
  /// Consecutive staleness events (or plan-publish rejects) before the
  /// watchdog gives up on planning and degrades to uniform F0.
  std::size_t max_staleness_strikes = 3;
  /// False = never search or actuate: the service runs the whole time
  /// under the uniform-F0 single-group plan (the work-stealing
  /// baseline for bench_service_traffic).
  bool planner_enabled = true;
  /// Classes served; must cover every class submitted.
  std::vector<ServiceClassConfig> classes;
  /// Optional hook invoked (on the dispatcher or a submitter thread)
  /// for every shed task: (class_id, tag). Keep it cheap.
  std::function<void(std::size_t, std::uint64_t)> shed_hook;
};

/// Outcome of one submit().
enum class SubmitResult {
  kQueued,        ///< in the ingress ring (may still be shed later)
  kBackpressure,  ///< ring full under kBlock / gold-tier protection
  kShed,          ///< dropped immediately (ring full under a shed policy)
  kStopped,       ///< service not accepting (stopping or not started)
};

/// Dispatcher-side admission decisions; pure logic, single-threaded,
/// unit-testable without a runtime.
class AdmissionController {
 public:
  AdmissionController(AdmissionPolicy policy,
                      std::vector<std::size_t> class_sla,
                      std::size_t high_watermark,
                      std::size_t queue_capacity);

  enum class Decision {
    kAdmit,      ///< dispatch it
    kShed,       ///< drop the arriving task
    kEvictOldest,  ///< admit it, evict the oldest undispatched task
  };

  /// Decide for an arriving task of `class_id` when the undispatched
  /// depth (ring + staging) is `depth`.
  Decision decide(std::size_t class_id, std::size_t depth) const;

  /// Depth at which tier `sla` starts shedding (kShedLowestSla):
  /// the lowest tier sheds exactly at the high watermark, better tiers
  /// at progressively higher depths, tier 0 never.
  std::size_t shed_threshold(std::size_t sla) const;

  std::size_t high_watermark() const { return high_watermark_; }
  AdmissionPolicy policy() const { return policy_; }
  std::size_t sla_of(std::size_t class_id) const {
    return class_id < class_sla_.size() ? class_sla_[class_id] : max_sla_;
  }

  static constexpr std::size_t kNeverShed =
      std::numeric_limits<std::size_t>::max();

 private:
  AdmissionPolicy policy_;
  std::vector<std::size_t> class_sla_;
  std::size_t high_watermark_;
  std::size_t queue_capacity_;
  std::size_t max_sla_ = 0;
};

/// The planner's sliding per-class profile: a ring of per-epoch buckets
/// aggregated into the ClassProfile vector Algorithm 1 consumes. Only
/// the planner thread touches it.
class SlidingProfile {
 public:
  SlidingProfile(std::size_t window_epochs, std::size_t classes);

  /// Record one completed task (already Eq. 1 normalized).
  void record(std::size_t class_id, double norm_w, double alpha);

  /// Close the current epoch bucket and open the next.
  void rotate();

  /// Aggregate over the window, sorted by mean workload descending (the
  /// CC-table column order). Classes with no tasks in the window are
  /// omitted.
  std::vector<core::ClassProfile> profile() const;

  /// Epochs currently contributing to profile() (<= window).
  std::size_t filled_epochs() const { return filled_; }

  std::size_t class_count() const { return per_class_; }
  void ensure_classes(std::size_t classes);

 private:
  struct Cell {
    std::uint64_t count = 0;
    double sum_w = 0.0;
    double max_w = 0.0;
    double sum_alpha = 0.0;
  };

  std::size_t window_;
  std::size_t per_class_;
  std::size_t head_ = 0;    ///< current bucket
  std::size_t filled_ = 1;  ///< buckets holding data (incl. current)
  std::vector<Cell> cells_;  ///< [bucket * per_class_ + class]
};

}  // namespace eewa::rt
