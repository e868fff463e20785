// Fault-tolerant DVFS actuation. A frequency write can bounce or drift,
// but Eq. 1 normalization and the CC table are only valid when each core
// really runs at its assigned rung. The ActuationSupervisor closes that
// loop (every EewaController actuation goes through it, via
// apply_supervised() or degrade()): retry failed writes with
// exponential backoff, read back the achieved rung of every core, and —
// when a core cannot reach its target — reconcile the frequency plan so
// c-groups, class allocation and preference lists describe the machine
// as it actually is rather than as intended.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/frequency_plan.hpp"
#include "dvfs/dvfs_backend.hpp"

namespace eewa::core {

/// Retry/backoff configuration for one plan actuation.
struct ActuationOptions {
  /// Write attempts per core (1 initial + max_attempts-1 retries).
  std::size_t max_attempts = 4;
  /// First retry delay; doubles (backoff_multiplier) per further retry.
  double backoff_base_s = 100e-6;
  double backoff_multiplier = 2.0;
  /// Sleep for real between retries (hardware backends); when false the
  /// backoff is only modeled and reported in ActuationOutcome.
  bool sleep_on_backoff = false;
};

/// What one supervised actuation achieved.
struct ActuationOutcome {
  std::vector<std::size_t> target;    ///< per-core intended rung
  std::vector<std::size_t> achieved;  ///< per-core readback after retries
  std::vector<std::size_t> failed_cores;  ///< achieved != target
  std::size_t writes = 0;
  std::size_t retries = 0;
  std::size_t write_failures = 0;  ///< bounced writes + readback misses
  double backoff_s = 0.0;          ///< total (modeled) backoff time

  bool ok() const { return failed_cores.empty(); }
};

/// Cumulative fault-tolerance counters, queryable from the controller.
struct HealthReport {
  std::size_t writes = 0;
  std::size_t retries = 0;
  std::size_t write_failures = 0;
  std::size_t failed_cores = 0;  ///< per-batch cores that missed target
  std::size_t reconciliations = 0;
  std::size_t stuck_cores = 0;  ///< cores currently flagged stuck
  std::size_t degradations = 0;
  std::size_t makespan_blowups = 0;
  std::size_t task_exceptions = 0;
  bool degraded = false;

  /// One-line human-readable summary.
  std::string to_string() const;
};

/// Applies a FrequencyPlan to a backend with per-core retry + readback.
class ActuationSupervisor {
 public:
  explicit ActuationSupervisor(ActuationOptions options = {})
      : options_(options) {}

  /// Drive every core of `plan` to its rung. A core counts as actuated
  /// when readback matches the target, even if the write itself bounced
  /// (the core may already sit at the rung).
  ActuationOutcome apply(const FrequencyPlan& plan,
                         dvfs::DvfsBackend& backend) const;

  /// apply() into `out`, reusing its vectors (the controller actuates
  /// every batch this way).
  void apply(const FrequencyPlan& plan, dvfs::DvfsBackend& backend,
             ActuationOutcome& out) const;

  const ActuationOptions& options() const { return options_; }

 private:
  ActuationOptions options_;
};

/// Rebuild `intended` around the rungs the hardware actually reached:
/// cores are regrouped by achieved rung (fastest first) and every task
/// class moves to the group whose rung is nearest its intended one
/// (ties prefer the faster group). Cores beyond achieved.size() keep
/// their intended rung. The result always passes CGroupLayout
/// validation.
FrequencyPlan reconcile_plan(const FrequencyPlan& intended,
                             const std::vector<std::size_t>& achieved);

}  // namespace eewa::core
