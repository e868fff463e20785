#include "core/eewa_controller.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace eewa::core {

namespace {
constexpr double kInactive = std::numeric_limits<double>::quiet_NaN();
}  // namespace

EewaController::EewaController(dvfs::FrequencyLadder ladder,
                               std::size_t total_cores,
                               ControllerOptions options)
    : adjuster_(std::move(ladder), total_cores, options.adjuster),
      options_(options),
      classifier_(options.task_cmi_threshold, options.app_memory_fraction),
      plan_(uniform_plan(total_cores, 0)),
      prefs_(plan_.layout) {
  // A plan has at most one c-group per (type, rung) row: keep that much
  // layout and preference storage from the start, so no later plan
  // shape allocates.
  const std::size_t max_groups = options.adjuster.topology != nullptr
                                     ? options.adjuster.topology->row_count()
                                     : adjuster_.ladder().size();
  plan_.layout.reserve(max_groups, total_cores);
  last_.plan.layout.reserve(max_groups, total_cores);
  prefs_.reserve(max_groups);
}

void EewaController::begin_batch() {
  registry_.begin_iteration();
  // The boundedness verdict is per batch: clear the counter samples so
  // end_batch judges the batch that is about to run, not the whole run
  // (a workload whose memory-bound phase ends must be able to flip the
  // gate back).
  classifier_.reset();
}

void EewaController::record_task(std::size_t class_id, double exec_time_s,
                                 std::size_t rung, double cmi, double alpha,
                                 std::size_t core_type) {
  // Eq. 1 normalization, generalized for memory stalls. On typed
  // machines the slowdown is relative to the globally fastest row, so
  // workloads recorded on different clusters stay comparable.
  const double eff = effective_slowdown(options_.adjuster.topology.get(),
                                        ladder(), core_type, rung, alpha);
  registry_.record(class_id, exec_time_s / eff, alpha);
  // Counters are sampled every batch so the §IV-D gate can track phase
  // changes, not just the measurement batch's verdict.
  if (options_.memory_gate_enabled) {
    classifier_.record_cmi(cmi);
  }
}

const FrequencyPlan& EewaController::end_batch(double batch_makespan_s) {
  const auto t0 = std::chrono::steady_clock::now();
  // Watchdog: a batch that blows past the ideal time by the configured
  // factor is a strike; enough consecutive strikes degrade the run.
  if (options_.watchdog.enabled && batches_ > 0 && ideal_time_s_ > 0.0 &&
      batch_makespan_s >
          options_.watchdog.makespan_blowup_factor * ideal_time_s_) {
    ++health_.makespan_blowups;
    if (++consecutive_blowups_ >= options_.watchdog.max_consecutive_blowups &&
        !degraded_) {
      degrade(nullptr);
    }
  } else {
    consecutive_blowups_ = 0;
  }
  if (batches_ > 0 && options_.ideal_time == IdealTimeMode::kRollingMin &&
      batch_makespan_s > 0.0 && batch_makespan_s < ideal_time_s_) {
    ideal_time_s_ = batch_makespan_s;
  }
  const bool gate_active =
      options_.memory_gate_enabled && !options_.adjuster.memory_aware;
  if (batches_ == 0) {
    ideal_time_s_ = batch_makespan_s;
    // Memory-bound applications fall back to plain work-stealing
    // (§IV-D) — unless the memory-aware planning extension is on, in
    // which case the corrected CC model handles them.
    if (gate_active && classifier_.application_memory_bound()) {
      memory_bound_mode_ = true;
    }
  } else if (gate_active && classifier_.task_count() > 0) {
    // Re-judge the gate on this batch's counters. A verdict contrary to
    // the current mode must persist memory_gate_hysteresis consecutive
    // batches before the mode flips; batches with no samples neither
    // extend nor break the streak.
    const bool verdict = classifier_.application_memory_bound();
    if (verdict != memory_bound_mode_) {
      if (++gate_contrary_streak_ >=
          std::max<std::size_t>(1, options_.memory_gate_hysteresis)) {
        memory_bound_mode_ = verdict;
        gate_contrary_streak_ = 0;
        ++gate_flips_;
        // Either direction invalidates the plan basis: entering the
        // gate discards the plan; leaving it means the uniform plan was
        // never searched from a profile.
        plan_basis_valid_ = false;
      }
    } else {
      gate_contrary_streak_ = 0;
    }
  }
  ++batches_;

  bool searched = false;
  if (memory_bound_mode_ || degraded_) {
    uniform_plan(total_cores(), registry_.class_count(), plan_);
    prefs_.rebuild(plan_.layout);
    plan_basis_valid_ = false;
  } else {
    registry_.iteration_profile(profile_);
    searched = replan(profile_, registry_.class_count(), ideal_time_s_);
  }
  // The whole end-of-batch pipeline (profile sort, CC build, search, plan,
  // preference lists) is the adjuster overhead Table III reports.
  const double pipeline_us = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  overhead_us_ += pipeline_us;
  if (tracer_ != nullptr && tracer_->enabled()) {
    const double end_us = tracer_->now_us();
    tracer_->phase(control_track_, end_us - pipeline_us, pipeline_us,
                   obs::PhaseKind::kPlan, registry_.class_count());
    if (searched) {
      // The k-tuple search nests inside the plan span; it ends when the
      // pipeline hands the plan over, so anchor it at the tail.
      const double search_us =
          std::min(last_.search.elapsed_us, pipeline_us);
      tracer_->phase(control_track_, end_us - search_us, search_us,
                     obs::PhaseKind::kSearch, last_.search.nodes_visited);
    }
  }
  return plan_;
}

namespace {

/// Relative drift check shared by full reuse and the stable-prefix
/// scan. A zero basis only passes when the fresh value is zero too.
bool within_tolerance(double fresh, double basis, double tol) {
  return std::abs(fresh - basis) <= tol * basis;
}

}  // namespace

bool EewaController::replan(const std::vector<ClassProfile>& profile,
                            std::size_t class_count, double ideal_time_s) {
  if (options_.plan_reuse_enabled &&
      plan_reusable_for(profile, ideal_time_s)) {
    // Profile statistically unchanged since the current plan's search:
    // Algorithm 1 would reproduce the same k-tuple, so keep the plan
    // (and its preference lists) and skip the search entirely.
    ++plans_reused_;
    return false;
  }
  // The new adjustment is planned into last_'s storage (its CC table,
  // search tuple and layout), so one CC table is alive at a time and a
  // steady run plans without allocating.
  const std::size_t keep =
      options_.plan_reuse_enabled && options_.incremental_replan_enabled
          ? stable_prefix_len(profile, ideal_time_s)
          : 0;
  if (keep > 0) {
    // Only a suffix of the class order drifted: pin the stable prefix's
    // rungs and re-search the rest of the lattice. The adjuster
    // re-validates the prefix against the fresh CC table and falls back
    // to a full search if a spike broke it.
    prefix_.assign(
        plan_basis_tuple_.begin(),
        plan_basis_tuple_.begin() + static_cast<std::ptrdiff_t>(keep));
    adjuster_.adjust_incremental(profile, class_count, ideal_time_s, prefix_,
                                 last_);
    if (last_.incremental) ++plans_incremental_;
  } else {
    adjuster_.adjust(profile, class_count, ideal_time_s, last_);
  }
  plan_ = last_.plan;
  prefs_.rebuild(plan_.layout);
  save_plan_basis(profile, class_count, ideal_time_s);
  return true;
}

bool EewaController::plan_reusable_for(
    const std::vector<ClassProfile>& profile, double ideal_time_s) const {
  if (!plan_basis_valid_ || profile.empty()) return false;
  // T moved (kRollingMin ratchet, a service window still filling): the
  // search target changed even if the per-class means did not.
  if (ideal_time_s != plan_basis_ideal_s_) return false;
  // Same set of active classes, every mean AND max within tolerance.
  // The max matters because rung feasibility is gated on the heaviest
  // task (critical path): a single workload spike can invalidate the
  // cached tuple even when the class mean barely moves.
  std::size_t active_seen = 0;
  for (const auto& c : profile) {
    if (c.class_id >= plan_basis_means_.size()) return false;  // new class
    const double basis = plan_basis_means_[c.class_id];
    if (std::isnan(basis)) return false;  // class was inactive at search
    ++active_seen;
    if (!within_tolerance(c.mean_workload, basis,
                          options_.plan_reuse_tolerance)) {
      return false;
    }
    if (!within_tolerance(c.max_workload, plan_basis_max_[c.class_id],
                          options_.plan_reuse_tolerance)) {
      return false;
    }
  }
  std::size_t basis_active = 0;
  for (const double m : plan_basis_means_) {
    if (!std::isnan(m)) ++basis_active;
  }
  return active_seen == basis_active;  // no class went quiet
}

std::size_t EewaController::stable_prefix_len(
    const std::vector<ClassProfile>& profile, double ideal_time_s) const {
  if (!plan_basis_valid_ || plan_basis_tuple_.empty()) return 0;
  if (ideal_time_s != plan_basis_ideal_s_) return 0;
  const std::size_t limit =
      std::min(profile.size(), plan_basis_order_.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& c = profile[i];
    // Any mismatch cuts the prefix here: a class that drifted, swapped
    // sorted position, appeared, or vanished changes every CC column
    // from this point on, so the cached rungs past it are meaningless.
    if (c.class_id != plan_basis_order_[i]) return i;
    if (!within_tolerance(c.mean_workload, plan_basis_means_[c.class_id],
                          options_.plan_reuse_tolerance) ||
        !within_tolerance(c.max_workload, plan_basis_max_[c.class_id],
                          options_.plan_reuse_tolerance)) {
      return i;
    }
  }
  return limit;
}

void EewaController::save_plan_basis(
    const std::vector<ClassProfile>& profile, std::size_t class_count,
    double ideal_time_s) {
  plan_basis_means_.assign(class_count, kInactive);
  plan_basis_max_.assign(class_count, kInactive);
  plan_basis_order_.clear();
  plan_basis_order_.reserve(profile.size());
  for (const auto& c : profile) {
    plan_basis_means_[c.class_id] = c.mean_workload;
    plan_basis_max_[c.class_id] = c.max_workload;
    plan_basis_order_.push_back(c.class_id);
  }
  // The tuple is only a valid incremental basis when the search that
  // produced the running plan actually succeeded on this profile.
  if (last_.attempted && last_.search.found &&
      last_.search.tuple.size() == profile.size()) {
    plan_basis_tuple_ = last_.search.tuple;
    // A suffix re-plan pins a prefix of this tuple: size its buffer now.
    prefix_.reserve(plan_basis_tuple_.size());
  } else {
    plan_basis_tuple_.clear();
  }
  plan_basis_ideal_s_ = ideal_time_s;
  plan_basis_valid_ = !profile.empty();
}

std::size_t EewaController::group_of_class(std::size_t class_id) const {
  if (class_id >= plan_.layout.class_count()) return 0;
  return plan_.layout.group_of_class(class_id);
}

const ActuationOutcome& EewaController::apply_supervised(
    dvfs::DvfsBackend& backend) {
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const double actuate_ts = tracing ? tracer_->now_us() : 0.0;
  ActuationSupervisor supervisor(options_.actuation);
  supervisor.apply(plan_, backend, last_outcome_);
  if (tracing) {
    tracer_->phase(control_track_, actuate_ts,
                   tracer_->now_us() - actuate_ts, obs::PhaseKind::kActuate,
                   last_outcome_.writes);
  }
  health_.writes += last_outcome_.writes;
  health_.retries += last_outcome_.retries;
  health_.write_failures += last_outcome_.write_failures;

  // Per-core failure streaks: a core that misses its rung in
  // stuck_core_threshold consecutive actuations is reported stuck.
  if (core_failure_streak_.size() < backend.core_count()) {
    core_failure_streak_.resize(backend.core_count(), 0);
  }
  // failed_cores is ascending (the supervisor drives cores in order), so
  // one cursor walks it alongside the cores.
  const auto& failed = last_outcome_.failed_cores;
  std::size_t next_failed = 0;
  health_.stuck_cores = 0;
  for (std::size_t c = 0; c < core_failure_streak_.size(); ++c) {
    const bool f = next_failed < failed.size() && failed[next_failed] == c;
    if (f) ++next_failed;
    core_failure_streak_[c] = f ? core_failure_streak_[c] + 1 : 0;
    if (core_failure_streak_[c] >= options_.watchdog.stuck_core_threshold) {
      ++health_.stuck_cores;
    }
  }

  if (!last_outcome_.ok()) {
    health_.failed_cores += last_outcome_.failed_cores.size();
    ++consecutive_actuation_failures_;
    // Reconcile: regroup the plan around what the hardware reached, so
    // Eq. 1 normalization and the stealing order match reality.
    plan_ = reconcile_plan(plan_, last_outcome_.achieved);
    prefs_.rebuild(plan_.layout);
    // The running plan no longer matches its search inputs; the next
    // end_batch must re-search rather than reuse.
    plan_basis_valid_ = false;
    ++health_.reconciliations;
    if (tracing) {
      tracer_->phase(control_track_, tracer_->now_us(), -1.0,
                     obs::PhaseKind::kReconcile,
                     last_outcome_.failed_cores.size());
    }
    if (options_.watchdog.enabled && !degraded_ &&
        consecutive_actuation_failures_ >=
            options_.watchdog.max_consecutive_actuation_failures) {
      degrade(&backend);
    }
  } else {
    consecutive_actuation_failures_ = 0;
  }
  health_.degraded = degraded_;
  return last_outcome_;
}

void EewaController::note_task_failures(std::size_t count) {
  if (count == 0) return;
  health_.task_exceptions += count;
  if (options_.watchdog.enabled && !degraded_ &&
      health_.task_exceptions >= options_.watchdog.max_task_exceptions) {
    degrade(nullptr);
    health_.degraded = true;
  }
}

void EewaController::degrade(dvfs::DvfsBackend* backend) {
  degraded_ = true;
  ++health_.degradations;
  health_.degraded = true;
  plan_basis_valid_ = false;
  uniform_plan(total_cores(), registry_.class_count(), plan_);
  if (backend != nullptr) {
    // Best-effort push to the safe all-F0 configuration; cores that
    // still cannot switch are reconciled around one more time.
    ActuationSupervisor supervisor(options_.actuation);
    const auto out = supervisor.apply(plan_, *backend);
    health_.writes += out.writes;
    health_.retries += out.retries;
    health_.write_failures += out.write_failures;
    if (!out.ok()) {
      plan_ = reconcile_plan(plan_, out.achieved);
      ++health_.reconciliations;
    }
  }
  prefs_.rebuild(plan_.layout);
}

}  // namespace eewa::core
