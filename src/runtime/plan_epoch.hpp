// Atomic plan publication for the epoch-based service mode.
//
// In batch mode the frequency plan changes only at the barrier, where
// workers are parked; in service mode the planner thread re-runs
// Algorithm 1 while workers keep executing, so the handoff must be
// atomic: a worker either sees the complete old plan or the complete new
// one, never a torn mix of rung tuple, c-group layout and preference
// lists.
//
// The mechanism is an epoch pointer with hazard-pointer reclamation:
// the planner builds a fully immutable PlanSnapshot, validates it, and
// swings one atomic pointer; readers pin the snapshot they are using in
// a per-reader hazard slot, and the planner frees a retired snapshot
// only once no slot pins it. Readers are lock-free (two loads on the
// repeat-read fast path); the planner is the only thread that allocates
// or frees.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/frequency_plan.hpp"
#include "core/preference_list.hpp"
#include "util/aligned.hpp"

namespace eewa::rt {

/// One immutable epoch's scheduling state. Built and validated by the
/// planner, then published; never mutated afterwards.
struct PlanSnapshot {
  std::uint64_t epoch = 0;
  /// Monotone publication number, stamped by PlanPublisher::publish()
  /// itself — NOT by the planner. Two snapshots published within the
  /// same planner epoch (a slow-but-valid plan immediately followed by
  /// the staleness watchdog's degraded uniform-F0 configuration) share
  /// an `epoch` but never a `seq`; readers deciding "is this a new
  /// plan?" must key on seq, or they would skip the second snapshot and
  /// keep normalizing by a rung the hardware no longer runs.
  std::uint64_t seq = 0;
  core::FrequencyPlan plan;
  core::PreferenceTable prefs;
  /// Workers of each c-group (layout cores clipped to the worker count).
  std::vector<std::vector<std::size_t>> group_workers;
  /// C-group of each worker under this plan.
  std::vector<std::size_t> worker_group;
  /// Achieved (readback) rung of each worker — what Eq. 1 normalization
  /// must use, which can differ from the plan under actuation faults.
  std::vector<std::size_t> worker_rung;
  /// True when actuation missed targets and the layout was rebuilt
  /// around the achieved rungs (reconcile_plan).
  bool reconciled = false;
  /// True when this is the staleness/actuation watchdog's safe
  /// configuration (all cores at F0, single group).
  bool degraded = false;

  /// Structural validity: what every reader may assume of a published
  /// snapshot. The rung tuple is nondecreasing (c-groups fastest
  /// first), every worker has a group, group membership matches the
  /// group_workers lists, and preference lists cover every group.
  bool valid(std::size_t workers) const;

  /// C-group a task of `class_id` is queued in under this plan; ids the
  /// layout does not map (and groups past group_workers) go to group 0.
  std::size_t group_of(std::size_t class_id) const {
    const std::size_t g = class_id < plan.layout.class_count()
                              ? plan.layout.group_of_class(class_id)
                              : 0;
    return g < group_workers.size() ? g : 0;
  }

  /// Build a snapshot from a plan (post-actuation) for `workers`
  /// workers with the given achieved rungs.
  static std::unique_ptr<PlanSnapshot> build(
      std::uint64_t epoch, core::FrequencyPlan plan,
      const std::vector<std::size_t>& achieved_rungs, std::size_t workers);
};

/// Single-writer (planner) / multi-reader (workers, dispatcher) epoch
/// pointer with hazard-slot reclamation.
class PlanPublisher {
 public:
  /// `readers` fixed up front; reader ids are [0, readers). `workers` is
  /// the worker count snapshots are validated against — distinct from
  /// the reader count (the runtime's dispatcher holds a reader slot but
  /// is not a worker).
  PlanPublisher(std::size_t readers, std::size_t workers);
  ~PlanPublisher();

  PlanPublisher(const PlanPublisher&) = delete;
  PlanPublisher& operator=(const PlanPublisher&) = delete;

  /// Planner only. Validates the snapshot; an invalid snapshot is
  /// rejected (returns false, counted in publish_rejects()) and never
  /// becomes visible to any reader. On success the previous snapshot is
  /// retired and freed once no reader pins it.
  bool publish(std::unique_ptr<PlanSnapshot> snap);

  /// Pin and return the current snapshot for `reader`. The pointer stays
  /// valid until the reader's next acquire() or release(). Lock-free;
  /// when the plan has not changed since the last call this is two
  /// relaxed-ish loads.
  const PlanSnapshot* acquire(std::size_t reader);

  /// Drop the reader's pin (call before parking for long).
  void release(std::size_t reader);

  /// The current snapshot without pinning — only safe on the planner
  /// thread or when no publishes can be running.
  const PlanSnapshot* current() const {
    return active_.load(std::memory_order_acquire);
  }

  std::uint64_t epochs_published() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t publish_rejects() const {
    return rejects_.load(std::memory_order_relaxed);
  }
  /// Snapshots retired but not yet reclaimed (bounded by readers + 1).
  std::size_t retired_count() const { return retired_.size(); }

 private:
  void scan_retired();

  std::atomic<PlanSnapshot*> active_{nullptr};
  std::size_t workers_ = 0;
  std::vector<util::CachelinePadded<std::atomic<const PlanSnapshot*>>>
      hazards_;
  std::vector<PlanSnapshot*> retired_;  // planner-owned
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> rejects_{0};
};

}  // namespace eewa::rt
