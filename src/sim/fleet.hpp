// Fleet-scale simulation: N machines, an S-state ladder, a placement
// tier, and a consolidation loop (docs/fleet.md).
//
// The paper optimizes energy *inside* one machine; the same workload-
// aware idea one level up is deciding which machines run at all. A
// Fleet drives N independent sim::Machine instances (each running its
// own per-machine scheduling policy — EEWA, Cilk, ...) from one seeded
// open-loop arrival stream:
//
//   arrivals ── placement tier ──> machine batches (one per epoch)
//                                  │
//   consolidation loop <───────────┘  idle machines drain, park, and
//                                     sink down the S-state ladder
//
// Time advances in fixed epochs. Within an epoch, arrivals are routed
// task-by-task against live per-machine backlog views; at the epoch
// boundary each machine with staged work runs them as one batch (its
// policy sees exactly the release-timed open-loop batch it would see
// standalone), and machines that stayed idle long enough are parked.
// Parked machines pay the S-state power of their current ladder rung
// and a wake latency to come back; the fleet accounts those intervals,
// the machines' own EnergyAccounts cover every powered second — each
// simulated second is billed exactly once, which the fleet oracles
// (testing/oracles.hpp) re-derive and check.
//
// Everything is deterministic in the seeds: same FleetOptions + same
// ArrivalSpec => bitwise-identical FleetReport — at every
// FleetOptions::threads setting. The parallel engine keeps routing
// serial, runs the per-machine epoch work concurrently (machines share
// no mutable state), and merges results in machine-index order; see
// docs/fleet.md "Threading".
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/fleet_metrics.hpp"
#include "sim/machine.hpp"
#include "sim/policies.hpp"
#include "trace/arrivals.hpp"

namespace eewa::sim {

/// One rung of the machine sleep ladder. Deeper states draw less and
/// wake slower; the ladder must be strictly decreasing in power and
/// strictly increasing in wake latency.
struct SleepState {
  std::string name;
  double power_w = 0.0;
  double wake_latency_s = 0.0;
};

/// The default ladder: suspend-to-idle through mechanical off, powers
/// scaled to sit under the Opteron server's 150 W machine floor
/// (energy/power_model.hpp), latencies spanning the four decades between
/// a clock-gate and a cold boot.
std::vector<SleepState> default_sleep_ladder();

/// Fleet configuration.
struct FleetOptions {
  std::size_t machines = 64;
  /// Per-machine simulator options. The per-machine RNG seed is derived
  /// from this seed and the machine index (see Fleet::machine_options);
  /// keep_batch_stats is forced off and a fixed adjuster overhead is
  /// substituted when unset, so fleet runs stay bounded in memory and
  /// bit-exact.
  SimOptions machine{};
  std::vector<SleepState> ladder = default_sleep_ladder();
  /// Energy of one park or wake transition (flushing caches, fencing
  /// devices, restoring context), charged per transition.
  double transition_energy_j = 2.0;

  /// Routing/consolidation cadence. Arrivals inside an epoch are routed
  /// against views refreshed at the epoch start.
  double epoch_s = 0.02;
  /// Consecutive fully-idle epochs before a machine parks into ladder[0].
  std::size_t park_after_epochs = 2;
  /// Parked epochs before sinking one ladder rung deeper (deepening is
  /// free; only park and wake pay transition_energy_j).
  std::size_t deepen_after_epochs = 2;

  /// Per-machine scheduling policy name (see make_policy).
  std::string policy = "eewa";
  /// Placement policy name (see make_placement).
  std::string placement = "least-loaded";
  /// Pack policy fill line (per-core backlog seconds); 0 = auto
  /// (2 x epoch_s).
  double pack_fill_s = 0.0;

  /// When > 0, a task routed to a machine whose per-core backlog
  /// exceeds this is shed instead of queued (open-loop overload guard);
  /// 0 = never shed.
  double max_backlog_s = 0.0;

  /// Initial machine power state: 0 = powered, i = parked in
  /// ladder[i-1] at t = 0 (the all-OFF cold-start shape). The initial
  /// park is counted in the park/transition ledgers.
  std::size_t initial_state = 0;

  /// Worker threads for the per-machine epoch work: 1 = the serial
  /// engine (default), 0 = one per hardware thread, N = exactly N
  /// (values past util::ThreadPool::kMaxThreads are rejected). The
  /// FleetReport is bit-identical for every value: routing stays
  /// serial, machine epochs share no mutable state (each sim::Machine
  /// owns its RNG and accounts), and results merge in machine-index
  /// order — see docs/fleet.md.
  std::size_t threads = 1;
};

/// The fleet simulator. Single-shot: construct, run() once.
class Fleet {
 public:
  /// Validates options and the stream spec (throws
  /// std::invalid_argument on a malformed ladder, zero machines,
  /// non-positive epoch, unknown policy names, or a spec ArrivalStream
  /// rejects).
  Fleet(FleetOptions opts, trace::ArrivalSpec arrivals);

  /// Run the whole stream to drain and return the report.
  obs::FleetReport run();

  /// The exact SimOptions machine `idx` runs with: the fleet's
  /// per-machine options plus the derived seed, keep_batch_stats off,
  /// and a fixed adjuster overhead when none was set. Exposed so the
  /// single-machine differential test can run a bare simulate() under
  /// bitwise-identical conditions.
  static SimOptions machine_options(const FleetOptions& opts,
                                    std::size_t idx);

 private:
  FleetOptions opts_;
  trace::ArrivalSpec spec_;
};

}  // namespace eewa::sim
