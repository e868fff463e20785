#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "util/fast_clock.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eewa::sim {

std::vector<SleepState> default_sleep_ladder() {
  // Powers sit under the 150 W Opteron machine floor; latencies span
  // clock-gate (sub-ms) to cold boot (seconds), one decade per rung —
  // the shape of the SPECpower-style machine-class tables.
  return {
      {"s1", 100.0, 0.5e-3},
      {"s2", 80.0, 5e-3},
      {"s3", 40.0, 50e-3},
      {"s4", 10.0, 0.5},
      {"off", 0.0, 5.0},
  };
}

SimOptions Fleet::machine_options(const FleetOptions& opts,
                                  std::size_t idx) {
  SimOptions o = opts.machine;
  // Decorrelate per-machine scheduling randomness; golden-ratio stride
  // keeps adjacent machines' streams far apart even for tiny seeds.
  o.seed = util::mix64(o.seed ^ (0x9E3779B97F4A7C15ull * (idx + 1)));
  o.keep_batch_stats = false;
  if (o.fixed_adjuster_overhead_s < 0.0) {
    // The measured adjuster overhead injects host-clock noise; a fleet
    // run must be bit-exact, so substitute the calibrated constant.
    o.fixed_adjuster_overhead_s = 20e-6;
  }
  o.tracer = nullptr;  // per-core event tracks don't compose at fleet scale
  return o;
}

namespace {

/// Everything the fleet tracks about one machine beyond the Machine
/// itself. A Slot is touched by exactly one thread during the parallel
/// machine-epoch phase and only by the router between phases — that
/// ownership handoff (epoch barrier on both sides) is the entire
/// synchronization story.
struct Slot {
  std::unique_ptr<Machine> m;
  std::unique_ptr<Policy> policy;
  double busy_until = 0.0;  ///< absolute end of the last batch
  bool parked = false;
  std::size_t state = 0;  ///< ladder index while parked
  double parked_since = 0.0;
  double state_enter = 0.0;
  double parked_total_s = 0.0;
  std::size_t idle_epochs = 0;
  std::size_t epochs_in_state = 0;
  bool pending_wake = false;
  double wake_at = 0.0;
  /// This epoch's routed tasks, reused every epoch (no per-epoch
  /// churn). The router appends each with its absolute arrival time in
  /// release_s; step_machine rebases those to the batch start in place.
  trace::Batch batch;
  obs::MachineReport rep;
};

void validate(const FleetOptions& opts) {
  if (opts.machines == 0) {
    throw std::invalid_argument("Fleet: machines must be >= 1");
  }
  if (!(opts.epoch_s > 0.0)) {
    throw std::invalid_argument("Fleet: epoch_s must be > 0");
  }
  if (opts.threads > util::ThreadPool::kMaxThreads) {
    throw std::invalid_argument(
        "Fleet: threads = " + std::to_string(opts.threads) +
        " is not a plausible worker count (0 = hardware concurrency)");
  }
  if (opts.ladder.empty()) {
    throw std::invalid_argument("Fleet: empty sleep ladder");
  }
  for (std::size_t k = 0; k < opts.ladder.size(); ++k) {
    const auto& s = opts.ladder[k];
    if (s.power_w < 0.0 || s.wake_latency_s <= 0.0) {
      throw std::invalid_argument("Fleet: ladder state " + s.name +
                                  " has negative power or non-positive "
                                  "wake latency");
    }
    if (k > 0 && !(s.power_w < opts.ladder[k - 1].power_w &&
                   s.wake_latency_s > opts.ladder[k - 1].wake_latency_s)) {
      throw std::invalid_argument(
          "Fleet: ladder must be strictly decreasing in power and "
          "strictly increasing in wake latency");
    }
  }
  if (opts.initial_state > opts.ladder.size()) {
    throw std::invalid_argument("Fleet: initial_state beyond the ladder");
  }
  if (opts.transition_energy_j < 0.0) {
    throw std::invalid_argument("Fleet: negative transition energy");
  }
  if (opts.park_after_epochs == 0 || opts.deepen_after_epochs == 0) {
    throw std::invalid_argument(
        "Fleet: park_after_epochs / deepen_after_epochs must be >= 1");
  }
}

}  // namespace

Fleet::Fleet(FleetOptions opts, trace::ArrivalSpec arrivals)
    : opts_(std::move(opts)), spec_(std::move(arrivals)) {
  validate(opts_);
  // Fail fast on unknown names and a malformed stream spec (before a
  // long run starts).
  trace::ArrivalStream{spec_};
  make_placement(opts_.placement, 1.0);
  std::vector<std::string> class_names;
  for (const auto& c : spec_.classes) class_names.push_back(c.name);
  make_policy(opts_.policy, class_names);
}

obs::FleetReport Fleet::run() {
  const std::size_t M = opts_.machines;
  const std::size_t ladder_n = opts_.ladder.size();
  const double cores = static_cast<double>(opts_.machine.cores);

  std::vector<std::string> class_names;
  for (const auto& c : spec_.classes) class_names.push_back(c.name);

  std::vector<Slot> slots(M);
  for (std::size_t i = 0; i < M; ++i) {
    auto& s = slots[i];
    s.m = std::make_unique<Machine>(machine_options(opts_, i));
    s.policy = make_policy(opts_.policy, class_names);
    s.rep.sleep_residency_s.assign(ladder_n, 0.0);
    s.rep.wakes_per_state.assign(ladder_n, 0);
    if (opts_.initial_state > 0) {
      s.m->park(0.0);
      s.parked = true;
      s.state = opts_.initial_state - 1;
      s.rep.parks++;  // the cold start counts in the transition ledger
    }
  }

  const double fill =
      opts_.pack_fill_s > 0.0 ? opts_.pack_fill_s : 2.0 * opts_.epoch_s;
  auto placement = make_placement(opts_.placement, fill);

  trace::ArrivalStream stream(spec_);

  obs::FleetReport out;
  out.machines = M;
  out.cores_per_machine = opts_.machine.cores;
  out.epoch_s = opts_.epoch_s;
  for (const auto& st : opts_.ladder) {
    out.ladder.push_back({st.name, st.power_w, st.wake_latency_s});
  }

  const std::size_t epochs = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(spec_.duration_s / opts_.epoch_s)));
  out.epochs = epochs;

  // The worker pool lives for the whole run (spawned here, joined on
  // scope exit) so epochs pay a wakeup, never a thread spawn. With
  // threads == 1 (or one machine) no pool exists and every step below
  // runs inline — the serial engine, byte for byte.
  std::optional<util::ThreadPool> pool;
  const std::size_t threads =
      opts_.threads == 0 ? util::hardware_threads() : opts_.threads;
  if (threads > 1 && M > 1) pool.emplace(threads);

  std::vector<MachineView> views(M);

  // The per-machine epoch step: run the staged batch (waking a sleeper
  // first), then apply consolidation. Touches only slot i and reads
  // only shared immutable state, so the pool may run any subset of
  // machines concurrently; the serial engine calls it in index order.
  const auto step_machine = [&](std::size_t i, double t0, double t1) {
    auto& s = slots[i];
    const bool ran = !s.batch.tasks.empty();
    if (ran) {
      double start;
      if (s.parked) {
        const double w = s.wake_at;
        const double lat = opts_.ladder[s.state].wake_latency_s;
        s.rep.sleep_residency_s[s.state] += w - s.state_enter;
        s.rep.wakes_per_state[s.state]++;
        s.rep.wakes++;
        s.rep.wake_stall_s += lat;
        s.parked_total_s += w - s.parked_since;
        s.m->wake(w);
        s.m->run_idle(w + lat);  // the wake stall, billed as powered idle
        s.parked = false;
        s.pending_wake = false;
        s.epochs_in_state = 0;
        start = w + lat;
      } else {
        start = std::max(s.m->charged_through(), t0);
        s.m->run_idle(start);  // powered-idle gap since the last batch
      }
      for (auto& t : s.batch.tasks) {
        t.release_s = std::max(0.0, t.release_s - start);
      }
      const double end = s.m->run_batch(*s.policy, s.batch, start);
      s.busy_until = end;
      if (s.rep.first_start_s < 0.0) s.rep.first_start_s = start;
      ++s.rep.batches;
      s.idle_epochs = 0;
      s.batch.tasks.clear();
    }

    // Consolidation: an idle machine parks, a sleeper sinks deeper.
    if (s.parked) {
      if (++s.epochs_in_state >= opts_.deepen_after_epochs &&
          s.state + 1 < ladder_n) {
        s.rep.sleep_residency_s[s.state] += t1 - s.state_enter;
        ++s.state;
        s.state_enter = t1;
        s.epochs_in_state = 0;
      }
    } else if (ran || s.busy_until > t1) {
      s.idle_epochs = 0;
    } else if (++s.idle_epochs >= opts_.park_after_epochs) {
      s.m->run_idle(t1);
      s.m->park(t1);
      s.parked = true;
      s.state = 0;
      s.parked_since = t1;
      s.state_enter = t1;
      s.epochs_in_state = 0;
      s.idle_epochs = 0;
      ++s.rep.parks;
    }
  };

  // Phase clocks: each lap() bills the ticks since the previous one to
  // a phase, so the phases never overlap.
  std::uint64_t refresh_ticks = 0, route_ticks = 0, step_ticks = 0,
                finish_ticks = 0;
  std::uint64_t lap_from = util::FastClock::ticks();
  const auto lap = [&lap_from](std::uint64_t& phase) {
    const std::uint64_t now = util::FastClock::ticks();
    phase += now - lap_from;
    lap_from = now;
  };

  for (std::size_t e = 0; e < epochs; ++e) {
    const double t0 = static_cast<double>(e) * opts_.epoch_s;
    const double t1 = static_cast<double>(e + 1) * opts_.epoch_s;
    const bool last = e + 1 == epochs;

    // Refresh routing views from the machines' committed state, then
    // hand them to the placement's O(log M) index.
    for (std::size_t i = 0; i < M; ++i) {
      const auto& s = slots[i];
      auto& v = views[i];
      v.powered = !s.parked;
      v.sleep_state = s.parked ? s.state : 0;
      v.wake_latency_s =
          s.parked ? opts_.ladder[s.state].wake_latency_s : 0.0;
      v.backlog_s = s.parked ? 0.0 : std::max(0.0, s.busy_until - t0);
    }
    placement->begin_epoch(views);
    lap(refresh_ticks);

    // Route this epoch's arrivals task by task as the stream generates
    // them (serial — placement state is inherently sequential, each
    // pick depends on the last). The final epoch drains the stream
    // unconditionally so float noise in epochs * epoch_s versus
    // duration_s can never drop a tail arrival.
    stream.drain_until(t1, last, [&](const trace::Arrival& a) {
      ++out.offered;
      out.offered_work_s += a.task.work_s;
      const std::size_t pick = placement->place(a.task.work_s, views);
      auto& v = views[pick];
      if (opts_.max_backlog_s > 0.0 && v.backlog_s > opts_.max_backlog_s) {
        ++out.shed;
        out.shed_work_s += a.task.work_s;
      } else {
        auto& s = slots[pick];
        if (s.parked && !s.pending_wake) {
          // First task routed to a sleeper: the wake starts now; until
          // the batch phase the view already reflects a powered machine
          // carrying the wake stall as backlog.
          s.pending_wake = true;
          s.wake_at = a.time_s;
          v.powered = true;
          v.backlog_s += v.wake_latency_s;
          v.wake_latency_s = 0.0;
          v.sleep_state = 0;
        }
        s.batch.tasks.push_back(a.task);  // release_s == a.time_s
        ++s.rep.routed;
        v.backlog_s += a.task.work_s / cores;
        placement->update(pick, views);
      }
    });
    lap(route_ticks);

    // Machine-epoch phase: batches and consolidation, data-parallel
    // across machines (the epoch barrier is parallel_for's return).
    if (pool) {
      pool->parallel_for(M, [&](std::size_t i) { step_machine(i, t0, t1); });
    } else {
      for (std::size_t i = 0; i < M; ++i) step_machine(i, t0, t1);
    }
    lap(step_ticks);
  }

  // Drain: the last batches may run past the final epoch boundary.
  double horizon = static_cast<double>(epochs) * opts_.epoch_s;
  for (const auto& s : slots) horizon = std::max(horizon, s.busy_until);
  out.horizon_s = horizon;

  // Per-machine finalization (idle tails, energy decomposition) is
  // again machine-local and runs on the pool ...
  const double floor_w = opts_.machine.power.floor_w();
  const auto finish_machine = [&](std::size_t i) {
    auto& s = slots[i];
    if (s.parked) {
      s.rep.sleep_residency_s[s.state] += horizon - s.state_enter;
      s.parked_total_s += horizon - s.parked_since;
      s.rep.final_state = s.state + 1;
    } else {
      s.m->run_idle(horizon);
      s.rep.final_state = 0;
    }
    s.rep.powered_s = horizon - s.parked_total_s;
    const auto& acct = s.m->account();
    s.rep.completed = s.m->total_completed();
    s.rep.charged_core_s = acct.active_s() + acct.halted_s();
    s.rep.core_energy_j = acct.core_joules();
    s.rep.floor_energy_j = floor_w * s.rep.powered_s;
    for (std::size_t k = 0; k < ladder_n; ++k) {
      s.rep.sleep_energy_j +=
          s.rep.sleep_residency_s[k] * opts_.ladder[k].power_w;
    }
    s.rep.transition_energy_j =
        static_cast<double>(s.rep.parks + s.rep.wakes) *
        opts_.transition_energy_j;
    s.rep.steals = s.m->total_steals();
    s.rep.probes = s.m->total_probes();
    s.rep.dvfs_transitions = s.m->total_transitions();
  };
  if (pool) {
    pool->parallel_for(M, finish_machine);
  } else {
    for (std::size_t i = 0; i < M; ++i) finish_machine(i);
  }

  // ... while the fleet-level merge stays serial and in machine-index
  // order, so floating-point sums associate identically no matter how
  // the parallel phases interleaved.
  for (std::size_t i = 0; i < M; ++i) {
    auto& s = slots[i];
    out.routed += s.rep.routed;
    out.completed += s.rep.completed;
    out.parks += s.rep.parks;
    out.wakes += s.rep.wakes;
    out.powered_machine_s += s.rep.powered_s;
    out.parked_machine_s += s.parked_total_s;
    out.energy_j += s.rep.energy_j();
    out.per_machine.push_back(std::move(s.rep));
  }
  out.in_flight = out.routed - out.completed;
  lap(finish_ticks);
  phases_.view_refresh_s = util::FastClock::to_seconds(refresh_ticks);
  phases_.route_s = util::FastClock::to_seconds(route_ticks);
  phases_.step_s = util::FastClock::to_seconds(step_ticks);
  phases_.finish_s = util::FastClock::to_seconds(finish_ticks);
  return out;
}

}  // namespace eewa::sim
