// Fleet-level differential tests: bitwise determinism of FleetReport,
// a pinned-seed golden run, the single-machine fleet vs bare
// sim::Machine differential, consolidation properties (parking never
// strands queued tasks), and the energy ordering the placement tier
// exists for (pack-and-park beats round-robin at low load).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/fleet.hpp"
#include "sim/simulate.hpp"
#include "trace/arrivals.hpp"
#include "util/fast_clock.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eewa::sim {
namespace {

trace::ArrivalSpec small_arrivals(std::size_t total_cores) {
  trace::ArrivalSpec arr;
  arr.name = "fleet_test";
  arr.seed = 2024;
  arr.cores = total_cores;
  arr.duration_s = 0.06;
  arr.load = 0.8;
  trace::ArrivalClassSpec light{"light", 1.0, 60e-6, 0.3, 0.0, 0.0, 1};
  trace::ArrivalClassSpec heavy{"heavy", 0.3, 200e-6, 0.2, 0.01, 0.1, 1};
  arr.classes = {light, heavy};
  return arr;
}

FleetOptions small_fleet(std::size_t machines = 4, std::size_t cores = 4) {
  FleetOptions o;
  o.machines = machines;
  o.machine.cores = cores;
  o.machine.seed = 99;
  o.epoch_s = 0.01;
  return o;
}

TEST(Fleet, DeterministicReports) {
  const auto opts = small_fleet();
  const auto arr = small_arrivals(16);
  const auto a = Fleet(opts, arr).run();
  const auto b = Fleet(opts, arr).run();
  EXPECT_TRUE(a == b) << "same seed must give a bitwise-identical report";
  EXPECT_GT(a.offered, 0u);
  EXPECT_EQ(a.in_flight, 0u);
  EXPECT_EQ(a.routed, a.completed);
  EXPECT_EQ(a.shed, 0u);

  // A different arrival seed must actually change the run.
  auto arr2 = arr;
  arr2.seed = 2025;
  const auto c = Fleet(opts, arr2).run();
  EXPECT_FALSE(a == c);
}

// The phase timers are host time kept beside the report: reading them
// leaves the report bit-identical to a run whose timers nobody read, and
// the four phases, which never overlap, sum to no more than the run's
// wall time.
TEST(Fleet, PhaseTimesStayOutOfTheReport) {
  auto opts = small_fleet();
  opts.placement = "pack";
  const auto arr = small_arrivals(16);
  const auto unread = Fleet(opts, arr).run();
  for (const std::size_t threads : {1u, 3u}) {
    opts.threads = threads;
    Fleet fleet(opts, arr);
    const FleetPhaseTimes zero = fleet.phase_times();
    EXPECT_EQ(zero.view_refresh_s + zero.route_s + zero.step_s +
                  zero.finish_s,
              0.0);
    const std::uint64_t t0 = util::FastClock::ticks();
    const auto rep = fleet.run();
    const double wall_s = util::FastClock::seconds_since(t0);
    const FleetPhaseTimes& p = fleet.phase_times();
    EXPECT_TRUE(rep == unread) << "threads " << threads;
    EXPECT_GT(p.view_refresh_s, 0.0);
    EXPECT_GT(p.route_s, 0.0);
    EXPECT_GT(p.step_s, 0.0);
    EXPECT_GT(p.finish_s, 0.0);
    EXPECT_LE(p.view_refresh_s + p.route_s + p.step_s + p.finish_s,
              wall_s * (1.0 + 1e-12))
        << "threads " << threads;
  }
}

// Pinned-seed golden regression: integer ledgers exactly, energies to
// double-print precision. If a refactor changes any of these, it
// changed fleet behavior — re-pin deliberately or fix the regression.
TEST(Fleet, GoldenPinnedSeed) {
  auto opts = small_fleet();
  opts.placement = "pack";
  const auto arr = small_arrivals(16);
  const auto r = Fleet(opts, arr).run();
  EXPECT_EQ(r.epochs, 6u);
  EXPECT_EQ(r.offered, 8290u);
  EXPECT_EQ(r.routed, 8290u);
  EXPECT_EQ(r.completed, 8290u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.wakes, 1u);
  EXPECT_NEAR(r.horizon_s, 0.096119446201840528, 1e-15);
  EXPECT_NEAR(r.energy_j, 78.73480106426436, 1e-9);
}

TEST(Fleet, SingleMachineMatchesBareSimulate) {
  // One machine, one epoch spanning the whole stream, consolidation
  // out of the way: the fleet must reduce to exactly one run_batch on
  // the open-loop trace, so the per-machine report matches a bare
  // simulate() bit for bit.
  FleetOptions opts = small_fleet(1, 4);
  opts.epoch_s = 0.06;  // == duration: a single epoch
  opts.park_after_epochs = 100;
  auto arr = small_arrivals(4);
  arr.load = 1.5;  // backlog at stream end => the drain outlives the epoch

  const auto rep = Fleet(opts, arr).run();
  ASSERT_EQ(rep.machines, 1u);
  ASSERT_EQ(rep.epochs, 1u);
  const auto& m = rep.per_machine[0];
  ASSERT_GT(rep.horizon_s, opts.epoch_s)
      << "premise: the drain must run past the epoch, else the fleet "
         "charges an idle tail the bare run does not have";

  const auto arrivals = trace::generate_arrivals(arr);
  const auto tr = trace::arrivals_to_trace(arr, arrivals);
  const auto bare =
      simulate_named(tr, opts.policy, Fleet::machine_options(opts, 0));

  EXPECT_EQ(m.routed, arrivals.size());
  EXPECT_EQ(m.completed, arrivals.size());
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.parks, 0u);
  EXPECT_EQ(m.wakes, 0u);
  EXPECT_DOUBLE_EQ(rep.horizon_s, bare.time_s);
  EXPECT_DOUBLE_EQ(m.core_energy_j, bare.cpu_energy_j);
  EXPECT_EQ(m.steals, bare.steals);
  EXPECT_EQ(m.probes, bare.probes);
  EXPECT_EQ(m.dvfs_transitions, bare.transitions);
  // Whole-machine energy: the fleet bills floor power over its powered
  // span, which here is the same wall time finish() used.
  EXPECT_DOUBLE_EQ(m.energy_j(), bare.energy_j);
}

TEST(Fleet, ConsolidationParksIdleMachinesWithoutStranding) {
  // Burst-then-idle: all arrivals land in the first half of the run,
  // then silence. Machines must finish everything they were routed
  // (parking never strands queued tasks), then park and deepen.
  FleetOptions opts = small_fleet(4, 4);
  opts.park_after_epochs = 1;
  opts.deepen_after_epochs = 1;
  auto arr = small_arrivals(16);
  arr.duration_s = 0.1;
  arr.kind = trace::ArrivalKind::kBursty;
  arr.burst_factor = 2.0;
  arr.burst_period_s = arr.duration_s;  // one on-phase, then nothing

  const auto r = Fleet(opts, arr).run();
  EXPECT_GT(r.offered, 0u);
  EXPECT_EQ(r.in_flight, 0u);
  for (std::size_t i = 0; i < r.per_machine.size(); ++i) {
    const auto& m = r.per_machine[i];
    EXPECT_EQ(m.routed, m.completed) << "machine " << i;
    if (m.routed > 0) {
      EXPECT_GE(m.parks, 1u) << "machine " << i << " never parked";
      EXPECT_GT(m.final_state, 0u)
          << "machine " << i << " should end parked";
      // With deepen_after_epochs == 1 and a long idle tail, the
      // machine must have sunk below the shallowest state.
      EXPECT_GT(m.final_state, 1u)
          << "machine " << i << " never deepened";
    }
  }
  EXPECT_GT(r.parked_machine_s, 0.0);
}

TEST(Fleet, ZeroArrivalsParksEverything) {
  FleetOptions opts = small_fleet(3, 2);
  auto arr = small_arrivals(6);
  arr.load = 0.0;  // empty stream — a legal fleet that only sleeps

  const auto r = Fleet(opts, arr).run();
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.parks, 3u);
  EXPECT_EQ(r.wakes, 0u);
  for (const auto& m : r.per_machine) {
    EXPECT_EQ(m.batches, 0u);
    EXPECT_GT(m.final_state, 0u);
    EXPECT_LT(m.powered_s, r.horizon_s);
  }
  EXPECT_GT(r.energy_j, 0.0);  // floor + S-state draw, no core work
}

TEST(Fleet, AllOffColdStartStaysOff) {
  FleetOptions opts = small_fleet(3, 2);
  opts.initial_state = opts.ladder.size();  // deepest state at t = 0
  auto arr = small_arrivals(6);
  arr.load = 0.0;

  const auto r = Fleet(opts, arr).run();
  EXPECT_EQ(r.wakes, 0u);
  EXPECT_EQ(r.parks, 3u);  // the cold start counts in the ledger
  for (const auto& m : r.per_machine) {
    EXPECT_DOUBLE_EQ(m.powered_s, 0.0);
    EXPECT_DOUBLE_EQ(m.floor_energy_j, 0.0);
    EXPECT_DOUBLE_EQ(m.charged_core_s, 0.0);
    EXPECT_EQ(m.final_state, opts.ladder.size());
  }
}

TEST(Fleet, AllOffColdStartWakesOnDemand) {
  FleetOptions opts = small_fleet(2, 4);
  opts.initial_state = 2;  // cold but not bottom-of-ladder
  const auto arr = small_arrivals(8);

  const auto r = Fleet(opts, arr).run();
  EXPECT_GT(r.offered, 0u);
  EXPECT_EQ(r.routed, r.completed);
  EXPECT_GT(r.wakes, 0u) << "someone must have woken to serve traffic";
  for (const auto& m : r.per_machine) {
    if (m.completed > 0) {
      EXPECT_GT(m.powered_s, 0.0);
      EXPECT_GT(m.wake_stall_s, 0.0);
    }
  }
}

TEST(Fleet, ValidatesOptions) {
  const auto arr = small_arrivals(8);
  {
    auto o = small_fleet();
    o.machines = 0;
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    auto o = small_fleet();
    o.ladder = {{"a", 50.0, 1e-3}, {"b", 60.0, 2e-3}};  // power rises
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    auto o = small_fleet();
    o.ladder = {{"a", 50.0, 2e-3}, {"b", 40.0, 1e-3}};  // latency falls
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    auto o = small_fleet();
    o.policy = "no-such-policy";
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    auto o = small_fleet();
    o.placement = "no-such-placement";
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    auto o = small_fleet();
    o.initial_state = o.ladder.size() + 1;
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    // A NaN load would make every arrival time NaN, and the final
    // epoch's drain-everything pass would never end: rejected up front.
    auto bad = arr;
    bad.load = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Fleet(small_fleet(), bad), std::invalid_argument);
  }
}

TEST(Fleet, ArrivalStreamMatchesGenerate) {
  // The streaming generator must yield the identical sequence the
  // vector generator does — the fleet and the service mode see the
  // same traffic for the same spec.
  const auto arr = small_arrivals(16);
  const auto all = trace::generate_arrivals(arr);
  trace::ArrivalStream stream(arr);
  std::size_t i = 0;
  while (auto a = stream.next()) {
    ASSERT_LT(i, all.size());
    EXPECT_DOUBLE_EQ(a->time_s, all[i].time_s);
    EXPECT_EQ(a->task.class_id, all[i].task.class_id);
    EXPECT_DOUBLE_EQ(a->task.work_s, all[i].task.work_s);
    ++i;
  }
  EXPECT_EQ(i, all.size());
}

// The parallel-engine contract: every FleetOptions::threads value
// yields the byte-identical FleetReport the serial engine produces.
// Covers the degenerate shapes where the parallel path could plausibly
// diverge — one machine (no pool at all), an all-OFF cold start (every
// first batch wakes a sleeper), and a zero-arrival stream (pure
// consolidation, no batches) — at 2 threads, hardware concurrency, and
// more threads than machines.
TEST(Fleet, ParallelMatchesSerialBitwise) {
  struct Shape {
    const char* name;
    FleetOptions opts;
    trace::ArrivalSpec arr;
  };
  std::vector<Shape> shapes;
  {
    Shape s{"baseline", small_fleet(4, 4), small_arrivals(16)};
    shapes.push_back(s);
  }
  {
    Shape s{"pack placement", small_fleet(8, 4), small_arrivals(32)};
    s.opts.placement = "pack";
    s.opts.park_after_epochs = 1;
    s.arr.load = 0.15;
    shapes.push_back(s);
  }
  {
    Shape s{"one machine", small_fleet(1, 4), small_arrivals(4)};
    shapes.push_back(s);
  }
  {
    Shape s{"all-OFF cold start", small_fleet(3, 2), small_arrivals(6)};
    s.opts.initial_state = s.opts.ladder.size();
    shapes.push_back(s);
  }
  {
    Shape s{"zero arrivals", small_fleet(3, 2), small_arrivals(6)};
    s.arr.load = 0.0;
    shapes.push_back(s);
  }
  {
    Shape s{"shedding overload", small_fleet(4, 2), small_arrivals(8)};
    s.opts.max_backlog_s = 0.005;
    s.arr.load = 3.0;
    shapes.push_back(s);
  }

  for (auto& shape : shapes) {
    shape.opts.threads = 1;
    const auto serial = Fleet(shape.opts, shape.arr).run();
    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{0},
          shape.opts.machines + 5}) {
      auto opts = shape.opts;
      opts.threads = threads;
      const auto parallel = Fleet(opts, shape.arr).run();
      EXPECT_TRUE(parallel == serial)
          << shape.name << " with threads=" << threads
          << " diverged from the serial engine";
    }
  }
}

TEST(Fleet, ParallelGoldenPinnedSeed) {
  // The pinned golden must hold on the parallel engine too — same
  // ledgers, same doubles.
  auto opts = small_fleet();
  opts.placement = "pack";
  opts.threads = 3;
  const auto arr = small_arrivals(16);
  const auto r = Fleet(opts, arr).run();
  EXPECT_EQ(r.epochs, 6u);
  EXPECT_EQ(r.offered, 8290u);
  EXPECT_EQ(r.completed, 8290u);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.wakes, 1u);
  EXPECT_NEAR(r.horizon_s, 0.096119446201840528, 1e-15);
  EXPECT_NEAR(r.energy_j, 78.73480106426436, 1e-9);
}

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Digest of each machine's batch, steal, probe, DVFS-transition, park
/// and wake counts, in machine order.
std::uint64_t machine_ledger_digest(const obs::FleetReport& r) {
  std::uint64_t h = 0;
  for (const auto& m : r.per_machine) {
    for (const std::size_t v : {m.batches, m.steals, m.probes,
                                m.dvfs_transitions, m.parks, m.wakes}) {
      h = util::mix64(h ^ v);
    }
  }
  return h;
}

// Bit pins of whole FleetReports, captured before arrivals were routed
// straight into machine batches: energy, horizon and offered work to the
// last bit, and every machine's ledgers, for each placement on the
// serial engine and on four threads.
TEST(Fleet, ReportBitPinnedPerPlacement) {
  struct Pin {
    const char* placement;
    std::uint64_t energy_bits, horizon_bits, offered_work_bits, ledgers;
  };
  const Pin pins[] = {
      {"pack", 0x406915f3eb7bae4full, 0x3fc016140fd4504cull,
       0x3ff4ae42410d0f85ull, 0x99ae1dedb15f8e13ull},
      {"least-loaded", 0x4062181a498d98c4ull, 0x3fb9b02c3adf715bull,
       0x3ff4ae42410d0f85ull, 0xbf3e7e17b4b6d723ull},
      {"round-robin", 0x40621f97695c1339ull, 0x3fb9b3ed0966a0cdull,
       0x3ff4ae42410d0f85ull, 0x4e1c700b67f01f3aull},
  };
  auto arr = small_arrivals(32);
  arr.load = 0.4;
  arr.duration_s = 0.1;
  for (const auto& pin : pins) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(pin.placement) + " threads=" +
                   std::to_string(threads));
      auto opts = small_fleet(8, 4);
      opts.placement = pin.placement;
      opts.threads = threads;
      const auto r = Fleet(opts, arr).run();
      if (std::string(pin.placement) == "pack") {
        EXPECT_GT(r.wakes, 0u) << "premise: pack must park and wake";
      }
      EXPECT_EQ(bits_of(r.energy_j), pin.energy_bits);
      EXPECT_EQ(bits_of(r.horizon_s), pin.horizon_bits);
      EXPECT_EQ(bits_of(r.offered_work_s), pin.offered_work_bits);
      EXPECT_EQ(machine_ledger_digest(r), pin.ledgers);
    }
  }
}

TEST(Fleet, ValidatesThreadCount) {
  const auto arr = small_arrivals(8);
  {
    auto o = small_fleet();
    o.threads = util::ThreadPool::kMaxThreads + 1;
    EXPECT_THROW(Fleet(o, arr), std::invalid_argument);
  }
  {
    auto o = small_fleet();
    o.threads = util::ThreadPool::kMaxThreads;  // absurd but legal
    Fleet f(o, arr);  // must not throw
  }
}

TEST(Fleet, PackAndParkBeatsRoundRobinOnEnergy) {
  // The reason the placement tier exists: at low load, packing the
  // working set onto few machines and parking the rest must cost less
  // than spreading the same work over every machine.
  FleetOptions opts = small_fleet(8, 4);
  opts.park_after_epochs = 1;
  auto arr = small_arrivals(32);
  arr.duration_s = 0.1;
  arr.load = 0.15;

  auto pack = opts;
  pack.placement = "pack";
  auto rr = opts;
  rr.placement = "round-robin";
  const auto rp = Fleet(pack, arr).run();
  const auto rq = Fleet(rr, arr).run();
  ASSERT_EQ(rp.offered, rq.offered);
  EXPECT_EQ(rp.completed, rp.routed);
  EXPECT_EQ(rq.completed, rq.routed);
  EXPECT_LT(rp.energy_j, rq.energy_j);
  EXPECT_GT(rp.parked_machine_s, rq.parked_machine_s);
}

}  // namespace
}  // namespace eewa::sim
