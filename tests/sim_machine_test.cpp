// Tests for the discrete-event machine itself: pools, frequency
// requests, execution-time model, and conservation properties (every
// task runs once, makespan bounds, energy = ∫P dt bounds).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sim/policies.hpp"
#include "sim/simulate.hpp"
#include "trace/synthetic.hpp"

namespace eewa::sim {
namespace {

SimOptions small_options(std::size_t cores = 4) {
  SimOptions opt;
  opt.cores = cores;
  opt.seed = 7;
  return opt;
}

TEST(Machine, PoolsPushPopSteal) {
  Machine m(small_options());
  m.configure_pools(2);
  m.push_task(0, 0, 11);
  m.push_task(0, 0, 12);
  m.push_task(1, 1, 13);
  EXPECT_EQ(m.group_task_count(0), 2u);
  EXPECT_EQ(m.group_task_count(1), 1u);
  // Local pop is LIFO.
  EXPECT_EQ(m.pop_local(0, 0), std::optional<TaskId>(12));
  EXPECT_EQ(m.group_task_count(0), 1u);
  // Steal takes the oldest from a victim.
  const auto stolen = m.steal(2, 0);
  EXPECT_EQ(stolen, std::optional<TaskId>(11));
  EXPECT_EQ(m.total_steals(), 1u);
  EXPECT_GT(m.total_probes(), 0u);
  // Empty group steals return nothing immediately.
  EXPECT_FALSE(m.steal(2, 0).has_value());
  EXPECT_FALSE(m.pop_local(3, 1).has_value());
}

TEST(Machine, RequestRungValidatesAndCounts) {
  Machine m(small_options());
  EXPECT_EQ(m.rung(0), 0u);
  m.request_rung(0, 3);
  EXPECT_EQ(m.rung(0), 3u);
  EXPECT_EQ(m.total_transitions(), 1u);
  m.request_rung(0, 3);  // no-op
  EXPECT_EQ(m.total_transitions(), 1u);
  EXPECT_THROW(m.request_rung(0, 9), std::out_of_range);
}

TEST(Machine, ExecTimeModel) {
  Machine m(small_options());
  trace::TraceTask cpu{0, 1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(m.exec_time(cpu, 0), 1.0);
  EXPECT_NEAR(m.exec_time(cpu, 3), 2.5 / 0.8, 1e-12);
  // Fully memory-bound work does not scale with frequency.
  trace::TraceTask mem{0, 1.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(m.exec_time(mem, 3), 1.0);
  // Half-memory-bound is in between.
  trace::TraceTask half{0, 1.0, 0.0, 0.5};
  EXPECT_NEAR(m.exec_time(half, 3), 0.5 + 0.5 * 2.5 / 0.8, 1e-12);
}

TEST(Machine, RejectsZeroCoresOrPools) {
  auto opt = small_options(0);
  EXPECT_THROW(Machine m(opt), std::invalid_argument);
  Machine m(small_options());
  EXPECT_THROW(m.configure_pools(0), std::invalid_argument);
}

// ------------------------------------------------ conservation checks --

TEST(Simulate, EveryTaskRunsExactlyOnce) {
  const auto t = trace::balanced(40, 0.01, 3, 1);
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  // All work accounted: active core time >= total work (spin included).
  EXPECT_GE(res.time_s, 0.0);
  // The per-batch span must be at least total-work / capacity.
  for (std::size_t b = 0; b < t.batch_count(); ++b) {
    const double lower =
        t.batches[b].total_work_s() / static_cast<double>(4);
    EXPECT_GE(res.batches[b].span_s, lower * 0.999);
  }
}

TEST(Simulate, MakespanAtLeastCriticalPath) {
  // One giant task dominates: makespan >= its execution time.
  trace::TaskTrace t;
  t.name = "crit";
  t.class_names = {"c"};
  t.batches.resize(1);
  t.batches[0].tasks = {{0, 5.0, 0, 0}, {0, 0.1, 0, 0}, {0, 0.1, 0, 0}};
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  EXPECT_GE(res.time_s, 5.0);
  EXPECT_LT(res.time_s, 5.5);
}

TEST(Simulate, EnergyBoundedByPowerEnvelope) {
  const auto t = trace::balanced(32, 0.01, 2, 2);
  CilkPolicy p;
  const auto opt = small_options();
  const auto res = simulate(t, p, opt);
  const double hi = opt.power.machine_all_active_w(4, 0) * res.time_s;
  const double lo = opt.power.floor_w() * res.time_s;
  EXPECT_LE(res.energy_j, hi * 1.0001);
  EXPECT_GE(res.energy_j, lo);
  EXPECT_GT(res.cpu_energy_j, 0.0);
  EXPECT_LT(res.cpu_energy_j, res.energy_j);
}

TEST(Simulate, ResidencySumsToCoreTime) {
  const auto t = trace::balanced(32, 0.01, 2, 3);
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  double residency = 0.0;
  for (double r : res.rung_residency_s) residency += r;
  // Every core is accounted from batch start to barrier each batch
  // (spin included), so total residency ~= cores × span total.
  double span_total = 0.0;
  for (const auto& b : res.batches) span_total += b.span_s + b.overhead_s;
  EXPECT_NEAR(residency, 4.0 * span_total, 0.05 * residency + 1e-9);
}

TEST(Simulate, StragglerStallTailKeepsResidencyExact) {
  // Cilk-D on 2 cores: the core whose task finishes just before the
  // other's pays its park-at-slowest transition stall (50 µs) and is
  // charged *past* the last completion. The batch barrier is wherever
  // the last core actually stopped; re-charging the straggler's tail
  // from the makespan would double-count it.
  trace::TaskTrace t;
  t.name = "straggler";
  t.class_names = {"c"};
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 0.99e-3, 0.0, 0.0, 0.0});
  t.batches.push_back(b);
  CilkDPolicy p;
  auto opt = small_options(2);
  opt.fixed_adjuster_overhead_s = 0.0;
  const auto res = simulate(t, p, opt);
  double residency = 0.0;
  for (double r : res.rung_residency_s) residency += r;
  EXPECT_NEAR(residency, 2.0 * res.time_s, 1e-9 * residency + 1e-12);
}

TEST(Simulate, MidStallInjectionDoesNotDoubleChargeResidency) {
  // Cilk-D, one core: after finishing the first task the core fails to
  // acquire and pays the 50 µs drop-to-slowest stall; the second task is
  // released inside that stall window, waking the core "in the past".
  // The wake must clamp to the moment the core actually went idle —
  // rewinding re-bills stall time that was already charged and inflates
  // residency.
  trace::TaskTrace t;
  t.name = "inject";
  t.class_names = {"c"};
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 1.02e-3});  // lands mid-stall
  t.batches.push_back(b);
  CilkDPolicy p;
  auto opt = small_options(1);
  opt.fixed_adjuster_overhead_s = 0.0;
  const auto res = simulate(t, p, opt);
  double residency = 0.0;
  for (double r : res.rung_residency_s) residency += r;
  EXPECT_NEAR(residency, res.time_s, 1e-9 * residency + 1e-12);
}

TEST(Simulate, EmptyBatchesAreHandled) {
  trace::TaskTrace t;
  t.name = "empty";
  t.class_names = {"c"};
  t.batches.resize(2);  // two empty batches
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  EXPECT_EQ(res.batches.size(), 2u);
  EXPECT_DOUBLE_EQ(res.batches[0].span_s, 0.0);
}

TEST(Simulate, DeterministicForFixedSeed) {
  const auto t = trace::bimodal(4, 0.2, 28, 0.02, 3, 9);
  CilkPolicy p1, p2;
  const auto a = simulate(t, p1, small_options());
  const auto b = simulate(t, p2, small_options());
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.steals, b.steals);
}

TEST(Simulate, BatchStatsRecorded) {
  const auto t = trace::balanced(32, 0.01, 3, 4);
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  ASSERT_EQ(res.batches.size(), 3u);
  for (const auto& b : res.batches) {
    EXPECT_GT(b.span_s, 0.0);
    EXPECT_EQ(b.cores_per_rung.size(), 4u);
    EXPECT_EQ(b.cores_per_rung[0], 4u);  // Cilk keeps everyone at F0
    EXPECT_GT(b.energy_j, 0.0);
  }
}

TEST(Simulate, NamedFactoryWorks) {
  const auto t = trace::balanced(16, 0.01, 2, 5);
  const auto opt = small_options();
  EXPECT_EQ(simulate_named(t, "cilk", opt).policy, "cilk");
  EXPECT_EQ(simulate_named(t, "cilk-d", opt).policy, "cilk-d");
  EXPECT_EQ(simulate_named(t, "eewa", opt).policy, "eewa");
  EXPECT_THROW(simulate_named(t, "nope", opt), std::invalid_argument);
}

TEST(Machine, ParkWakeChargeClockStaysMonotone) {
  // The fleet's park/drain/wake cycle on a bare machine: the charge
  // clock advances through batch, idle, park and wake, never rewinds,
  // and the parked interval is never billed to the cores. This is the
  // pinned regression for the session-level charge clamp — the same
  // never-rewind contract charged_until_ enforces inside a batch.
  Machine m(small_options());
  CilkPolicy p;
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});

  const double end1 = m.run_batch(p, b, 0.0);
  EXPECT_TRUE(m.powered());
  EXPECT_DOUBLE_EQ(m.charged_through(), end1);
  EXPECT_EQ(m.queued_tasks(), 0u);

  m.run_idle(end1 + 1e-3);
  EXPECT_DOUBLE_EQ(m.charged_through(), end1 + 1e-3);
  m.run_idle(end1);  // stale idle request: no-op, never rewinds
  EXPECT_DOUBLE_EQ(m.charged_through(), end1 + 1e-3);

  const double park_at = end1 + 2e-3;
  m.park(park_at);  // charges the idle tail, then powers off
  EXPECT_FALSE(m.powered());
  EXPECT_DOUBLE_EQ(m.charged_through(), park_at);
  const double charged_at_park =
      m.account().active_s() + m.account().halted_s();
  EXPECT_NEAR(charged_at_park, 4.0 * park_at, 1e-12);

  // Simulated silicon cannot execute, idle or re-park while off.
  EXPECT_THROW(m.run_idle(park_at + 1e-3), std::logic_error);
  EXPECT_THROW(m.park(park_at + 1e-3), std::logic_error);
  EXPECT_THROW(m.run_batch(p, b, park_at + 1e-3), std::logic_error);
  // Waking in the past would re-bill the pre-park interval.
  EXPECT_THROW(m.wake(park_at - 1e-3), std::logic_error);

  const double wake_at = park_at + 5e-3;
  m.wake(wake_at);
  EXPECT_TRUE(m.powered());
  EXPECT_DOUBLE_EQ(m.charged_through(), wake_at);
  EXPECT_THROW(m.wake(wake_at), std::logic_error);  // already powered
  // The parked interval was not billed to the cores.
  EXPECT_NEAR(m.account().active_s() + m.account().halted_s(),
              charged_at_park, 1e-12);

  // A batch must not start inside the already-charged region...
  EXPECT_THROW(m.run_batch(p, b, park_at), std::logic_error);
  // ...and a clean post-wake batch keeps the core-second identity:
  // every powered second billed exactly once, the parked gap skipped.
  const double end2 = m.run_batch(p, b, wake_at);
  EXPECT_DOUBLE_EQ(m.charged_through(), end2);
  EXPECT_EQ(m.total_completed(), 4u);
  const double powered_s = park_at + (end2 - wake_at);
  EXPECT_NEAR(m.account().active_s() + m.account().halted_s(),
              4.0 * powered_s, 1e-9);
}

TEST(Machine, OneMachineAtATimeQueuesTasksOnAThread) {
  // Queued tasks live in per-thread storage that one machine holds from
  // its first queued task to its last: a second machine on the thread
  // is refused until the first one's pools drain.
  Machine a(small_options());
  Machine b(small_options());
  a.configure_pools(1);
  b.configure_pools(1);
  a.push_task(0, 0, 1);
  a.push_task(1, 0, 2);
  EXPECT_THROW(b.push_task(0, 0, 7), std::logic_error);
  EXPECT_EQ(b.queued_tasks(), 0u);
  EXPECT_EQ(a.pop_local(0, 0), std::optional<TaskId>(1));
  EXPECT_EQ(a.take_front(1, 0), std::optional<TaskId>(2));
  EXPECT_EQ(a.queued_tasks(), 0u);
  b.push_task(0, 0, 7);
  EXPECT_THROW(a.push_task(0, 0, 1), std::logic_error);
  b.configure_pools(2);  // drops b's leftover task
  EXPECT_EQ(b.queued_tasks(), 0u);
  a.push_task(0, 0, 1);
  EXPECT_EQ(a.pop_local(0, 0), std::optional<TaskId>(1));
}

TEST(Machine, ParkRefusesToStrandQueuedTasks) {
  Machine m(small_options());
  m.configure_pools(1);
  m.push_task(0, 0, 0);
  EXPECT_EQ(m.queued_tasks(), 1u);
  EXPECT_THROW(m.park(1.0), std::logic_error);
  EXPECT_TRUE(m.powered());  // the refused park left the machine up
  ASSERT_TRUE(m.pop_local(0, 0).has_value());
  m.park(1.0);
  EXPECT_FALSE(m.powered());
}

// --- bit-exact golden ---------------------------------------------------------
// One seeded multi-class trace, with half of each batch released mid-batch
// (inject and wake events), run under every make_policy name, WATS and a
// big.LITTLE EEWA machine. Times, joules and residencies are pinned as
// hex-float literals and the counters exactly: any change to the event
// loop, the pools, the energy integration or a policy that moves a single
// bit of a SimResult fails here.

trace::TaskTrace golden_trace() {
  trace::SyntheticSpec spec;
  spec.name = "golden";
  spec.classes = {{"heavy_golden_class", 4, 2e-3, 0.3, 0.002, 0.0},
                  {"medium_golden_class", 12, 5e-4, 0.4, 0.02, 0.2},
                  {"light", 30, 1e-4, 0.5, 0.001, 0.05}};
  spec.batches = 12;
  spec.release_window_s = 1e-3;
  spec.seed = 2027;
  auto t = trace::generate(spec);
  for (auto& b : t.batches) {
    for (std::size_t i = 0; i < b.tasks.size(); i += 2) {
      b.tasks[i].release_s = 0.0;
    }
  }
  return t;
}

SimOptions golden_options() {
  SimOptions opt;
  opt.cores = 16;
  opt.seed = 11;
  opt.cores_per_socket = 4;
  opt.fixed_adjuster_overhead_s = 50e-6;
  return opt;
}

struct Golden {
  std::string name;
  double time_s, energy_j, cpu_energy_j;
  std::vector<double> residency_s;
  std::size_t steals, probes, transitions;
};

/// The literal that pins `r`, printed when a field moves.
std::string golden_literal(const std::string& name, const SimResult& r) {
  std::string out = "{\"" + name + "\", ";
  char buf[64];
  for (double v : {r.time_s, r.energy_j, r.cpu_energy_j}) {
    std::snprintf(buf, sizeof(buf), "%a, ", v);
    out += buf;
  }
  out += "{";
  for (std::size_t j = 0; j < r.rung_residency_s.size(); ++j) {
    std::snprintf(buf, sizeof(buf), "%s%a", j ? ", " : "",
                  r.rung_residency_s[j]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "}, %zu, %zu, %zu},", r.steals, r.probes,
                r.transitions);
  return out + buf;
}

void expect_golden(const Golden& g, const SimResult& r) {
  SCOPED_TRACE(g.name);
  EXPECT_EQ(r.time_s, g.time_s);
  EXPECT_EQ(r.energy_j, g.energy_j);
  EXPECT_EQ(r.cpu_energy_j, g.cpu_energy_j);
  EXPECT_EQ(r.rung_residency_s, g.residency_s);
  EXPECT_EQ(r.steals, g.steals);
  EXPECT_EQ(r.probes, g.probes);
  EXPECT_EQ(r.transitions, g.transitions);
  if (::testing::Test::HasFailure()) {
    std::printf("%s\n", golden_literal(g.name, r).c_str());
  }
}

TEST(SimGolden, EveryPolicyBitExactOnPinnedTrace) {
  // clang-format off
  const std::vector<Golden> golden = {
      {"cilk", 0x1.18b282e1ff967p-5, 0x1.d216881bb972cp+3, 0x1.2d9def6b4db0ap+3, {0x1.18b282e1ff967p-1, 0x0p+0, 0x0p+0, 0x0p+0}, 311, 3690, 0},
      {"cilk-d", 0x1.1b98b72af218fp-5, 0x1.4a398d63b6e2cp+3, 0x1.481c24211a104p+2, {0x1.c5f90c57984bbp-3, 0x0p+0, 0x0p+0, 0x1.5434e82a180cp-2}, 307, 3573, 751},
      {"sharing", 0x1.14466ed28c75bp-5, 0x1.cabec15eec356p+3, 0x1.28dd7c6f8de86p+3, {0x1.14466ed28c75ap-1, 0x0p+0, 0x0p+0, 0x0p+0}, 0, 0, 0},
      {"ondemand", 0x1.1c1573833c49cp-5, 0x1.7f7e04decb8c2p+3, 0x1.b212e65fcc71dp+2, {0x1.c5e0ee53a1462p-3, 0x1.f00f0c09a12b6p-3, 0x1.ce0288ca66d2dp-7, 0x1.3b0b564610909p-4}, 309, 3627, 994},
      {"eewa", 0x1.2dfe7db7ed6f9p-5, 0x1.56bbe76335505p+3, 0x1.4b919372e061ep+2, {0x1.6f801e7999d8dp-3, 0x0p+0, 0x1.a43cec330df2bp-3, 0x1.a43cec330df2bp-3}, 290, 2960, 12},
      {"wats", 0x1.eaed511d83c9p-5, 0x1.15ece0cbce0d7p+4, 0x1.0c32b41050e32p+3, {0x1.eaed511d83c9p-3, 0x1.eaed511d83c9p-3, 0x0p+0, 0x1.eaed511d83c9p-2}, 235, 2198, 12},
      {"eewa-big-little", 0x1.faa5ae20528eap-5, 0x1.981cc44d33a1fp+3, 0x1.bcfec1190d099p+1, {0x1.415c6fb678a4ap-2, 0x1.2bda99ed1f372p-7, 0x1.2bda99ed1f372p-6, 0x1.3a597ff73df9bp-3}, 106, 546, 12},
  };
  // clang-format on
  const auto trace = golden_trace();
  trace.validate();
  const auto opt = golden_options();
  std::vector<std::pair<std::string, SimResult>> runs;
  for (const char* name : {"cilk", "cilk-d", "sharing", "ondemand", "eewa"}) {
    runs.emplace_back(name, simulate_named(trace, name, opt));
  }
  {
    std::vector<std::size_t> rungs(16, 3);
    for (std::size_t c = 0; c < 8; ++c) rungs[c] = c < 4 ? 0 : 1;
    WatsPolicy wats(rungs, trace.class_names);
    runs.emplace_back("wats", simulate(trace, wats, opt));
  }
  {
    SimOptions typed = opt;
    typed.cores = 8;
    typed.topology = std::make_shared<const core::MachineTopology>(
        core::MachineTopology::big_little());
    EewaPolicy eewa(trace.class_names);
    runs.emplace_back("eewa-big-little", simulate(trace, eewa, typed));
  }
  if (runs.size() != golden.size()) {
    for (const auto& [name, r] : runs) {
      std::printf("%s\n", golden_literal(name, r).c_str());
    }
  }
  ASSERT_EQ(runs.size(), golden.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].first, golden[i].name);
    expect_golden(golden[i], runs[i].second);
  }
}

}  // namespace
}  // namespace eewa::sim
