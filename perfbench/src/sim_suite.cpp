// sim-suite: the seven Table-II traces run back to back through
// sim::simulate under sim::EewaPolicy on the 16-core Opteron 8380 model.
// Untraced rounds call sim::simulate; traced rounds make the same calls
// simulate() makes (validate, Machine, run_batch per batch, finish)
// through a forwarding Policy that times every callback.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "plan_tally.hpp"
#include "sim/simulate.hpp"
#include "util/fast_clock.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using namespace eewa;
using util::FastClock;

constexpr std::size_t kBatchesPerTrace = 2000;

sim::SimOptions machine_options(std::uint64_t seed) {
  sim::SimOptions opt;  // 16 cores, Opteron 8380 server power model
  opt.cores = 16;
  opt.seed = seed;
  // Bill a fixed adjuster time instead of the host-measured one, so the
  // simulated timeline, and every joule, is exact in the seed.
  opt.fixed_adjuster_overhead_s = 50e-6;
  return opt;
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.policy != b.policy || a.workload != b.workload ||
      a.time_s != b.time_s || a.energy_j != b.energy_j ||
      a.cpu_energy_j != b.cpu_energy_j || a.steals != b.steals ||
      a.probes != b.probes || a.transitions != b.transitions ||
      a.rung_residency_s != b.rung_residency_s ||
      a.batches.size() != b.batches.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    const auto& x = a.batches[i];
    const auto& y = b.batches[i];
    if (x.span_s != y.span_s || x.overhead_s != y.overhead_s ||
        x.cores_per_rung != y.cores_per_rung || x.steals != y.steals ||
        x.probes != y.probes || x.transitions != y.transitions ||
        x.core_energy_j != y.core_energy_j || x.energy_j != y.energy_j) {
      return false;
    }
  }
  return true;
}

/// Forwards every callback to the wrapped EewaPolicy and times it on the
/// TSC clock; Machine::run_batch minus these is the machine's self time.
class TimedPolicy final : public sim::Policy {
 public:
  explicit TimedPolicy(sim::EewaPolicy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  void batch_start(sim::Machine& m, const trace::Batch& batch,
                   std::size_t index) override {
    const auto t0 = FastClock::ticks();
    inner_.batch_start(m, batch, index);
    batch_start_ += FastClock::ticks() - t0;
  }
  void place_task(sim::Machine& m, sim::TaskId id) override {
    const auto t0 = FastClock::ticks();
    inner_.place_task(m, id);
    place_ += FastClock::ticks() - t0;
  }
  std::optional<sim::TaskId> acquire(sim::Machine& m,
                                     std::size_t core) override {
    const auto t0 = FastClock::ticks();
    auto id = inner_.acquire(m, core);
    acquire_ += FastClock::ticks() - t0;
    ++acquire_calls_;
    return id;
  }
  void task_done(sim::Machine& m, std::size_t core,
                 const trace::TraceTask& task, double exec_s) override {
    const auto t0 = FastClock::ticks();
    inner_.task_done(m, core, task, exec_s);
    task_done_ += FastClock::ticks() - t0;
  }
  double batch_end(sim::Machine& m, double makespan_s) override {
    const auto t0 = FastClock::ticks();
    const double overhead = inner_.batch_end(m, makespan_s);
    const auto dt = FastClock::ticks() - t0;
    batch_end_ += dt;
    plan_us_.push_back(FastClock::to_seconds(dt) * 1e6);
    return overhead;
  }

  std::uint64_t batch_start_ = 0, place_ = 0, acquire_ = 0, task_done_ = 0,
                batch_end_ = 0, acquire_calls_ = 0;
  std::vector<double> plan_us_;

 private:
  sim::EewaPolicy& inner_;
};

/// What one round must reproduce bit for bit, traced or not.
struct RoundOutput {
  std::vector<sim::SimResult> results;
  std::size_t plans_reused = 0;
  std::size_t plans_incremental = 0;

  bool operator==(const RoundOutput& o) const {
    if (results.size() != o.results.size() ||
        plans_reused != o.plans_reused ||
        plans_incremental != o.plans_incremental) {
      return false;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!same_result(results[i], o.results[i])) return false;
    }
    return true;
  }
};

/// Per-layer times of one traced round, seconds.
struct LayerTimes {
  double run_batch = 0, batch_start = 0, place = 0, acquire = 0,
         task_done = 0, batch_end = 0;
  std::uint64_t acquire_calls = 0;  ///< exact in the seed
};

}  // namespace

void run_sim_suite(const Args& args, Result& out) {
  const auto opt = machine_options(args.seed);
  const auto cal = wl::reference_calibration();

  // --- set-up: build (and validate) the seven traces -----------------------
  std::vector<trace::TaskTrace> traces;
  std::size_t tasks = 0;
  std::size_t batches = 0;
  const auto setup = [&] {
    traces.clear();
    tasks = 0;
    batches = 0;
    std::uint64_t salt = 0;
    for (const auto& bench : wl::suite()) {
      traces.push_back(wl::build_trace(bench, cal, kBatchesPerTrace,
                                       args.seed * 7919 + ++salt));
      const auto& t = traces.back();
      try {
        t.validate();
      } catch (const std::exception& e) {
        out.check(false, t.name + " trace is invalid: " + e.what());
      }
      out.check(t.batch_count() == kBatchesPerTrace,
                t.name + " trace has the wrong batch count");
      tasks += t.task_count();
      batches += t.batch_count();
    }
  };

  // --- rounds ---------------------------------------------------------------
  std::optional<RoundOutput> reference;
  std::vector<double> untraced_tps, traced_tps;
  std::vector<LayerTimes> layer_rounds;
  std::vector<double> traced_plan_us;
  std::optional<PlanTally> tally;

  auto untraced_round = [&](RoundOutput& r) {
    for (const auto& t : traces) {
      sim::EewaPolicy policy(t.class_names);
      r.results.push_back(sim::simulate(t, policy, opt));
      r.plans_reused += policy.controller().plans_reused();
      r.plans_incremental += policy.controller().plans_incremental();
    }
  };
  auto traced_round = [&](RoundOutput& r, LayerTimes& lt, PlanTally& pt,
                          std::vector<double>& plan_us) {
    for (const auto& t : traces) {
      sim::EewaPolicy policy(t.class_names);
      TimedPolicy timed(policy);
      t.validate();
      sim::Machine machine(opt);
      PlanTally trace_tally;
      double now = 0.0;
      for (const auto& batch : t.batches) {
        const auto t0 = FastClock::ticks();
        now = machine.run_batch(timed, batch, now);
        lt.run_batch += FastClock::seconds_since(t0);
        trace_tally.note(policy.controller(), &opt.power);
      }
      pt.merge(trace_tally);
      r.results.push_back(machine.finish(now, timed.name(), t.name));
      r.plans_reused += policy.controller().plans_reused();
      r.plans_incremental += policy.controller().plans_incremental();
      lt.batch_start += FastClock::to_seconds(timed.batch_start_);
      lt.place += FastClock::to_seconds(timed.place_);
      lt.acquire += FastClock::to_seconds(timed.acquire_);
      lt.acquire_calls += timed.acquire_calls_;
      lt.task_done += FastClock::to_seconds(timed.task_done_);
      lt.batch_end += FastClock::to_seconds(timed.batch_end_);
      plan_us.insert(plan_us.end(), timed.plan_us_.begin(),
                     timed.plan_us_.end());
    }
  };

  const double setup_s =
      run_rounds(args.seconds, args.trace, 3, setup,
                 [&](Pass pass) {
    const bool traced = pass == Pass::kTraced;
    RoundOutput r;
    LayerTimes lt;
    PlanTally pt;
    std::vector<double> plan_us;
    const auto t0 = Clock::now();
    if (traced) {
      traced_round(r, lt, pt, plan_us);
    } else {
      untraced_round(r);
    }
    const double wall = seconds_since(t0);
    const bool same = !reference || r == *reference;
    if (!reference) reference = r;
    out.check(same, "SimResults differ between rounds of one seed" +
                        std::string(traced ? " (traced vs untraced)" : ""));
    if (pass == Pass::kWarmup) return;
    out.operation(tasks, same);
    (traced ? traced_tps : untraced_tps).push_back(tasks / wall);
    if (traced) {
      out.check(!tally || pt == *tally,
                "planner counters differ between traced rounds");
      out.check(layer_rounds.empty() ||
                    lt.acquire_calls == layer_rounds.front().acquire_calls,
                "acquire calls differ between traced rounds");
      tally = pt;
      layer_rounds.push_back(lt);
      traced_plan_us.insert(traced_plan_us.end(), plan_us.begin(),
                            plan_us.end());
    }
  });

  // --- exact outputs ----------------------------------------------------------
  double energy_j = 0.0, time_s = 0.0;
  std::size_t steals = 0, probes = 0, transitions = 0;
  for (const auto& r : reference->results) {
    energy_j += r.energy_j;
    time_s += r.time_s;
    steals += r.steals;
    probes += r.probes;
    transitions += r.transitions;
  }

  const double tps = round_rate(untraced_tps);
  out.set("setup_s", setup_s);
  out.set("tasks_per_s", tps);
  out.set("plans_per_s", tps * static_cast<double>(batches) /
                             static_cast<double>(tasks));
  out.set("energy_per_task_mj", energy_j / static_cast<double>(tasks) * 1e3);
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf(
      "sim-suite: %zu traces, %zu batches, %zu tasks; %.0f tasks/s over "
      "%zu untraced rounds; %.6f J, %.6f simulated s\n",
      traces.size(), batches, tasks, tps, untraced_tps.size(), energy_j,
      time_s);
  if (!args.trace) return;

  out.check(tally->reused == reference->plans_reused &&
                tally->incremental == reference->plans_incremental,
            "traced planner counters differ from the controller's");
  auto med = [&](double LayerTimes::*field) {
    std::vector<double> v;
    for (const auto& lt : layer_rounds) v.push_back(lt.*field);
    return median(v);
  };
  const double callbacks = med(&LayerTimes::batch_start) +
                           med(&LayerTimes::place) + med(&LayerTimes::acquire) +
                           med(&LayerTimes::task_done) +
                           med(&LayerTimes::batch_end);
  out.set("trace.build_s", setup_s);
  out.set("sim.machine_self_s", med(&LayerTimes::run_batch) - callbacks);
  out.set("sim.acquire_s", med(&LayerTimes::acquire));
  out.set("sim.acquire_calls",
          static_cast<double>(layer_rounds.front().acquire_calls));
  out.set("sim.batch_start_s", med(&LayerTimes::batch_start));
  out.set("sim.task_done_s", med(&LayerTimes::task_done));
  out.set("core.batch_end_s", med(&LayerTimes::batch_end));
  out.set("sim.steals", static_cast<double>(steals));
  out.set("sim.probes", static_cast<double>(probes));
  out.set("sim.steal_hit", probes > 0 ? static_cast<double>(steals) /
                                            static_cast<double>(probes)
                                      : 0.0);
  out.set("dvfs.transitions", static_cast<double>(transitions));
  out.set("sim.makespan_ms", time_s / static_cast<double>(batches) * 1e3);
  out.set("core.plan_tail_us",
          percentile(traced_plan_us, tail_rank(traced_plan_us.size())));
  out.set("core.search_nodes", static_cast<double>(tally->search_nodes));
  out.set("core.plans_full", static_cast<double>(tally->full));
  out.set("core.plans_incremental", static_cast<double>(tally->incremental));
  out.set("core.plans_reused", static_cast<double>(tally->reused));
  out.set("core.plan_energy_ratio", tally->energy_ratio());
  out.set("bench.trace_overhead", trace_overhead(untraced_tps, traced_tps));
}

}  // namespace perfbench
