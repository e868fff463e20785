// Open-loop service traffic bench — the overload story in numbers.
//
// Two sections, same arrival model (trace/arrivals.hpp):
//
//  1. Real runtime: drive rt::Runtime's service mode through a ladder of
//     offered-load phases (default 2.0x then 0.5x capacity), pacing each
//     generated stream against the wall clock. Capacity is *measured*
//     first (an unpaced saturation burst), not assumed from the worker
//     count, so "2x" means the same thing on a laptop and a CI
//     container. Per phase it reports offered/executed/shed/deferred
//     counts, the shed rate, p50/p99 completion sojourn and the
//     queue-depth high-water mark — once with the async planner ("eewa")
//     and once with planning disabled ("steal", the work-stealing
//     baseline). The run *asserts* the overload contract: shedding
//     engages at 2x (for shed policies), stops again in the
//     below-capacity phase, depth stays bounded by the configured
//     capacities, and the final report reconciles exactly.
//
//  2. Simulator mirror: the same stream shape packed into a one-batch
//     released trace (arrivals_to_trace) and run on sim::Machine under
//     cilk / cilk-d / eewa, reporting simulated time, energy and open-loop
//     sojourn percentiles per scheduler (Machine::now_s() against each
//     task's release_s). The default spec offers >= 1M simulated
//     tasks/sec, which the run also asserts.
//
// Usage: bench_service_traffic [--workers N] [--phase-s S] [--loads a,b,..]
//                              [--policy block|shed-sla|shed-oldest]
//                              [--sim-cores N] [--sim-duration S]
//                              [--seed N] [--out FILE]
//
// Writes BENCH_service.json, re-parsed with the in-repo json_lite parser
// before exit — a malformed artifact fails the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "runtime/runtime.hpp"
#include "sim/policies.hpp"
#include "sim/simulate.hpp"
#include "trace/arrivals.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace eewa;

std::size_t default_workers() {
  const std::size_t hw = std::thread::hardware_concurrency();
  // Leave a core for the dispatcher/submitter when there is one to spare;
  // the capacity calibration absorbs whatever contention remains.
  return std::clamp<std::size_t>(hw > 1 ? hw - 1 : 2, 2, 4);
}

struct Config {
  std::size_t workers = default_workers();
  std::vector<double> loads = {2.0, 0.5};  ///< phase ladder, in order
  double phase_s = 0.3;
  double mean_work_us = 100.0;
  // Small enough that a 2x storm of phase_s overflows total buffering
  // (3 * capacity) and the admission policy actually has to act.
  std::size_t queue_capacity = 256;
  std::size_t inbox_capacity = 64;
  double epoch_s = 0.002;
  rt::AdmissionPolicy policy = rt::AdmissionPolicy::kShedLowestSla;
  std::size_t sim_cores = 16;
  double sim_load = 2.0;
  double sim_duration_s = 0.25;
  double sim_mean_work_us = 30.0;  ///< 2.0 * 16 / 30us ~= 1.07M tasks/s
  std::uint64_t seed = 1;
  std::string out = "BENCH_service.json";
};

const char* policy_name(rt::AdmissionPolicy p) {
  switch (p) {
    case rt::AdmissionPolicy::kBlock:
      return "block";
    case rt::AdmissionPolicy::kShedLowestSla:
      return "shed-sla";
    case rt::AdmissionPolicy::kShedOldest:
      return "shed-oldest";
  }
  return "?";
}

/// Arrival stream at an absolute task rate (tasks/sec), encoded through
/// ArrivalSpec's load knob: load = rate * mean_work / cores.
trace::ArrivalSpec phase_spec(const Config& cfg, double rate_tps,
                              std::uint64_t seed) {
  trace::ArrivalSpec spec;
  spec.name = "service_phase";
  // A gold (never-shed) control class next to the bulk tier: the gold
  // share must survive every overload phase intact.
  spec.classes = {
      {"gold", 0.2, cfg.mean_work_us * 1e-6, 0.3, 0.0, 0.0, 0},
      {"bulk", 0.8, cfg.mean_work_us * 1e-6, 0.3, 0.0, 0.0, 2},
  };
  spec.cores = cfg.workers;
  spec.load = rate_tps * cfg.mean_work_us * 1e-6 /
              static_cast<double>(cfg.workers);
  spec.duration_s = cfg.phase_s;
  spec.kind = trace::ArrivalKind::kSteady;
  spec.seed = seed;
  return spec;
}

/// One real-runtime phase: deltas between the snapshots bracketing it.
struct PhaseResult {
  std::string scheduler;
  double load = 0.0;  ///< multiple of measured capacity
  std::uint64_t offered = 0;
  std::uint64_t executed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t gold_shed = 0;  ///< this phase only
  double shed_rate = 0.0;
  double p50_us = 0.0;  ///< completion sojourn, this phase only
  double p99_us = 0.0;
  std::uint64_t depth_hwm = 0;  ///< cumulative up to phase end
  double span_s = 0.0;
};

void busy_for(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Measured service capacity (executed tasks/sec) under an unpaced
/// saturation burst. Pollutes the cumulative shed counters — callers
/// must account per phase via snapshot deltas.
double calibrate_capacity_tps(rt::Runtime& rt, rt::ClassHandle bulk,
                              double work_s) {
  const obs::EpochReport before = rt.service_snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(150)) {
    for (int i = 0; i < 32; ++i) {
      rt.submit(bulk, [work_s] { busy_for(work_s); });
    }
  }
  rt.drain_service(60.0);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  const obs::EpochReport d =
      obs::ServiceMetrics::delta(rt.service_snapshot(), before);
  return static_cast<double>(d.executed) / elapsed.count();
}

double percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Run the phase ladder on one service-mode runtime. Returns one result
/// per load; `failures` collects violated contract clauses.
std::vector<PhaseResult> run_runtime_section(
    const Config& cfg, bool planner, double& capacity_tps,
    std::vector<std::string>& failures) {
  const char* sched = planner ? "eewa" : "steal";
  rt::RuntimeOptions ro;
  ro.workers = cfg.workers;
  ro.kind = rt::SchedulerKind::kEewa;
  ro.enable_pmc = false;
  rt::Runtime rt(ro);

  rt::ServiceOptions so;
  so.classes = {{"gold", 0}, {"bulk", 2}};
  so.queue_capacity = cfg.queue_capacity;
  so.inbox_capacity = cfg.inbox_capacity;
  so.policy = cfg.policy;
  so.epoch_s = cfg.epoch_s;
  so.planner_enabled = planner;
  rt.start_service(so);
  const rt::ClassHandle gold = rt.handle("gold");
  const rt::ClassHandle bulk = rt.handle("bulk");

  capacity_tps = calibrate_capacity_tps(rt, bulk, cfg.mean_work_us * 1e-6);
  if (capacity_tps <= 0.0) {
    failures.push_back(std::string(sched) + ": capacity came out zero");
    rt.stop_service();
    return {};
  }

  std::vector<PhaseResult> results;
  obs::EpochReport prev = rt.service_snapshot();
  for (std::size_t p = 0; p < cfg.loads.size(); ++p) {
    const double mult = cfg.loads[p];
    const auto arrivals = trace::generate_arrivals(
        phase_spec(cfg, mult * capacity_tps, cfg.seed + p));
    // Completion sojourn measured in the bench: slot per arrival, each
    // task stamps its own latency (workers write disjoint slots).
    std::vector<double> sojourn_us(arrivals.size(), -1.0);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const auto& a = arrivals[i];
      std::this_thread::sleep_until(
          t0 + std::chrono::duration<double>(a.time_s));
      const rt::ClassHandle h = a.task.class_id == 0 ? gold : bulk;
      const double work = a.task.work_s;
      double* slot = &sojourn_us[i];
      const auto submit_t = std::chrono::steady_clock::now();
      rt.submit(h, [work, slot, submit_t] {
        busy_for(work);
        *slot = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - submit_t)
                    .count();
      });
    }
    if (!rt.drain_service(60.0)) {
      failures.push_back(std::string(sched) + ": drain timed out at " +
                         std::to_string(mult) + "x load");
      // Quiesce before sojourn_us goes out of scope: in-flight tasks
      // hold pointers into it.
      rt.stop_service();
      return results;
    }
    const obs::EpochReport now = rt.service_snapshot();
    const obs::EpochReport d = obs::ServiceMetrics::delta(now, prev);
    std::vector<double> done;
    done.reserve(sojourn_us.size());
    for (double s : sojourn_us) {
      if (s >= 0.0) done.push_back(s);
    }
    PhaseResult r;
    r.scheduler = sched;
    r.load = mult;
    r.offered = d.offered;
    r.executed = d.executed;
    r.shed = d.shed;
    r.deferred = d.deferred;
    r.gold_shed = d.classes.at(gold.id).shed;
    r.shed_rate = d.offered > 0
                      ? static_cast<double>(d.shed) / d.offered
                      : 0.0;
    r.p50_us = percentile(done, 50.0);
    r.p99_us = percentile(done, 99.0);
    r.depth_hwm = now.queue_depth_hwm;
    r.span_s = cfg.phase_s;
    results.push_back(r);
    prev = now;

    // --- overload contract ------------------------------------------------
    const bool sheds = cfg.policy != rt::AdmissionPolicy::kBlock;
    if (mult >= 2.0 && sheds && r.shed == 0) {
      failures.push_back(std::string(sched) +
                         ": no shedding at 2x offered load");
    }
    if (mult >= 2.0 && !sheds && r.deferred == 0) {
      failures.push_back(std::string(sched) +
                         ": block policy never backpressured at 2x");
    }
    if (mult <= 0.8 && r.shed != 0) {
      failures.push_back(std::string(sched) + ": shed " +
                         std::to_string(r.shed) +
                         " tasks in the recovery phase (" +
                         std::to_string(mult) + "x load)");
    }
    if (r.gold_shed != 0) {
      failures.push_back(std::string(sched) + ": gold (sla 0) shed " +
                         std::to_string(r.gold_shed) + " tasks");
    }
    // Depth is bounded by ring + staging + executing backlog, each
    // capped at queue_capacity.
    if (r.depth_hwm > 3 * cfg.queue_capacity) {
      failures.push_back(std::string(sched) + ": queue depth hwm " +
                         std::to_string(r.depth_hwm) +
                         " exceeds the 3x-capacity bound");
    }
  }

  const obs::EpochReport final_report = rt.stop_service();
  if (final_report.reconcile_slack() != 0) {
    failures.push_back(std::string(sched) + ": final report slack " +
                       std::to_string(final_report.reconcile_slack()));
  }
  return results;
}

/// Delegating policy that records open-loop sojourn (completion time vs
/// release) for every task — the simulator mirror of the runtime's
/// sojourn histogram.
class SojournProbe : public sim::Policy {
 public:
  explicit SojournProbe(std::unique_ptr<sim::Policy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void batch_start(sim::Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override {
    inner_->batch_start(m, batch, batch_index);
  }
  void place_task(sim::Machine& m, sim::TaskId id) override {
    inner_->place_task(m, id);
  }
  std::optional<sim::TaskId> acquire(sim::Machine& m,
                                     std::size_t core) override {
    return inner_->acquire(m, core);
  }
  void task_done(sim::Machine& m, std::size_t core,
                 const trace::TraceTask& task, double exec_s) override {
    sojourns_us_.push_back((m.now_s() - task.release_s) * 1e6);
    inner_->task_done(m, core, task, exec_s);
  }
  double batch_end(sim::Machine& m, double makespan_s) override {
    return inner_->batch_end(m, makespan_s);
  }

  std::vector<double>& sojourns_us() { return sojourns_us_; }

 private:
  std::unique_ptr<sim::Policy> inner_;
  std::vector<double> sojourns_us_;
};

struct SimRow {
  std::string policy;
  std::size_t tasks = 0;
  double time_s = 0.0;
  double energy_j = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double wall_s = 0.0;
};

std::vector<SimRow> run_sim_section(const Config& cfg, double& offered_tps,
                                    std::vector<std::string>& failures) {
  trace::ArrivalSpec spec;
  spec.name = "service_sim";
  spec.classes = {
      {"gold", 0.2, cfg.sim_mean_work_us * 1e-6, 0.3, 0.0, 0.0, 0},
      {"bulk", 0.8, cfg.sim_mean_work_us * 1e-6, 0.3, 0.0, 0.0, 2},
  };
  spec.load = cfg.sim_load;
  spec.cores = cfg.sim_cores;
  spec.duration_s = cfg.sim_duration_s;
  spec.kind = trace::ArrivalKind::kSteady;
  spec.seed = cfg.seed;
  offered_tps = spec.rate_tps();
  if (offered_tps < 1e6) {
    failures.push_back("sim offered rate " + std::to_string(offered_tps) +
                       " tasks/sec is below the 1M floor");
  }
  const auto arrivals = trace::generate_arrivals(spec);
  const auto trace = trace::arrivals_to_trace(spec, arrivals);

  sim::SimOptions so;
  so.cores = cfg.sim_cores;
  so.seed = cfg.seed;
  so.fixed_adjuster_overhead_s = 50e-6;  // deterministic timeline

  std::vector<SimRow> rows;
  const char* names[] = {"cilk", "cilk-d", "eewa"};
  for (const char* name : names) {
    std::unique_ptr<sim::Policy> inner;
    if (std::string(name) == "cilk") {
      inner = std::make_unique<sim::CilkPolicy>();
    } else if (std::string(name) == "cilk-d") {
      inner = std::make_unique<sim::CilkDPolicy>();
    } else {
      inner = std::make_unique<sim::EewaPolicy>(trace.class_names);
    }
    SojournProbe probe(std::move(inner));
    const auto w0 = std::chrono::steady_clock::now();
    const sim::SimResult res = sim::simulate(trace, probe, so);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - w0;
    SimRow row;
    row.policy = name;
    row.tasks = arrivals.size();
    row.time_s = res.time_s;
    row.energy_j = res.energy_j;
    row.p50_us = percentile(probe.sojourns_us(), 50.0);
    row.p99_us = percentile(probe.sojourns_us(), 99.0);
    row.wall_s = wall.count();
    if (probe.sojourns_us().size() != arrivals.size()) {
      failures.push_back(std::string("sim/") + name + ": completed " +
                         std::to_string(probe.sojourns_us().size()) +
                         " of " + std::to_string(arrivals.size()) +
                         " tasks");
    }
    rows.push_back(row);
  }
  return rows;
}

std::string to_json(const Config& cfg,
                    const std::vector<PhaseResult>& phases,
                    double capacity_eewa_tps, double capacity_steal_tps,
                    double offered_tps, const std::vector<SimRow>& sim) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"service_traffic\",\n"
     << "  \"workers\": " << cfg.workers << ",\n"
     << "  \"queue_capacity\": " << cfg.queue_capacity << ",\n"
     << "  \"policy\": \"" << policy_name(cfg.policy) << "\",\n"
     << "  \"epoch_s\": " << cfg.epoch_s << ",\n"
     << "  \"phase_s\": " << cfg.phase_s << ",\n"
     << "  \"capacity_tps\": {\"eewa\": " << capacity_eewa_tps
     << ", \"steal\": " << capacity_steal_tps << "},\n"
     << "  \"runtime_phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& r = phases[i];
    os << "    {\"scheduler\": \"" << r.scheduler << "\", \"load\": "
       << r.load << ", \"offered\": " << r.offered << ", \"executed\": "
       << r.executed << ", \"shed\": " << r.shed << ", \"deferred\": "
       << r.deferred << ", \"shed_rate\": " << r.shed_rate
       << ", \"p50_sojourn_us\": " << r.p50_us << ", \"p99_sojourn_us\": "
       << r.p99_us << ", \"queue_depth_hwm\": " << r.depth_hwm << "}"
       << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"sim\": {\n"
     << "    \"cores\": " << cfg.sim_cores << ",\n"
     << "    \"load\": " << cfg.sim_load << ",\n"
     << "    \"duration_s\": " << cfg.sim_duration_s << ",\n"
     << "    \"offered_tasks_per_sec\": " << offered_tps << ",\n"
     << "    \"results\": [\n";
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const auto& r = sim[i];
    os << "      {\"policy\": \"" << r.policy << "\", \"tasks\": "
       << r.tasks << ", \"time_s\": " << r.time_s << ", \"energy_j\": "
       << r.energy_j << ", \"p50_sojourn_us\": " << r.p50_us
       << ", \"p99_sojourn_us\": " << r.p99_us << ", \"wall_s\": "
       << r.wall_s << "}" << (i + 1 < sim.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }\n}\n";
  return os.str();
}

int run(int argc, char** argv) {
  Config cfg;
  util::FlagParser flags("bench_service_traffic", argc, argv);
  while (flags.next()) {
    if (flags.is("--workers")) cfg.workers = flags.positive();
    else if (flags.is("--phase-s")) cfg.phase_s = flags.real();
    else if (flags.is("--sim-cores")) cfg.sim_cores = flags.positive();
    else if (flags.is("--sim-duration")) cfg.sim_duration_s = flags.real();
    else if (flags.is("--seed")) cfg.seed = flags.count();
    else if (flags.is("--out")) cfg.out = flags.text();
    else if (flags.is("--loads")) {
      cfg.loads.clear();
      std::istringstream ls(flags.text());
      for (std::string tok; std::getline(ls, tok, ',');) {
        cfg.loads.push_back(flags.real("--loads", tok.c_str()));
      }
    } else if (flags.is("--policy")) {
      const std::string p = flags.text();
      if (p == "block") {
        cfg.policy = rt::AdmissionPolicy::kBlock;
      } else if (p == "shed-sla") {
        cfg.policy = rt::AdmissionPolicy::kShedLowestSla;
      } else if (p == "shed-oldest") {
        cfg.policy = rt::AdmissionPolicy::kShedOldest;
      } else {
        flags.bad_value("--policy", p.c_str(),
                        "block, shed-sla or shed-oldest");
      }
    } else {
      flags.reject();
    }
  }

  std::printf(
      "Service traffic: %zu workers, policy %s, %.2fs phases at loads [",
      cfg.workers, policy_name(cfg.policy), cfg.phase_s);
  for (std::size_t i = 0; i < cfg.loads.size(); ++i) {
    std::printf("%s%.2g", i ? ", " : "", cfg.loads[i]);
  }
  std::printf("] x capacity\n\n");

  std::vector<std::string> failures;
  std::vector<PhaseResult> phases;
  double capacity_eewa = 0.0;
  double capacity_steal = 0.0;
  for (const bool planner : {true, false}) {
    double& cap = planner ? capacity_eewa : capacity_steal;
    const auto rows = run_runtime_section(cfg, planner, cap, failures);
    phases.insert(phases.end(), rows.begin(), rows.end());
    std::printf("measured capacity (%s): %.0f tasks/sec\n",
                planner ? "eewa" : "steal", cap);
  }

  util::TablePrinter rt_table({"scheduler", "load", "offered", "executed",
                               "shed", "deferred", "shed rate", "p99 us",
                               "depth hwm"});
  for (const auto& r : phases) {
    rt_table.add(r.scheduler, r.load, r.offered, r.executed, r.shed,
                 r.deferred, r.shed_rate, r.p99_us, r.depth_hwm);
  }
  std::printf("%s\n", rt_table.str().c_str());

  double offered_tps = 0.0;
  const auto sim = run_sim_section(cfg, offered_tps, failures);
  std::printf("Sim mirror: %zu cores, %.2gx load, %.3g offered tasks/sec\n",
              cfg.sim_cores, cfg.sim_load, offered_tps);
  util::TablePrinter sim_table({"policy", "tasks", "sim time (s)",
                                "energy (J)", "p50 us", "p99 us",
                                "wall (s)"});
  for (const auto& r : sim) {
    sim_table.add(r.policy, r.tasks, r.time_s, r.energy_j, r.p50_us,
                  r.p99_us, r.wall_s);
  }
  std::printf("%s\n", sim_table.str().c_str());

  bench::write_report(cfg.out,
                      to_json(cfg, phases, capacity_eewa, capacity_steal,
                              offered_tps, sim),
                      "runtime_phases", phases.size());

  if (!failures.empty()) {
    for (const auto& f : failures) {
      std::fprintf(stderr, "CONTRACT VIOLATION: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
