// Interactive experiment driver: run any Table-II benchmark under any
// scheduler on any machine size, with one line of output per run —
// handy for sweeping configurations beyond the canned paper figures.
//
// Usage: ./examples/sim_explorer [--benchmark NAME] [--policy cilk|cilk-d|
//        wats|eewa] [--cores N] [--batches N] [--seed N] [--margin X]
//        [--fail-p P] [--drift-p P] [--stuck LIST]
//
// --fail-p/--drift-p/--stuck inject seeded DVFS actuation faults
// (transient write failures, one-rung drift, permanently stuck cores);
// under --policy eewa the run then prints the controller's HealthReport
// (retries, reconciliations, degradations).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/tracer.hpp"
#include "sim/simulate.hpp"
#include "util/cli_flags.hpp"
#include "util/write_file.hpp"
#include "workloads/suite.hpp"

using namespace eewa;

int main(int argc, char** argv) {
  std::string bench_name = "MD5";
  std::string policy_name = "eewa";
  std::size_t cores = 16;
  std::size_t batches = 20;
  std::uint64_t seed = 42;
  double margin = 0.15;
  bool metrics = false;
  std::string trace_out;
  dvfs::FaultSpec faults;
  util::FlagParser flags("sim_explorer", argc, argv);
  while (flags.next()) {
    if (flags.is("--benchmark")) bench_name = flags.text();
    else if (flags.is("--policy")) policy_name = flags.text();
    else if (flags.is("--cores")) cores = flags.positive();
    else if (flags.is("--batches")) batches = flags.count();
    else if (flags.is("--seed")) seed = flags.count();
    else if (flags.is("--margin")) margin = flags.real();
    else if (flags.is("--metrics")) metrics = true;
    else if (flags.is("--trace-out")) trace_out = flags.text();
    else if (flags.is("--fail-p")) faults.transient_failure_p = flags.real();
    else if (flags.is("--drift-p")) faults.drift_p = flags.real();
    else if (flags.is("--stuck")) {
      // Comma-separated core list, e.g. --stuck 0,3,7.
      std::string list = flags.text();
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        faults.stuck_cores.push_back(
            flags.count("--stuck", list.substr(pos, end - pos).c_str()));
        pos = end + 1;
      }
    } else if (flags.is("--help")) {
      std::printf(
          "usage: sim_explorer [--benchmark B] [--policy P] [--cores N]\n"
          "                    [--batches N] [--seed N] [--margin X]\n"
          "                    [--metrics] [--trace-out FILE[.json|.csv]]\n"
          "                    [--fail-p P] [--drift-p P] [--stuck LIST]\n"
          "benchmarks:");
      for (const auto& b : wl::suite()) std::printf(" %s", b.name.c_str());
      std::printf("\npolicies: cilk cilk-d sharing ondemand wats eewa\n");
      return 0;
    } else {
      flags.reject();
    }
  }

  const auto trace = wl::build_trace(wl::find_benchmark(bench_name),
                                     wl::reference_calibration(), batches,
                                     seed);
  sim::SimOptions opt;
  opt.cores = cores;
  opt.seed = seed;
  faults.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  opt.faults = faults;

  std::unique_ptr<obs::EventTracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::EventTracer>(cores + 1);
    for (std::size_t c = 0; c < cores; ++c) {
      tracer->set_track_name(c, "core " + std::to_string(c));
    }
    tracer->set_track_name(cores, "control");
    tracer->set_class_names(trace.class_names);
    opt.tracer = tracer.get();
  }

  sim::SimResult res;
  std::string health;
  if (policy_name == "cilk" || policy_name == "cilk-d" ||
      policy_name == "sharing" || policy_name == "ondemand") {
    res = sim::simulate_named(trace, policy_name, opt);
  } else if (policy_name == "wats") {
    // Fixed asymmetric split: 1/3 fast cores, the rest at the bottom.
    std::vector<std::size_t> rungs(cores, opt.ladder().slowest_index());
    for (std::size_t c = 0; c < cores / 3 + 1; ++c) rungs[c] = 0;
    sim::WatsPolicy p(rungs, trace.class_names);
    res = sim::simulate(trace, p, opt);
  } else if (policy_name == "eewa") {
    core::ControllerOptions copts;
    copts.adjuster.time_margin = margin;
    sim::EewaPolicy p(trace.class_names, copts);
    res = sim::simulate(trace, p, opt);
    health = p.controller().health().to_string();
  } else {
    std::fprintf(stderr, "unknown policy %s\n", policy_name.c_str());
    return 1;
  }

  std::printf(
      "%s/%s cores=%zu batches=%zu seed=%llu: time %.4f s, energy %.1f J "
      "(cores %.1f J), steals %zu, transitions %zu\n",
      bench_name.c_str(), res.policy.c_str(), cores, batches,
      static_cast<unsigned long long>(seed), res.time_s, res.energy_j,
      res.cpu_energy_j, res.steals, res.transitions);
  for (std::size_t j = 0; j < res.rung_residency_s.size(); ++j) {
    std::printf("  F%zu (%.1f GHz): %.3f core-seconds\n", j,
                opt.ladder().ghz(j), res.rung_residency_s[j]);
  }
  if (!health.empty()) std::printf("  health: %s\n", health.c_str());
  if (metrics) {
    std::printf(
        "  batch  span_ms  ovh_us  steals  probes  trans  energy_J\n");
    for (std::size_t b = 0; b < res.batches.size(); ++b) {
      const auto& bs = res.batches[b];
      std::printf("  %5zu %8.3f %7.1f %7zu %7zu %6zu %9.2f\n", b,
                  bs.span_s * 1e3, bs.overhead_s * 1e6, bs.steals,
                  bs.probes, bs.transitions, bs.energy_j);
    }
  }
  if (tracer != nullptr) {
    const bool csv = trace_out.size() > 4 &&
                     trace_out.compare(trace_out.size() - 4, 4, ".csv") == 0;
    if (!util::write_file(trace_out,
                          csv ? tracer->csv() : tracer->chrome_json())) {
      return 1;
    }
    std::printf("  trace: %zu events -> %s (%llu dropped)\n",
                tracer->event_count(), trace_out.c_str(),
                static_cast<unsigned long long>(tracer->dropped()));
  }
  return 0;
}
