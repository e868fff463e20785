// Fig. 7 — performance on a *fixed* asymmetric configuration. For each
// benchmark the core frequencies are frozen to the configuration EEWA
// used most often ("the most often used frequency configurations in
// different batches"), then Cilk (random stealing) and WATS
// (workload-aware stealing, no DVFS) run on that machine while EEWA runs
// with its usual per-batch DVFS.
//
// Expected shape (paper): Cilk 1.17x-2.92x of EEWA's time, WATS
// 1.05x-1.24x of EEWA's time.
#include <cstdio>
#include <string>

#include "sim/simulate.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace eewa;

int run(int argc, char** argv) {
  std::size_t batches = 40;
  util::FlagParser flags("bench_fig7_amc", argc, argv);
  while (flags.next()) {
    if (flags.is("--batches")) batches = flags.positive();
    else flags.reject();
  }
  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;
  const auto cal = wl::reference_calibration();

  std::printf(
      "Fig. 7 — exec time on the EEWA-chosen asymmetric configuration,\n"
      "normalized to EEWA (%zu batches)\n\n",
      batches);

  util::TablePrinter table({"benchmark", "config (cores@rung)", "cilk/eewa",
                            "wats/eewa", "eewa"});
  for (const auto& bench : wl::suite()) {
    const auto trace = wl::build_trace(bench, cal, batches, 2024);

    // Pass 1: find EEWA's modal configuration.
    sim::EewaPolicy probe(trace.class_names);
    sim::Machine machine(opt);
    double tt = 0.0;
    for (const auto& b : trace.batches) {
      tt = machine.run_batch(probe, b, tt);
    }
    const auto rungs = probe.modal_rungs(machine);
    std::vector<std::size_t> per_rung(4, 0);
    for (auto r : rungs) ++per_rung[r];
    std::string config;
    for (std::size_t j = 0; j < per_rung.size(); ++j) {
      if (per_rung[j] == 0) continue;
      if (!config.empty()) config += " ";
      config += std::to_string(per_rung[j]) + "@F" + std::to_string(j);
    }

    // Pass 2: the three schedulers.
    sim::CilkPolicy cilk(rungs);
    sim::WatsPolicy wats(rungs, trace.class_names);
    sim::EewaPolicy eewa(trace.class_names);
    const auto rc = sim::simulate(trace, cilk, opt);
    const auto rw = sim::simulate(trace, wats, opt);
    const auto re = sim::simulate(trace, eewa, opt);
    table.add(bench.name, config,
              util::TablePrinter::fixed(rc.time_s / re.time_s, 2) + "x",
              util::TablePrinter::fixed(rw.time_s / re.time_s, 2) + "x",
              "1.00x");
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Paper's bands: Cilk 1.17x-2.92x, WATS 1.05x-1.24x of EEWA's time.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
