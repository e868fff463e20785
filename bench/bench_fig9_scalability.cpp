// Fig. 9 — scalability: normalized execution time and energy of DMC
// under Cilk, Cilk-D and EEWA on machines with 4, 8, 12 and 16 cores.
//
// Expected shape (paper): at 4 cores every core stays at the top
// frequency (no saving, negligible overhead); savings grow with the core
// count, reaching ~24% at 12 cores and more at 16.
#include <cstdio>
#include <string>

#include "sim/simulate.hpp"
#include "util/cli_flags.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace eewa;

int run(int argc, char** argv) {
  std::string bench_name = "DMC";
  std::size_t batches = 40;
  util::FlagParser flags("bench_fig9_scalability", argc, argv);
  while (flags.next()) {
    if (flags.is("--benchmark")) bench_name = flags.text();
    else if (flags.is("--batches")) batches = flags.positive();
    else flags.reject();
  }
  const auto cal = wl::reference_calibration();
  const auto trace =
      wl::build_trace(wl::find_benchmark(bench_name), cal, batches, 2024);

  std::printf(
      "Fig. 9 — %s scalability: normalized time & energy vs Cilk\n"
      "(%zu batches)\n\n",
      bench_name.c_str(), batches);

  util::TablePrinter table({"cores", "time cilk", "time cilk-d",
                            "time eewa", "energy cilk", "energy cilk-d",
                            "energy eewa", "eewa saving"});
  util::CsvWriter csv;
  csv.row({"cores", "policy", "time_s", "energy_j", "norm_time",
           "norm_energy"});
  for (std::size_t cores : {4u, 8u, 12u, 16u}) {
    sim::SimOptions opt;
    opt.cores = cores;
    opt.seed = 42;
    sim::CilkPolicy cilk;
    sim::CilkDPolicy cilkd;
    sim::EewaPolicy eewa(trace.class_names);
    const auto a = sim::simulate(trace, cilk, opt);
    const auto d = sim::simulate(trace, cilkd, opt);
    const auto e = sim::simulate(trace, eewa, opt);
    table.add(cores, 1.0, d.time_s / a.time_s, e.time_s / a.time_s, 1.0,
              d.energy_j / a.energy_j, e.energy_j / a.energy_j,
              util::TablePrinter::fixed(
                  100.0 * (1.0 - e.energy_j / a.energy_j), 1) +
                  "%");
    for (const auto* r : {&a, &d, &e}) {
      csv.row_values(cores, r->policy, r->time_s, r->energy_j,
                     r->time_s / a.time_s, r->energy_j / a.energy_j);
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("CSV:\n%s\n", csv.str().c_str());
  std::printf(
      "Paper's shape: no saving at 4 cores (all cores stay fast),\n"
      "~23.8%% saving at 12 cores, growing with the core count.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
