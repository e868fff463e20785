// Fig. 6 — normalized execution time and energy consumption of the seven
// Table-II benchmarks under Cilk, Cilk-D and EEWA on the 16-core
// Opteron-8380 machine model. The paper reports everything normalized to
// Cilk; we print the same two series plus absolute values.
//
// Expected shape (paper): EEWA cuts energy 8.7%-29.8% vs Cilk and
// 2.3%-18.4% vs Cilk-D with <= 3.7% slowdown; Cilk-D sits between.
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
  std::size_t batches = 40;
  std::uint64_t seed = 2024;
  bool live_calibration = false;
  util::FlagParser flags("bench_fig6_energy", argc, argv);
  while (flags.next()) {
    if (flags.is("--batches")) batches = flags.positive();
    else if (flags.is("--seed")) seed = flags.count();
    else if (flags.is("--calibrate")) live_calibration = true;
    else flags.reject();
  }

  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;

  const auto cal = live_calibration ? wl::calibrate()
                                    : wl::reference_calibration();

  std::printf(
      "Fig. 6 — normalized exec time & energy, 16 cores, %zu batches "
      "(%s calibration)\n\n",
      batches, live_calibration ? "live host" : "reference");

  util::TablePrinter table({"benchmark", "time cilk", "time cilk-d",
                            "time eewa", "energy cilk", "energy cilk-d",
                            "energy eewa", "eewa energy save",
                            "eewa vs cilk-d"});
  util::CsvWriter csv;
  csv.row({"benchmark", "policy", "time_s", "energy_j", "norm_time",
           "norm_energy"});

  for (const auto& bench : wl::suite()) {
    const auto trace = wl::build_trace(bench, cal, batches, seed);
    sim::CilkPolicy cilk;
    sim::CilkDPolicy cilkd;
    sim::EewaPolicy eewa(trace.class_names);
    const auto a = sim::simulate(trace, cilk, opt);
    const auto d = sim::simulate(trace, cilkd, opt);
    const auto e = sim::simulate(trace, eewa, opt);

    auto norm = [&](double v, double base) { return v / base; };
    table.add(bench.name, 1.0, norm(d.time_s, a.time_s),
              norm(e.time_s, a.time_s), 1.0, norm(d.energy_j, a.energy_j),
              norm(e.energy_j, a.energy_j),
              util::TablePrinter::fixed(
                  100.0 * (1.0 - e.energy_j / a.energy_j), 1) +
                  "%",
              util::TablePrinter::fixed(
                  100.0 * (1.0 - e.energy_j / d.energy_j), 1) +
                  "%");
    for (const auto* r : {&a, &d, &e}) {
      csv.row_values(bench.name, r->policy, r->time_s, r->energy_j,
                     r->time_s / a.time_s, r->energy_j / a.energy_j);
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("CSV:\n%s\n", csv.str().c_str());
  std::printf(
      "Paper's bands: EEWA saves 8.7%%-29.8%% vs Cilk, 2.3%%-18.4%% vs\n"
      "Cilk-D, perf within 3.7%%. See EXPERIMENTS.md for the comparison.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
