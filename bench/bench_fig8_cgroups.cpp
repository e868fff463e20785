// Fig. 8 — the number of cores at each of the four frequencies across
// the first 10 batches of SHA-1 under EEWA. The paper's series: batch 1
// runs all 16 cores at 2.5 GHz (the measurement batch); from batch 3 on,
// 5 cores stay at 2.5 GHz and the other 11 sit at 0.8 GHz.
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
  std::string bench_name = "SHA-1";
  std::size_t batches = 10;
  util::FlagParser flags("bench_fig8_cgroups", argc, argv);
  while (flags.next()) {
    if (flags.is("--benchmark")) bench_name = flags.text();
    else if (flags.is("--batches")) batches = flags.positive();
    else flags.reject();
  }
  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;
  const auto cal = wl::reference_calibration();
  const auto trace =
      wl::build_trace(wl::find_benchmark(bench_name), cal, batches, 2024);

  sim::EewaPolicy eewa(trace.class_names);
  const auto res = sim::simulate(trace, eewa, opt);

  std::printf("Fig. 8 — cores per frequency, %s, %zu batches, 16 cores\n\n",
              bench_name.c_str(), batches);
  util::TablePrinter table({"batch", "2.5 GHz", "1.8 GHz", "1.3 GHz",
                            "0.8 GHz", "span (ms)", "steals"});
  util::CsvWriter csv;
  csv.row({"batch", "f2500", "f1800", "f1300", "f800"});
  for (std::size_t b = 0; b < res.batches.size(); ++b) {
    const auto& st = res.batches[b];
    table.add(b + 1, st.cores_per_rung[0], st.cores_per_rung[1],
              st.cores_per_rung[2], st.cores_per_rung[3],
              st.span_s * 1e3, st.steals);
    csv.row_values(b + 1, st.cores_per_rung[0], st.cores_per_rung[1],
                   st.cores_per_rung[2], st.cores_per_rung[3]);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("CSV:\n%s\n", csv.str().c_str());
  std::printf(
      "Paper's series: batch 1 all 16 cores at 2.5 GHz; from batch 3 on,\n"
      "5 cores at 2.5 GHz and 11 at 0.8 GHz.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
