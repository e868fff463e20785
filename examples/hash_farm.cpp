// A checksum farm on the simulated 16-core server: batches of MD5/SHA-1
// "file" digests stream through EEWA, and the example prints the live
// c-group evolution (the Fig. 8 view) plus the running energy meter —
// what an operator dashboard for an EEWA deployment would show.
//
// Usage: ./examples/hash_farm [batches] [benchmark]
#include <cstdio>
#include <string>

#include "sim/simulate.hpp"
#include "util/cli_flags.hpp"
#include "util/histogram.hpp"
#include "workloads/suite.hpp"

using namespace eewa;

int main(int argc, char** argv) {
  std::size_t batches = 12;
  std::string bench_name = "SHA-1";
  util::FlagParser args("hash_farm", argc, argv);
  if (args.next()) batches = args.count("batches", args.arg());
  if (args.next()) bench_name = args.arg();
  if (args.next()) args.reject();

  const auto& bench = wl::find_benchmark(bench_name);
  const auto trace =
      wl::build_trace(bench, wl::reference_calibration(), batches, 7);

  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 99;
  sim::EewaPolicy eewa(trace.class_names);
  sim::Machine machine(opt);

  std::printf("hash farm — %s, 16 cores, %zu batches\n", bench_name.c_str(),
              batches);
  std::printf("%-6s %-26s %10s %12s\n", "batch", "cores @ GHz", "span(ms)",
              "energy(J)");

  double now = 0.0;
  for (std::size_t b = 0; b < trace.batches.size(); ++b) {
    now = machine.run_batch(eewa, trace.batches[b], now);
    const auto& st = machine.batch_stats().back();
    std::string config;
    for (std::size_t j = 0; j < st.cores_per_rung.size(); ++j) {
      if (st.cores_per_rung[j] == 0) continue;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%zu@%.1f", config.empty() ? "" : " ",
                    st.cores_per_rung[j], machine.ladder().ghz(j));
      config += buf;
    }
    std::printf("%-6zu %-26s %10.2f %12.2f\n", b + 1, config.c_str(),
                st.span_s * 1e3, st.energy_j);
  }

  const auto res = machine.finish(now, "eewa", bench_name);
  std::printf("\ntotal: %.1f ms, %.1f J whole machine (%.1f J cores)\n",
              res.time_s * 1e3, res.energy_j, res.cpu_energy_j);

  // Frequency residency view (core-seconds at each rung).
  util::Histogram residency(0, static_cast<double>(res.rung_residency_s.size()),
                            res.rung_residency_s.size());
  for (std::size_t j = 0; j < res.rung_residency_s.size(); ++j) {
    residency.add(static_cast<double>(j), res.rung_residency_s[j]);
  }
  std::printf("\ncore-seconds per frequency rung (F0 fastest):\n%s",
              residency.ascii(30).c_str());
  std::printf("steals %zu, probes %zu, DVFS transitions %zu\n", res.steals,
              res.probes, res.transitions);
  return 0;
}
