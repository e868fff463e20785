// A batch compression service on the real work-stealing runtime: every
// "request wave" (batch) mixes a few large archives with many small
// documents, compressed with the library's real bzip2-style kernel. The
// example runs the same waves under plain Cilk-style stealing and under
// EEWA, then compares makespans and model-metered energy.
//
// Usage: ./examples/compress_service [waves] [workers]
#include <cstdio>
#include <string>

#include "energy/model_meter.hpp"
#include "energy/power_model.hpp"
#include "runtime/runtime.hpp"
#include "util/cli_flags.hpp"
#include "workloads/bzip2ish.hpp"
#include "workloads/data_gen.hpp"

using namespace eewa;

namespace {

std::vector<rt::TaskDesc> make_wave(std::size_t wave) {
  std::vector<rt::TaskDesc> tasks;
  const auto seed_base = static_cast<std::uint64_t>(wave) * 1000;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back({"compress_archive", [seed = seed_base + i] {
                       const auto data = wl::markov_text(60000, seed);
                       auto out = wl::bzip2ish_compress_block(data);
                       (void)out;
                     }});
  }
  for (int i = 0; i < 12; ++i) {
    tasks.push_back({"compress_document", [seed = seed_base + 100 + i] {
                       const auto data = wl::markov_text(6000, seed);
                       auto out = wl::bzip2ish_compress_block(data);
                       (void)out;
                     }});
  }
  return tasks;
}

struct RunStats {
  double seconds = 0.0;
  double joules = 0.0;
  std::size_t steals = 0;
};

RunStats run_service(rt::SchedulerKind kind, std::size_t waves,
                     std::size_t workers) {
  rt::RuntimeOptions options;
  options.workers = workers;
  options.kind = kind;
  rt::Runtime runtime(options);
  const auto power = energy::PowerModel::opteron8380_server();
  energy::ModelMeter meter(power, *runtime.trace_backend());

  RunStats stats;
  meter.start();
  for (std::size_t wave = 0; wave < waves; ++wave) {
    stats.seconds += runtime.run_batch(make_wave(wave));
  }
  stats.joules = meter.stop_joules();
  stats.steals = runtime.total_steals();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t waves = 5;
  std::size_t workers = 4;  // 0 = one per hardware CPU
  util::FlagParser args("compress_service", argc, argv);
  if (args.next()) waves = args.count("waves", args.arg());
  if (args.next()) workers = args.count("workers", args.arg());
  if (args.next()) args.reject();

  std::printf("compress service: %zu waves x 14 requests, %zu workers\n\n",
              waves, workers);
  const RunStats cilk = run_service(rt::SchedulerKind::kCilk, waves, workers);
  const RunStats eewa = run_service(rt::SchedulerKind::kEewa, waves, workers);

  std::printf("%-6s %10s %12s %8s\n", "sched", "time (s)", "energy (J)",
              "steals");
  std::printf("%-6s %10.3f %12.1f %8zu\n", "cilk", cilk.seconds,
              cilk.joules, cilk.steals);
  std::printf("%-6s %10.3f %12.1f %8zu\n", "eewa", eewa.seconds,
              eewa.joules, eewa.steals);
  std::printf("\nmodeled energy delta: %+.1f%% at %+.1f%% time\n",
              100.0 * (eewa.joules / cilk.joules - 1.0),
              100.0 * (eewa.seconds / cilk.seconds - 1.0));
  std::printf(
      "(energy comes from the DVFS-trace model meter; on cpufreq+RAPL\n"
      "hardware swap in SysfsBackend and RaplMeter for real readings)\n");
  return 0;
}
