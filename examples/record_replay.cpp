// The profile-once, predict-anywhere workflow: run a real application
// on the thread runtime with trace recording on, then replay the
// recorded task trace on simulated machines of different sizes and
// under different schedulers to predict time and energy before touching
// production hardware.
//
// Usage: ./examples/record_replay [batches]
#include <cstdio>
#include <string>

#include "runtime/runtime.hpp"
#include "sim/simulate.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"
#include "workloads/lzw.hpp"
#include "workloads/data_gen.hpp"
#include "workloads/sha1.hpp"

using namespace eewa;

namespace {

std::vector<rt::TaskDesc> application_batch(std::size_t batch) {
  // A mixed ingest pipeline: hash the large uploads, compress the rest.
  std::vector<rt::TaskDesc> tasks;
  const auto base = static_cast<std::uint64_t>(batch) * 7919;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back({"hash_upload", [seed = base + i] {
                       const auto data = wl::skewed_bytes(120000, seed);
                       (void)wl::sha1(data);
                     }});
  }
  for (int i = 0; i < 10; ++i) {
    tasks.push_back({"compress_doc", [seed = base + 100 + i] {
                       const auto data = wl::markov_text(9000, seed);
                       (void)wl::lzw_compress(data);
                     }});
  }
  return tasks;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t batches = 6;
  util::FlagParser args("record_replay", argc, argv);
  if (args.next()) batches = args.count("batches", args.arg());
  if (args.next()) args.reject();

  // ---- 1. record on the real runtime --------------------------------
  rt::RuntimeOptions options;
  options.workers = 4;
  options.kind = rt::SchedulerKind::kCilk;  // record under plain stealing
  options.record_trace = true;
  rt::Runtime runtime(options);
  for (std::size_t b = 0; b < batches; ++b) {
    runtime.run_batch(application_batch(b));
  }
  const trace::TaskTrace& live = runtime.recorded_trace();
  std::printf(
      "recorded %zu tasks over %zu batches on the real runtime "
      "(%zu classes)\n",
      live.task_count(), live.batch_count(), live.class_count());

  // The saved profile is the trace CSV: replay what was written, not the
  // in-memory trace, so the offline path runs through the saved format.
  const std::string csv = live.to_csv();
  const trace::TaskTrace recorded =
      trace::TaskTrace::from_csv(csv, live.name);
  std::printf("trace CSV is %zu bytes (TaskTrace::to_csv/from_csv)\n\n",
              csv.size());

  // ---- 2. replay on candidate deployments ----------------------------
  util::TablePrinter table({"machine", "scheduler", "time (s)",
                            "energy (J)", "vs cilk"});
  for (std::size_t cores : {4u, 8u, 16u}) {
    sim::SimOptions opt;
    opt.cores = cores;
    opt.seed = 1;
    sim::CilkPolicy cilk;
    const auto rc = sim::simulate(recorded, cilk, opt);
    sim::EewaPolicy eewa(recorded.class_names);
    const auto re = sim::simulate(recorded, eewa, opt);
    char machine[32];
    std::snprintf(machine, sizeof(machine), "%zu-core server", cores);
    table.add(machine, "cilk", rc.time_s, rc.energy_j, "-");
    table.add(machine, "eewa", re.time_s, re.energy_j,
              util::TablePrinter::fixed(
                  100.0 * (re.energy_j / rc.energy_j - 1.0), 1) +
                  "%");
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "(replayed workloads are the *measured* normalized task times from\n"
      "step 1, read back from the saved trace CSV — the §IV-D\n"
      "offline-profiling path, end to end)\n");
  return 0;
}
