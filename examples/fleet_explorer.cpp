// Fleet simulator explorer: one deterministic fleet run from the CLI.
//
//   fleet_explorer [--machines N] [--cores C] [--duration S] [--load L]
//                  [--epoch S] [--mean-work S] [--policy NAME]
//                  [--placement NAME] [--seed N] [--initial-state K]
//                  [--park-after N] [--max-backlog S] [--threads N]
//                  [--quiet]
//
// Prints the FleetReport summary. The same flags always produce the
// same report bit for bit — at every --threads value — so diff two
// runs to prove it:
//
//   fleet_explorer --machines 64 --duration 3.5 --load 0.5  # ~11M tasks
//   fleet_explorer --threads 8 ...   # same bytes, less wall time
#include <cstdio>
#include <exception>
#include <string>

#include "sim/fleet.hpp"
#include "trace/arrivals.hpp"
#include "util/cli_flags.hpp"

using namespace eewa;

int main(int argc, char** argv) {
  sim::FleetOptions opts;
  opts.machines = 8;
  opts.machine.cores = 16;
  double duration_s = 0.5;
  double load = 0.5;
  double mean_work_s = 100e-6;
  std::uint64_t seed = 1;
  bool quiet = false;
  util::FlagParser flags("fleet_explorer", argc, argv);
  while (flags.next()) {
    if (flags.is("--help") || flags.is("-h")) {
      std::puts(
          "fleet_explorer: one deterministic fleet run\n"
          "  --machines N      fleet size (default 8)\n"
          "  --cores C         cores per machine (default 16)\n"
          "  --duration S      stream duration in seconds (default 0.5)\n"
          "  --load L          offered load fraction (default 0.5)\n"
          "  --epoch S         routing/consolidation epoch (default 0.02)\n"
          "  --mean-work S     light-class mean task work (default 100e-6)\n"
          "  --policy NAME     per-machine policy (default eewa)\n"
          "  --placement NAME  placement tier (default least-loaded)\n"
          "  --seed N          stream + machine seed (default 1)\n"
          "  --initial-state K 0 = powered, K = parked in ladder[K-1]\n"
          "  --park-after N    idle epochs before parking (default 2)\n"
          "  --max-backlog S   shed above this per-core backlog (0 = never)\n"
          "  --threads N       worker threads for machine epochs: 1 = serial\n"
          "                    (default), 0 = hardware concurrency, N = N.\n"
          "                    The report is bit-identical for every value.\n"
          "  --quiet           one diffable summary line");
      return 0;
    }
    if (flags.is("--machines")) opts.machines = flags.count();
    else if (flags.is("--cores")) opts.machine.cores = flags.count();
    else if (flags.is("--duration")) duration_s = flags.real();
    else if (flags.is("--load")) load = flags.real();
    else if (flags.is("--epoch")) opts.epoch_s = flags.real();
    else if (flags.is("--mean-work")) mean_work_s = flags.real();
    else if (flags.is("--policy")) opts.policy = flags.text();
    else if (flags.is("--placement")) opts.placement = flags.text();
    else if (flags.is("--seed")) seed = flags.count();
    else if (flags.is("--initial-state")) opts.initial_state = flags.count();
    else if (flags.is("--park-after")) opts.park_after_epochs = flags.count();
    else if (flags.is("--max-backlog")) opts.max_backlog_s = flags.real();
    else if (flags.is("--threads")) opts.threads = flags.count();
    else if (flags.is("--quiet")) quiet = true;
    else flags.reject();
  }

  trace::ArrivalSpec arr;
  arr.name = "fleet_explorer";
  arr.seed = seed;
  arr.cores = opts.machines * opts.machine.cores;
  arr.duration_s = duration_s;
  arr.load = load;
  trace::ArrivalClassSpec light;
  light.name = "light";
  light.weight = 1.0;
  light.mean_work_s = mean_work_s;
  light.cv = 0.3;
  trace::ArrivalClassSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 0.25;
  heavy.mean_work_s = 4.0 * mean_work_s;
  heavy.cv = 0.2;
  heavy.mem_alpha = 0.1;
  arr.classes = {light, heavy};
  opts.machine.seed = seed;

  try {
    const auto report = sim::Fleet(opts, arr).run();
    if (quiet) {
      std::printf(
          "offered=%zu completed=%zu shed=%zu parks=%zu wakes=%zu "
          "energy=%.17g horizon=%.17g\n",
          report.offered, report.completed, report.shed, report.parks,
          report.wakes, report.energy_j, report.horizon_s);
    } else {
      std::fputs(report.to_string().c_str(), stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_explorer: %s\n", e.what());
    return 1;
  }
  return 0;
}
