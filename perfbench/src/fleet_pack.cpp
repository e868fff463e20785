// fleet-pack: sim::Fleet with 64 machines x 16 cores, pack-and-park
// placement and EEWA on every machine, on the serial engine, fed by the
// seeded two-class open-loop stream of bench_fleet, over half of its
// default duration (~5.6M tasks per round, so a run holds enough rounds
// for a steady rate).
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/fleet.hpp"
#include "trace/arrivals.hpp"

namespace perfbench {
namespace {

using namespace eewa;

constexpr std::size_t kMachines = 64;
constexpr std::size_t kCores = 16;
constexpr double kDurationS = 1.75;
constexpr double kLoad = 0.5;
constexpr double kMeanWorkS = 100e-6;
constexpr double kEpochS = 0.02;

trace::ArrivalSpec stream_spec(std::uint64_t seed) {
  trace::ArrivalSpec arr;
  arr.name = "fleet-pack";
  arr.seed = seed;
  arr.cores = kMachines * kCores;
  arr.duration_s = kDurationS;
  arr.load = kLoad;
  trace::ArrivalClassSpec light;
  light.name = "light";
  light.weight = 1.0;
  light.mean_work_s = kMeanWorkS;
  light.cv = 0.3;
  trace::ArrivalClassSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 0.25;
  heavy.mean_work_s = 4.0 * kMeanWorkS;
  heavy.cv = 0.2;
  heavy.mem_alpha = 0.1;
  arr.classes = {light, heavy};
  return arr;
}

sim::FleetOptions fleet_options(std::uint64_t seed) {
  sim::FleetOptions opts;
  opts.machines = kMachines;
  opts.machine.cores = kCores;
  opts.machine.seed = seed;
  opts.epoch_s = kEpochS;
  opts.placement = "pack";
  opts.policy = "eewa";
  opts.threads = 1;
  return opts;
}

/// The stream's own totals, drained epoch by epoch the way the fleet
/// consumes it; the report must account for exactly these.
struct StreamTotals {
  std::size_t arrivals = 0;
  double work_s = 0.0;
};

StreamTotals drain_stream(const trace::ArrivalSpec& spec) {
  trace::ArrivalStream stream(spec);
  std::vector<trace::Arrival> epoch;
  StreamTotals t;
  for (std::size_t e = 1;; ++e) {
    epoch.clear();
    const double until = static_cast<double>(e) * kEpochS;
    const bool last = until >= spec.duration_s;
    t.arrivals += stream.drain_until(until, last, epoch);
    for (const auto& a : epoch) t.work_s += a.task.work_s;
    if (last) break;
  }
  return t;
}

}  // namespace

void run_fleet_pack(const Args& args, Result& out) {
  // --- set-up: the stream spec and options, and the stream's totals --------
  trace::ArrivalSpec spec;
  sim::FleetOptions opts;
  StreamTotals expect;
  std::vector<double> drain_s;
  const auto setup = [&] {
    spec = stream_spec(args.seed);
    opts = fleet_options(args.seed);
    sim::Fleet validate(opts, spec);  // throws on malformed options
    const auto t0 = Clock::now();
    expect = drain_stream(spec);
    drain_s.push_back(seconds_since(t0));
  };

  std::optional<obs::FleetReport> reference;
  std::vector<double> untraced_tps, traced_tps, traced_wall;
  const double setup_s = run_rounds(
      args.seconds, args.trace, 2, setup, [&](Pass pass) {
    const bool traced = pass == Pass::kTraced;
    const auto t0 = Clock::now();
    const obs::FleetReport rep = sim::Fleet(opts, spec).run();
    const double wall = seconds_since(t0);

    double resum = 0.0;
    for (const auto& m : rep.per_machine) resum += m.energy_j();
    const bool conserved = rep.offered == expect.arrivals &&
                           rep.routed == rep.offered &&
                           rep.completed == rep.routed && rep.shed == 0 &&
                           rep.in_flight == 0;
    const bool energy_ok = resum == rep.energy_j && rep.energy_j > 0.0;
    const bool work_ok =
        std::abs(rep.offered_work_s - expect.work_s) <= 1e-9 * expect.work_s;
    const bool same = !reference || rep == *reference;
    out.check(conserved, "task conservation broke: offered " +
                             std::to_string(rep.offered) + " (stream " +
                             std::to_string(expect.arrivals) + "), routed " +
                             std::to_string(rep.routed) + ", completed " +
                             std::to_string(rep.completed) + ", shed " +
                             std::to_string(rep.shed) + ", in flight " +
                             std::to_string(rep.in_flight));
    out.check(energy_ok, "per-machine energy pieces do not re-sum to "
                         "FleetReport::energy_j");
    out.check(work_ok, "offered work differs from the stream's");
    out.check(same, "FleetReports differ between rounds of one seed" +
                        std::string(traced ? " (traced vs untraced)" : ""));
    if (!reference) reference = rep;
    if (pass == Pass::kWarmup) return;
    out.operation(rep.offered, conserved && energy_ok && work_ok && same);
    (traced ? traced_tps : untraced_tps)
        .push_back(static_cast<double>(rep.completed) / wall);
    if (traced) traced_wall.push_back(wall);
  });

  const obs::FleetReport& rep = *reference;
  std::size_t batches = 0, steals = 0, probes = 0, transitions = 0;
  for (const auto& m : rep.per_machine) {
    batches += m.batches;
    steals += m.steals;
    probes += m.probes;
    transitions += m.dvfs_transitions;
  }
  const double tps = round_rate(untraced_tps);
  const double tasks = static_cast<double>(rep.completed);
  out.set("setup_s", setup_s);
  out.set("tasks_per_s", tps);
  out.set("plans_per_s", tps * static_cast<double>(batches) / tasks);
  out.set("energy_per_task_mj", rep.energy_j / tasks * 1e3);
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf(
      "fleet-pack: %zu machines, %zu tasks, %zu machine batches; %.0f "
      "tasks/s over %zu untraced rounds; %.6f J\n",
      rep.machines, rep.completed, batches, tps, untraced_tps.size(),
      rep.energy_j);
  if (!args.trace) return;

  // The stream is drained inside Fleet::run; its share is timed on the
  // same spec in set-up (trace.arrivals_s) and the rest is everything
  // else the fleet does: routing, machine steps, consolidation, merges.
  const double arrivals_s = median(drain_s);
  out.set("trace.arrivals_s", arrivals_s);
  out.set("fleet.rest_s", median(traced_wall) - arrivals_s);
  out.set("fleet.epochs", static_cast<double>(rep.epochs));
  out.set("fleet.batches", static_cast<double>(batches));
  out.set("fleet.parks", static_cast<double>(rep.parks));
  out.set("fleet.wakes", static_cast<double>(rep.wakes));
  out.set("fleet.parked_share",
          rep.parked_machine_s /
              (rep.powered_machine_s + rep.parked_machine_s));
  out.set("sim.steals", static_cast<double>(steals));
  out.set("sim.probes", static_cast<double>(probes));
  out.set("sim.steal_hit", probes > 0 ? static_cast<double>(steals) /
                                            static_cast<double>(probes)
                                      : 0.0);
  out.set("dvfs.transitions", static_cast<double>(transitions));
  out.set("bench.trace_overhead", trace_overhead(untraced_tps, traced_tps));
}

}  // namespace perfbench
