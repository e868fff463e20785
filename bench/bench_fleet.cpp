// Fleet placement bench — the consolidation story in numbers.
//
// One seeded open-loop arrival stream (>= 10M offered tasks across
// >= 64 machines by default) run through sim::Fleet once per placement
// policy (round-robin, least-loaded, pack-and-park). Reports offered /
// completed counts, fleet energy, park/wake ledgers, powered vs parked
// machine-seconds and the wall clock per run, then *asserts* the
// contract the placement tier exists for:
//
//   * scale: the stream offers >= --min-offered tasks (default 10M)
//     over >= --min-machines machines (default 64), and every run
//     finishes inside --budget-s of wall clock;
//   * conservation: every routed task completes, nothing is shed;
//   * energy ordering: pack-and-park spends less fleet energy than
//     round-robin on the identical stream.
//
// Usage: bench_fleet [--machines N] [--cores N] [--duration S]
//                    [--load L] [--epoch S] [--seed N] [--budget-s S]
//                    [--min-offered N] [--min-machines N]
//                    [--threads N] [--min-speedup X]
//                    [--scale-only] [--out FILE]
//
// --scale-only skips the least-loaded row (CI gate mode: the scale and
// energy-ordering assertions only need pack and round-robin).
//
// With --threads != 1 every placement runs twice — serial, then on N
// worker threads (0 = hardware concurrency) — the two FleetReports are
// asserted bit-identical, and the JSON gains serial wall time and the
// serial/parallel speedup. --min-speedup X turns the speedup into a
// contract (default 0: report-only, since shared CI runners can't
// promise cores; the dev-box contract is >= 4x at --threads 8).
//
// Writes BENCH_fleet.json, re-parsed with the in-repo json_lite parser
// before exit — a malformed artifact fails the run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "sim/fleet.hpp"
#include "trace/arrivals.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace eewa;

struct Config {
  std::size_t machines = 64;
  std::size_t cores = 16;
  double duration_s = 3.5;  ///< 3.2M tasks/s at the default mix => ~11.2M
  double load = 0.5;
  double mean_work_us = 100.0;
  double epoch_s = 0.02;
  std::uint64_t seed = 1;
  double budget_s = 60.0;  ///< wall-clock ceiling per placement run
  std::size_t min_offered = 10'000'000;
  std::size_t min_machines = 64;
  std::size_t threads = 1;   ///< 1 = serial only; else serial + parallel
  double min_speedup = 0.0;  ///< 0 = report speedup, don't gate on it
  bool scale_only = false;
  std::string out = "BENCH_fleet.json";
};

struct Row {
  std::string placement;
  obs::FleetReport rep;
  double wall_s = 0.0;         ///< the headline run (parallel when enabled)
  double serial_wall_s = 0.0;  ///< 0 when no serial reference ran
  double speedup = 0.0;        ///< serial_wall_s / wall_s, 0 when serial-only
  double tasks_per_sec = 0.0;  ///< simulated (offered) tasks per wall-second
};

trace::ArrivalSpec fleet_spec(const Config& cfg) {
  trace::ArrivalSpec arr;
  arr.name = "bench_fleet";
  arr.seed = cfg.seed;
  arr.cores = cfg.machines * cfg.cores;
  arr.duration_s = cfg.duration_s;
  arr.load = cfg.load;
  trace::ArrivalClassSpec light;
  light.name = "light";
  light.weight = 1.0;
  light.mean_work_s = cfg.mean_work_us * 1e-6;
  light.cv = 0.3;
  trace::ArrivalClassSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 0.25;
  heavy.mean_work_s = 4.0 * cfg.mean_work_us * 1e-6;
  heavy.cv = 0.2;
  heavy.mem_alpha = 0.1;
  arr.classes = {light, heavy};
  return arr;
}

std::string to_json(const Config& cfg, const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"fleet\",\n"
     << "  \"machines\": " << cfg.machines << ",\n"
     << "  \"cores_per_machine\": " << cfg.cores << ",\n"
     << "  \"duration_s\": " << cfg.duration_s << ",\n"
     << "  \"load\": " << cfg.load << ",\n"
     << "  \"epoch_s\": " << cfg.epoch_s << ",\n"
     << "  \"seed\": " << cfg.seed << ",\n"
     << "  \"threads\": " << cfg.threads << ",\n"
     << "  \"placements\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i].rep;
    os << "    {\"placement\": \"" << rows[i].placement << "\""
       << ", \"offered\": " << r.offered
       << ", \"completed\": " << r.completed << ", \"shed\": " << r.shed
       << ", \"parks\": " << r.parks << ", \"wakes\": " << r.wakes
       << ", \"horizon_s\": " << r.horizon_s
       << ", \"powered_machine_s\": " << r.powered_machine_s
       << ", \"parked_machine_s\": " << r.parked_machine_s
       << ", \"energy_j\": " << r.energy_j
       << ", \"wall_s\": " << rows[i].wall_s
       << ", \"serial_wall_s\": " << rows[i].serial_wall_s
       << ", \"speedup\": " << rows[i].speedup
       << ", \"tasks_per_sec\": " << rows[i].tasks_per_sec << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

int run(int argc, char** argv) {
  Config cfg;
  util::FlagParser flags("bench_fleet", argc, argv);
  while (flags.next()) {
    if (flags.is("--machines")) cfg.machines = flags.positive();
    else if (flags.is("--cores")) cfg.cores = flags.positive();
    else if (flags.is("--duration")) cfg.duration_s = flags.real();
    else if (flags.is("--load")) cfg.load = flags.real();
    else if (flags.is("--epoch")) cfg.epoch_s = flags.real();
    else if (flags.is("--seed")) cfg.seed = flags.count();
    else if (flags.is("--budget-s")) cfg.budget_s = flags.real();
    else if (flags.is("--min-offered")) cfg.min_offered = flags.count();
    else if (flags.is("--min-machines")) cfg.min_machines = flags.count();
    else if (flags.is("--threads")) cfg.threads = flags.count();
    else if (flags.is("--min-speedup")) cfg.min_speedup = flags.real();
    else if (flags.is("--scale-only")) cfg.scale_only = true;
    else if (flags.is("--out")) cfg.out = flags.text();
    else if (flags.is("--help") || flags.is("-h")) {
      std::puts(
          "bench_fleet: fleet placement bench (see the header comment)\n"
          "  --machines N     fleet size (default 64)\n"
          "  --cores N        cores per machine (default 16)\n"
          "  --duration S     stream duration (default 3.5)\n"
          "  --load L         offered load fraction (default 0.5)\n"
          "  --epoch S        routing epoch (default 0.02)\n"
          "  --seed N         stream + machine seed (default 1)\n"
          "  --budget-s S     wall-clock ceiling per run (default 60)\n"
          "  --min-offered N  offered-task floor (default 10M)\n"
          "  --min-machines N machine floor (default 64)\n"
          "  --threads N      != 1: run each placement serial AND on N\n"
          "                   threads (0 = hardware concurrency), assert\n"
          "                   the reports bit-identical, report speedup\n"
          "  --min-speedup X  fail below X-fold speedup (default 0 =\n"
          "                   report only; dev-box contract: 4x at 8)\n"
          "  --scale-only     skip the least-loaded row (CI gate mode)\n"
          "  --out FILE       JSON artifact (default BENCH_fleet.json)");
      return 0;
    } else {
      flags.reject();
    }
  }

  std::printf(
      "Fleet bench: %zu machines x %zu cores, %.2gs at load %.2g "
      "(~%.3g offered tasks)\n\n",
      cfg.machines, cfg.cores, cfg.duration_s, cfg.load,
      cfg.load * static_cast<double>(cfg.machines * cfg.cores) *
          cfg.duration_s / (cfg.mean_work_us * 1e-6 * 1.6));

  const auto arr = fleet_spec(cfg);
  std::vector<std::string> placements = {"round-robin", "pack"};
  if (!cfg.scale_only) placements.insert(placements.begin() + 1,
                                         "least-loaded");

  std::vector<std::string> failures;
  std::vector<Row> rows;
  for (const auto& placement : placements) {
    sim::FleetOptions opts;
    opts.machines = cfg.machines;
    opts.machine.cores = cfg.cores;
    opts.machine.seed = cfg.seed;
    opts.epoch_s = cfg.epoch_s;
    opts.placement = placement;
    Row row;
    row.placement = placement;
    if (cfg.threads != 1) {
      // Serial reference first, then the parallel engine on the same
      // stream; identical bytes or the bench fails.
      opts.threads = 1;
      const auto s0 = std::chrono::steady_clock::now();
      const auto serial = sim::Fleet(opts, arr).run();
      row.serial_wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - s0)
                              .count();
      opts.threads = cfg.threads;
      const auto w0 = std::chrono::steady_clock::now();
      row.rep = sim::Fleet(opts, arr).run();
      row.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - w0)
                       .count();
      if (!(row.rep == serial)) {
        failures.push_back(placement +
                           ": parallel FleetReport diverged from the "
                           "serial engine (determinism broke)");
      }
      row.speedup = row.wall_s > 0.0 ? row.serial_wall_s / row.wall_s : 0.0;
      if (cfg.min_speedup > 0.0 && row.speedup < cfg.min_speedup) {
        failures.push_back(placement + ": speedup " +
                           std::to_string(row.speedup) + "x is below the " +
                           std::to_string(cfg.min_speedup) + "x floor");
      }
    } else {
      const auto w0 = std::chrono::steady_clock::now();
      row.rep = sim::Fleet(opts, arr).run();
      row.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - w0)
                       .count();
    }
    row.tasks_per_sec = row.wall_s > 0.0
                            ? static_cast<double>(row.rep.offered) / row.wall_s
                            : 0.0;
    rows.push_back(std::move(row));
    const auto& r = rows.back().rep;

    // --- fleet contract ---------------------------------------------------
    if (r.machines < cfg.min_machines) {
      failures.push_back(placement + ": " + std::to_string(r.machines) +
                         " machines is below the " +
                         std::to_string(cfg.min_machines) + " floor");
    }
    if (r.offered < cfg.min_offered) {
      failures.push_back(placement + ": offered " +
                         std::to_string(r.offered) +
                         " tasks, below the " +
                         std::to_string(cfg.min_offered) + " floor");
    }
    if (r.shed != 0 || r.routed != r.completed || r.in_flight != 0) {
      failures.push_back(placement + ": task conservation broke (shed=" +
                         std::to_string(r.shed) + " routed=" +
                         std::to_string(r.routed) + " completed=" +
                         std::to_string(r.completed) + ")");
    }
    if (rows.back().wall_s > cfg.budget_s) {
      failures.push_back(placement + ": wall clock " +
                         std::to_string(rows.back().wall_s) +
                         "s blew the " + std::to_string(cfg.budget_s) +
                         "s budget");
    }
  }

  util::TablePrinter table({"placement", "offered", "completed", "parks",
                            "wakes", "parked mach-s", "energy (J)",
                            "wall (s)", "tasks/s"});
  for (const auto& row : rows) {
    table.add(row.placement, row.rep.offered, row.rep.completed,
              row.rep.parks, row.rep.wakes, row.rep.parked_machine_s,
              row.rep.energy_j, row.wall_s, row.tasks_per_sec);
  }
  std::printf("%s\n", table.str().c_str());
  if (cfg.threads != 1) {
    for (const auto& row : rows) {
      std::printf(
          "%s: serial %.3fs, %zu threads %.3fs => %.2fx speedup "
          "(reports bit-identical)\n",
          row.placement.c_str(), row.serial_wall_s, cfg.threads, row.wall_s,
          row.speedup);
    }
    std::printf("\n");
  }

  const obs::FleetReport* rr = nullptr;
  const obs::FleetReport* pack = nullptr;
  for (const auto& row : rows) {
    if (row.placement == "round-robin") rr = &row.rep;
    if (row.placement == "pack") pack = &row.rep;
  }
  if (rr && pack) {
    if (pack->offered != rr->offered) {
      failures.push_back("pack and round-robin saw different streams");
    }
    if (pack->energy_j >= rr->energy_j) {
      failures.push_back("pack-and-park (" +
                         std::to_string(pack->energy_j) +
                         " J) failed to beat round-robin (" +
                         std::to_string(rr->energy_j) + " J)");
    } else {
      std::printf("pack-and-park saves %.1f%% fleet energy vs round-robin\n",
                  100.0 * (1.0 - pack->energy_j / rr->energy_j));
    }
  }

  bench::write_report(cfg.out, to_json(cfg, rows), "placements", rows.size());

  if (!failures.empty()) {
    for (const auto& f : failures) {
      std::fprintf(stderr, "CONTRACT VIOLATION: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
