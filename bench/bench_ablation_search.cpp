// Ablation: design choices of the workload-aware frequency adjuster.
//  (1) Search algorithm: the paper's backtracking vs the exhaustive
//      optimum (the testing oracle) vs a no-backtracking greedy descent
//      — solution quality (modeled energy) and search effort on the
//      real benchmarks' CC instances.
//  (2) Leftover-core policy: park unclaimed cores at the bottom rung
//      (our default, matching Fig. 8) vs merging them into the slowest
//      selected c-group.
//  (3) Planning margin: end-to-end energy/time as the safety margin on
//      the ideal time T sweeps from 0 (the paper's exact formula) up.
//  (4) Production scale: plan latency per searcher on seeded r=16 /
//      k=256 tables — the regime the pruned/DP search exists for — next
//      to the CCTable::build time of the same tables, so work moved
//      between the build and the search stays visible.
//      Writes BENCH_search.json (validated with the in-repo json_lite
//      parser before the process exits) and, under --budget-us, fails
//      the run when the pruned median exceeds the budget so CI can gate
//      on plan latency directly.
//
// Usage: bench_ablation_search [--scale-only] [--budget-us U]
//                              [--tables N] [--reps R] [--out FILE]
// An unknown flag, a missing, non-numeric or non-finite value, or a
// zero --tables / --reps exits 2.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/adjuster.hpp"
#include "sim/simulate.hpp"
#include "testing/exhaustive_search.hpp"
#include "util/cli_flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace eewa;

void search_quality() {
  std::printf("(1) Search algorithm quality on per-benchmark CC tables\n\n");
  const auto cal = wl::reference_calibration();
  const auto model = energy::PowerModel::opteron8380_server();
  util::TablePrinter table({"benchmark", "bt tuple", "bt energy",
                            "exhaustive energy", "greedy found",
                            "bt nodes", "exh nodes"});
  for (const auto& bench : wl::suite()) {
    // Build the CC instance EEWA actually faces: profile of batch 0.
    const auto trace = wl::build_trace(bench, cal, 2, 2024);
    core::TaskClassRegistry reg;
    std::vector<std::size_t> ids;
    for (const auto& name : trace.class_names) ids.push_back(reg.intern(name));
    for (const auto& t : trace.batches[0].tasks) {
      reg.record(ids[t.class_id], t.work_s);
    }
    // Ideal time: total work over 16 cores at 60% utilization.
    const double T = trace.batches[0].total_work_s() / (16.0 * 0.6);
    const auto cc =
        core::CCTable::build(reg.iteration_profile(), model.ladder(), T);

    const auto bt = core::search_backtracking(cc, 16);
    const auto ex = testing::search_exhaustive(cc, 16, &model);
    const auto gr = core::search_greedy(cc, 16);
    std::string tuple = "(";
    for (std::size_t i = 0; bt.found && i < bt.tuple.size(); ++i) {
      tuple += (i ? "," : "") + std::to_string(bt.tuple[i]);
    }
    tuple += ")";
    table.add(bench.name, tuple,
              bt.found ? core::tuple_energy_estimate(cc, bt.tuple, 16, &model)
                       : -1.0,
              ex.found ? core::tuple_energy_estimate(cc, ex.tuple, 16, &model)
                       : -1.0,
              gr.found ? "yes" : "no", bt.nodes_visited, ex.nodes_visited);
  }
  std::printf("%s\n", table.str().c_str());
}

void leftover_policy() {
  std::printf("(2) Leftover-core policy, end to end (MD5, 16 cores)\n\n");
  const auto cal = wl::reference_calibration();
  const auto trace =
      wl::build_trace(wl::find_benchmark("MD5"), cal, 30, 2024);
  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;
  util::TablePrinter table({"policy", "time (s)", "energy (J)"});
  for (const auto leftover : {core::LeftoverPolicy::kParkAtSlowest,
                              core::LeftoverPolicy::kJoinSlowest}) {
    core::ControllerOptions copts;
    copts.adjuster.leftover = leftover;
    sim::EewaPolicy eewa(trace.class_names, copts);
    const auto res = sim::simulate(trace, eewa, opt);
    table.add(leftover == core::LeftoverPolicy::kParkAtSlowest
                  ? "park at slowest rung (default)"
                  : "join slowest selected group",
              res.time_s, res.energy_j);
  }
  std::printf("%s\n", table.str().c_str());
}

void margin_sweep() {
  std::printf("(3) Planning margin sweep (LZW, 16 cores)\n\n");
  const auto cal = wl::reference_calibration();
  const auto trace =
      wl::build_trace(wl::find_benchmark("LZW"), cal, 30, 2024);
  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;
  sim::CilkPolicy cilk;
  const auto base = sim::simulate(trace, cilk, opt);
  util::TablePrinter table(
      {"margin", "time vs cilk", "energy vs cilk"});
  for (const double margin : {0.0, 0.05, 0.10, 0.15, 0.25, 0.40}) {
    core::ControllerOptions copts;
    copts.adjuster.time_margin = margin;
    sim::EewaPolicy eewa(trace.class_names, copts);
    const auto res = sim::simulate(trace, eewa, opt);
    table.add(margin,
              util::TablePrinter::fixed(res.time_s / base.time_s, 3),
              util::TablePrinter::fixed(res.energy_j / base.energy_j, 3));
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "margin 0 is the paper's exact formula; small margins absorb the\n"
      "inter-batch drift, large margins forfeit savings.\n");
}

// ---- (4) Production-scale plan latency -------------------------------

struct ScaleConfig {
  bool scale_only = false;
  std::size_t rungs = 16;
  std::size_t classes = 256;
  std::size_t cores = 256;
  std::size_t tables = 12;  ///< distinct seeded CC instances
  std::size_t reps = 5;     ///< timed plans per table per searcher
  double budget_us = 0.0;   ///< >0: fail if pruned median exceeds it
  std::string out = "BENCH_search.json";
};

/// One seeded production-scale CC instance: a 16-rung ladder and a
/// heavy-tailed class mix (a few dominant classes, a long tail of light
/// ones — the shape SlidingProfile hands the service-mode planner), with
/// T picked so the table is tight but feasible at F0.
dvfs::FrequencyLadder scale_ladder(const ScaleConfig& cfg) {
  return dvfs::FrequencyLadder::linear(0.8, 3.2, cfg.rungs);
}

core::CCTable make_scale_table(const ScaleConfig& cfg, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<core::ClassProfile> classes(cfg.classes);
  double total_work = 0.0;
  for (std::size_t i = 0; i < cfg.classes; ++i) {
    auto& c = classes[i];
    c.class_id = i;
    c.name = "c" + std::to_string(i);
    c.count = 1 + static_cast<std::size_t>(rng.bounded(64));
    // Lognormal-ish spread over ~3 decades.
    c.mean_workload = 0.001 * std::exp(rng.uniform(0.0, 6.0));
    c.max_workload = c.mean_workload * (1.0 + rng.uniform());
    c.mean_alpha = 0.0;
    total_work += c.total_workload();
  }
  std::sort(classes.begin(), classes.end(), [](const auto& a, const auto& b) {
    return a.mean_workload > b.mean_workload;
  });
  const double util = rng.uniform(0.55, 0.85);
  const double T = total_work / (static_cast<double>(cfg.cores) * util);
  return core::CCTable::build(std::move(classes), scale_ladder(cfg), T);
}

/// Per-table CCTable::build latency: each table rebuilt from its own
/// class metadata and T, `reps` times (the metadata copy is untimed).
util::Summary build_latency(const ScaleConfig& cfg,
                            const std::vector<core::CCTable>& tables) {
  const auto ladder = scale_ladder(cfg);
  std::vector<double> us;
  for (const auto& cc : tables) {
    for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
      auto classes = cc.classes();
      const auto t0 = std::chrono::steady_clock::now();
      const auto rebuilt =
          core::CCTable::build(std::move(classes), ladder, cc.ideal_time_s());
      const auto t1 = std::chrono::steady_clock::now();
      us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  return util::summarize(us);
}

struct ScaleRow {
  std::string search;
  std::size_t found = 0;       ///< tables where a tuple was found
  double mean_nodes = 0.0;     ///< Select() calls per plan
  double energy_vs_pruned = 0.0;  ///< geometric-mean energy ratio
  util::Summary us;            ///< per-plan latency, microseconds
};

int scale_sweep(const ScaleConfig& cfg) {
  std::printf(
      "(4) Production-scale plan latency: r=%zu, k=%zu, m=%zu "
      "(%zu tables x %zu reps)\n\n",
      cfg.rungs, cfg.classes, cfg.cores, cfg.tables, cfg.reps);

  // Exhaustive enumerates r^k tuples — not even startable at this scale,
  // so the ground-truth role falls to the budgeted backtracking descent.
  struct Algo {
    const char* name;
    core::SearchResult (*run)(const core::CCTable&, std::size_t);
  };
  const Algo algos[] = {
      {"backtracking",
       [](const core::CCTable& cc, std::size_t m) {
         return core::search_backtracking(cc, m, core::kIncumbentNodeBudget);
       }},
      {"greedy",
       [](const core::CCTable& cc, std::size_t m) {
         return core::search_greedy(cc, m);
       }},
      {"pruned",
       [](const core::CCTable& cc, std::size_t m) {
         return core::search_pruned(cc, m);
       }},
  };

  std::vector<core::CCTable> tables;
  for (std::size_t t = 0; t < cfg.tables; ++t) {
    tables.push_back(make_scale_table(cfg, 0x5eedULL + t));
  }
  const util::Summary build_us = build_latency(cfg, tables);
  // Per-table pruned energy, the quality baseline for the ratio column.
  std::vector<double> pruned_energy(cfg.tables, 0.0);

  std::vector<ScaleRow> rows;
  for (const auto& algo : algos) {
    ScaleRow row;
    row.search = algo.name;
    std::vector<double> us;
    double log_ratio_sum = 0.0;
    std::size_t ratio_n = 0;
    std::uint64_t nodes = 0;
    for (std::size_t t = 0; t < cfg.tables; ++t) {
      core::SearchResult res;
      for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        res = algo.run(tables[t], cfg.cores);
        const auto t1 = std::chrono::steady_clock::now();
        us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      nodes += res.nodes_visited;
      if (res.found) {
        ++row.found;
        const double e =
            core::tuple_energy_estimate(tables[t], res.tuple, cfg.cores);
        if (row.search == "pruned") pruned_energy[t] = e;
        if (pruned_energy[t] > 0.0 && e > 0.0) {
          log_ratio_sum += std::log(e / pruned_energy[t]);
          ++ratio_n;
        }
      }
    }
    row.us = util::summarize(us);
    row.mean_nodes =
        static_cast<double>(nodes) / static_cast<double>(cfg.tables);
    row.energy_vs_pruned =
        ratio_n ? std::exp(log_ratio_sum / static_cast<double>(ratio_n))
                : 0.0;
    rows.push_back(std::move(row));
  }
  // The pruned baseline is filled while iterating, so the earlier
  // backtracking pass could not compute its ratio — redo it now.
  for (auto& row : rows) {
    if (row.search == "pruned" || row.energy_vs_pruned > 0.0) continue;
    double log_ratio_sum = 0.0;
    std::size_t ratio_n = 0;
    for (std::size_t t = 0; t < cfg.tables; ++t) {
      // One un-timed rerun per table; the searches are deterministic.
      for (const auto& algo : algos) {
        if (row.search != algo.name) continue;
        const auto res = algo.run(tables[t], cfg.cores);
        if (res.found && pruned_energy[t] > 0.0) {
          const double e =
              core::tuple_energy_estimate(tables[t], res.tuple, cfg.cores);
          log_ratio_sum += std::log(e / pruned_energy[t]);
          ++ratio_n;
        }
      }
    }
    row.energy_vs_pruned =
        ratio_n ? std::exp(log_ratio_sum / static_cast<double>(ratio_n))
                : 0.0;
  }

  util::TablePrinter table({"search", "median (us)", "p95 (us)", "max (us)",
                            "found", "mean nodes", "energy vs pruned"});
  // The table build every search starts from, for the build/search split.
  table.add("(CCTable::build)", util::TablePrinter::fixed(build_us.median, 1),
            util::TablePrinter::fixed(build_us.p95, 1),
            util::TablePrinter::fixed(build_us.max, 1), std::string("-"),
            std::string("-"), std::string("-"));
  for (const auto& row : rows) {
    table.add(row.search, util::TablePrinter::fixed(row.us.median, 1),
              util::TablePrinter::fixed(row.us.p95, 1),
              util::TablePrinter::fixed(row.us.max, 1),
              std::to_string(row.found) + "/" + std::to_string(cfg.tables),
              row.mean_nodes,
              row.energy_vs_pruned > 0.0
                  ? util::TablePrinter::fixed(row.energy_vs_pruned, 4)
                  : std::string("-"));
  }
  std::printf("%s\n", table.str().c_str());

  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"search_scale\",\n"
     << "  \"rungs\": " << cfg.rungs << ",\n"
     << "  \"classes\": " << cfg.classes << ",\n"
     << "  \"cores\": " << cfg.cores << ",\n"
     << "  \"tables\": " << cfg.tables << ",\n"
     << "  \"reps\": " << cfg.reps << ",\n"
     << "  \"budget_us\": " << cfg.budget_us << ",\n"
     << "  \"cc_build\": {\"median_us\": " << build_us.median
     << ", \"p95_us\": " << build_us.p95 << ", \"max_us\": " << build_us.max
     << "},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\"search\": \"" << r.search << "\", \"median_us\": "
       << r.us.median << ", \"p95_us\": " << r.us.p95 << ", \"max_us\": "
       << r.us.max << ", \"found\": " << r.found << ", \"mean_nodes\": "
       << r.mean_nodes << ", \"energy_vs_pruned\": " << r.energy_vs_pruned
       << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  // The cc_build probe: an artifact without the build/search split is a
  // bench bug, not a consumer problem.
  bench::write_report(cfg.out, os.str(), "results", rows.size(),
                      [](const obs::JsonValue& doc) {
                        (void)doc.at("cc_build").at("median_us");
                      });

  if (cfg.budget_us > 0.0) {
    for (const auto& row : rows) {
      if (row.search != "pruned") continue;
      if (row.us.median > cfg.budget_us) {
        std::fprintf(stderr,
                     "pruned median %.1f us exceeds budget %.1f us\n",
                     row.us.median, cfg.budget_us);
        return 1;
      }
      std::printf("pruned median %.1f us within budget %.1f us\n",
                  row.us.median, cfg.budget_us);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleConfig cfg;
  util::FlagParser flags("bench_ablation_search", argc, argv);
  while (flags.next()) {
    if (flags.is("--scale-only")) cfg.scale_only = true;
    else if (flags.is("--budget-us")) cfg.budget_us = flags.real();
    else if (flags.is("--tables")) cfg.tables = flags.positive();
    else if (flags.is("--reps")) cfg.reps = flags.positive();
    else if (flags.is("--out")) cfg.out = flags.text();
    else flags.reject();
  }
  if (!cfg.scale_only) {
    search_quality();
    leftover_policy();
    margin_sweep();
  }
  return scale_sweep(cfg);
}
