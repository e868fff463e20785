// Table III — the execution time and the overhead of EEWA's end-of-batch
// adjuster (profile aggregation + CC table + Algorithm 1 + plan) per
// benchmark, and the percentage of the total execution time it costs.
// Also prints the Fig. 3 worked CC-table example with the k-tuple the
// backtracking search selects.
//
// Expected shape (paper): overhead tens of milliseconds per run on 2008
// hardware, always < 2% of execution time. Our adjuster runs on a modern
// host, so absolute overheads are microseconds; the percentage bound is
// the reproducible claim.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cc_table.hpp"
#include "core/ktuple_search.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "sim/simulate.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace eewa;

void fig3_example() {
  const auto cc = core::CCTable::from_matrix(
      {{2, 3, 1, 1}, {4, 6, 2, 2}, {6, 9, 3, 3}, {8, 12, 4, 4}});
  const auto res = core::search_backtracking(cc, 16);
  std::printf("Fig. 3 worked example (4 classes, 4 rungs, 16 cores):\n%s",
              cc.to_string().c_str());
  std::printf("k-tuple: (");
  for (std::size_t i = 0; i < res.tuple.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", res.tuple[i]);
  }
  std::printf(")  cores used: %zu  nodes visited: %zu\n\n",
              res.cores_used, res.nodes_visited);
}

int run(int argc, char** argv) {
  std::size_t batches = 40;
  util::FlagParser flags("bench_table3_overhead", argc, argv);
  while (flags.next()) {
    if (flags.is("--batches")) batches = flags.positive();
    else flags.reject();
  }
  fig3_example();

  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = 42;
  const auto cal = wl::reference_calibration();

  std::printf("Table III — execution time and adjuster overhead (%zu "
              "batches)\n\n",
              batches);
  util::TablePrinter table({"benchmark", "exec time (ms)", "overhead (ms)",
                            "overhead %", "searches", "avg nodes"});
  for (const auto& bench : wl::suite()) {
    const auto trace = wl::build_trace(bench, cal, batches, 2024);
    sim::EewaPolicy eewa(trace.class_names);
    const auto res = sim::simulate(trace, eewa, opt);
    double overhead_s = 0.0;
    for (const auto& b : res.batches) overhead_s += b.overhead_s;
    const auto& ctrl = eewa.controller();
    table.add(bench.name, res.time_s * 1e3, overhead_s * 1e3,
              util::TablePrinter::fixed(100.0 * overhead_s / res.time_s, 3) +
                  "%",
              ctrl.batches_completed(),
              ctrl.last_search().nodes_visited);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Paper's bound: overhead < 2%% of execution time for every\n"
      "benchmark (their absolute values: 12.7-48.9 ms on 2.5 GHz K10).\n\n");

  // Observability overhead: the same claim applied to the obs layer.
  // A tracer that is attached but runtime-disabled must not move the
  // makespan — with the deterministic fixed adjuster overhead both runs
  // reproduce the identical simulated timeline, so any drift is a
  // regression in the gating.
  std::printf("Tracing overhead (tracer %s, runtime-disabled):\n",
              obs::EventTracer::kCompiledIn ? "compiled in" : "compiled out");
  const auto trace = wl::build_trace(wl::find_benchmark("MD5"), cal, 10,
                                     2024);
  sim::SimOptions base = opt;
  base.fixed_adjuster_overhead_s = 50e-6;
  double off_s;
  {
    sim::EewaPolicy p(trace.class_names);
    off_s = sim::simulate(trace, p, base).time_s;
  }
  obs::EventTracer tracer(base.cores + 1);
  tracer.set_enabled(false);
  sim::SimOptions with = base;
  with.tracer = &tracer;
  double on_s;
  {
    sim::EewaPolicy p(trace.class_names);
    on_s = sim::simulate(trace, p, with).time_s;
  }
  const double pct = 100.0 * std::abs(on_s - off_s) / off_s;
  std::printf(
      "  makespan without tracer: %.6f s, with disabled tracer: %.6f s\n"
      "  delta: %.4f%% (bound: < 2%%) %s\n",
      off_s, on_s, pct, pct < 2.0 ? "OK" : "EXCEEDED");

  // Idle-path overhead: starved workers back off through yield into a
  // capped (256 us) exponential sleep instead of spinning. The cost to
  // assert on is wakeup latency at the batch barrier: a batch whose
  // critical path is a single long task must finish within 2% of that
  // task's intrinsic duration even with every other worker asleep. Min
  // over a few batches filters external preemption on shared hosts.
  std::printf("\nIdle-path overhead (sleep backoff, 4 workers, 1 task):\n");
  rt::RuntimeOptions ropt;
  ropt.workers = 4;
  ropt.kind = rt::SchedulerKind::kCilk;
  ropt.enable_pmc = false;
  rt::Runtime runtime(ropt);
  const double task_s = 50e-3;
  auto long_task = [task_s] {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(task_s);
    volatile std::uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < until) sink = sink + 1;
  };
  auto one_task_batch = [&] {
    std::vector<rt::TaskDesc> tasks;
    tasks.push_back(rt::TaskDesc{"long", long_task});
    return tasks;
  };
  runtime.run_batch(one_task_batch());  // warmup (threads, slabs, intern)
  double best_s = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    best_s = std::min(best_s, runtime.run_batch(one_task_batch()));
  }
  const double idle_pct = 100.0 * (best_s - task_s) / task_s;
  std::printf(
      "  intrinsic task: %.3f ms, best batch makespan: %.3f ms\n"
      "  idle overhead: %.4f%% (bound: < 2%%) %s\n",
      task_s * 1e3, best_s * 1e3, idle_pct,
      idle_pct < 2.0 ? "OK" : "EXCEEDED");
  return pct < 2.0 && idle_pct < 2.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
