// End-to-end on the *real thread runtime* (not the simulator): runs
// down-scaled versions of three Table-II benchmarks with actual kernel
// executions under Cilk and EEWA, metering energy with the power model
// over the recorded DVFS trace. On DVFS-less hosts (most CI boxes) the
// point is exercising the full production path — profiling, planning,
// multi-pool stealing, plan application — with real work; on cpufreq
// hardware the same binary drives real frequency scaling.
//
// Usage: bench_suite_runtime [--batches N] [--workers N] [--scale X]
//                            [--metrics] [--trace-out FILE]
//
// --metrics prints each run's aggregated BatchReport (pops vs. steals
// vs. cross-group robs, per-class exec-time stats); --trace-out attaches
// an event tracer to the EEWA runs and writes chrome://tracing JSON.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "energy/model_meter.hpp"
#include "energy/power_model.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace eewa;

struct Outcome {
  double seconds = 0.0;
  double joules = 0.0;
  std::size_t steals = 0;
  std::string plan;
};

Outcome run_real(const wl::BenchmarkDef& bench, rt::SchedulerKind kind,
                 std::size_t batches, std::size_t workers, double scale,
                 bool metrics, obs::EventTracer* tracer) {
  rt::RuntimeOptions options;
  options.workers = workers;
  options.kind = kind;
  options.tracer = tracer;
  rt::Runtime runtime(options);
  const auto power = energy::PowerModel::opteron8380_server();
  energy::ModelMeter meter(power, *runtime.trace_backend());

  Outcome out;
  meter.start();
  for (std::size_t b = 0; b < batches; ++b) {
    auto suite_tasks = wl::make_batch(bench, b, 11);
    std::vector<rt::TaskDesc> tasks;
    tasks.reserve(suite_tasks.size());
    for (auto& st : suite_tasks) {
      // Scale the input sizes down so the whole sweep stays snappy.
      const auto bytes = static_cast<std::size_t>(
          std::max(64.0, static_cast<double>(st.bytes) * scale));
      // Rebind the closure at the reduced size via the public kernel
      // entry point (the class name keeps its identity for profiling).
      const auto kernel = [&]() -> wl::KernelKind {
        for (const auto& c : bench.classes) {
          if (c.class_name == st.class_name) return c.kernel;
        }
        return bench.classes.front().kernel;
      }();
      tasks.push_back(
          {st.class_name, [kernel, bytes, seed = b * 1000 + tasks.size()] {
             (void)wl::run_kernel(kernel, bytes, seed);
           }});
    }
    out.seconds += runtime.run_batch(std::move(tasks));
  }
  out.joules = meter.stop_joules();
  out.steals = runtime.total_steals();
  out.plan = runtime.controller().plan().layout.to_string();
  if (metrics) {
    const auto& reg = runtime.controller().registry();
    std::vector<std::string> names;
    for (std::size_t id = 0; id < reg.class_count(); ++id) {
      names.push_back(std::string(reg.name(id)));
    }
    std::printf("%s/%s run totals:\n%s\n", bench.name.c_str(),
                kind == rt::SchedulerKind::kEewa ? "eewa" : "cilk",
                runtime.metrics().totals().to_string(names).c_str());
  }
  return out;
}

int run(int argc, char** argv) {
  std::size_t batches = 3;
  std::size_t workers = 4;
  double scale = 0.1;
  bool metrics = false;
  std::string trace_out;
  util::FlagParser flags("bench_suite_runtime", argc, argv);
  while (flags.next()) {
    if (flags.is("--batches")) batches = flags.positive();
    else if (flags.is("--workers")) workers = flags.count();
    else if (flags.is("--scale")) scale = flags.real();
    else if (flags.is("--metrics")) metrics = true;
    else if (flags.is("--trace-out")) trace_out = flags.text();
    else flags.reject();
  }

  std::unique_ptr<obs::EventTracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::EventTracer>(workers + 1);
    for (std::size_t w = 0; w < workers; ++w) {
      tracer->set_track_name(w, "worker " + std::to_string(w));
    }
    tracer->set_track_name(workers, "control");
  }

  std::printf(
      "Real-runtime end-to-end (%zu workers, %zu batches, inputs scaled "
      "x%.2f)\n\n",
      workers, batches, scale);
  util::TablePrinter table({"benchmark", "sched", "time (s)", "energy (J)",
                            "steals", "final plan"});
  for (const char* name : {"MD5", "SHA-1", "LZW"}) {
    const auto& bench = wl::find_benchmark(name);
    const auto cilk = run_real(bench, rt::SchedulerKind::kCilk, batches,
                               workers, scale, metrics, nullptr);
    const auto eewa = run_real(bench, rt::SchedulerKind::kEewa, batches,
                               workers, scale, metrics, tracer.get());
    table.add(name, "cilk", cilk.seconds, cilk.joules, cilk.steals, "-");
    table.add(name, "eewa", eewa.seconds, eewa.joules, eewa.steals,
              eewa.plan);
  }
  std::printf("%s\n", table.str().c_str());
  if (tracer != nullptr) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    out << tracer->chrome_json();
    std::printf("trace: %zu events -> %s (%llu dropped)\n\n",
                tracer->event_count(), trace_out.c_str(),
                static_cast<unsigned long long>(tracer->dropped()));
  }
  std::printf(
      "Note: on hosts without per-core DVFS the energy column prices the\n"
      "recorded frequency decisions through the power model; makespans\n"
      "on an oversubscribed container reflect time-slicing, not the\n"
      "paper's 16 hardware cores (use the sim benches for the figures).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
