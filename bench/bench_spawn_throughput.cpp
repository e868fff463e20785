// Spawn-throughput storm — the scheduler-overhead microbench that anchors
// the repo's perf trajectory. Every task is a node in a binary recursion
// tree: roots are submitted as a batch, every inner node spawn()s two
// children from inside a worker, leaves do (nearly) no work. With task
// bodies this small the measured rate is almost pure runtime overhead —
// interning, task materialization, deque traffic — which is exactly the
// cost EEWA's evaluation assumes is negligible next to task work
// (Table III), so regressions here show up before they can pollute the
// paper-facing numbers.
//
// Usage: bench_spawn_throughput [--iters N] [--workers N] [--depth D]
//                               [--roots R] [--out FILE]
//
// Prints a table (scheduler x spawn mode) and writes a JSON report
// (default BENCH_spawn.json) that is re-parsed with the in-repo
// json_lite parser before the process exits — a malformed report fails
// the run, so CI can trust the artifact.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "runtime/runtime.hpp"
#include "util/cli_flags.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace eewa;

struct StormConfig {
  std::size_t iters = 5;
  std::size_t workers = 4;
  std::size_t depth = 9;  ///< tree depth; 2^(depth+1)-1 tasks per root
  std::size_t roots = 8;  ///< root tasks submitted per batch
  std::string out = "BENCH_spawn.json";
};

struct StormResult {
  std::string scheduler;
  std::string mode;  ///< "name" (string interning) or "handle"
  std::uint64_t tasks = 0;
  double seconds = 0.0;
  double tasks_per_sec = 0.0;
};

struct TreeCtx {
  rt::Runtime* rt;
  std::atomic<std::uint64_t>* leaves;
};

// By-name spawning: every node pays the class-name lookup, like
// application code that never caches a handle.
void node_by_name(const TreeCtx& ctx, std::uint32_t depth) {
  if (depth == 0) {
    ctx.leaves->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (int child = 0; child < 2; ++child) {
    ctx.rt->spawn("storm_node", [ctx, depth] {
      node_by_name(ctx, depth - 1);
    });
  }
}

// By-handle spawning: the class is interned once per run and spawn takes
// the pre-resolved handle — the steady-state hot path.
void node_by_handle(const TreeCtx& ctx, rt::ClassHandle h,
                    std::uint32_t depth) {
  if (depth == 0) {
    ctx.leaves->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (int child = 0; child < 2; ++child) {
    ctx.rt->spawn(h, [ctx, h, depth] {
      node_by_handle(ctx, h, depth - 1);
    });
  }
}

rt::RuntimeOptions storm_options(rt::SchedulerKind kind,
                                 const StormConfig& cfg) {
  rt::RuntimeOptions opt;
  opt.workers = cfg.workers;
  opt.kind = kind;
  opt.enable_pmc = false;  // keep perf-counter syscalls out of the number
  if (kind == rt::SchedulerKind::kWats) {
    // Two c-groups (F0 and a middle rung) so preference stealing and the
    // cross-group rob path stay on the measured path.
    const std::size_t mid = opt.ladder.size() / 2;
    for (std::size_t w = 0; w < cfg.workers; ++w) {
      opt.fixed_rungs.push_back(w % 2 == 0 ? 0 : mid);
    }
  }
  return opt;
}

StormResult run_storm(rt::SchedulerKind kind, const char* sched_name,
                      bool by_handle, const StormConfig& cfg) {
  rt::Runtime runtime(storm_options(kind, cfg));
  std::atomic<std::uint64_t> leaves{0};
  TreeCtx ctx{&runtime, &leaves};
  const rt::ClassHandle h = runtime.handle("storm_node");

  auto make_roots = [&] {
    std::vector<rt::TaskDesc> tasks;
    tasks.reserve(cfg.roots);
    for (std::size_t r = 0; r < cfg.roots; ++r) {
      if (by_handle) {
        tasks.push_back(rt::TaskDesc{
            "storm_node", [ctx, h, depth = cfg.depth] {
              node_by_handle(ctx, h, static_cast<std::uint32_t>(depth));
            }});
      } else {
        tasks.push_back(rt::TaskDesc{
            "storm_node", [ctx, depth = cfg.depth] {
              node_by_name(ctx, static_cast<std::uint32_t>(depth));
            }});
      }
    }
    return tasks;
  };

  // One warmup batch: grows deque rings, task arenas, and (for EEWA)
  // runs the measurement batch so the timed region is steady state.
  runtime.run_batch(make_roots());

  StormResult res;
  res.scheduler = sched_name;
  res.mode = by_handle ? "handle" : "name";
  for (std::size_t i = 0; i < cfg.iters; ++i) {
    res.seconds += runtime.run_batch(make_roots());
  }
  const std::uint64_t per_root = (1ull << (cfg.depth + 1)) - 1;
  res.tasks = cfg.iters * cfg.roots * per_root;
  const std::uint64_t expect_leaves =
      (cfg.iters + 1) * cfg.roots * (1ull << cfg.depth);
  if (leaves.load() != expect_leaves) {
    std::fprintf(stderr, "%s/%s: leaf count %llu != expected %llu\n",
                 sched_name, res.mode.c_str(),
                 static_cast<unsigned long long>(leaves.load()),
                 static_cast<unsigned long long>(expect_leaves));
    std::exit(1);
  }
  res.tasks_per_sec =
      res.seconds > 0.0 ? static_cast<double>(res.tasks) / res.seconds : 0.0;
  return res;
}

std::string to_json(const StormConfig& cfg,
                    const std::vector<StormResult>& results) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"spawn_throughput\",\n"
     << "  \"workers\": " << cfg.workers << ",\n"
     << "  \"depth\": " << cfg.depth << ",\n"
     << "  \"roots\": " << cfg.roots << ",\n"
     << "  \"iters\": " << cfg.iters << ",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"scheduler\": \"" << r.scheduler << "\", \"mode\": \""
       << r.mode << "\", \"tasks\": " << r.tasks << ", \"seconds\": "
       << r.seconds << ", \"tasks_per_sec\": " << r.tasks_per_sec << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

int run(int argc, char** argv) {
  StormConfig cfg;
  util::FlagParser flags("bench_spawn_throughput", argc, argv);
  while (flags.next()) {
    if (flags.is("--iters")) cfg.iters = flags.positive();
    else if (flags.is("--workers")) cfg.workers = flags.count();
    else if (flags.is("--depth")) cfg.depth = flags.count();
    else if (flags.is("--roots")) cfg.roots = flags.positive();
    else if (flags.is("--out")) cfg.out = flags.text();
    else flags.reject();
  }

  const std::uint64_t per_batch =
      cfg.roots * ((1ull << (cfg.depth + 1)) - 1);
  std::printf(
      "Spawn-throughput storm: %zu workers, depth %zu, %zu roots "
      "(%llu tasks/batch), %zu timed batches\n\n",
      cfg.workers, cfg.depth, cfg.roots,
      static_cast<unsigned long long>(per_batch), cfg.iters);

  std::vector<StormResult> results;
  util::TablePrinter table(
      {"scheduler", "spawn mode", "tasks", "time (s)", "tasks/sec"});
  const std::pair<rt::SchedulerKind, const char*> kinds[] = {
      {rt::SchedulerKind::kCilk, "cilk"},
      {rt::SchedulerKind::kCilkD, "cilkd"},
      {rt::SchedulerKind::kWats, "wats"},
      {rt::SchedulerKind::kEewa, "eewa"},
  };
  for (const auto& [kind, name] : kinds) {
    for (const bool by_handle : {false, true}) {
      const auto r = run_storm(kind, name, by_handle, cfg);
      table.add(r.scheduler, r.mode, r.tasks, r.seconds, r.tasks_per_sec);
      results.push_back(r);
    }
  }
  std::printf("%s\n", table.str().c_str());

  bench::write_report(cfg.out, to_json(cfg, results), "results",
                      results.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
