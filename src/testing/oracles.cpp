#include "testing/oracles.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/frequency_plan.hpp"
#include "core/ktuple_search.hpp"
#include "dvfs/frequency_ladder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/simulate.hpp"
#include "testing/exhaustive_search.hpp"
#include "util/rng.hpp"

namespace eewa::testing {

namespace {

std::string fmtf(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

std::string tuple_str(const std::vector<std::size_t>& t) {
  std::string out = "(";
  for (std::size_t i = 0; i < t.size(); ++i) {
    out += (i ? "," : "") + std::to_string(t[i]);
  }
  return out + ")";
}

bool close_rel(double a, double b, double rel, double abs = 1e-12) {
  return std::abs(a - b) <= abs + rel * std::max(std::abs(a), std::abs(b));
}

/// Independent re-validation of a found tuple: nondecreasing, every rung
/// feasible, Σ demand <= m. Deliberately re-derived here rather than
/// delegated wholesale to tuple_is_valid, so a bug in the production
/// checker cannot hide a bug in the searchers.
CheckResult validate_tuple(const core::CCTable& cc,
                           const core::SearchResult& res,
                           std::size_t cores, const char* who) {
  if (res.tuple.size() != cc.cols()) {
    return CheckResult::fail(
        fmtf("%s: tuple size %zu != classes %zu", who, res.tuple.size(),
             cc.cols()));
  }
  double used = 0.0;
  for (std::size_t i = 0; i < res.tuple.size(); ++i) {
    const std::size_t j = res.tuple[i];
    if (j >= cc.rows()) {
      return CheckResult::fail(
          fmtf("%s: a[%zu]=%zu out of %zu rungs", who, i, j, cc.rows()));
    }
    if (i > 0 && j < res.tuple[i - 1]) {
      return CheckResult::fail(
          fmtf("%s: tuple %s not nondecreasing at i=%zu", who,
               tuple_str(res.tuple).c_str(), i));
    }
    if (!cc.rung_feasible(j, i)) {
      return CheckResult::fail(
          fmtf("%s: a[%zu]=%zu fails rung_feasible", who, i, j));
    }
    used += cc.demand(j, i);
  }
  if (used > static_cast<double>(cores) + 1e-9) {
    return CheckResult::fail(
        fmtf("%s: demand %.9g exceeds m=%zu for tuple %s", who, used,
             cores, tuple_str(res.tuple).c_str()));
  }
  if (!core::tuple_is_valid(cc, res.tuple, cores)) {
    return CheckResult::fail(
        fmtf("%s: tuple_is_valid rejects %s", who,
             tuple_str(res.tuple).c_str()));
  }
  const auto expect_used =
      static_cast<std::size_t>(std::ceil(used - 1e-9));
  if (res.cores_used != expect_used) {
    return CheckResult::fail(
        fmtf("%s: cores_used=%zu but ceil(Σ demand)=%zu", who,
             res.cores_used, expect_used));
  }
  return CheckResult::pass();
}

}  // namespace

namespace {

/// Direct property checks on one built table, independent of any
/// searcher: admitted rungs must be able to finish a mean-sized task
/// within T (rung_feasible / demand consistency), and the proxy power's
/// implied slowdown must sit between every class's effective slowdown
/// and the ladder's true F0/Fj.
CheckResult check_table_properties(const TableSpec& spec,
                                   const core::CCTable& cc) {
  if (spec.from_matrix) return CheckResult::pass();
  const dvfs::FrequencyLadder ladder(spec.ladder_ghz);
  for (std::size_t j = 1; j < cc.rows(); ++j) {
    double max_eff = 0.0;
    bool usable = false;
    for (std::size_t i = 0; i < cc.cols(); ++i) {
      if (cc.at(0, i) <= 0.0) continue;
      const double eff = cc.at(j, i) / cc.at(0, i);
      max_eff = std::max(max_eff, eff);
      usable = true;
      const double mean = spec.classes[i].mean_workload;
      if (cc.rung_feasible(j, i) && mean > 0.0 &&
          mean * eff > spec.ideal_time_s * (1.0 + 1e-6)) {
        return CheckResult::fail(
            fmtf("rung_feasible admits (j=%zu, i=%zu) but a mean task "
                 "takes %.9g > T=%.9g — demand's rounds<1 fallback "
                 "would decide the ranking",
                 j, i, mean * eff, spec.ideal_time_s));
      }
    }
    if (!usable) continue;
    // Implied slowdown of the proxy power: P = (1/s*)³.
    const double p = core::proxy_rung_power(cc, j);
    if (!(p > 0.0)) {
      return CheckResult::fail(
          fmtf("proxy power at rung %zu is %.9g", j, p));
    }
    const double implied = 1.0 / std::cbrt(p);
    if (implied < max_eff * (1.0 - 1e-9)) {
      return CheckResult::fail(
          fmtf("proxy slowdown %.9g at rung %zu below the table's own "
               "worst-case column slowdown %.9g",
               implied, j, max_eff));
    }
    if (implied > ladder.slowdown(j) * (1.0 + 1e-9)) {
      return CheckResult::fail(
          fmtf("proxy slowdown %.9g at rung %zu exceeds the ladder's "
               "true F0/Fj %.9g",
               implied, j, ladder.slowdown(j)));
    }
  }
  return CheckResult::pass();
}

}  // namespace

namespace {

/// One table's runs of every searcher, for the checks a caller adds.
struct SearcherRuns {
  core::SearchResult bt, gr, pr, ex;
  bool small = false;  ///< the exhaustive oracle ran (r·k <= 25)
};

/// A table family's audit of a found tuple beyond validate_tuple.
using TupleAudit = CheckResult (*)(const core::CCTable&,
                                   const core::SearchResult&, const char*);

/// The searcher differential every table oracle runs: backtracking
/// (budgeted), greedy, pruned and, on small tables, the exhaustive
/// oracle — rerun determinism, feasibility agreement, per-tuple
/// validation (plus `audit` when given), energy ordering and exhaustive
/// equality. The runs are left in `runs`.
CheckResult check_searchers(const core::CCTable& cc, std::size_t m,
                            TupleAudit audit, SearcherRuns& runs) {
  // Exhaustive enumeration is the ground truth but exponential in k;
  // the large-table families run it only on their smallest shapes (the
  // r·k <= 25 gate keeps every TableSpec::random case covered) and
  // lean on backtracking as the complete-feasibility reference above
  // that.
  const bool small = cc.rows() * cc.cols() <= 25;

  // Budgeted: adversarial large tables make Algorithm 1 exponential.
  // Comparisons against it below only run when the descent provably
  // completed.
  const auto backtrack = [&] {
    return core::search_backtracking(cc, m, core::kIncumbentNodeBudget);
  };
  const auto greedy = [&] { return core::search_greedy(cc, m); };
  const auto pruned = [&] { return core::search_pruned(cc, m); };
  const auto exhaustive = [&] { return search_exhaustive(cc, m); };
  runs.small = small;
  runs.bt = backtrack();
  runs.gr = greedy();
  runs.pr = pruned();
  runs.ex = small ? exhaustive() : core::SearchResult{};
  const core::SearchResult& bt = runs.bt;
  const core::SearchResult& gr = runs.gr;
  const core::SearchResult& pr = runs.pr;
  const core::SearchResult& ex = runs.ex;

  // Double-run determinism: the searchers are pure functions of
  // (table, m) — identical outcome, identical node count.
  struct Rerun {  // a searcher's first result, and how to run it again
    const core::SearchResult& first;
    std::function<core::SearchResult()> again;
    const char* who;
    bool run;
  };
  const Rerun reruns[] = {{bt, backtrack, "backtracking", true},
                          {gr, greedy, "greedy", true},
                          {pr, pruned, "pruned", true},
                          {ex, exhaustive, "exhaustive", small}};
  for (const auto& r : reruns) {
    if (!r.run) continue;
    const auto again = r.again();
    if (again.found != r.first.found || again.tuple != r.first.tuple ||
        again.nodes_visited != r.first.nodes_visited) {
      return CheckResult::fail(
          fmtf("%s searcher is nondeterministic across runs", r.who));
    }
  }

  // Feasibility agreement: backtracking is a complete search over
  // nondecreasing tuples; exhaustive and pruned cover the same space.
  // An aborted descent proves nothing about feasibility (found=false
  // means "gave up"), so bt-vs-others agreement is only checked when it
  // completed. Pruned's own answer stays exact either way.
  if (!bt.aborted) {
    if (small && ex.found != bt.found) {
      return CheckResult::fail(
          fmtf("feasibility disagreement: exhaustive=%d backtracking=%d",
               ex.found ? 1 : 0, bt.found ? 1 : 0));
    }
    if (pr.found != bt.found) {
      return CheckResult::fail(
          fmtf("feasibility disagreement: pruned=%d backtracking=%d",
               pr.found ? 1 : 0, bt.found ? 1 : 0));
    }
    if (gr.found && !bt.found) {
      return CheckResult::fail("greedy found a tuple backtracking missed");
    }
  }
  if (small && ex.found != pr.found) {
    return CheckResult::fail(
        fmtf("feasibility disagreement: exhaustive=%d pruned=%d",
             ex.found ? 1 : 0, pr.found ? 1 : 0));
  }

  for (const auto& r : reruns) {
    if (!r.first.found) continue;
    if (auto v = validate_tuple(cc, r.first, m, r.who); !v.ok) return v;
    if (audit != nullptr) {
      if (auto v = audit(cc, r.first, r.who); !v.ok) return v;
    }
  }

  if (!bt.aborted && gr.found && gr.tuple != bt.tuple) {
    // Greedy is backtracking's first descent; when it completes, the
    // two must have walked the identical path.
    return CheckResult::fail(
        fmtf("greedy tuple %s != backtracking tuple %s",
             tuple_str(gr.tuple).c_str(), tuple_str(bt.tuple).c_str()));
  }

  if (bt.found) {
    const double e_bt = core::tuple_energy_estimate(cc, bt.tuple, m);
    const double e_pr = core::tuple_energy_estimate(cc, pr.tuple, m);
    if (gr.found) {
      const double e_gr = core::tuple_energy_estimate(cc, gr.tuple, m);
      if (e_bt > e_gr * (1.0 + 1e-9) + 1e-12) {
        return CheckResult::fail(
            fmtf("E(backtracking)=%.9g beaten by E(greedy)=%.9g", e_bt,
                 e_gr));
      }
    }
    // Pruned is optimal: never beaten by Algorithm 1's completed
    // descent, and on an energy tie it must honor the fewest-cores rule
    // against that descent's tuple.
    if (e_pr > e_bt * (1.0 + 1e-9) + 1e-12) {
      return CheckResult::fail(
          fmtf("E(pruned)=%.9g worse than E(backtracking)=%.9g "
               "(tuples %s vs %s)",
               e_pr, e_bt, tuple_str(pr.tuple).c_str(),
               tuple_str(bt.tuple).c_str()));
    }
    if (std::abs(e_pr - e_bt) <= 1e-9 && pr.cores_used > bt.cores_used) {
      return CheckResult::fail(
          fmtf("tie-break violation: E(pruned)=E(backtracking)=%.9g but "
               "pruned uses %zu cores vs %zu",
               e_pr, pr.cores_used, bt.cores_used));
    }
    if (small) {
      const double e_ex = core::tuple_energy_estimate(cc, ex.tuple, m);
      if (e_ex > e_bt * (1.0 + 1e-9) + 1e-12) {
        return CheckResult::fail(
            fmtf("E(exhaustive)=%.9g worse than E(backtracking)=%.9g "
                 "(tuples %s vs %s)",
                 e_ex, e_bt, tuple_str(ex.tuple).c_str(),
                 tuple_str(bt.tuple).c_str()));
      }
      // The tentpole invariant: pruned matches exhaustive energy
      // exactly (up to the documented 1e-9 tie window), under per-type
      // capacities on typed tables too.
      if (!close_rel(e_pr, e_ex, 1e-9, 1e-9)) {
        return CheckResult::fail(
            fmtf("E(pruned)=%.12g != E(exhaustive)=%.12g (tuples %s vs "
                 "%s)",
                 e_pr, e_ex, tuple_str(pr.tuple).c_str(),
                 tuple_str(ex.tuple).c_str()));
      }
    }
  }
  return CheckResult::pass();
}

}  // namespace

CheckResult check_search(const TableSpec& spec) {
  const core::CCTable cc = spec.build();
  const std::size_t m = spec.cores;

  if (auto v = check_table_properties(spec, cc); !v.ok) return v;

  SearcherRuns runs;
  if (auto v = check_searchers(cc, m, nullptr, runs); !v.ok) return v;
  const core::SearchResult& bt = runs.bt;
  const core::SearchResult& pr = runs.pr;
  const bool small = runs.small;

  if (spec.use_model) {
    // Same properties under the real PowerModel objective.
    const auto model = spec.build_model();
    const auto prm = core::search_pruned(cc, m, &model);
    if (prm.found != pr.found) {
      // The objective never changes feasibility — same lattice, same
      // capacity constraint.
      return CheckResult::fail(
          "model-objective pruned disagrees on feasibility");
    }
    if (prm.found) {
      if (auto v = validate_tuple(cc, prm, m, "pruned(model)"); !v.ok) {
        return v;
      }
      if (bt.found) {
        const double e_prm =
            core::tuple_energy_estimate(cc, prm.tuple, m, &model);
        const double e_btm =
            core::tuple_energy_estimate(cc, bt.tuple, m, &model);
        if (e_prm > e_btm * (1.0 + 1e-9) + 1e-12) {
          return CheckResult::fail(
              fmtf("model E(pruned)=%.9g worse than E(backtracking)=%.9g",
                   e_prm, e_btm));
        }
      }
    }
    if (small) {
      const auto exm = search_exhaustive(cc, m, &model);
      if (exm.found != bt.found) {
        return CheckResult::fail(
            "model-objective exhaustive disagrees on feasibility");
      }
      if (exm.found) {
        if (auto v = validate_tuple(cc, exm, m, "exhaustive(model)");
            !v.ok) {
          return v;
        }
        const double e_exm =
            core::tuple_energy_estimate(cc, exm.tuple, m, &model);
        const double e_btm =
            core::tuple_energy_estimate(cc, bt.tuple, m, &model);
        if (e_exm > e_btm * (1.0 + 1e-9) + 1e-12) {
          return CheckResult::fail(
              fmtf("model E(exhaustive)=%.9g worse than E(backtracking)="
                   "%.9g",
                   e_exm, e_btm));
        }
        const double e_prm =
            core::tuple_energy_estimate(cc, prm.tuple, m, &model);
        if (!close_rel(e_prm, e_exm, 1e-9, 1e-9)) {
          return CheckResult::fail(
              fmtf("model E(pruned)=%.12g != E(exhaustive)=%.12g", e_prm,
                   e_exm));
        }
        const auto exm2 = search_exhaustive(cc, m, &model);
        if (exm2.tuple != exm.tuple) {
          return CheckResult::fail(
              "model-objective exhaustive is nondeterministic");
        }
      }
    }
  }

  return CheckResult::pass();
}

CheckResult check_runtime(const WorkloadSpec& spec) {
  const auto tr = spec.build_trace();

  rt::RuntimeOptions opt;
  opt.workers = spec.cores;
  opt.kind = spec.rt_kind == RtKind::kCilk    ? rt::SchedulerKind::kCilk
             : spec.rt_kind == RtKind::kCilkD ? rt::SchedulerKind::kCilkD
                                              : rt::SchedulerKind::kEewa;
  opt.enable_pmc = false;
  rt::Runtime run(opt);

  const auto child = run.handle("__spawned");
  const std::size_t fail_id = run.handle("__failing").id;

  std::size_t expected_total = 0;
  std::size_t expected_failed = 0;

  for (std::size_t b = 0; b < tr.batches.size(); ++b) {
    std::vector<rt::TaskDesc> descs;
    const std::size_t top_level = tr.batches[b].tasks.size();
    for (const auto& t : tr.batches[b].tasks) {
      const double work = t.work_s;
      const std::size_t fanout = spec.spawn_fanout;
      rt::Runtime* rt_ptr = &run;
      descs.push_back(rt::TaskDesc{
          tr.class_names[t.class_id], rt::TaskFn([work, fanout, rt_ptr,
                                                  child] {
            burn_for(work);
            for (std::size_t s = 0; s < fanout; ++s) {
              rt_ptr->spawn(child, rt::TaskFn([] { burn_for(5e-6); }));
            }
          })});
    }
    for (std::size_t f = 0; f < spec.failing_tasks; ++f) {
      descs.push_back(rt::TaskDesc{
          "__failing", rt::TaskFn([] {
            throw std::runtime_error("injected task failure");
          })});
    }
    const std::size_t submitted = descs.size();
    const std::size_t expected_spawns = top_level * spec.spawn_fanout;
    expected_total += submitted + expected_spawns;
    expected_failed += spec.failing_tasks;

    bool threw = false;
    try {
      const double makespan = run.run_batch(std::move(descs));
      if (!(makespan >= 0.0)) {
        return CheckResult::fail("run_batch returned negative makespan");
      }
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (threw != (spec.failing_tasks > 0)) {
      return CheckResult::fail(
          fmtf("batch %zu: rethrow mismatch (threw=%d, injected=%zu)", b,
               threw ? 1 : 0, spec.failing_tasks));
    }

    const auto& rep = run.last_batch_report();
    // Conservation: every executed task was either submitted at the
    // barrier or spawned mid-batch...
    if (rep.tasks != submitted + rep.spawns) {
      return CheckResult::fail(
          fmtf("batch %zu: tasks=%llu != submitted=%zu + spawns=%llu", b,
               static_cast<unsigned long long>(rep.tasks), submitted,
               static_cast<unsigned long long>(rep.spawns)));
    }
    if (rep.spawns != expected_spawns) {
      return CheckResult::fail(
          fmtf("batch %zu: spawns=%llu, expected %zu", b,
               static_cast<unsigned long long>(rep.spawns),
               expected_spawns));
    }
    // ...and acquired (popped, stolen or robbed) exactly once.
    if (rep.acquires() != rep.tasks) {
      return CheckResult::fail(
          fmtf("batch %zu: acquires()=%llu != tasks=%llu", b,
               static_cast<unsigned long long>(rep.acquires()),
               static_cast<unsigned long long>(rep.tasks)));
    }
    if (rep.probes < rep.local_steals + rep.cross_robs) {
      return CheckResult::fail(
          fmtf("batch %zu: probes=%llu < steals+robs=%llu", b,
               static_cast<unsigned long long>(rep.probes),
               static_cast<unsigned long long>(rep.local_steals +
                                               rep.cross_robs)));
    }

    // Exact per-class execution counts.
    auto class_count = [&rep](std::size_t id) -> std::uint64_t {
      return id < rep.classes.size() ? rep.classes[id].count : 0;
    };
    for (std::size_t c = 0; c < tr.class_count(); ++c) {
      std::size_t expect = 0;
      for (const auto& t : tr.batches[b].tasks) {
        if (t.class_id == c) ++expect;
      }
      const std::size_t id = run.handle(tr.class_names[c]).id;
      if (class_count(id) != expect) {
        return CheckResult::fail(
            fmtf("batch %zu: class %s executed %llu tasks, expected %zu",
                 b, tr.class_names[c].c_str(),
                 static_cast<unsigned long long>(class_count(id)),
                 expect));
      }
    }
    if (class_count(child.id) != expected_spawns) {
      return CheckResult::fail(
          fmtf("batch %zu: spawned-child count %llu != %zu", b,
               static_cast<unsigned long long>(class_count(child.id)),
               expected_spawns));
    }
    const std::uint64_t failed_in_class =
        fail_id < rep.classes.size() ? rep.classes[fail_id].failed : 0;
    if (class_count(fail_id) != spec.failing_tasks ||
        failed_in_class != spec.failing_tasks) {
      return CheckResult::fail(
          fmtf("batch %zu: failing-class count=%llu failed=%llu, "
               "expected %zu",
               b, static_cast<unsigned long long>(class_count(fail_id)),
               static_cast<unsigned long long>(failed_in_class),
               spec.failing_tasks));
    }
  }

  if (run.tasks_run() != expected_total) {
    return CheckResult::fail(
        fmtf("tasks_run()=%zu != spawned-or-submitted total %zu",
             run.tasks_run(), expected_total));
  }
  if (run.failed_tasks() != expected_failed) {
    return CheckResult::fail(
        fmtf("failed_tasks()=%zu != injected %zu", run.failed_tasks(),
             expected_failed));
  }

  if (spec.cores == 1) {
    // With one worker the spin tasks time cleanly (no sibling-worker
    // preemption), so the Eq.-1 normalized profile means must land near
    // the generating spec's means: recorded w = exec · F_j/F_0, so the
    // mean sits in [spec_mean · rel(slowest), ~spec_mean] modulo jitter
    // and scheduling noise. The band is deliberately loose — it exists
    // to catch systematic normalization bugs (inverted Eq. 1, wrong
    // rung), not timer noise.
    const auto& reg = run.controller().registry();
    const double rel_slowest =
        opt.ladder.relative_speed(opt.ladder.slowest_index());
    for (std::size_t c = 0; c < tr.class_count(); ++c) {
      const auto& cs = spec.trace.classes[c];
      if (cs.tasks_per_batch * spec.trace.batches < 16) continue;
      if (cs.mean_work_s < 20e-6) continue;
      const std::size_t id = run.handle(tr.class_names[c]).id;
      const double mean = reg.mean_workload(id);
      const double lo = cs.mean_work_s * rel_slowest / 6.0;
      const double hi = cs.mean_work_s * 6.0;
      if (mean < lo || mean > hi) {
        return CheckResult::fail(
            fmtf("class %s: profile mean %.6g outside [%.6g, %.6g] "
                 "(spec mean %.6g)",
                 tr.class_names[c].c_str(), mean, lo, hi,
                 cs.mean_work_s));
      }
    }
  }

  return CheckResult::pass();
}

CheckResult check_service(const ServiceSpec& spec) {
  const auto arrivals = trace::generate_arrivals(spec.arrivals);
  if (arrivals.empty()) {
    return CheckResult::pass();  // an empty stream has nothing to violate
  }

  rt::RuntimeOptions opt;
  opt.workers = spec.workers;
  opt.kind = rt::SchedulerKind::kEewa;
  opt.enable_pmc = false;
  rt::Runtime run(opt);

  rt::ServiceOptions so;
  so.queue_capacity = spec.queue_capacity;
  so.high_watermark = spec.high_watermark;
  so.policy = spec.policy == ShedPolicy::kBlock
                  ? rt::AdmissionPolicy::kBlock
              : spec.policy == ShedPolicy::kShedLowestSla
                  ? rt::AdmissionPolicy::kShedLowestSla
                  : rt::AdmissionPolicy::kShedOldest;
  so.epoch_s = spec.epoch_s;
  for (const auto& c : spec.arrivals.classes) {
    so.classes.push_back({c.name, c.sla});
  }
  // Every arrival is tagged with its index; a task marks its slot when
  // it runs, the shed hook marks the other array. The two marks must
  // never meet on one tag — that is the heart of the overload oracle.
  std::vector<std::uint8_t> ran_tags(arrivals.size(), 0);
  std::vector<std::uint8_t> shed_tags(arrivals.size(), 0);
  so.shed_hook = [&shed_tags](std::size_t, std::uint64_t tag) {
    if (tag < shed_tags.size()) shed_tags[tag] = 1;
  };
  run.start_service(std::move(so));

  std::vector<rt::ClassHandle> handles;
  for (const auto& c : spec.arrivals.classes) {
    handles.push_back(run.handle(c.name));
  }

  std::size_t backpressured = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& a = arrivals[i];
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(a.time_s)));
    const double work = a.task.work_s;
    std::uint8_t* slot = &ran_tags[i];
    const auto res = run.submit(handles[a.task.class_id],
                                rt::TaskFn([slot, work] {
                                  *slot = 1;
                                  burn_for(work);
                                }),
                                i);
    if (res == rt::SubmitResult::kBackpressure) ++backpressured;
    if (res == rt::SubmitResult::kStopped) {
      return CheckResult::fail("submit returned kStopped while serving");
    }
  }
  if (!run.drain_service(60.0)) {
    return CheckResult::fail("drain_service timed out after the stream");
  }
  const obs::EpochReport report = run.stop_service();

  // Totals reconcile exactly once quiescent.
  if (report.offered != arrivals.size()) {
    return CheckResult::fail(
        fmtf("offered=%llu != arrivals %zu",
             static_cast<unsigned long long>(report.offered),
             arrivals.size()));
  }
  if (report.pending != 0 || report.in_flight != 0) {
    return CheckResult::fail(
        fmtf("drained run still has pending=%llu in_flight=%llu",
             static_cast<unsigned long long>(report.pending),
             static_cast<unsigned long long>(report.in_flight)));
  }
  if (report.reconcile_slack() != 0) {
    return CheckResult::fail("final report does not reconcile: " +
                             report.to_string());
  }
  // The shared worker core counts a probe for every steal attempt.
  if (report.probes < report.steals + report.robs) {
    return CheckResult::fail("fewer probes than steals + robs: " +
                             report.to_string());
  }
  if (report.deferred != backpressured) {
    return CheckResult::fail(
        fmtf("deferred=%llu != kBackpressure results %zu",
             static_cast<unsigned long long>(report.deferred),
             backpressured));
  }

  // Tag-level conservation: executed + shed + backpressured covers the
  // stream, and no tag is both shed and executed.
  std::size_t ran_n = 0, shed_n = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    ran_n += ran_tags[i];
    shed_n += shed_tags[i];
    if (ran_tags[i] && shed_tags[i]) {
      return CheckResult::fail(
          fmtf("tag %zu was both shed and executed", i));
    }
    if (!ran_tags[i] && !shed_tags[i]) {
      // Must have been backpressured; cross-checked in aggregate below.
      continue;
    }
  }
  if (ran_n != report.executed) {
    return CheckResult::fail(
        fmtf("executed tags %zu != report.executed %llu", ran_n,
             static_cast<unsigned long long>(report.executed)));
  }
  if (shed_n != report.shed) {
    return CheckResult::fail(
        fmtf("shed tags %zu != report.shed %llu (hook missed a shed?)",
             shed_n, static_cast<unsigned long long>(report.shed)));
  }
  if (ran_n + shed_n + backpressured != arrivals.size()) {
    return CheckResult::fail(
        fmtf("executed %zu + shed %zu + backpressured %zu != offered %zu",
             ran_n, shed_n, backpressured, arrivals.size()));
  }

  // Policy guarantees.
  if (spec.policy == ShedPolicy::kBlock && report.shed != 0) {
    return CheckResult::fail(
        fmtf("block policy shed %llu tasks",
             static_cast<unsigned long long>(report.shed)));
  }
  for (std::size_t k = 0; k < spec.arrivals.classes.size(); ++k) {
    const auto& snap = report.classes.at(handles[k].id);
    if (snap.offered != snap.admitted + snap.shed + snap.deferred) {
      return CheckResult::fail(
          fmtf("class %zu: offered %llu != admitted+shed+deferred", k,
               static_cast<unsigned long long>(snap.offered)));
    }
    if (spec.arrivals.classes[k].sla == 0 && snap.shed != 0) {
      return CheckResult::fail(
          fmtf("never-shed class %zu shed %llu tasks", k,
               static_cast<unsigned long long>(snap.shed)));
    }
  }

  // Shedding only engages above the watermark. The depth gauge is
  // sampled once per dispatcher pass, shortly after the shed decision
  // (which sees depth >= threshold >= watermark); completions during
  // that window can shrink it by at most a few tasks per worker.
  if (report.shed > 0) {
    const std::size_t watermark = spec.high_watermark > 0
                                      ? spec.high_watermark
                                      : spec.queue_capacity / 2;
    if (report.queue_depth_hwm + 2 * spec.workers + 8 < watermark) {
      return CheckResult::fail(
          fmtf("shed %llu tasks but depth high-water %llu never neared "
               "the watermark %zu",
               static_cast<unsigned long long>(report.shed),
               static_cast<unsigned long long>(report.queue_depth_hwm),
               watermark));
    }
  }

  // Per-epoch delta reports never overcount the cumulative totals.
  std::uint64_t epoch_exec = 0, epoch_shed = 0;
  for (const auto& r : run.epoch_reports()) {
    epoch_exec += r.executed;
    epoch_shed += r.shed;
  }
  if (epoch_exec > report.executed || epoch_shed > report.shed) {
    return CheckResult::fail(
        fmtf("epoch deltas overcount: Σexec=%llu vs %llu, Σshed=%llu vs "
             "%llu",
             static_cast<unsigned long long>(epoch_exec),
             static_cast<unsigned long long>(report.executed),
             static_cast<unsigned long long>(epoch_shed),
             static_cast<unsigned long long>(report.shed)));
  }

  return CheckResult::pass();
}

CheckResult check_energy(const WorkloadSpec& spec) {
  const auto tr = spec.build_trace();

  sim::SimOptions opt;
  opt.cores = spec.cores;
  // Fixed adjuster overhead: the run must be bit-exactly reproducible.
  opt.fixed_adjuster_overhead_s = 20e-6;
  opt.seed = util::mix64(spec.seed ^ 0x51);
  opt.idle_halt = spec.idle_halt;
  if (spec.sockets) opt.cores_per_socket = 4;
  if (spec.with_faults) {
    opt.faults.transient_failure_p = 0.2;
    opt.faults.drift_p = 0.1;
    opt.faults.seed = util::mix64(spec.seed ^ 0x52);
  }

  obs::EventTracer tracer1(spec.cores + 1);
  obs::EventTracer tracer2(spec.cores + 1);
  tracer1.set_enabled(true);
  tracer2.set_enabled(true);

  opt.tracer = &tracer1;
  const auto r1 = sim::simulate_named(tr, spec.sim_policy, opt);
  opt.tracer = &tracer2;
  const auto r2 = sim::simulate_named(tr, spec.sim_policy, opt);

  // Bit-exact determinism, including the exported event trace.
  if (r1.time_s != r2.time_s || r1.energy_j != r2.energy_j ||
      r1.cpu_energy_j != r2.cpu_energy_j || r1.steals != r2.steals ||
      r1.probes != r2.probes || r1.transitions != r2.transitions) {
    return CheckResult::fail(
        fmtf("simulation not deterministic: time %.17g vs %.17g, energy "
             "%.17g vs %.17g",
             r1.time_s, r2.time_s, r1.energy_j, r2.energy_j));
  }
  if (tracer1.chrome_json() != tracer2.chrome_json()) {
    return CheckResult::fail("event traces differ between identical runs");
  }

  if (!(r1.time_s >= 0.0) || !std::isfinite(r1.time_s)) {
    return CheckResult::fail(fmtf("non-finite time %.17g", r1.time_s));
  }
  if (r1.energy_j < 0.0 || r1.cpu_energy_j < 0.0 ||
      !std::isfinite(r1.energy_j)) {
    return CheckResult::fail(
        fmtf("negative or non-finite energy %.17g", r1.energy_j));
  }

  // Wall time is exactly the sum of batch spans plus overheads.
  double span_total = 0.0;
  double core_e_total = 0.0;
  std::size_t steals = 0, probes = 0, transitions = 0;
  for (std::size_t b = 0; b < r1.batches.size(); ++b) {
    const auto& bs = r1.batches[b];
    if (bs.span_s < 0.0 || bs.overhead_s < 0.0 || bs.core_energy_j < 0.0) {
      return CheckResult::fail(
          fmtf("batch %zu: negative span/overhead/energy", b));
    }
    std::size_t rung_cores = 0;
    for (std::size_t n : bs.cores_per_rung) rung_cores += n;
    if (rung_cores != spec.cores) {
      return CheckResult::fail(
          fmtf("batch %zu: cores_per_rung sums to %zu, cores=%zu", b,
               rung_cores, spec.cores));
    }
    span_total += bs.span_s + bs.overhead_s;
    core_e_total += bs.core_energy_j;
    steals += bs.steals;
    probes += bs.probes;
    transitions += bs.transitions;
  }
  if (!close_rel(r1.time_s, span_total, 1e-9)) {
    return CheckResult::fail(
        fmtf("time %.17g != Σ(span+overhead) %.17g", r1.time_s,
             span_total));
  }
  if (steals != r1.steals || probes != r1.probes ||
      transitions != r1.transitions) {
    return CheckResult::fail(
        "batch steal/probe/transition counters do not sum to the run "
        "totals");
  }
  if (!close_rel(core_e_total, r1.cpu_energy_j, 1e-6)) {
    return CheckResult::fail(
        fmtf("Σ batch core energy %.17g != cpu_energy %.17g",
             core_e_total, r1.cpu_energy_j));
  }

  // Every core is accounted for every simulated second, on some rung.
  double residency = 0.0;
  for (double r : r1.rung_residency_s) {
    if (r < 0.0) return CheckResult::fail("negative rung residency");
    residency += r;
  }
  const double core_seconds = static_cast<double>(spec.cores) * r1.time_s;
  if (!close_rel(residency, core_seconds, 1e-6)) {
    return CheckResult::fail(
        fmtf("Σ residency %.17g != cores·time %.17g", residency,
             core_seconds));
  }

  // Whole-machine power envelope: floor <= P <= all-active-at-F0, plus
  // the per-transition switching energy.
  const double hi =
      opt.power.machine_all_active_w(spec.cores, 0) * r1.time_s +
      static_cast<double>(r1.transitions) * opt.transition.energy_j;
  const double lo = opt.power.floor_w() * r1.time_s;
  if (r1.energy_j > hi * (1.0 + 1e-6) + 1e-12 ||
      r1.energy_j < lo * (1.0 - 1e-6) - 1e-12) {
    return CheckResult::fail(
        fmtf("energy %.9g outside envelope [%.9g, %.9g]", r1.energy_j,
             lo, hi));
  }
  // Total = CPU + machine floor over the whole wall time.
  const double expect_total =
      r1.cpu_energy_j + opt.power.floor_w() * r1.time_s;
  if (!close_rel(r1.energy_j, expect_total, 1e-9)) {
    return CheckResult::fail(
        fmtf("energy %.17g != cpu + floor·time %.17g", r1.energy_j,
             expect_total));
  }

  return CheckResult::pass();
}

namespace {

sim::FleetOptions fleet_options(const FleetSpec& spec) {
  sim::FleetOptions o;
  o.machines = spec.machines;
  o.machine.cores = spec.cores;
  o.machine.seed = util::mix64(spec.seed ^ 0xf1ee70ULL);
  o.ladder.clear();
  for (std::size_t k = 0; k < spec.ladder_power_w.size(); ++k) {
    o.ladder.push_back({"st" + std::to_string(k), spec.ladder_power_w[k],
                        spec.ladder_wake_s[k]});
  }
  o.epoch_s = spec.epoch_s;
  o.park_after_epochs = spec.park_after_epochs;
  o.deepen_after_epochs = spec.deepen_after_epochs;
  o.transition_energy_j = spec.transition_energy_j;
  o.policy = spec.policy;
  o.placement = spec.placement;
  o.max_backlog_s = spec.max_backlog_s;
  o.initial_state = spec.initial_state;
  o.threads = spec.threads;
  return o;
}

}  // namespace

CheckResult check_fleet(const FleetSpec& spec) {
  const sim::FleetOptions opts = fleet_options(spec);
  const obs::FleetReport a = sim::Fleet(opts, spec.arrivals).run();
  {
    const obs::FleetReport b = sim::Fleet(opts, spec.arrivals).run();
    if (!(a == b)) {
      return CheckResult::fail(
          "fleet determinism: two runs of the same spec differ");
    }
  }
  {
    // (1b) Serial-vs-parallel differential: every fuzz case also runs
    // on the other engine (serial cases on 2 threads, parallel cases on
    // the serial engine) and must reproduce the report bit for bit.
    sim::FleetOptions other = opts;
    other.threads = opts.threads > 1 ? 1 : 2;
    const obs::FleetReport c = sim::Fleet(other, spec.arrivals).run();
    if (!(a == c)) {
      return CheckResult::fail(
          fmtf("parallel engine diverged: threads=%zu vs threads=%zu "
               "reports differ",
               opts.threads, other.threads));
    }
  }

  // (2) Fleet-wide task conservation.
  if (a.offered != a.routed + a.shed) {
    return CheckResult::fail(fmtf("offered %zu != routed %zu + shed %zu",
                                  a.offered, a.routed, a.shed));
  }
  if (a.in_flight != 0 || a.routed != a.completed) {
    return CheckResult::fail(
        fmtf("drain left in_flight=%zu (routed %zu, completed %zu)",
             a.in_flight, a.routed, a.completed));
  }
  if (spec.max_backlog_s <= 0.0 && a.shed != 0) {
    return CheckResult::fail(
        fmtf("shed %zu tasks with no backlog cap set", a.shed));
  }
  if (a.per_machine.size() != a.machines || a.machines != spec.machines) {
    return CheckResult::fail(fmtf("machine count mismatch: %zu reports, "
                                  "%zu machines",
                                  a.per_machine.size(), a.machines));
  }

  // (4a) Ladder echo, strictly monotone both ways.
  if (a.ladder.size() != spec.ladder_power_w.size()) {
    return CheckResult::fail("ladder echo lost states");
  }
  for (std::size_t k = 1; k < a.ladder.size(); ++k) {
    if (!(a.ladder[k].power_w < a.ladder[k - 1].power_w) ||
        !(a.ladder[k].wake_latency_s > a.ladder[k - 1].wake_latency_s)) {
      return CheckResult::fail(
          fmtf("ladder not monotone at state %zu: %.9g W after %.9g W, "
               "%.9g s after %.9g s",
               k, a.ladder[k].power_w, a.ladder[k - 1].power_w,
               a.ladder[k].wake_latency_s, a.ladder[k - 1].wake_latency_s));
    }
  }

  const double cores = static_cast<double>(a.cores_per_machine);
  const double floor_w = opts.machine.power.floor_w();
  std::size_t sum_routed = 0, sum_completed = 0, sum_parks = 0,
              sum_wakes = 0;
  double sum_energy = 0.0, sum_powered = 0.0, sum_parked = 0.0;
  for (std::size_t i = 0; i < a.per_machine.size(); ++i) {
    const auto& m = a.per_machine[i];
    if (m.routed != m.completed) {
      return CheckResult::fail(
          fmtf("machine %zu: routed %zu != completed %zu after drain", i,
               m.routed, m.completed));
    }
    if (m.sleep_residency_s.size() != a.ladder.size() ||
        m.wakes_per_state.size() != a.ladder.size()) {
      return CheckResult::fail(fmtf("machine %zu: residency vectors do "
                                    "not match the ladder",
                                    i));
    }
    double parked = 0.0, sleep_j = 0.0, stall = 0.0;
    std::size_t wakes = 0;
    for (std::size_t k = 0; k < a.ladder.size(); ++k) {
      if (m.sleep_residency_s[k] < -1e-12) {
        return CheckResult::fail(fmtf(
            "machine %zu: negative residency %.9g in state %zu", i,
            m.sleep_residency_s[k], k));
      }
      parked += m.sleep_residency_s[k];
      sleep_j += m.sleep_residency_s[k] * a.ladder[k].power_w;
      stall += static_cast<double>(m.wakes_per_state[k]) *
               a.ladder[k].wake_latency_s;
      wakes += m.wakes_per_state[k];
    }
    // (3) Every machine-second billed exactly once.
    if (!close_rel(m.powered_s + parked, a.horizon_s, 1e-9, 1e-9)) {
      return CheckResult::fail(
          fmtf("machine %zu: powered %.9g + parked %.9g != horizon %.9g",
               i, m.powered_s, parked, a.horizon_s));
    }
    if (!close_rel(m.charged_core_s, cores * m.powered_s, 1e-9, 1e-9)) {
      return CheckResult::fail(
          fmtf("machine %zu: charged core-seconds %.9g != cores x "
               "powered %.9g — a park/wake cycle double-billed or "
               "skipped core time",
               i, m.charged_core_s, cores * m.powered_s));
    }
    // (4b) Power-state ledger.
    const std::size_t ends_parked = m.final_state > 0 ? 1 : 0;
    if (m.parks != m.wakes + ends_parked) {
      return CheckResult::fail(
          fmtf("machine %zu: parks %zu != wakes %zu + ends_parked %zu",
               i, m.parks, m.wakes, ends_parked));
    }
    if (wakes != m.wakes) {
      return CheckResult::fail(
          fmtf("machine %zu: Σ wakes_per_state %zu != wakes %zu", i,
               wakes, m.wakes));
    }
    if (!close_rel(m.wake_stall_s, stall, 1e-9, 1e-12)) {
      return CheckResult::fail(
          fmtf("machine %zu: wake stall %.9g != Σ wakes·latency %.9g", i,
               m.wake_stall_s, stall));
    }
    // No task ran on an unpowered machine: completions require batches,
    // batches require powered time at least as long as the stall.
    if (m.completed > 0 && (m.batches == 0 || m.powered_s <= 0.0)) {
      return CheckResult::fail(
          fmtf("machine %zu: %zu tasks completed with batches=%zu "
               "powered=%.9g",
               i, m.completed, m.batches, m.powered_s));
    }
    if ((m.first_start_s < 0.0) != (m.batches == 0)) {
      return CheckResult::fail(
          fmtf("machine %zu: first_start %.9g inconsistent with "
               "batches %zu",
               i, m.first_start_s, m.batches));
    }
    if (m.batches > a.epochs) {
      return CheckResult::fail(fmtf(
          "machine %zu: %zu batches over %zu epochs", i, m.batches,
          a.epochs));
    }
    // (3b) Per-machine energy decomposition.
    if (!close_rel(m.floor_energy_j, floor_w * m.powered_s, 1e-9, 1e-9)) {
      return CheckResult::fail(
          fmtf("machine %zu: floor energy %.9g != floor %.9g x powered "
               "%.9g",
               i, m.floor_energy_j, floor_w, m.powered_s));
    }
    if (!close_rel(m.sleep_energy_j, sleep_j, 1e-9, 1e-9)) {
      return CheckResult::fail(
          fmtf("machine %zu: sleep energy %.9g != Σ residency·power "
               "%.9g",
               i, m.sleep_energy_j, sleep_j));
    }
    const double trans = static_cast<double>(m.parks + m.wakes) *
                         spec.transition_energy_j;
    if (!close_rel(m.transition_energy_j, trans, 1e-9, 1e-12)) {
      return CheckResult::fail(
          fmtf("machine %zu: transition energy %.9g != (parks+wakes) x "
               "%.9g",
               i, m.transition_energy_j, spec.transition_energy_j));
    }
    sum_routed += m.routed;
    sum_completed += m.completed;
    sum_parks += m.parks;
    sum_wakes += m.wakes;
    sum_energy += m.energy_j();
    sum_powered += m.powered_s;
    sum_parked += parked;
  }

  if (sum_routed != a.routed || sum_completed != a.completed) {
    return CheckResult::fail(
        fmtf("per-machine sums (routed %zu, completed %zu) != fleet "
             "(%zu, %zu)",
             sum_routed, sum_completed, a.routed, a.completed));
  }
  if (sum_parks != a.parks || sum_wakes != a.wakes) {
    return CheckResult::fail(fmtf("park/wake sums (%zu, %zu) != fleet "
                                  "(%zu, %zu)",
                                  sum_parks, sum_wakes, a.parks, a.wakes));
  }
  if (!close_rel(sum_energy, a.energy_j, 1e-9, 1e-9)) {
    return CheckResult::fail(
        fmtf("Σ machine energy %.17g != fleet energy %.17g — "
             "double-charging across park/wake",
             sum_energy, a.energy_j));
  }
  if (!close_rel(sum_powered, a.powered_machine_s, 1e-9, 1e-9) ||
      !close_rel(sum_parked, a.parked_machine_s, 1e-9, 1e-9)) {
    return CheckResult::fail("powered/parked machine-second sums differ "
                             "from the fleet totals");
  }
  const double floor_time =
      static_cast<double>(a.epochs) * a.epoch_s;
  if (a.horizon_s + 1e-12 < floor_time) {
    return CheckResult::fail(fmtf(
        "horizon %.9g ends before the last epoch %.9g", a.horizon_s,
        floor_time));
  }
  return CheckResult::pass();
}

namespace {

/// Per-type capacity audit of a typed tuple — the constraint the global
/// validate_tuple cannot see: each class draws cores from the cluster
/// its row belongs to, so per-type fractional usage must fit that
/// type's own core count. Re-derived here, independent of
/// tuple_is_valid's own typed branch.
CheckResult validate_typed_tuple(const core::CCTable& cc,
                                 const core::SearchResult& res,
                                 const char* who) {
  const core::MachineTopology& topo = *cc.topology();
  std::vector<long double> used(topo.type_count(), 0.0L);
  for (std::size_t i = 0; i < res.tuple.size(); ++i) {
    used[topo.row_type(res.tuple[i])] += cc.demand(res.tuple[i], i);
  }
  for (std::size_t t = 0; t < used.size(); ++t) {
    if (used[t] > static_cast<long double>(topo.type(t).count) + 1e-9) {
      return CheckResult::fail(fmtf(
          "%s: type %zu usage %.9g exceeds its %zu cores for tuple %s",
          who, t, static_cast<double>(used[t]), topo.type(t).count,
          tuple_str(res.tuple).c_str()));
    }
  }
  return CheckResult::pass();
}

/// Structural checks on the generated topology: flattened rows descend
/// by effective speed, row_of round-trips, slowdowns are >= 1 with row 0
/// the exact reference, and per-type core-id ranges are contiguous.
CheckResult check_topology(const HeteroSpec& spec,
                           const core::MachineTopology& topo) {
  std::size_t expect_rows = 0;
  std::size_t expect_cores = 0;
  for (const auto& t : spec.types) {
    expect_rows += t.ladder_ghz.size();
    expect_cores += t.count;
  }
  if (topo.row_count() != expect_rows) {
    return CheckResult::fail(fmtf("topology has %zu rows, spec implies %zu",
                                  topo.row_count(), expect_rows));
  }
  if (topo.total_cores() != expect_cores) {
    return CheckResult::fail(fmtf("topology has %zu cores, spec says %zu",
                                  topo.total_cores(), expect_cores));
  }
  if (topo.row_slowdown(0) != 1.0) {
    return CheckResult::fail(
        fmtf("row 0 slowdown is %.17g, not exactly 1", topo.row_slowdown(0)));
  }
  for (std::size_t j = 0; j < topo.row_count(); ++j) {
    if (j > 0 && topo.row_speed(j) > topo.row_speed(j - 1) + 1e-15) {
      return CheckResult::fail(
          fmtf("row speeds not descending at row %zu: %.9g > %.9g", j,
               topo.row_speed(j), topo.row_speed(j - 1)));
    }
    if (topo.row_slowdown(j) + 1e-12 < 1.0) {
      return CheckResult::fail(
          fmtf("row %zu slowdown %.9g below 1", j, topo.row_slowdown(j)));
    }
    const std::size_t t = topo.row_type(j);
    const std::size_t rung = topo.row_rung(j);
    if (t >= topo.type_count() ||
        rung >= topo.type(t).ladder.size()) {
      return CheckResult::fail(
          fmtf("row %zu maps to out-of-range (type %zu, rung %zu)", j, t,
               rung));
    }
    if (topo.row_of(t, rung) != j) {
      return CheckResult::fail(
          fmtf("row_of(%zu, %zu) = %zu, expected %zu round-trip", t, rung,
               topo.row_of(t, rung), j));
    }
  }
  std::size_t next_core = 0;
  for (std::size_t t = 0; t < topo.type_count(); ++t) {
    if (topo.first_core(t) != next_core) {
      return CheckResult::fail(
          fmtf("type %zu first core %zu, expected contiguous %zu", t,
               topo.first_core(t), next_core));
    }
    for (std::size_t c = 0; c < topo.type(t).count; ++c) {
      if (topo.type_of_core(next_core + c) != t) {
        return CheckResult::fail(
            fmtf("core %zu owned by type %zu, expected %zu", next_core + c,
                 topo.type_of_core(next_core + c), t));
      }
    }
    const std::size_t slowest = topo.slowest_row_of_type(t);
    if (topo.row_type(slowest) != t ||
        topo.row_rung(slowest) != topo.type(t).ladder.size() - 1) {
      return CheckResult::fail(
          fmtf("slowest_row_of_type(%zu) = row %zu does not name the "
               "type's last rung",
               t, slowest));
    }
    next_core += topo.type(t).count;
  }
  return CheckResult::pass();
}

/// The typed plan carver's structural contract: every core in exactly
/// one group, every group inside its own type's contiguous core range
/// and ladder, every class mapped to a real group.
CheckResult check_typed_plan(const core::CCTable& cc,
                             const core::FrequencyPlan& plan,
                             std::size_t m) {
  const core::MachineTopology& topo = *cc.topology();
  const auto& layout = plan.layout;
  if (layout.total_cores() != m) {
    return CheckResult::fail(fmtf("plan covers %zu cores, machine has %zu",
                                  layout.total_cores(), m));
  }
  std::size_t covered = 0;
  for (std::size_t g = 0; g < layout.group_count(); ++g) {
    covered += layout.group(g).cores.size();
  }
  if (covered != m) {
    return CheckResult::fail(
        fmtf("plan groups cover %zu cores, expected every one of %zu",
             covered, m));
  }
  for (std::size_t c = 0; c < m; ++c) {
    if (!layout.core_assigned(c)) {
      return CheckResult::fail(fmtf("core %zu is in no c-group", c));
    }
  }
  if (plan.planned) {
    for (std::size_t g = 0; g < layout.group_count(); ++g) {
      const auto& grp = layout.group(g);
      if (grp.core_type >= topo.type_count()) {
        return CheckResult::fail(
            fmtf("group %zu names type %zu of %zu", g, grp.core_type,
                 topo.type_count()));
      }
      const auto& ct = topo.type(grp.core_type);
      if (grp.freq_index >= ct.ladder.size()) {
        return CheckResult::fail(
            fmtf("group %zu rung %zu past type %zu's %zu-rung ladder", g,
                 grp.freq_index, grp.core_type, ct.ladder.size()));
      }
      const std::size_t lo = topo.first_core(grp.core_type);
      for (std::size_t c : grp.cores) {
        if (c < lo || c >= lo + ct.count) {
          return CheckResult::fail(
              fmtf("group %zu (type %zu) claims core %zu outside "
                   "[%zu, %zu)",
                   g, grp.core_type, c, lo, lo + ct.count));
        }
      }
    }
  }
  if (layout.class_count() != cc.cols()) {
    return CheckResult::fail(fmtf("plan maps %zu classes, table has %zu",
                                  layout.class_count(), cc.cols()));
  }
  for (std::size_t i = 0; i < layout.class_count(); ++i) {
    if (layout.group_of_class(i) >= layout.group_count()) {
      return CheckResult::fail(
          fmtf("class %zu mapped to group %zu of %zu", i,
               layout.group_of_class(i), layout.group_count()));
    }
  }
  return CheckResult::pass();
}

}  // namespace

CheckResult check_hetero(const HeteroSpec& spec) {
  const core::MachineTopology topo = spec.build_topology();
  if (auto v = check_topology(spec, topo); !v.ok) return v;

  const core::CCTable cc = spec.build();
  const std::size_t m = spec.total_cores();
  if (cc.topology() == nullptr) {
    return CheckResult::fail("build_typed produced a table with no topology");
  }
  if (cc.rows() != topo.row_count() || cc.cols() != spec.classes.size()) {
    return CheckResult::fail(fmtf("typed table is %zux%zu, expected %zux%zu",
                                  cc.rows(), cc.cols(), topo.row_count(),
                                  spec.classes.size()));
  }

  // The typed CC identity (generalized Eq. 1): every row scales its
  // column base by that row's effective slowdown.
  for (std::size_t i = 0; i < cc.cols(); ++i) {
    const auto& c = spec.classes[i];
    const double base = c.total_workload() / spec.ideal_time_s;
    if (!close_rel(cc.at(0, i), base, 1e-9)) {
      return CheckResult::fail(
          fmtf("CC[0][%zu]=%.9g != n·w̄/T=%.9g", i, cc.at(0, i), base));
    }
    const double alpha = spec.memory_aware ? c.mean_alpha : 0.0;
    for (std::size_t j = 1; j < cc.rows(); ++j) {
      const double want =
          (alpha + (1.0 - alpha) * topo.row_slowdown(j)) * base;
      if (!close_rel(cc.at(j, i), want, 1e-9)) {
        return CheckResult::fail(
            fmtf("CC[%zu][%zu]=%.9g != s_eff·base=%.9g", j, i, cc.at(j, i),
                 want));
      }
    }
    // rung_feasible / demand consistency, as in the homogeneous oracle:
    // an admitted rung must let a mean-sized task finish within T.
    for (std::size_t j = 1; j < cc.rows(); ++j) {
      if (cc.at(0, i) <= 0.0) continue;
      const double eff = cc.at(j, i) / cc.at(0, i);
      if (cc.rung_feasible(j, i) && c.mean_workload > 0.0 &&
          c.mean_workload * eff > spec.ideal_time_s * (1.0 + 1e-6)) {
        return CheckResult::fail(
            fmtf("rung_feasible admits (row=%zu, i=%zu) but a mean task "
                 "takes %.9g > T=%.9g",
                 j, i, c.mean_workload * eff, spec.ideal_time_s));
      }
    }
  }

  // The searcher differential, plus the per-type capacity audit.
  SearcherRuns runs;
  if (auto v = check_searchers(cc, m, validate_typed_tuple, runs); !v.ok) {
    return v;
  }
  const core::SearchResult& pr = runs.pr;

  // Plan carving over the pruned result (and the uniform fallback when
  // the search failed).
  const auto plan = core::make_frequency_plan(
      cc, pr, m, dvfs::FrequencyLadder(spec.types[0].ladder_ghz),
      cc.cols());
  if (plan.planned != pr.found) {
    return CheckResult::fail(
        fmtf("plan.planned=%d but search found=%d", plan.planned ? 1 : 0,
             pr.found ? 1 : 0));
  }
  if (auto v = check_typed_plan(cc, plan, m); !v.ok) return v;

  // Degenerate-equality law 1: a single-type scale-1 topology is the
  // homogeneous machine, and build_typed must reproduce CCTable::build
  // bit for bit (same searcher feasibility follows from the identical
  // table + a capacity equal to the single type's count).
  if (spec.types.size() == 1 && spec.types[0].mips_scale == 1.0) {
    const auto hom = core::CCTable::build(
        spec.classes, dvfs::FrequencyLadder(spec.types[0].ladder_ghz),
        spec.ideal_time_s, spec.memory_aware);
    for (std::size_t j = 0; j < cc.rows(); ++j) {
      for (std::size_t i = 0; i < cc.cols(); ++i) {
        if (cc.at(j, i) != hom.at(j, i)) {
          return CheckResult::fail(
              fmtf("single-type typed CC[%zu][%zu]=%.17g != homogeneous "
                   "%.17g",
                   j, i, cc.at(j, i), hom.at(j, i)));
        }
      }
    }
    const auto pr_hom = core::search_pruned(hom, m);
    if (pr_hom.found != pr.found) {
      return CheckResult::fail(
          fmtf("single-type feasibility: typed pruned=%d homogeneous=%d",
               pr.found ? 1 : 0, pr_hom.found ? 1 : 0));
    }
    if (pr_hom.found &&
        !core::tuple_is_valid(cc, pr_hom.tuple, m)) {
      return CheckResult::fail(
          "homogeneous winner rejected by the typed validity check");
    }
    // The two carves agree on the typed winner (groups: rung, core type,
    // core ids; class map), and under the type's power model the two
    // estimators price it to the same bits.
    const auto hom_plan = core::make_frequency_plan(
        hom, pr, m, dvfs::FrequencyLadder(spec.types[0].ladder_ghz),
        cc.cols());
    const auto& lt = plan.layout;
    const auto& lh = hom_plan.layout;
    bool same = lt.group_count() == lh.group_count();
    for (std::size_t g = 0; same && g < lt.group_count(); ++g) {
      const auto& a = lt.group(g);
      const auto& b = lh.group(g);
      same = a.freq_index == b.freq_index && a.core_type == b.core_type &&
             a.cores == b.cores;
    }
    for (std::size_t i = 0; same && i < lt.class_count(); ++i) {
      same = lt.group_of_class(i) == lh.group_of_class(i);
    }
    if (!same) {
      return CheckResult::fail("single-type typed carve differs from the "
                               "homogeneous carve");
    }
    if (pr.found && spec.use_models &&
        core::tuple_energy_estimate(cc, pr.tuple, m) !=
            core::tuple_energy_estimate(hom, pr.tuple, m,
                                        topo.type(0).model.get())) {
      return CheckResult::fail(
          "single-type typed estimate differs from the homogeneous one");
    }
  }

  // Degenerate-equality law 2 (the memory-aware identity): with every
  // alpha zeroed, memory_aware=true must be bitwise identical to
  // memory_aware=false — same table, same winning tuple.
  {
    auto zeroed = spec.classes;
    for (auto& c : zeroed) c.mean_alpha = 0.0;
    const auto on =
        core::CCTable::build_typed(zeroed, topo, spec.ideal_time_s, true);
    const auto off =
        core::CCTable::build_typed(zeroed, topo, spec.ideal_time_s, false);
    for (std::size_t j = 0; j < on.rows(); ++j) {
      for (std::size_t i = 0; i < on.cols(); ++i) {
        if (on.at(j, i) != off.at(j, i)) {
          return CheckResult::fail(
              fmtf("zero-alpha CC[%zu][%zu] differs: aware=%.17g "
                   "unaware=%.17g",
                   j, i, on.at(j, i), off.at(j, i)));
        }
      }
    }
    const auto pr_on = core::search_pruned(on, m);
    const auto pr_off = core::search_pruned(off, m);
    if (pr_on.found != pr_off.found || pr_on.tuple != pr_off.tuple) {
      return CheckResult::fail(
          "zero-alpha memory_aware flag changed the winning tuple");
    }
  }

  return CheckResult::pass();
}

}  // namespace eewa::testing
