// plan-churn: the production planner alone. core::EewaController with
// SearchKind::kPruned at r = 16 rungs, k = 256 classes and m = 256 cores
// is fed one batch of task observations at a time (record_task), then
// closes the batch with end_batch + apply_supervised on a
// dvfs::TraceBackend. A seeded drift schedule perturbs the heaviest task
// of one class per batch: of the heaviest class (forcing a full
// re-plan), of a lighter class (an incremental suffix re-plan), or of
// none (plan reuse once the profile settles). Each kind occurs a fixed
// number of times per round; the seed picks the order, the classes and
// the drift sizes.
//
// Traced rounds also time end_batch and apply_supervised separately and
// replay each searched plan's stages (CC build, search, carve) from the
// benchmark, checking the replay reproduces the controller's tuple.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cc_table.hpp"
#include "core/eewa_controller.hpp"
#include "core/frequency_plan.hpp"
#include "core/ktuple_search.hpp"
#include "core/preference_list.hpp"
#include "dvfs/trace_backend.hpp"
#include "energy/power_model.hpp"
#include "plan_tally.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eewa;

constexpr std::size_t kRungs = 16;
constexpr std::size_t kClasses = 256;
constexpr std::size_t kCores = 256;
constexpr std::size_t kBatches = 800;  ///< plans per round
constexpr std::size_t kMaxTasksPerClass = 16;
constexpr double kUtilization = 0.6;  ///< F0 core demand / m at the ideal time
constexpr std::size_t kFullDrifts = 48;  ///< batches whose heaviest class drifts
constexpr std::size_t kSuffixDrifts = 400;  ///< a class past rank 16 drifts
/// The undrifted batch (task counts and per-task work) is fixed, so every
/// seed plans from the same base profile; the seed draws the drift
/// schedule: its order, the drifting classes and the drift sizes.
constexpr std::uint64_t kClassTableSeed = 0x5eed;

dvfs::FrequencyLadder make_ladder() {
  return dvfs::FrequencyLadder::linear(0.8, 3.2, kRungs);
}

/// Prices plans in watts: the Opteron 8380 silicon model stretched over
/// the 16-rung ladder (voltage linear from 1.35 V at F0 to 0.95 V).
energy::PowerModel make_power_model() {
  std::vector<double> volts;
  for (std::size_t j = 0; j < kRungs; ++j) {
    volts.push_back(1.35 - 0.40 * static_cast<double>(j) /
                               static_cast<double>(kRungs - 1));
  }
  return energy::PowerModel(make_ladder(), volts, /*dyn_coeff_w=*/3.51,
                            /*core_static_w=*/1.2, /*floor_w=*/0.0);
}

/// Every batch's task observations, built in set-up.
struct Inputs {
  std::vector<std::string> names;
  std::vector<std::size_t> counts;  ///< tasks per class per batch
  std::size_t tasks_per_batch = 0;
  std::vector<double> work;  ///< [batch][task] normalized work at F0, s
  double ideal_s = 0.0;      ///< makespan reported for every batch
};

Inputs make_inputs(std::uint64_t seed) {
  util::Xoshiro256 table(kClassTableSeed);
  util::Xoshiro256 rng(seed);
  Inputs in;
  std::vector<double> base;  // one batch, class-major
  std::vector<std::size_t> first;
  std::vector<double> means;
  double total = 0.0;
  for (std::size_t i = 0; i < kClasses; ++i) {
    in.names.push_back("class" + std::to_string(i));
    in.counts.push_back(1 + static_cast<std::size_t>(
                                table.bounded(kMaxTasksPerClass)));
    // Log-uniform means over ~2.6 decades: a few heavy classes, a long
    // tail of light ones.
    const double mean = 1e-3 * std::exp(table.uniform(0.0, 6.0));
    first.push_back(base.size());
    double sum = 0.0;
    for (std::size_t t = 0; t < in.counts[i]; ++t) {
      base.push_back(mean * table.uniform(0.8, 1.2));
      sum += base.back();
    }
    means.push_back(sum / static_cast<double>(in.counts[i]));
    total += sum;
  }
  in.tasks_per_batch = base.size();
  in.ideal_s = total / (static_cast<double>(kCores) * kUtilization);

  std::vector<std::size_t> by_weight(kClasses);
  for (std::size_t i = 0; i < kClasses; ++i) by_weight[i] = i;
  std::sort(by_weight.begin(), by_weight.end(),
            [&](std::size_t a, std::size_t b) { return means[a] > means[b]; });

  // Every seed gets the same multiset of drift events (class rank by
  // weight, growth of that class's heaviest task), spread evenly; the
  // seed only shuffles them over batches 1.. (batch 0, the measurement
  // batch, never drifts). Rank kClasses marks a batch without drift.
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.bounded(i)]);
    }
  };
  struct Event {
    std::size_t rank;
    double scale;
  };
  std::vector<Event> events;
  const auto add = [&](std::size_t n, std::size_t first_rank,
                       std::size_t ranks) {
    std::vector<double> scale(n);
    for (std::size_t i = 0; i < n; ++i) {
      scale[i] = 1.05 + 0.35 * (static_cast<double>(i) + 0.5) /
                            static_cast<double>(n);
    }
    shuffle(scale);
    for (std::size_t i = 0; i < n; ++i) {
      events.push_back({first_rank + i * ranks / n, scale[i]});
    }
  };
  add(kFullDrifts, 0, 1);
  add(kSuffixDrifts, 16, kClasses - 16);
  events.resize(kBatches - 1, Event{kClasses, 1.0});
  shuffle(events);

  in.work.reserve(kBatches * base.size());
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t row = in.work.size();
    in.work.insert(in.work.end(), base.begin(), base.end());
    if (b == 0 || events[b - 1].rank == kClasses) continue;
    // Scale the class's heaviest task: its max workload moves, its
    // cumulative mean barely does.
    const std::size_t cls = by_weight[events[b - 1].rank];
    auto* lo = &in.work[row + first[cls]];
    auto* hi = lo + in.counts[cls];
    *std::max_element(lo, hi) *= events[b - 1].scale;
  }
  return in;
}

/// The controller's plan basis, replayed from outside so traced rounds
/// know which prefix an incremental re-plan kept (the same rule as
/// EewaController's stable prefix).
struct Basis {
  std::vector<double> mean, max;  ///< by class id
  std::vector<std::size_t> order;
  std::vector<std::size_t> tuple;

  std::size_t stable_prefix(const std::vector<core::ClassProfile>& p,
                            double tol) const {
    const auto within = [tol](double fresh, double basis) {
      return std::abs(fresh - basis) <= tol * basis;
    };
    const std::size_t limit = std::min(p.size(), order.size());
    for (std::size_t i = 0; i < limit; ++i) {
      if (p[i].class_id != order[i] ||
          !within(p[i].mean_workload, mean[p[i].class_id]) ||
          !within(p[i].max_workload, max[p[i].class_id])) {
        return i;
      }
    }
    return limit;
  }

  void save(const std::vector<core::ClassProfile>& p,
            std::vector<std::size_t> searched, std::size_t classes) {
    mean.assign(classes, 0.0);
    max.assign(classes, 0.0);
    order.clear();
    for (const auto& c : p) {
      mean[c.class_id] = c.mean_workload;
      max[c.class_id] = c.max_workload;
      order.push_back(c.class_id);
    }
    tuple = std::move(searched);
  }
};

/// What every round must reproduce bit for bit.
struct RoundOutput {
  PlanTally tally;
  double plan_joules = 0.0;  ///< Σ over batches of the plan's modeled J
  std::size_t transitions = 0;
  bool degraded = false;

  bool operator==(const RoundOutput&) const = default;
};

/// Host times of one traced round.
struct LayerTimes {
  double end_batch_us = 0, actuate_us = 0;
  double cc_build_us = 0, search_us = 0, carve_us = 0;
  std::size_t replay_mismatches = 0;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

void run_plan_churn(const Args& args, Result& out) {
  const auto ladder = make_ladder();
  const auto model = make_power_model();
  core::ControllerOptions copt;
  copt.adjuster.search = core::SearchKind::kPruned;
  const double margin = copt.adjuster.time_margin;

  Inputs in;
  std::optional<RoundOutput> reference;
  std::vector<double> untraced_pps, traced_pps, traced_plan_us;
  std::vector<LayerTimes> layer_rounds;

  const double setup_s = run_rounds(
      args.seconds, args.trace, 3,
      [&] { in = make_inputs(args.seed); },
      [&](Pass pass) {
    const bool traced = pass == Pass::kTraced;
    core::EewaController ctrl(ladder, kCores, copt);
    dvfs::TraceBackend backend(ladder, kCores);
    std::vector<std::size_t> ids;
    for (const auto& n : in.names) ids.push_back(ctrl.class_id(n));

    RoundOutput r;
    LayerTimes lt;
    Basis basis;
    double busy_s = 0.0;
    double plan_j = 0.0;  // modeled joules of the plan in force
    std::vector<double> plan_us;
    plan_us.reserve(kBatches);

    for (std::size_t b = 0; b < kBatches; ++b) {
      const double* w = &in.work[b * in.tasks_per_batch];
      const auto t0 = Clock::now();
      ctrl.begin_batch();
      for (std::size_t i = 0; i < kClasses; ++i) {
        // Tasks ran at their class's planned rung; record what that
        // execution time would have been.
        const auto& plan = ctrl.plan();
        const std::size_t rung =
            plan.layout.group(ctrl.group_of_class(ids[i])).freq_index;
        const double slowdown = ladder.slowdown(rung);
        for (std::size_t t = 0; t < in.counts[i]; ++t, ++w) {
          ctrl.record_task(ids[i], *w * slowdown, rung);
        }
      }
      const auto t1 = Clock::now();
      ctrl.end_batch(in.ideal_s);
      const auto t2 = Clock::now();
      ctrl.apply_supervised(backend);
      const auto t3 = Clock::now();
      busy_s += std::chrono::duration<double>(t3 - t0).count();
      plan_us.push_back(us_between(t1, t3));

      // Bookkeeping and checks, outside the timed span.
      const auto kind = r.tally.note(ctrl, &model);
      const bool searched = kind == PlanTally::Kind::kFull ||
                            kind == PlanTally::Kind::kIncremental;
      const auto& adj = ctrl.last_adjustment();
      const bool ok = kind != PlanTally::Kind::kGated &&
                      (!searched || (adj.search.found &&
                                     core::tuple_is_valid(
                                         adj.cc, adj.search.tuple, kCores)));
      if (pass != Pass::kWarmup) out.operation(1, ok);
      if (searched && ok) {
        plan_j = core::tuple_energy_estimate(adj.cc, adj.search.tuple, kCores,
                                             &model) *
                 adj.cc.ideal_time_s();
      }
      r.plan_joules += plan_j;
      if (!traced) continue;

      lt.end_batch_us += us_between(t1, t2);
      lt.actuate_us += us_between(t2, t3);
      if (!searched) continue;
      // Replay the searched plan's stages from the same profile.
      const auto profile = ctrl.registry().iteration_profile();
      const std::size_t keep =
          kind == PlanTally::Kind::kIncremental
              ? basis.stable_prefix(profile, copt.plan_reuse_tolerance)
              : 0;
      const auto s0 = Clock::now();
      const auto cc = core::CCTable::build(profile, ladder,
                                           ctrl.ideal_time_s() * (1 - margin));
      const auto s1 = Clock::now();
      const auto sr =
          keep > 0 ? core::search_suffix(
                         cc, kCores, core::SearchKind::kPruned,
                         {basis.tuple.begin(),
                          basis.tuple.begin() +
                              static_cast<std::ptrdiff_t>(keep)})
                   : core::search_pruned(cc, kCores);
      const auto s2 = Clock::now();
      const auto plan = core::make_frequency_plan(
          cc, sr, kCores, ladder, ctrl.registry().class_count(),
          copt.adjuster.leftover);
      const core::PreferenceTable prefs(plan.layout);
      const auto s3 = Clock::now();
      lt.cc_build_us += us_between(s0, s1);
      lt.search_us += us_between(s1, s2);
      lt.carve_us += us_between(s2, s3);
      if (sr.tuple != adj.search.tuple || plan.tuple != ctrl.plan().tuple ||
          prefs.group_count() != ctrl.preferences().group_count()) {
        ++lt.replay_mismatches;
      }
      basis.save(profile, sr.tuple, ctrl.registry().class_count());
    }
    r.transitions = backend.transition_count();
    r.degraded = ctrl.degraded() || ctrl.health().degradations > 0;

    const bool same = !reference || r == *reference;
    out.check(same, "planner outputs differ between rounds of one seed" +
                        std::string(traced ? " (traced vs untraced)" : ""));
    out.check(r.tally.invalid == 0 && r.tally.gated == 0,
              "a plan was not found, failed tuple_is_valid, or was gated");
    out.check(!r.degraded, "the controller degraded");
    if (!reference) reference = r;
    if (pass == Pass::kWarmup) return;
    (traced ? traced_pps : untraced_pps).push_back(kBatches / busy_s);
    if (traced) {
      out.check(lt.replay_mismatches == 0,
                "replayed stages did not reproduce the controller's tuple");
      layer_rounds.push_back(lt);
      traced_plan_us.insert(traced_plan_us.end(), plan_us.begin(),
                            plan_us.end());
    }
  });

  const RoundOutput& r = *reference;
  const double pps = round_rate(untraced_pps);
  const double tasks = static_cast<double>(kBatches * in.tasks_per_batch);
  out.set("setup_s", setup_s);
  out.set("tasks_per_s", pps * static_cast<double>(in.tasks_per_batch));
  out.set("plans_per_s", pps);
  out.set("energy_per_task_mj", r.plan_joules / tasks * 1e3);
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf(
      "plan-churn: %zu plans/round (%zu full, %zu incremental, %zu reused), "
      "%zu tasks/batch; %.1f plans/s over %zu untraced rounds\n",
      kBatches, r.tally.full, r.tally.incremental, r.tally.reused,
      in.tasks_per_batch, pps, untraced_pps.size());
  if (!args.trace) return;

  auto med = [&](double LayerTimes::*field, std::size_t per) {
    std::vector<double> v;
    for (const auto& lt : layer_rounds) v.push_back(lt.*field);
    return per > 0 ? median(v) / static_cast<double>(per) : 0.0;
  };
  const std::size_t searched = r.tally.searched();
  out.set("core.cc_build_us", med(&LayerTimes::cc_build_us, searched));
  out.set("core.search_us", med(&LayerTimes::search_us, searched));
  out.set("core.carve_us", med(&LayerTimes::carve_us, searched));
  out.set("core.end_batch_us", med(&LayerTimes::end_batch_us, kBatches));
  out.set("dvfs.actuate_us", med(&LayerTimes::actuate_us, kBatches));
  out.set("core.plan_tail_us",
          percentile(traced_plan_us, tail_rank(traced_plan_us.size())));
  out.set("core.search_nodes", static_cast<double>(r.tally.search_nodes));
  out.set("core.plans_full", static_cast<double>(r.tally.full));
  out.set("core.plans_incremental", static_cast<double>(r.tally.incremental));
  out.set("core.plans_reused", static_cast<double>(r.tally.reused));
  out.set("core.plan_energy_ratio", r.tally.energy_ratio());
  out.set("dvfs.transitions", static_cast<double>(r.transitions));
  out.set("bench.trace_overhead", trace_overhead(untraced_pps, traced_pps));
}

}  // namespace perfbench
