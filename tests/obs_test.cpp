// Tests for the observability layer: metrics counters and batch
// aggregation, the event tracer (gating, ring overflow, exports), the
// bundled JSON parser, and end-to-end trace validation against both the
// real runtime and the simulator (span nesting, steal/DVFS events,
// counter reconciliation with tasks executed).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/actuation.hpp"
#include "core/frequency_plan.hpp"
#include "obs/json_lite.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "sim/simulate.hpp"
#include "trace/task_trace.hpp"

namespace eewa::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, ExecBucketsAreLog2Microseconds) {
  EXPECT_EQ(exec_bucket(0.0), 0u);
  EXPECT_EQ(exec_bucket(0.5e-6), 0u);
  EXPECT_EQ(exec_bucket(1.5e-6), 0u);   // [1, 2) us
  EXPECT_EQ(exec_bucket(3e-6), 1u);     // [2, 4) us
  EXPECT_EQ(exec_bucket(1000e-6), 9u);  // [512, 1024) us
  EXPECT_EQ(exec_bucket(1e9), kExecBuckets - 1);  // clamped
  EXPECT_DOUBLE_EQ(exec_bucket_lo_s(0), 0.0);
  EXPECT_DOUBLE_EQ(exec_bucket_lo_s(3), 8e-6);
}

TEST(Metrics, ClassExecStatsObserveAndMerge) {
  ClassExecStats a;
  a.observe(1e-3, false);
  a.observe(3e-3, true);
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_DOUBLE_EQ(a.min_s, 1e-3);
  EXPECT_DOUBLE_EQ(a.max_s, 3e-3);
  ClassExecStats b;
  b.observe(0.5e-3, false);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.min_s, 0.5e-3);
  ClassExecStats empty;
  a.merge(empty);  // merging an empty class is a no-op
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.min_s, 0.5e-3);
}

TEST(Metrics, RegistryAggregatesWorkersIntoBatchReport) {
  MetricsRegistry reg(2);
  reg.begin_batch(2);
  WorkerCounters& w0 = reg.worker(0);
  w0.tasks = 3;
  w0.pops[0] = 2;
  w0.steals[0] = 1;
  w0.cls(0).observe(1e-3, false);
  WorkerCounters& w1 = reg.worker(1);
  w1.tasks = 2;
  w1.pops[1] = 1;
  w1.robs[0] = 1;
  w1.spawns = 4;
  w1.cls(2).observe(2e-3, true);
  const BatchReport& r = reg.finalize_batch();
  EXPECT_EQ(r.tasks, 5u);
  EXPECT_EQ(r.spawns, 4u);
  EXPECT_EQ(r.pops, 3u);
  EXPECT_EQ(r.local_steals, 1u);
  EXPECT_EQ(r.cross_robs, 1u);
  EXPECT_EQ(r.acquires(), 5u);
  EXPECT_EQ(r.acquires(), r.tasks);  // the reconciliation invariant
  ASSERT_EQ(r.classes.size(), 3u);
  EXPECT_EQ(r.classes[2].failed, 1u);
  // A second batch resets the counters.
  reg.begin_batch(1);
  EXPECT_EQ(reg.worker(0).tasks, 0u);
  reg.finalize_batch();
  ASSERT_EQ(reg.reports().size(), 2u);
  EXPECT_EQ(reg.reports()[1].tasks, 0u);
  const BatchReport totals = reg.totals();
  EXPECT_EQ(totals.tasks, 5u);
  EXPECT_FALSE(totals.to_string({"alpha", "beta", "gamma"}).empty());
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, DisabledTracerRecordsNothing) {
  EventTracer t(2, 16);
  t.set_enabled(false);
  t.task(0, 1.0, 2.0, 0, 0, false);
  t.steal(1, 3.0, 0, 1, true);
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_FALSE(t.enabled());
}

TEST(Tracer, CompileTimeGateMatchesMacro) {
  EventTracer t(1, 4);
  EXPECT_EQ(t.enabled(), EventTracer::kCompiledIn);
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  if (!EventTracer::kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  EventTracer t(1, 4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    t.rung(0, static_cast<double>(i), i, 0);
  }
  EXPECT_EQ(t.event_count(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto evs = t.events(0);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_DOUBLE_EQ(evs.front().ts_us, 6.0);  // oldest survivor
  EXPECT_DOUBLE_EQ(evs.back().ts_us, 9.0);
}

TEST(Tracer, ChromeJsonIsValidAndCarriesEvents) {
  if (!EventTracer::kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  EventTracer t(2, 64);
  t.set_track_name(0, "worker \"0\"");  // exercise escaping
  t.set_class_names({"md5_block"});
  t.task(0, 10.0, 5.0, 0, 2, false);
  t.steal(0, 20.0, 1, 3, /*cross_group=*/true);
  t.rung(1, 30.0, 1, 4);
  t.phase(1, 0.0, 100.0, PhaseKind::kBatch, 7);
  const std::string json = t.chrome_json();
  const JsonValue doc = parse_json(json);
  ASSERT_TRUE(doc.is_object());
  const JsonValue& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is_array());
  // 2 thread_name metadata + 4 events.
  EXPECT_EQ(evs.array.size(), 6u);
  bool saw_meta = false, saw_task = false, saw_rob = false, saw_rung = false;
  for (const auto& ev : evs.array) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      saw_meta = true;
      continue;
    }
    ASSERT_TRUE(ev.at("ts").is_number());
    const JsonValue* cat = ev.find("cat");
    ASSERT_NE(cat, nullptr);
    if (cat->str == "task") {
      saw_task = true;
      EXPECT_EQ(ev.at("ph").str, "X");
      EXPECT_EQ(ev.at("name").str, "md5_block");
      EXPECT_DOUBLE_EQ(ev.at("dur").number, 5.0);
    } else if (cat->str == "rob") {
      saw_rob = true;
      EXPECT_EQ(ev.at("ph").str, "i");
      EXPECT_DOUBLE_EQ(ev.at("args").at("victim").number, 3.0);
    } else if (cat->str == "rung") {
      saw_rung = true;
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_rob);
  EXPECT_TRUE(saw_rung);
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped").number, 0.0);
}

TEST(Tracer, CsvHasHeaderAndOneRowPerEvent) {
  if (!EventTracer::kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  EventTracer t(1, 16);
  t.task(0, 1.0, 2.0, 0, 0, false);
  t.rung(0, 3.0, 0, 1);
  const std::string csv = t.csv();
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_EQ(csv.rfind("track,ts_us,dur_us,kind,a,b,c", 0), 0u);
}

// --------------------------------------------------------------- json_lite

TEST(JsonLite, ParsesScalarsContainersAndEscapes) {
  const JsonValue v = parse_json(
      R"({"a": [1, -2.5e1, true, null], "s": "x\nA\"", "o": {}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue& a = v.at("a");
  ASSERT_EQ(a.array.size(), 4u);
  EXPECT_DOUBLE_EQ(a.array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a.array[1].number, -25.0);
  EXPECT_TRUE(a.array[2].boolean);
  EXPECT_TRUE(a.array[3].is_null());
  EXPECT_EQ(v.at("s").str, "x\nA\"");
  EXPECT_TRUE(v.at("o").object.empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), std::out_of_range);
}

TEST(JsonLite, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonParseError);
  EXPECT_THROW(parse_json("{"), JsonParseError);
  EXPECT_THROW(parse_json("[1,]"), JsonParseError);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonParseError);
  EXPECT_THROW(parse_json("tru"), JsonParseError);
}

// ------------------------------------------------- runtime integration

// Spans on one track must not overlap (each worker runs tasks serially);
// allow a microsecond of clock-rounding slack.
void expect_no_overlap(const std::vector<TraceEvent>& evs) {
  double prev_end = -1e18;
  for (const auto& ev : evs) {
    if (ev.kind != EventKind::kTask || ev.dur_us < 0.0) continue;
    EXPECT_GE(ev.ts_us, prev_end - 1.0);
    prev_end = std::max(prev_end, ev.ts_us + ev.dur_us);
  }
}

// Every span of kind `inner` must nest inside some span of kind `outer`.
void expect_nested(const std::vector<TraceEvent>& evs, PhaseKind inner,
                   PhaseKind outer) {
  for (const auto& ev : evs) {
    if (ev.kind != EventKind::kPhase ||
        ev.a != static_cast<std::uint32_t>(inner)) {
      continue;
    }
    bool contained = false;
    for (const auto& out : evs) {
      if (out.kind != EventKind::kPhase ||
          out.a != static_cast<std::uint32_t>(outer) || out.dur_us < 0.0) {
        continue;
      }
      if (ev.ts_us >= out.ts_us - 1.0 &&
          ev.ts_us + std::max(ev.dur_us, 0.0) <=
              out.ts_us + out.dur_us + 1.0) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "phase " << static_cast<int>(inner)
                           << " span at ts=" << ev.ts_us
                           << " not nested in phase "
                           << static_cast<int>(outer);
  }
}

TEST(RuntimeObservability, ReportReconcilesAndTraceValidates) {
  constexpr std::size_t kWorkers = 2;
  EventTracer tracer(kWorkers + 1, 1 << 16);
  rt::RuntimeOptions opt;
  opt.workers = kWorkers;
  opt.kind = rt::SchedulerKind::kEewa;
  opt.tracer = &tracer;
  rt::Runtime runtime(opt);

  // Batch 1: one parent floods its own deque with spawned children.
  // Each child *sleeps* (yielding the CPU), so even on a single
  // time-sliced CPU the other worker runs against a non-empty deque and
  // must steal; plus plain tasks for both workers.
  std::atomic<int> counter{0};
  std::vector<rt::TaskDesc> tasks;
  rt::Runtime* rtp = &runtime;
  tasks.push_back(rt::TaskDesc{"parent", [rtp, &counter] {
                                 for (int i = 0; i < 100; ++i) {
                                   rtp->spawn("child", [&counter] {
                                     std::this_thread::sleep_for(
                                         std::chrono::microseconds(100));
                                     counter.fetch_add(1);
                                   });
                                 }
                               }});
  for (int i = 0; i < 7; ++i) {
    tasks.push_back(
        rt::TaskDesc{"plain", [&counter] { counter.fetch_add(1); }});
  }
  runtime.run_batch(std::move(tasks));
  EXPECT_EQ(counter.load(), 107);

  const BatchReport& r1 = runtime.last_batch_report();
  EXPECT_EQ(r1.tasks, 108u);  // 8 batch tasks + 100 spawned
  EXPECT_EQ(r1.spawns, 100u);
  // Reconciliation: every executed task was acquired exactly once.
  EXPECT_EQ(r1.acquires(), r1.tasks);
  EXPECT_GT(r1.local_steals + r1.cross_robs, 0u)
      << "the flooded deque must have been stolen from";

  // Batch 2 (planned, post-measurement): invariant must survive a
  // multi-group plan and cross-group robbing too.
  std::vector<rt::TaskDesc> batch2;
  for (int i = 0; i < 64; ++i) {
    batch2.push_back(rt::TaskDesc{"plain", [&counter] {
                                    volatile unsigned x = 0;
                                    for (unsigned k = 0; k < 5000; ++k) {
                                      x = x + k;
                                    }
                                    (void)x;
                                    counter.fetch_add(1);
                                  }});
  }
  runtime.run_batch(std::move(batch2));
  const BatchReport& r2 = runtime.last_batch_report();
  EXPECT_EQ(r2.tasks, 64u);
  EXPECT_EQ(r2.acquires(), r2.tasks);
  ASSERT_EQ(runtime.metrics().reports().size(), 2u);
  EXPECT_EQ(runtime.metrics().totals().tasks, 172u);

  if (!EventTracer::kCompiledIn) return;

  // Trace contents: task spans on worker tracks, steal + rung events,
  // controller phases on the control track.
  std::size_t task_spans = 0;
  bool saw_steal = false;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const auto evs = tracer.events(w);
    expect_no_overlap(evs);
    for (const auto& ev : evs) {
      task_spans += ev.kind == EventKind::kTask;
      saw_steal = saw_steal || ev.kind == EventKind::kSteal ||
                  ev.kind == EventKind::kRob;
    }
  }
  EXPECT_EQ(task_spans, 172u);
  EXPECT_TRUE(saw_steal);

  const auto control = tracer.events(kWorkers);
  bool saw_rung = false, saw_prepare = false, saw_profile = false;
  for (const auto& ev : control) {
    saw_rung = saw_rung || ev.kind == EventKind::kRung;
    if (ev.kind == EventKind::kPhase) {
      saw_prepare = saw_prepare ||
                    ev.a == static_cast<std::uint32_t>(PhaseKind::kPrepare);
      saw_profile = saw_profile ||
                    ev.a == static_cast<std::uint32_t>(PhaseKind::kProfile);
    }
  }
  EXPECT_TRUE(saw_rung) << "per-batch DVFS rung snapshots missing";
  EXPECT_TRUE(saw_prepare);
  EXPECT_TRUE(saw_profile);
  // Nesting: actuation happens inside prepare_batch, the k-tuple search
  // inside the planning pipeline.
  expect_nested(control, PhaseKind::kActuate, PhaseKind::kPrepare);
  expect_nested(control, PhaseKind::kSearch, PhaseKind::kPlan);

  // And the export round-trips through the JSON parser.
  const JsonValue doc = parse_json(tracer.chrome_json());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_GT(doc.at("traceEvents").array.size(), 172u);
}

TEST(RuntimeObservability, TracerNeedsWorkerPlusControlTracks) {
  EventTracer tracer(2);  // too few for 2 workers + control
  rt::RuntimeOptions opt;
  opt.workers = 2;
  opt.kind = rt::SchedulerKind::kCilk;
  opt.tracer = &tracer;
  EXPECT_THROW(rt::Runtime runtime(opt), std::invalid_argument);
}

// ------------------------------------------------------ sim integration

trace::TaskTrace tiny_trace(std::size_t batches, std::size_t tasks) {
  trace::TaskTrace tt;
  tt.name = "tiny";
  tt.class_names = {"a", "b"};
  for (std::size_t b = 0; b < batches; ++b) {
    trace::Batch batch;
    for (std::size_t i = 0; i < tasks; ++i) {
      batch.tasks.push_back(
          trace::TraceTask{i % 2, 1e-3 * static_cast<double>(1 + i % 3),
                           0.0, 0.0});
    }
    tt.batches.push_back(std::move(batch));
  }
  return tt;
}

TEST(SimObservability, MachineEmitsSimTimeTrace) {
  if (!EventTracer::kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const auto tt = tiny_trace(3, 24);
  sim::SimOptions opt;
  opt.cores = 4;
  opt.fixed_adjuster_overhead_s = 10e-6;
  EventTracer tracer(opt.cores + 1, 1 << 16);
  opt.tracer = &tracer;
  sim::EewaPolicy policy(tt.class_names);
  const auto res = sim::simulate(tt, policy, opt);

  // One task span per executed task, timestamped in simulated time.
  std::size_t task_spans = 0;
  for (std::size_t c = 0; c < opt.cores; ++c) {
    const auto evs = tracer.events(c);
    expect_no_overlap(evs);
    for (const auto& ev : evs) {
      if (ev.kind == EventKind::kTask) {
        ++task_spans;
        EXPECT_LE(ev.ts_us + ev.dur_us, res.time_s * 1e6 + 1.0);
      }
    }
  }
  EXPECT_EQ(task_spans, 3u * 24u);

  // Control track: one batch span per batch, plan spans nested inside.
  const auto control = tracer.events(opt.cores);
  std::size_t batch_spans = 0;
  for (const auto& ev : control) {
    batch_spans += ev.kind == EventKind::kPhase &&
                   ev.a == static_cast<std::uint32_t>(PhaseKind::kBatch);
  }
  EXPECT_EQ(batch_spans, 3u);
  expect_nested(control, PhaseKind::kPlan, PhaseKind::kBatch);

  const JsonValue doc = parse_json(tracer.chrome_json());
  EXPECT_TRUE(doc.at("traceEvents").is_array());

  // A disabled tracer on the same run records nothing.
  EventTracer off(opt.cores + 1);
  off.set_enabled(false);
  sim::SimOptions opt2 = opt;
  opt2.tracer = &off;
  sim::EewaPolicy policy2(tt.class_names);
  sim::simulate(tt, policy2, opt2);
  EXPECT_EQ(off.event_count(), 0u);
}

// ------------------------------------ distribution fallback (bug fix)

TEST(DistributionTarget, FallsBackWhenGroupHasNoWorkers) {
  std::vector<std::vector<std::size_t>> gw = {{0, 1}, {}, {2}};
  std::vector<std::size_t> rr(gw.size(), 0);
  // Group 1 is empty: tasks reroute to the fastest non-empty group,
  // round-robin across its workers.
  EXPECT_EQ(rt::distribution_target(gw, rr, 1),
            (std::pair<std::size_t, std::size_t>{0, 0}));
  EXPECT_EQ(rt::distribution_target(gw, rr, 1),
            (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(rt::distribution_target(gw, rr, 2),
            (std::pair<std::size_t, std::size_t>{2, 2}));
  // Out-of-range group ids reroute the same way.
  EXPECT_EQ(rt::distribution_target(gw, rr, 99),
            (std::pair<std::size_t, std::size_t>{0, 0}));
  std::vector<std::vector<std::size_t>> empty = {{}, {}};
  std::vector<std::size_t> rr2(2, 0);
  EXPECT_THROW(rt::distribution_target(empty, rr2, 0), std::logic_error);
}

TEST(DistributionTarget, ReconciledLayoutWithOrphanGroupStillDistributes) {
  // A 6-core plan whose reconciliation groups cores {4, 5} alone; a
  // 4-worker runtime then sees that group with no workers — the exact
  // shape that used to hit `worker % 0`.
  const auto intended = core::uniform_plan(6, 2);
  const auto plan = core::reconcile_plan(intended, {0, 0, 1, 1, 2, 2});
  ASSERT_EQ(plan.layout.group_count(), 3u);
  constexpr std::size_t kWorkers = 4;
  std::vector<std::vector<std::size_t>> gw(plan.layout.group_count());
  for (std::size_t g = 0; g < plan.layout.group_count(); ++g) {
    for (std::size_t c : plan.layout.group(g).cores) {
      if (c < kWorkers) gw[g].push_back(c);
    }
  }
  ASSERT_TRUE(gw[2].empty());
  std::vector<std::size_t> rr(gw.size(), 0);
  for (int i = 0; i < 8; ++i) {
    const auto [g, w] = rt::distribution_target(gw, rr, 2);
    EXPECT_EQ(g, 0u);
    EXPECT_LT(w, kWorkers);
  }
}

}  // namespace
}  // namespace eewa::obs
