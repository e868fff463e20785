// Tests for task traces, the synthetic generators and the open-loop
// arrival stream (bit pins, drain_until forms, spec validation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "trace/arrivals.hpp"
#include "trace/synthetic.hpp"
#include "trace/task_trace.hpp"
#include "util/rng.hpp"

namespace eewa::trace {
namespace {

TEST(TaskTrace, AggregatesCounts) {
  TaskTrace t;
  t.name = "x";
  t.class_names = {"a", "b"};
  t.batches.resize(2);
  t.batches[0].tasks = {{0, 1.0, 0, 0}, {1, 2.0, 0, 0}};
  t.batches[1].tasks = {{0, 0.5, 0, 0}};
  EXPECT_EQ(t.task_count(), 3u);
  EXPECT_DOUBLE_EQ(t.total_work_s(), 3.5);
  EXPECT_DOUBLE_EQ(t.batches[0].total_work_s(), 3.0);
  EXPECT_NO_THROW(t.validate());
}

TEST(TaskTrace, ValidationCatchesBadTasks) {
  TaskTrace t;
  t.class_names = {"a"};
  t.batches.resize(1);
  t.batches[0].tasks = {{5, 1.0, 0, 0}};  // class id out of range
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.batches[0].tasks = {{0, 0.0, 0, 0}};  // non-positive work
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.batches[0].tasks = {{0, 1.0, 0, 1.5}};  // mem_alpha out of range
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.batches[0].tasks = {{0, 1.0, -0.5, 0}};  // negative cmi
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

/// A one-task trace whose task is `task`.
TaskTrace one_task_trace(TraceTask task) {
  TaskTrace t;
  t.class_names = {"a"};
  t.batches.resize(1);
  t.batches[0].tasks = {task};
  return t;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TaskTraceValidation, RejectsInfiniteWork) {
  EXPECT_THROW(one_task_trace({0, kInf, 0, 0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(one_task_trace({0, kNan, 0, 0}).validate(),
               std::invalid_argument);
}

TEST(TaskTraceValidation, RejectsNaNMemAlpha) {
  EXPECT_THROW(one_task_trace({0, 1.0, 0, kNan}).validate(),
               std::invalid_argument);
}

TEST(TaskTraceValidation, RejectsNonFiniteCmi) {
  EXPECT_THROW(one_task_trace({0, 1.0, kNan, 0}).validate(),
               std::invalid_argument);
  EXPECT_THROW(one_task_trace({0, 1.0, kInf, 0}).validate(),
               std::invalid_argument);
}

TEST(TaskTraceValidation, RejectsNonFiniteRelease) {
  EXPECT_THROW(one_task_trace({0, 1.0, 0, 0, kNan}).validate(),
               std::invalid_argument);
  EXPECT_THROW(one_task_trace({0, 1.0, 0, 0, kInf}).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(one_task_trace({0, 1.0, 0, 0, 0.5}).validate());
}

TEST(TaskTraceValidation, FromCsvRejectsNaNFields) {
  const std::string header = "batch,class,work_s,cmi,mem_alpha,release_s\n";
  EXPECT_THROW(TaskTrace::from_csv(header + "0,a,1.0,0,nan,0\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(TaskTrace::from_csv(header + "0,a,inf,0,0,0\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(TaskTrace::from_csv(header + "0,a,1.0,nan,0,0\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(TaskTrace::from_csv(header + "0,a,1.0,0,0,nan\n", "x"),
               std::invalid_argument);
  EXPECT_NO_THROW(TaskTrace::from_csv(header + "0,a,1.0,0,0,0\n", "x"));
}

TEST(TaskTrace, CsvHasHeaderAndOneRowPerTask) {
  TaskTrace t;
  t.name = "x";
  t.class_names = {"a"};
  t.batches.resize(1);
  t.batches[0].tasks = {{0, 1.0, 0.1, 0.2}, {0, 2.0, 0, 0}};
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("batch,class,work_s"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Synthetic, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.classes = {{"c", 10, 1.0, 0.3, 0.0, 0.0}};
  spec.batches = 3;
  spec.seed = 99;
  const auto a = generate(spec);
  const auto b = generate(spec);
  ASSERT_EQ(a.task_count(), b.task_count());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    for (std::size_t j = 0; j < a.batches[i].tasks.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.batches[i].tasks[j].work_s,
                       b.batches[i].tasks[j].work_s);
    }
  }
  spec.seed = 100;
  const auto c = generate(spec);
  EXPECT_NE(a.batches[0].tasks[0].work_s, c.batches[0].tasks[0].work_s);
}

TEST(Synthetic, HonorsClassStructure) {
  SyntheticSpec spec;
  spec.classes = {{"big", 4, 2.0, 0.0, 0.01, 0.3},
                  {"small", 8, 0.5, 0.0, 0.0, 0.0}};
  spec.batches = 2;
  spec.batch_jitter_cv = 0.0;
  const auto t = generate(spec);
  EXPECT_EQ(t.class_names.size(), 2u);
  EXPECT_EQ(t.batch_count(), 2u);
  ASSERT_EQ(t.batches[0].tasks.size(), 12u);
  // With zero jitter/cv, works are exact.
  EXPECT_DOUBLE_EQ(t.batches[0].tasks[0].work_s, 2.0);
  EXPECT_DOUBLE_EQ(t.batches[0].tasks[4].work_s, 0.5);
  EXPECT_DOUBLE_EQ(t.batches[0].tasks[0].cmi, 0.01);
  EXPECT_DOUBLE_EQ(t.batches[0].tasks[0].mem_alpha, 0.3);
}

TEST(Synthetic, RejectsEmptySpec) {
  EXPECT_THROW(generate(SyntheticSpec{}), std::invalid_argument);
}

TEST(Synthetic, GeometricClassesSpreadWorkloads) {
  const auto t = geometric_classes(4, 8, 1.0, 8.0, 2, 7, 0.0);
  ASSERT_EQ(t.class_names.size(), 4u);
  // First class ~1.0, last ~1/8 (zero cv, but batch jitter applies; use
  // ratios within one batch which share the jitter... classes jitter
  // independently, so compare loosely).
  const double w0 = t.batches[0].tasks[0].work_s;
  const double w3 = t.batches[0].tasks[3 * 8].work_s;
  EXPECT_GT(w0 / w3, 4.0);
  EXPECT_LT(w0 / w3, 16.0);
}

TEST(Synthetic, BalancedIsNearlyUniform) {
  const auto t = balanced(64, 0.1, 2, 3);
  double lo = 1e9, hi = 0;
  for (const auto& task : t.batches[0].tasks) {
    lo = std::min(lo, task.work_s);
    hi = std::max(hi, task.work_s);
  }
  EXPECT_LT(hi / lo, 1.5);
}

TEST(Synthetic, BimodalHasTwoModes) {
  const auto t = bimodal(4, 1.0, 60, 0.05, 2, 5);
  ASSERT_EQ(t.class_names.size(), 2u);
  EXPECT_EQ(t.batches[0].tasks.size(), 64u);
  EXPECT_GT(t.batches[0].tasks[0].work_s,
            5.0 * t.batches[0].tasks[10].work_s);
}

// ---------------------------------------------------------------------------
// ArrivalStream

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return util::mix64(h ^ v);
}

/// A two-class stream at ~640k arrivals/s over one second.
ArrivalSpec pin_spec(ArrivalKind kind, bool jitter) {
  ArrivalSpec arr;
  arr.name = "pin";
  arr.seed = 11;
  arr.cores = 64;
  arr.load = 1.0;
  arr.duration_s = 1.0;
  arr.kind = kind;
  arr.burst_factor = 3.0;
  arr.burst_period_s = 0.01;
  ArrivalClassSpec light{"light", 1.0, 80e-6, jitter ? 0.3 : 0.0,
                         0.0,     0.0, 1};
  ArrivalClassSpec heavy{"heavy", 0.25, 320e-6, jitter ? 0.2 : 0.0,
                         0.01,    0.1,  1};
  arr.classes = {light, heavy};
  return arr;
}

/// Digest of (class_id, time_s bits, work_s bits) over the first `n`
/// arrivals; also checks that release_s carries the arrival time.
std::uint64_t stream_digest(const ArrivalSpec& spec, std::size_t n) {
  ArrivalStream stream(spec);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = stream.next();
    if (!a) {
      ADD_FAILURE() << "stream ended after " << i << " arrivals";
      return 0;
    }
    EXPECT_EQ(bits_of(a->task.release_s), bits_of(a->time_s));
    h = fold(h, a->task.class_id);
    h = fold(h, bits_of(a->time_s));
    h = fold(h, bits_of(a->task.work_s));
  }
  return h;
}

// Bit pins captured before the per-class lognormal parameters were
// cached: the cached path must draw the same variates in the same order.
TEST(ArrivalStream, DigestPinnedOnFirst100kArrivals) {
  constexpr std::size_t kN = 100000;
  EXPECT_EQ(stream_digest(pin_spec(ArrivalKind::kSteady, true), kN),
            0x478f3c9d401a89a7ull);
  EXPECT_EQ(stream_digest(pin_spec(ArrivalKind::kSteady, false), kN),
            0x7599b16ded84258bull);
  EXPECT_EQ(stream_digest(pin_spec(ArrivalKind::kBursty, true), kN),
            0xe04836d8e003b00dull);
  EXPECT_EQ(stream_digest(pin_spec(ArrivalKind::kBursty, false), kN),
            0x831b19ac49ae38bdull);
}

void expect_same(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits_of(a[i].time_s), bits_of(b[i].time_s)) << i;
    ASSERT_EQ(a[i].task.class_id, b[i].task.class_id) << i;
    ASSERT_EQ(bits_of(a[i].task.work_s), bits_of(b[i].task.work_s)) << i;
    ASSERT_EQ(bits_of(a[i].task.release_s), bits_of(b[i].task.release_s))
        << i;
  }
}

std::vector<Arrival> all_via_next(const ArrivalSpec& spec) {
  ArrivalStream stream(spec);
  std::vector<Arrival> out;
  while (auto a = stream.next()) out.push_back(*a);
  return out;
}

TEST(ArrivalStream, CallableDrainMatchesVectorDrain) {
  auto spec = pin_spec(ArrivalKind::kBursty, true);
  spec.duration_s = 0.05;
  ArrivalStream a(spec), b(spec);
  std::vector<Arrival> via_vector, via_callable;
  std::size_t n_vector = 0, n_callable = 0;
  for (int e = 1; e <= 6; ++e) {
    const double until = 0.01 * e;
    const bool last = e == 6;
    n_vector += a.drain_until(until, last, via_vector);
    n_callable += b.drain_until(until, last, [&](const Arrival& x) {
      EXPECT_TRUE(last || x.time_s < until);
      via_callable.push_back(x);
    });
  }
  EXPECT_EQ(n_vector, via_vector.size());
  EXPECT_EQ(n_callable, via_callable.size());
  EXPECT_GT(via_vector.size(), 0u);
  expect_same(via_vector, via_callable);
  expect_same(via_vector, all_via_next(spec));
}

TEST(ArrivalStream, CallableDrainInterleavesWithNext) {
  // Alternate next() calls (which must hand back the peeked boundary
  // arrival first) with callable drains of short windows; the merged
  // sequence is exactly the next()-only one.
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.duration_s = 0.02;
  ArrivalStream stream(spec);
  std::vector<Arrival> merged;
  double until = 0.0;
  for (int round = 0;; ++round) {
    until += 0.001;
    const bool last = until >= spec.duration_s;
    const std::size_t n = stream.drain_until(
        until, last, [&](const Arrival& x) { merged.push_back(x); });
    if (last) break;
    if (round % 2 == 0) {
      ASSERT_GT(n, 0u) << "premise: each window holds arrivals";
      auto a = stream.next();  // the boundary arrival, then fresh ones
      ASSERT_TRUE(a.has_value());
      EXPECT_GE(a->time_s, until);
      merged.push_back(*a);
      if (auto b = stream.next()) merged.push_back(*b);
      until = merged.back().time_s;
    }
  }
  EXPECT_FALSE(stream.next().has_value());
  expect_same(merged, all_via_next(spec));
}

TEST(ArrivalStream, ZeroLoadOrWorkIsAnEmptyStream) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.load = 0.0;
  EXPECT_FALSE(ArrivalStream(spec).next().has_value());
  spec = pin_spec(ArrivalKind::kBursty, true);
  for (auto& c : spec.classes) c.mean_work_s = 0.0;
  ArrivalStream stream(spec);
  EXPECT_EQ(stream.drain_until(1.0, true, [](const Arrival&) {}), 0u);
}

// One test per rejected spec: a non-finite field must not hang the
// stream (a NaN arrival time never reaches duration_s), and an
// out-of-range field must not silently produce nonsense traffic.
void expect_rejected(const ArrivalSpec& spec) {
  EXPECT_THROW(ArrivalStream{spec}, std::invalid_argument);
  EXPECT_THROW(generate_arrivals(spec), std::invalid_argument);
}

TEST(ArrivalStreamValidation, RejectsNonFiniteLoad) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.load = kNan;
  expect_rejected(spec);
  spec.load = kInf;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNonFiniteDuration) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.duration_s = kInf;
  expect_rejected(spec);
  spec.duration_s = kNan;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNonFiniteBurstFields) {
  auto spec = pin_spec(ArrivalKind::kBursty, true);
  spec.burst_factor = kNan;
  expect_rejected(spec);
  spec = pin_spec(ArrivalKind::kBursty, true);
  spec.burst_period_s = kInf;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNonFiniteClassFields) {
  for (int field = 0; field < 5; ++field) {
    auto spec = pin_spec(ArrivalKind::kSteady, true);
    auto& c = spec.classes[1];
    double* const fields[] = {&c.weight, &c.mean_work_s, &c.cv, &c.cmi,
                              &c.mem_alpha};
    *fields[field] = field % 2 ? kNan : -kInf;
    SCOPED_TRACE(field);
    expect_rejected(spec);
  }
}

TEST(ArrivalStreamValidation, RejectsNegativeLoad) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.load = -0.5;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNegativeDuration) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.duration_s = -1.0;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNegativeMeanWork) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.classes[0].mean_work_s = -1e-4;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNegativeCv) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.classes[0].cv = -0.1;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsNegativeCmi) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.classes[1].cmi = -0.01;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsMemAlphaOutsideUnitInterval) {
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.classes[1].mem_alpha = -0.1;
  expect_rejected(spec);
  spec.classes[1].mem_alpha = 1.5;
  expect_rejected(spec);
  spec.classes[1].mem_alpha = 1.0;  // the closed bounds are legal
  EXPECT_NO_THROW(ArrivalStream{spec});
  spec.classes[1].mem_alpha = 0.0;
  EXPECT_NO_THROW(ArrivalStream{spec});
}

TEST(ArrivalStreamValidation, RejectsNonPositiveBurstPeriod) {
  auto spec = pin_spec(ArrivalKind::kBursty, true);
  spec.burst_period_s = 0.0;
  expect_rejected(spec);
  spec.burst_period_s = -0.1;
  expect_rejected(spec);
}

TEST(ArrivalStreamValidation, RejectsBurstFactorBelowOne) {
  auto spec = pin_spec(ArrivalKind::kBursty, true);
  spec.burst_factor = 0.5;
  expect_rejected(spec);
  spec.burst_factor = 1.0;  // a flat "burst" is legal
  EXPECT_NO_THROW(ArrivalStream{spec});
}

TEST(ArrivalStreamValidation, SteadyIgnoresBurstRanges) {
  // The burst knobs only shape kBursty streams; a steady spec may leave
  // them at any finite value.
  auto spec = pin_spec(ArrivalKind::kSteady, true);
  spec.burst_factor = 0.5;
  spec.burst_period_s = 0.0;
  EXPECT_NO_THROW(ArrivalStream{spec});
}

}  // namespace
}  // namespace eewa::trace
