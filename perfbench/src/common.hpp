// Shared plumbing of the benchmark program: arguments, the round loop,
// order statistics, and the result record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One workload run's outcome: metric values plus the output checks.
/// Names and units are defined in BENCHMARK.json; run.py attaches the
/// units and checks that every end-to-end metric is present. A failed
/// check marks the run incorrect; main() then prints the record and exits
/// nonzero.
class Result {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Record an output check; `what` describes the violated property.
  void check(bool ok, const std::string& what);
  /// Count one checked operation of `units` work units (tasks or plans);
  /// `ok` false counts them as failed.
  void operation(std::uint64_t units, bool ok);

  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  /// The final JSON line: correct, attempted, failed and every metric set,
  /// as {"name": value}. A non-finite value marks the run incorrect.
  std::string json();

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Linear-interpolated percentile of an unsorted sample, p in [0, 100];
/// 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return eewa::util::percentile_sorted(v, p / 100.0);
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// The highest percentile of {50, 90, 95, 99, 99.5, 99.9} that leaves at
/// least ten of `n` samples beyond it (50 when n is too small).
double tail_rank(std::size_t n);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// The host-time rate estimator of every throughput metric: the 90th
/// percentile of per-round rates. Rounds repeat identical work, so the
/// spread between them is host interference; the upper decile reports
/// what the code does when the host lets it run.
inline double round_rate(std::vector<double> per_round) {
  return percentile(std::move(per_round), 90.0);
}

/// What a call of a workload's round function is for. A warm-up round is
/// checked like any other but adds no sample and no attempted operation.
enum class Pass { kWarmup, kUntraced, kTraced };

/// Set-ups per run; `setup_s` is their median.
constexpr std::size_t kSetupReps = 9;

/// Drive one workload run and return its set-up time.
///
/// `setup()` builds the workload's inputs (it must rebuild identical
/// inputs on every call). It runs kSetupReps times: once before
/// anything else, then at evenly spaced points of the timed window, so
/// set-up is sampled across the run rather than in one burst; the
/// median of those times is returned. `round(pass)` runs once as the
/// warm-up, then back to back until `seconds` of round time have passed
/// and at least `min_rounds` of each kind ran. With `trace` set, rounds
/// alternate untraced and traced, so both kinds see the same host
/// conditions; otherwise every round is untraced.
template <typename Setup, typename Round>
double run_rounds(double seconds, bool trace, std::size_t min_rounds,
                  Setup&& setup, Round&& round) {
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    setup();
    setup_s.push_back(seconds_since(t0));
  };
  timed_setup();
  round(Pass::kWarmup);
  std::size_t done[2] = {0, 0};
  double elapsed = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (setup_s.size() < kSetupReps &&
        elapsed >= seconds * static_cast<double>(setup_s.size()) /
                       static_cast<double>(kSetupReps)) {
      timed_setup();
    }
    const bool traced = trace && i % 2 == 1;
    const auto t0 = Clock::now();
    round(traced ? Pass::kTraced : Pass::kUntraced);
    elapsed += seconds_since(t0);
    ++done[traced ? 1 : 0];
    const bool enough = done[0] >= min_rounds &&
                        (!trace || done[1] >= min_rounds) &&
                        setup_s.size() == kSetupReps;
    if (enough && elapsed >= seconds) break;
  }
  return median(std::move(setup_s));
}

/// Traced over untraced round rate (1 = tracing costs nothing).
inline double trace_overhead(const std::vector<double>& untraced,
                             const std::vector<double>& traced) {
  const double base = round_rate(untraced);
  return base > 0.0 ? round_rate(traced) / base : 0.0;
}

// The three workloads, one per process. Each sets every end-to-end metric
// and, when args.trace is set, the per-layer metrics of its layers.
void run_sim_suite(const Args& args, Result& out);
void run_fleet_pack(const Args& args, Result& out);
void run_plan_churn(const Args& args, Result& out);

}  // namespace perfbench
