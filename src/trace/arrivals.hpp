// Open-loop arrival streams for the service mode (docs/service_mode.md).
//
// A batched TaskTrace describes work that exists all at once; a service
// sees work *arrive* — a timestamped stream whose offered rate is set by
// the outside world, not by the scheduler's completion rate. This
// generator produces such streams deterministically from a seed, in the
// shapes the overload harness needs: steady Poisson traffic, square-wave
// bursts, and a bimodal class mix. Rates are expressed as a multiple of
// the machine's estimated capacity so "2x overload" means the same thing
// across machines and simulators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/task_trace.hpp"
#include "util/rng.hpp"

namespace eewa::trace {

/// Temporal shape of the stream.
enum class ArrivalKind {
  kSteady,  ///< Poisson arrivals at a constant rate
  kBursty,  ///< square wave: rate * burst_factor half the period, idle rest
};

/// One service class in the stream.
struct ArrivalClassSpec {
  std::string name;
  double weight = 1.0;        ///< share of arrivals (normalized over classes)
  double mean_work_s = 0.0;   ///< mean normalized work per task (Eq. 1)
  double cv = 0.0;            ///< lognormal jitter of task work
  double cmi = 0.0;           ///< cache-miss intensity attached to tasks
  double mem_alpha = 0.0;     ///< memory-stall fraction
  std::size_t sla = 1;        ///< admission tier (0 = never shed)
};

/// A complete open-loop stream description.
struct ArrivalSpec {
  std::string name = "arrivals";
  std::vector<ArrivalClassSpec> classes;
  /// Offered load as a fraction of capacity: 1.0 means arrivals carry
  /// exactly `cores` core-seconds of work per second; 2.0 is a 2x
  /// overload that no scheduler can serve without shedding.
  double load = 1.0;
  std::size_t cores = 16;  ///< capacity normalizer
  double duration_s = 1.0;
  ArrivalKind kind = ArrivalKind::kSteady;
  double burst_factor = 4.0;  ///< kBursty: on-phase rate multiplier
  double burst_period_s = 0.1;
  std::uint64_t seed = 1;

  /// Mean offered task rate (tasks/second) implied by load and the
  /// class mix's mean work.
  double rate_tps() const;
};

/// One arrival: a task plus its absolute arrival time. `task.release_s`
/// carries the arrival time too, so a stream converts trivially into a
/// single released Batch for the simulator.
struct Arrival {
  double time_s = 0.0;
  TraceTask task;
};

/// Streaming form of the generator: yields the identical sequence one
/// arrival at a time, so fleet-scale consumers (10M+ tasks) never hold
/// the whole stream in memory. A zero offered rate (load == 0, or an
/// all-zero-work class mix) yields an empty stream; an empty class list
/// still throws, as generate_arrivals does.
class ArrivalStream {
 public:
  /// Throws std::invalid_argument on a malformed spec: no classes, a
  /// non-finite field, a negative load, duration, mean work, cv or cmi,
  /// mem_alpha outside [0, 1], or (kBursty) burst_period_s <= 0 or
  /// burst_factor < 1.
  explicit ArrivalStream(const ArrivalSpec& spec);

  /// Next arrival in time order, or nullopt once past spec.duration_s.
  std::optional<Arrival> next();

  /// Bulk form for epoch-driven consumers: hand every remaining arrival
  /// with time_s < until_s (all of them when `all` is set — the fleet's
  /// final-epoch unconditional drain) to `fn(const Arrival&)`, in time
  /// order as it is generated, and return the count handed over.
  /// Interleaving drain_until and next() yields exactly the next()-only
  /// sequence, and the stream itself never allocates here.
  template <class Fn>
  std::size_t drain_until(double until_s, bool all, Fn&& fn) {
    std::size_t handed = 0;
    if (peeked_) {
      if (!all && !(peeked_->time_s < until_s)) return 0;
      fn(*peeked_);
      peeked_.reset();
      ++handed;
    }
    Arrival a;
    while (generate(a)) {
      if (!all && !(a.time_s < until_s)) {
        peeked_ = a;
        return handed;
      }
      fn(a);
      ++handed;
    }
    return handed;
  }

  /// drain_until appending into `out` (reusing its capacity: once `out`
  /// has reached its high-water capacity, steady-state calls perform
  /// zero heap allocations).
  std::size_t drain_until(double until_s, bool all,
                          std::vector<Arrival>& out) {
    return drain_until(until_s, all,
                       [&out](const Arrival& a) { out.push_back(a); });
  }

  const ArrivalSpec& spec() const { return spec_; }

 private:
  /// Generate the next arrival into `a`, ignoring the peek slot; false
  /// once the stream is past spec.duration_s.
  bool generate(Arrival& a);

  ArrivalSpec spec_;
  util::Xoshiro256 rng_;
  std::vector<double> cdf_;  ///< class-selection CDF over weights
  /// Per class: log-space lognormal parameters of its work jitter,
  /// derived once from (mean_work_s, cv).
  std::vector<util::Xoshiro256::LogParams> work_params_;
  double rate_ = 0.0;
  double peak_rate_ = 0.0;
  double t_ = 0.0;
  bool done_ = false;
  /// One-arrival lookahead for drain_until's boundary test; an arrival
  /// at or past until_s stays here for the next call.
  std::optional<Arrival> peeked_;
};

/// Generate the stream, sorted by time. Deterministic in spec.seed.
/// Throws std::invalid_argument on a spec ArrivalStream rejects, and
/// when the spec's offered rate is not positive (use ArrivalStream
/// directly when an empty stream is valid).
std::vector<Arrival> generate_arrivals(const ArrivalSpec& spec);

/// Pack a stream into a one-batch TaskTrace (release_s = arrival time):
/// the simulator's open-loop mirror of the same traffic.
TaskTrace arrivals_to_trace(const ArrivalSpec& spec,
                            const std::vector<Arrival>& arrivals);

}  // namespace eewa::trace
