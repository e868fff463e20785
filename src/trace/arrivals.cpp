#include "trace/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace eewa::trace {

namespace {

double mean_work_of_mix(const std::vector<ArrivalClassSpec>& classes) {
  double weight = 0.0;
  double work = 0.0;
  for (const auto& c : classes) {
    weight += c.weight;
    work += c.weight * c.mean_work_s;
  }
  return weight > 0.0 ? work / weight : 0.0;
}

void validate(const ArrivalSpec& spec) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ArrivalStream: " + what);
  };
  if (spec.classes.empty()) fail("no classes");
  const auto check = [&](double v, const char* field, bool ok) {
    if (!std::isfinite(v)) fail(std::string(field) + " is not finite");
    if (!ok) fail(std::string(field) + " = " + std::to_string(v) +
                  " is out of range");
  };
  check(spec.load, "load", spec.load >= 0.0);
  check(spec.duration_s, "duration_s", spec.duration_s >= 0.0);
  const bool bursty = spec.kind == ArrivalKind::kBursty;
  check(spec.burst_factor, "burst_factor",
        !bursty || spec.burst_factor >= 1.0);
  check(spec.burst_period_s, "burst_period_s",
        !bursty || spec.burst_period_s > 0.0);
  for (const auto& c : spec.classes) {
    check(c.weight, "weight", true);
    check(c.mean_work_s, "mean_work_s", c.mean_work_s >= 0.0);
    check(c.cv, "cv", c.cv >= 0.0);
    check(c.cmi, "cmi", c.cmi >= 0.0);
    check(c.mem_alpha, "mem_alpha", c.mem_alpha >= 0.0 && c.mem_alpha <= 1.0);
  }
}

}  // namespace

double ArrivalSpec::rate_tps() const {
  const double mean_work = mean_work_of_mix(classes);
  if (mean_work <= 0.0) return 0.0;
  // load = (rate * mean_work) / cores  =>  rate = load * cores / mean_work.
  return load * static_cast<double>(cores) / mean_work;
}

ArrivalStream::ArrivalStream(const ArrivalSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  validate(spec_);
  rate_ = spec_.rate_tps();
  if (rate_ <= 0.0) {
    done_ = true;  // an empty stream, not an error (zero offered load)
    return;
  }
  // Class-selection CDF over weights.
  cdf_.resize(spec_.classes.size());
  double total_weight = 0.0;
  for (std::size_t k = 0; k < spec_.classes.size(); ++k) {
    total_weight += std::max(0.0, spec_.classes[k].weight);
    cdf_[k] = total_weight;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("ArrivalStream: zero total weight");
  }
  for (auto& c : cdf_) c /= total_weight;
  work_params_.reserve(spec_.classes.size());
  for (const auto& c : spec_.classes) {
    work_params_.push_back(
        util::Xoshiro256::lognormal_params(c.mean_work_s, c.cv));
  }
  // Thinned Poisson process: draw at the peak rate, keep a draw with
  // probability rate(t)/peak. This keeps the square wave exact without
  // per-phase bookkeeping.
  peak_rate_ = spec_.kind == ArrivalKind::kBursty
                   ? rate_ * spec_.burst_factor
                   : rate_;
}

std::optional<Arrival> ArrivalStream::next() {
  if (peeked_) {
    auto a = *peeked_;
    peeked_.reset();
    return a;
  }
  Arrival a;
  if (!generate(a)) return std::nullopt;
  return a;
}

bool ArrivalStream::generate(Arrival& a) {
  if (done_) return false;
  const auto rate_at = [&](double t) {
    if (spec_.kind != ArrivalKind::kBursty) return rate_;
    // On-phase for the first half of each period at burst_factor times
    // the mean; off-phase compensates so the mean offered load holds.
    const double phase = t - std::floor(t / spec_.burst_period_s) *
                                 spec_.burst_period_s;
    const bool on = phase < 0.5 * spec_.burst_period_s;
    const double off_rate =
        std::max(0.0, rate_ * (2.0 - spec_.burst_factor));
    return on ? rate_ * spec_.burst_factor : off_rate;
  };
  for (;;) {
    t_ += rng_.exponential(1.0 / peak_rate_);
    if (t_ >= spec_.duration_s) {
      done_ = true;
      return false;
    }
    if (peak_rate_ > rate_ && !rng_.chance(rate_at(t_) / peak_rate_)) {
      continue;
    }
    const double u = rng_.uniform();
    std::size_t k = 0;
    while (k + 1 < cdf_.size() && cdf_[k] < u) ++k;
    const auto& cls = spec_.classes[k];
    a.time_s = t_;
    a.task.class_id = k;
    a.task.work_s =
        cls.cv > 0.0
            ? rng_.lognormal(work_params_[k].mu, work_params_[k].sigma)
            : cls.mean_work_s;
    a.task.cmi = cls.cmi;
    a.task.mem_alpha = cls.mem_alpha;
    a.task.release_s = t_;
    return true;
  }
}

std::vector<Arrival> generate_arrivals(const ArrivalSpec& spec) {
  if (spec.classes.empty()) {
    throw std::invalid_argument("generate_arrivals: no classes");
  }
  if (spec.rate_tps() <= 0.0) {
    throw std::invalid_argument("generate_arrivals: non-positive rate");
  }
  ArrivalStream stream(spec);
  std::vector<Arrival> out;
  out.reserve(
      static_cast<std::size_t>(spec.rate_tps() * spec.duration_s * 1.1) +
      16);
  while (auto a = stream.next()) out.push_back(std::move(*a));
  // Already time-sorted by construction; keep the guarantee explicit.
  std::sort(out.begin(), out.end(), [](const Arrival& x, const Arrival& y) {
    return x.time_s < y.time_s;
  });
  return out;
}

TaskTrace arrivals_to_trace(const ArrivalSpec& spec,
                            const std::vector<Arrival>& arrivals) {
  TaskTrace trace;
  trace.name = spec.name;
  for (const auto& c : spec.classes) trace.class_names.push_back(c.name);
  Batch batch;
  batch.tasks.reserve(arrivals.size());
  for (const auto& a : arrivals) batch.tasks.push_back(a.task);
  trace.batches.push_back(std::move(batch));
  return trace;
}

}  // namespace eewa::trace
