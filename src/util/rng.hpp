// Deterministic pseudo-random number generation for experiments and tests.
//
// All randomness in this codebase flows through these generators so that
// every experiment is reproducible from a single seed. We provide
// SplitMix64 (for seeding) and Xoshiro256** (the workhorse), plus the
// distributions the workload generators need.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <vector>

namespace eewa::util {

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used to expand one seed
/// into the state of larger generators and for cheap stateless hashing.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mix of a 64-bit value; handy for hashing (seed, index) pairs.
inline std::uint64_t mix64(std::uint64_t x) {
  SplitMix64 sm(x);
  return sm.next();
}

/// Map a raw 64-bit draw to a uniform index in [0, n) \ {self}.
/// Drawing over n-1 slots and shifting past `self` keeps every other
/// index equally likely; the naive "redraw == self ? self+1 : draw"
/// remap would give index self+1 double weight. n <= 1 returns 0.
inline std::size_t uniform_excluding(std::uint64_t draw, std::size_t self,
                                     std::size_t n) {
  if (n <= 1) return 0;
  const auto v = static_cast<std::size_t>(draw % (n - 1));
  return v + static_cast<std::size_t>(v >= self);
}

/// Xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Satisfies UniformRandomBitGenerator so it can also drive <random>.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t bounded(std::uint64_t n) {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      std::uint64_t t = (0 - n) % n;
      while (lo < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    bounded(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Exponential with given mean (> 0).
  double exponential(double mean) {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller (one value per call; simple and branch-light).
  double normal() {
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958647692 * u2);
  }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Log-normal with log-space parameters: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Log-space (mu, sigma) of the log-normal with the given mean and
  /// cv = stddev/mean. Callers drawing many variates of one shape cache
  /// this and call lognormal(mu, sigma) — the same bits per draw.
  struct LogParams {
    double mu = 0.0;
    double sigma = 0.0;
  };
  static LogParams lognormal_params(double mean, double cv) {
    const double sigma2 = std::log(1.0 + cv * cv);
    return {std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
  }

  /// Log-normal parameterized by the mean/cv of the *resulting* distribution.
  /// cv = stddev/mean of the log-normal variate.
  double lognormal_mean_cv(double mean, double cv) {
    const LogParams p = lognormal_params(mean, cv);
    return lognormal(p.mu, p.sigma);
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Zipf(s) sampler over ranks {1..n} using inverse-CDF on a precomputed
/// table. Deterministic for a given (n, s).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  /// Sample a rank in [0, n).
  std::size_t sample(Xoshiro256& rng) const {
    const double u = rng.uniform();
    std::size_t lo = 0, hi = cdf_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < cdf_.size() ? lo : cdf_.size() - 1;
  }

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace eewa::util
