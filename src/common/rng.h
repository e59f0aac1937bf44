#ifndef DOMD_COMMON_RNG_H_
#define DOMD_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/hash.h"

namespace domd {

/// Deterministic, seedable pseudo-random generator (xoshiro256** seeded via
/// SplitMix64). Every stochastic component in the library takes one of these
/// so that experiments are reproducible bit-for-bit across runs and
/// platforms, independent of the standard library's distribution
/// implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

  /// Derives an independent deterministic generator for one parallel task:
  /// a SplitMix64 jump over the stream index decorrelates the streams, and
  /// because the stream index (not the executing thread) selects the
  /// stream, task i draws the same sequence however work is scheduled.
  static Rng ForStream(std::uint64_t seed, std::uint64_t stream) {
    return Rng(Mix64(seed + 0x9E3779B97F4A7C15ull * (stream + 1)));
  }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    for (auto& word : state_) {
      seed += 0x9E3779B97F4A7C15ull;
      word = Mix64(seed);
    }
    has_cached_gaussian_ = false;
  }

  /// Next raw 64 random bits (xoshiro256**).
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(Next() % span);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Box-Muller (cached pair).
  double Gaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = Uniform();
    while (u1 <= 1e-300) u1 = Uniform();
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_cached_gaussian_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Log-normal: exp(N(mu, sigma)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Gaussian(mu, sigma));
  }

  /// Exponential with the given rate (lambda > 0).
  double Exponential(double rate) {
    double u = Uniform();
    while (u <= 1e-300) u = Uniform();
    return -std::log(u) / rate;
  }

  /// Poisson draw. Uses inversion for small means, normal approximation
  /// (rounded, clamped at 0) for large means; adequate for workload
  /// generation.
  std::int64_t Poisson(double mean) {
    if (mean <= 0) return 0;
    if (mean < 30.0) {
      const double limit = std::exp(-mean);
      double product = Uniform();
      std::int64_t count = 0;
      while (product > limit) {
        product *= Uniform();
        ++count;
      }
      return count;
    }
    const double draw = Gaussian(mean, std::sqrt(mean));
    return draw < 0 ? 0 : static_cast<std::int64_t>(std::llround(draw));
  }

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t Categorical(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    double pick = Uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      pick -= weights[i];
      if (pick <= 0) return i;
    }
    return weights.size() - 1;
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (std::size_t i = values->size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace domd

#endif  // DOMD_COMMON_RNG_H_
