// Deterministic, seedable random number generation (xoshiro256**).
//
// Everything randomized in gmfnet (workload generation, simulator arrival
// laws, property-test sweeps) takes an explicit seed so that every experiment
// in EXPERIMENTS.md is reproducible bit-for-bit.  std::mt19937_64 would work
// too but its distributions are not specified cross-platform; we implement
// the few distributions we need on top of a fixed generator instead.
#pragma once

#include <cstdint>
#include <vector>

namespace gmfnet {

/// SplitMix64's finalizer: a bijective 64-bit mix (also a cheap hash).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, n) without modulo bias. Requires n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double p);

  /// Returns an index into `weights` chosen proportionally to the weights
  /// (all weights must be >= 0, with a positive sum).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// UUniFast (Bini & Buttazzo): splits `total` into `n` non-negative parts
  /// that sum to `total`, uniformly over the simplex. Classic generator for
  /// per-task utilizations in schedulability experiments.
  std::vector<double> uunifast(std::size_t n, double total);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; useful for giving each thread
  /// of a parallel sweep its own stream.
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace gmfnet
