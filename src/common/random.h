// Deterministic random number generation for workload synthesis.
//
// Every workload generator takes an explicit Rng (never a global) so
// experiments are reproducible from a single seed and independent generators
// can be forked without correlation.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace dyrs {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    DYRS_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    DYRS_CHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  double exponential(double mean) {
    DYRS_CHECK(mean > 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Bounded Pareto sample in [lo, hi] with shape alpha — used for
  /// heavy-tailed job-input-size distributions.
  double bounded_pareto(double alpha, double lo, double hi) {
    DYRS_CHECK(alpha > 0 && lo > 0 && hi > lo);
    const double u = uniform(0.0, 1.0);
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  }

  /// Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights) {
    DYRS_CHECK(!weights.empty());
    return std::discrete_distribution<std::size_t>(weights.begin(), weights.end())(engine_);
  }

  /// Derives an independent child generator; forking avoids sharing one
  /// stream across generators whose draw counts depend on parameters.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dyrs
