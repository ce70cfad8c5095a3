#pragma once

// Deterministic random number generation. Stateful stochastic components of
// DUET (request feeds, latency noise, random scheduling baselines) draw from
// an explicitly seeded Rng so experiments are reproducible run-to-run; their
// draw order is part of that contract. Weight initialization uses the
// stateless generator in common/counter_normal.hpp instead.

#include <cstdint>
#include <random>
#include <vector>

namespace duet {

class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  // Uniform in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);
  // Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi);
  // Normal with the given mean / stddev.
  double normal(double mean = 0.0, double stddev = 1.0);
  // Log-normal noise factor with median 1.0; `sigma` controls tail weight.
  // Used to model run-to-run latency variation (P99 / P99.9 experiments).
  double lognormal_factor(double sigma);
  // Bernoulli trial.
  bool coin(double p_true = 0.5);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(uniform_int(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace duet
