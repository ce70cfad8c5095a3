#include "common/rng.hpp"

#include <cmath>

namespace duet {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::lognormal_factor(double sigma) {
  // Median of exp(N(0, sigma)) is exactly 1, so the factor only fattens the
  // upper tail without biasing the median latency.
  return std::exp(normal(0.0, sigma));
}

bool Rng::coin(double p_true) { return uniform() < p_true; }

}  // namespace duet
