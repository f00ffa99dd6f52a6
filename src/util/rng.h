#ifndef TRICLUST_SRC_UTIL_RNG_H_
#define TRICLUST_SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace triclust {

/// Deterministic pseudo-random number generator (xoshiro256**) with the
/// sampling helpers the synthetic-data generator and the solvers need.
///
/// Every stochastic component in the library takes an explicit seed so that
/// experiments are reproducible bit-for-bit across runs; nothing in the
/// library reads entropy from the environment.
class Rng {
 public:
  /// Seeds the generator; the seed is expanded with splitmix64 so nearby
  /// seeds produce unrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextUint64Below(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Box–Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Samples an index from unnormalized non-negative `weights`.
  /// Weights summing to zero yield a uniform draw.
  size_t Categorical(const std::vector<double>& weights);

  /// Samples from a Zipf distribution over {0, ..., n-1} with exponent `s`
  /// (probability of rank r proportional to 1/(r+1)^s). Uses an inverted-CDF
  /// table; intended for n up to a few hundred thousand.
  size_t Zipf(size_t n, double s);

  /// Poisson-distributed count with the given mean (Knuth's method for small
  /// means, normal approximation above 64).
  int Poisson(double mean);

  /// Random permutation of {0, ..., n-1} (Fisher–Yates).
  std::vector<size_t> Permutation(size_t n);

 private:
  uint64_t state_[4];
  // Cached Zipf CDF so repeated draws with identical (n, s) are O(log n).
  std::vector<double> zipf_cdf_;
  size_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_RNG_H_
