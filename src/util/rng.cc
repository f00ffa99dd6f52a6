#include "src/util/rng.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace triclust {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  // xoshiro requires a non-zero state; splitmix cannot produce all-zero from
  // any seed, but keep the guarantee explicit.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  TRICLUST_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextUint64Below(uint64_t bound) {
  TRICLUST_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TRICLUST_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextUint64Below(span));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double z0 = mag * std::cos(2.0 * M_PI * u2);
  cached_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_normal_ = true;
  return mean + stddev * z0;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  TRICLUST_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    TRICLUST_CHECK_GE(w, 0.0);
    total += w;
  }
  if (total <= 0.0) return NextUint64Below(weights.size());
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

size_t Rng::Zipf(size_t n, double s) {
  TRICLUST_CHECK_GT(n, 0u);
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_cdf_.resize(n);
    double cum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      cum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      zipf_cdf_[r] = cum;
    }
    for (auto& v : zipf_cdf_) v /= cum;
    zipf_n_ = n;
    zipf_s_ = s;
  }
  const double u = NextDouble();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<size_t>(std::min<ptrdiff_t>(
      it - zipf_cdf_.begin(), static_cast<ptrdiff_t>(n) - 1));
}

int Rng::Poisson(double mean) {
  TRICLUST_CHECK_GE(mean, 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double v = Normal(mean, std::sqrt(mean));
    return std::max(0, static_cast<int>(std::lround(v)));
  }
  const double limit = std::exp(-mean);
  double prod = NextDouble();
  int count = 0;
  while (prod > limit) {
    ++count;
    prod *= NextDouble();
  }
  return count;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t j = NextUint64Below(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace triclust
