#include "src/util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

namespace triclust {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateApproximatesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<int> counts(3, 0);
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.Categorical({1.0, 2.0, 7.0})];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.7, 0.02);
}

TEST(RngTest, CategoricalZeroWeightNeverSampled) {
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(rng.Categorical({1.0, 0.0, 1.0}), 1u);
  }
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(23);
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 1000; ++i) ++counts[rng.Categorical({0.0, 0.0})];
  EXPECT_GT(counts[0], 300);
  EXPECT_GT(counts[1], 300);
}

TEST(RngTest, ZipfRankZeroMostFrequent) {
  Rng rng(25);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(50, 1.1)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
  // Every draw must be in range (implicitly checked by indexing).
}

TEST(RngTest, ZipfHandlesChangingParameters) {
  Rng rng(27);
  // Alternating (n, s) pairs exercise the CDF cache invalidation.
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.Zipf(10, 1.0), 10u);
    EXPECT_LT(rng.Zipf(100, 2.0), 100u);
  }
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(29);
  for (const double mean : {0.5, 4.0, 30.0, 200.0}) {
    double total = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) total += rng.Poisson(mean);
    EXPECT_NEAR(total / n, mean, std::max(0.5, mean * 0.1));
  }
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(33);
  const auto perm = rng.Permutation(257);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, PermutationZeroAndOne) {
  Rng rng(35);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_EQ(rng.Permutation(1), std::vector<size_t>{0});
}

}  // namespace
}  // namespace triclust
