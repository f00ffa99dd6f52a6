#include "src/core/objective.h"

#include <gtest/gtest.h>

#include "src/matrix/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::RandomPositive;
using testing_util::RandomSparse;

struct Problem {
  SparseMatrix xp, xu, xr;
  UserGraph gu;
  DenseMatrix sp, su, sf, hp, hu, sf0;
};

Problem MakeSetup(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 10;
  const size_t m = 6;
  const size_t l = 14;
  const size_t k = 3;
  Problem s;
  s.xp = RandomSparse(n, l, 0.3, &rng);
  s.xu = RandomSparse(m, l, 0.3, &rng);
  s.xr = RandomSparse(m, n, 0.3, &rng);
  s.gu = UserGraph::FromEdges(m, {{0, 1, 1.0}, {2, 3, 2.0}});
  s.sp = RandomPositive(n, k, &rng);
  s.su = RandomPositive(m, k, &rng);
  s.sf = RandomPositive(l, k, &rng);
  s.hp = RandomPositive(k, k, &rng);
  s.hu = RandomPositive(k, k, &rng);
  s.sf0 = RandomPositive(l, k, &rng);
  return s;
}

TEST(ObjectiveTest, ComponentsMatchDirectEvaluation) {
  const Problem s = MakeSetup(1);
  const LossComponents loss =
      ComputeObjective(s.xp, s.xu, s.xr, s.gu, s.sp, s.su, s.sf, s.hp, s.hu,
                       0.3, s.sf0, 0.7);
  EXPECT_NEAR(loss.xp_loss,
              testing_util::DenseFactorizationLoss(s.xp, MatMul(s.sp, s.hp),
                                                   s.sf),
              1e-8);
  EXPECT_NEAR(loss.xu_loss,
              testing_util::DenseFactorizationLoss(s.xu, MatMul(s.su, s.hu),
                                                   s.sf),
              1e-8);
  EXPECT_NEAR(loss.xr_loss,
              testing_util::DenseFactorizationLoss(s.xr, s.su, s.sp), 1e-8);
  EXPECT_NEAR(loss.lexicon_loss,
              0.3 * FrobeniusDistanceSquared(s.sf, s.sf0), 1e-10);
  EXPECT_NEAR(loss.graph_loss,
              0.7 * GraphLaplacianQuadraticForm(s.gu.adjacency(),
                                                s.gu.degrees(), s.su),
              1e-10);
  EXPECT_DOUBLE_EQ(loss.temporal_user_loss, 0.0);
  EXPECT_NEAR(loss.Total(),
              loss.xp_loss + loss.xu_loss + loss.xr_loss +
                  loss.lexicon_loss + loss.graph_loss,
              1e-8);
}

TEST(ObjectiveTest, TemporalTermWeighsOnlySelectedRows) {
  const Problem s = MakeSetup(2);
  DenseMatrix suw(s.su.rows(), s.su.cols(), 0.0);
  std::vector<double> weights(s.su.rows(), 0.0);
  weights[1] = 2.0;  // only user 1 is evolving
  const LossComponents loss =
      ComputeObjective(s.xp, s.xu, s.xr, s.gu, s.sp, s.su, s.sf, s.hp, s.hu,
                       0.0, s.sf0, 0.0, &weights, &suw);
  double expected = 0.0;
  for (size_t c = 0; c < s.su.cols(); ++c) {
    expected += 2.0 * s.su(1, c) * s.su(1, c);  // target row is zero
  }
  EXPECT_NEAR(loss.temporal_user_loss, expected, 1e-10);
}

TEST(ObjectiveTest, ZeroWeightsKillRegularizers) {
  const Problem s = MakeSetup(3);
  const LossComponents loss =
      ComputeObjective(s.xp, s.xu, s.xr, s.gu, s.sp, s.su, s.sf, s.hp, s.hu,
                       0.0, s.sf0, 0.0);
  EXPECT_DOUBLE_EQ(loss.lexicon_loss, 0.0);
  EXPECT_DOUBLE_EQ(loss.graph_loss, 0.0);
}

TEST(ObjectiveTest, PerfectFactorizationHasNearZeroDataLoss) {
  // Build X = S·Hᵀ... choose factors, densify the product, round-trip.
  Rng rng(4);
  const size_t m = 5;
  const size_t n = 7;
  const size_t k = 2;
  const DenseMatrix u = RandomPositive(m, k, &rng);
  const DenseMatrix v = RandomPositive(n, k, &rng);
  const SparseMatrix x = SparseMatrix::FromDense(MatMulABt(u, v));
  EXPECT_NEAR(FactorizationLossSquared(x, u, v), 0.0, 1e-9);
}

TEST(ObjectiveDeathTest, RowDistanceChecksTargetShape) {
  const Problem s = MakeSetup(5);
  const std::vector<double> weights(s.su.rows(), 1.0);
  const DenseMatrix short_target(s.su.rows() - 1, s.su.cols(), 0.0);
  const DenseMatrix narrow_target(s.su.rows(), s.su.cols() - 1, 0.0);
  EXPECT_DEATH(WeightedRowDistanceSquared(weights, short_target, s.su),
               "check failed");
  EXPECT_DEATH(WeightedRowDistanceSquared(weights, narrow_target, s.su),
               "check failed");
  // ComputeObjective's temporal term hands it the caller's target.
  EXPECT_DEATH(ComputeObjective(s.xp, s.xu, s.xr, s.gu, s.sp, s.su, s.sf,
                                s.hp, s.hu, 0.0, s.sf0, 0.0, &weights,
                                &short_target),
               "check failed");
}

TEST(LossComponentsTest, TotalSumsEverything) {
  LossComponents loss;
  loss.xp_loss = 1;
  loss.xu_loss = 2;
  loss.xr_loss = 3;
  loss.lexicon_loss = 4;
  loss.graph_loss = 5;
  loss.temporal_user_loss = 6;
  EXPECT_DOUBLE_EQ(loss.Total(), 21.0);
}

}  // namespace
}  // namespace triclust
