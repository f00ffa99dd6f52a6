#include "src/matrix/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::DenseFactorizationLoss;
using testing_util::RandomPositive;
using testing_util::RandomSparse;

TEST(MatMulTest, KnownProduct) {
  const DenseMatrix a({{1, 2}, {3, 4}});
  const DenseMatrix b({{5, 6}, {7, 8}});
  const DenseMatrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50.0);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(1);
  const DenseMatrix a = RandomPositive(4, 4, &rng);
  EXPECT_EQ(MatMul(a, DenseMatrix::Identity(4)), a);
  EXPECT_EQ(MatMul(DenseMatrix::Identity(4), a), a);
}

TEST(MatMulVariantsTest, AtBMatchesExplicitTranspose) {
  Rng rng(2);
  const DenseMatrix a = RandomPositive(6, 3, &rng);
  const DenseMatrix b = RandomPositive(6, 4, &rng);
  const DenseMatrix expected = MatMul(a.Transposed(), b);
  const DenseMatrix got = MatMulAtB(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(MatMulVariantsTest, ABtMatchesExplicitTranspose) {
  Rng rng(3);
  const DenseMatrix a = RandomPositive(5, 3, &rng);
  const DenseMatrix b = RandomPositive(7, 3, &rng);
  const DenseMatrix expected = MatMul(a, b.Transposed());
  const DenseMatrix got = MatMulABt(a, b);
  ASSERT_EQ(got.cols(), 7u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(SpMMTest, MatchesDenseMultiply) {
  Rng rng(4);
  const SparseMatrix x = RandomSparse(8, 6, 0.3, &rng);
  const DenseMatrix d = RandomPositive(6, 3, &rng);
  const DenseMatrix expected = MatMul(x.ToDense(), d);
  const DenseMatrix got = SpMM(x, d);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(SpTMMTest, MatchesDenseTransposeMultiply) {
  Rng rng(5);
  const SparseMatrix x = RandomSparse(8, 6, 0.3, &rng);
  const DenseMatrix d = RandomPositive(8, 3, &rng);
  const DenseMatrix expected = MatMul(x.ToDense().Transposed(), d);
  const DenseMatrix got = SpMM(x.Transposed(), d);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
}

TEST(SpMMTest, EmptyOperandsProduceZeros) {
  SparseMatrix::Builder builder(0, 5);
  const SparseMatrix empty = builder.Build();
  const DenseMatrix d(5, 2, 1.0);
  const DenseMatrix up = SpMM(empty.Transposed(), DenseMatrix(0, 2, 0.0));
  EXPECT_EQ(up.rows(), 5u);
  EXPECT_DOUBLE_EQ(up.Sum(), 0.0);
  const DenseMatrix down = SpMM(empty, d);
  EXPECT_EQ(down.rows(), 0u);
}

TEST(NormTest, FrobeniusForms) {
  const DenseMatrix a({{3, 4}});
  EXPECT_DOUBLE_EQ(FrobeniusNormSquared(a), 25.0);
  const DenseMatrix b({{0, 0}});
  EXPECT_DOUBLE_EQ(FrobeniusDistanceSquared(a, b), 25.0);
  EXPECT_DOUBLE_EQ(TraceAtB(a, a), 25.0);
}

/// Property: the O(nnz·k) factorization loss equals the dense evaluation.
class FactorizationLossTest : public ::testing::TestWithParam<int> {};

TEST_P(FactorizationLossTest, MatchesDenseReference) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t m = 2 + rng.NextUint64Below(20);
  const size_t n = 2 + rng.NextUint64Below(20);
  const size_t k = 2 + rng.NextUint64Below(3);
  const SparseMatrix x = RandomSparse(m, n, 0.3, &rng);
  const DenseMatrix u = RandomPositive(m, k, &rng);
  const DenseMatrix v = RandomPositive(n, k, &rng);
  const double fast = FactorizationLossSquared(x, u, v);
  const double slow = DenseFactorizationLoss(x, u, v);
  EXPECT_NEAR(fast, slow, 1e-9 * (1.0 + slow));
}

TEST_P(FactorizationLossTest, TriFactorizationMatchesComposition) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  const size_t m = 2 + rng.NextUint64Below(15);
  const size_t n = 2 + rng.NextUint64Below(15);
  const size_t k = 3;
  const SparseMatrix x = RandomSparse(m, n, 0.3, &rng);
  const DenseMatrix s = RandomPositive(m, k, &rng);
  const DenseMatrix h = RandomPositive(k, k, &rng);
  const DenseMatrix f = RandomPositive(n, k, &rng);
  EXPECT_NEAR(TriFactorizationLossSquared(x, s, h, f),
              FactorizationLossSquared(x, MatMul(s, h), f), 1e-9);
}

/// The optional product: the loss is the same with it as without it, and
/// the product is SpMM(x, v) (an output of another shape is resized).
TEST_P(FactorizationLossTest, ProductOutputKeepsTheLossAndIsSpMM) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 900);
  const size_t m = 2 + rng.NextUint64Below(20);
  const size_t n = 2 + rng.NextUint64Below(20);
  const size_t k = 1 + rng.NextUint64Below(4);
  const SparseMatrix x = RandomSparse(m, n, 0.3, &rng);
  const DenseMatrix u = RandomPositive(m, k, &rng);
  const DenseMatrix v = RandomPositive(n, k, &rng);
  const DenseMatrix h = RandomPositive(k, k, &rng);
  DenseMatrix xv(1, 1, -1.0);
  EXPECT_EQ(FactorizationLossSquared(x, u, v, &xv),
            FactorizationLossSquared(x, u, v));
  EXPECT_EQ(xv, SpMM(x, v));
  DenseMatrix xf;
  EXPECT_EQ(TriFactorizationLossSquared(x, u, h, v, &xf),
            TriFactorizationLossSquared(x, u, h, v));
  EXPECT_EQ(xf, SpMM(x, v));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FactorizationLossTest,
                         ::testing::Range(0, 10));

TEST(GraphQuadraticFormTest, MatchesPairwiseDefinition) {
  // Graph: 0-1 (w=2), 1-2 (w=1).
  SparseMatrix::Builder builder(3, 3);
  builder.Add(0, 1, 2.0);
  builder.Add(1, 0, 2.0);
  builder.Add(1, 2, 1.0);
  builder.Add(2, 1, 1.0);
  const SparseMatrix g = builder.Build();
  const std::vector<double> degrees = {2.0, 3.0, 1.0};
  const DenseMatrix s({{1, 0}, {0, 1}, {1, 1}});
  // ½ Σ_ij w_ij ||s_i − s_j||²:
  //  (0,1): 2·(1+1)=4 ; (1,2): 1·(1+0)=1 → total 5.
  EXPECT_DOUBLE_EQ(GraphLaplacianQuadraticForm(g, degrees, s), 5.0);
}

TEST(GraphQuadraticFormTest, ZeroForConstantRows) {
  Rng rng(6);
  const SparseMatrix g = [&] {
    SparseMatrix::Builder builder(4, 4);
    builder.Add(0, 1, 1.0);
    builder.Add(1, 0, 1.0);
    builder.Add(2, 3, 2.0);
    builder.Add(3, 2, 2.0);
    return builder.Build();
  }();
  std::vector<double> degrees(4);
  for (size_t i = 0; i < 4; ++i) degrees[i] = g.RowSum(i);
  DenseMatrix s(4, 3, 0.7);  // identical rows → penalty 0
  EXPECT_NEAR(GraphLaplacianQuadraticForm(g, degrees, s), 0.0, 1e-12);
}

TEST(MultiplicativeUpdateTest, ScalesByRatioSqrt) {
  DenseMatrix m({{2.0, 4.0}});
  const DenseMatrix numer({{8.0, 1.0}});
  const DenseMatrix denom({{2.0, 4.0}});
  MultiplicativeUpdateInPlace(&m, numer, denom, 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 4.0);   // 2·sqrt(4)
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);   // 4·sqrt(1/4)
}

TEST(MultiplicativeUpdateTest, ZeroOverZeroIsStationary) {
  DenseMatrix m({{3.0}});
  const DenseMatrix zero({{0.0}});
  MultiplicativeUpdateInPlace(&m, zero, zero, 1e-12);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
}

TEST(MultiplicativeUpdateTest, NegativeNoiseClamped) {
  DenseMatrix m({{1.0}});
  const DenseMatrix numer({{-1e-18}});
  const DenseMatrix denom({{1.0}});
  MultiplicativeUpdateInPlace(&m, numer, denom, 1e-12);
  EXPECT_GE(m.At(0, 0), 0.0);
  EXPECT_TRUE(std::isfinite(m.At(0, 0)));
}

TEST(SplitPositiveNegativeTest, ReconstructsAndNonNegative) {
  const DenseMatrix m({{1.5, -2.0}, {0.0, 3.0}});
  DenseMatrix pos;
  DenseMatrix neg;
  SplitPositiveNegative(m, &pos, &neg);
  EXPECT_TRUE(IsNonNegative(pos));
  EXPECT_TRUE(IsNonNegative(neg));
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_DOUBLE_EQ(pos.At(i, j) - neg.At(i, j), m.At(i, j));
      EXPECT_DOUBLE_EQ(pos.At(i, j) + neg.At(i, j), std::fabs(m.At(i, j)));
    }
  }
}

TEST(DiagScaleRowsTest, ScalesEachRow) {
  const DenseMatrix d({{1, 2}, {3, 4}});
  const DenseMatrix out = DiagScaleRows({2.0, 0.5}, d);
  EXPECT_DOUBLE_EQ(out.At(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 1.5);
}

TEST(PredicateTest, NonNegativeAndFinite) {
  EXPECT_TRUE(IsNonNegative(DenseMatrix({{0, 1}})));
  EXPECT_FALSE(IsNonNegative(DenseMatrix({{0, -1e-300}})));
  DenseMatrix inf({{1.0}});
  inf.At(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(AllFinite(inf));
  EXPECT_TRUE(AllFinite(DenseMatrix({{1e300, -1e300}})));
}

}  // namespace
}  // namespace triclust
