#include "src/matrix/dense_matrix.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace triclust {
namespace {

TEST(DenseMatrixTest, DefaultIsEmpty) {
  DenseMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(DenseMatrixTest, FillConstructor) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m.At(i, j), 1.5);
  }
}

TEST(DenseMatrixTest, InitializerList) {
  DenseMatrix m({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 6.0);
}

TEST(DenseMatrixTest, IdentityDiagonal) {
  const DenseMatrix id = DenseMatrix::Identity(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(id.At(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrixTest, RandomBounds) {
  Rng rng(1);
  const DenseMatrix m = DenseMatrix::Random(10, 10, &rng, 0.5, 2.0);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], 0.5);
    EXPECT_LT(m.data()[i], 2.0);
  }
}

TEST(DenseMatrixTest, ElementwiseOps) {
  DenseMatrix a({{1, 2}, {3, 4}});
  const DenseMatrix b({{10, 20}, {30, 40}});
  a.AddInPlace(b);
  EXPECT_DOUBLE_EQ(a.At(1, 1), 44.0);
  a.SubInPlace(b);
  EXPECT_DOUBLE_EQ(a.At(1, 1), 4.0);
  a.ScaleInPlace(2.0);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 2.0);
  a.Axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 4.0 + 10.0);
}

TEST(DenseMatrixTest, TransposedTwiceIsIdentityOp) {
  Rng rng(2);
  const DenseMatrix m = DenseMatrix::Random(5, 3, &rng, 0.0, 1.0);
  const DenseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.Transposed(), m);
  EXPECT_DOUBLE_EQ(t.At(2, 4), m.At(4, 2));
}

TEST(DenseMatrixTest, SelectRows) {
  DenseMatrix m({{1, 2}, {3, 4}, {5, 6}});
  const DenseMatrix sub = m.SelectRows({2, 0});
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sub.At(1, 1), 2.0);
}

TEST(DenseMatrixTest, Sum) {
  DenseMatrix m({{1, -2}, {3, -4}});
  EXPECT_DOUBLE_EQ(m.Sum(), -2.0);
}

TEST(DenseMatrixTest, ArgMaxRowTiesBreakLow) {
  DenseMatrix m({{1, 5, 5}, {7, 2, 3}});
  EXPECT_EQ(m.ArgMaxRow(0), 1u);
  EXPECT_EQ(m.ArgMaxRow(1), 0u);
  EXPECT_EQ(m.RowArgMax(), (std::vector<int>{1, 0}));
}

TEST(DenseMatrixTest, NormalizeRowsL1) {
  DenseMatrix m({{1, 3}, {0, 0}});
  m.NormalizeRowsL1();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.75);
  // Zero rows become uniform.
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.5);
}

TEST(DenseMatrixTest, FillOverwrites) {
  DenseMatrix m(2, 2, 1.0);
  m.Fill(9.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 36.0);
}

}  // namespace
}  // namespace triclust
