#include "src/matrix/sparse_matrix.h"

#include <gtest/gtest.h>

#include "src/matrix/dense_matrix.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::RandomSparse;

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(SparseBuilderTest, BuildsSortedRows) {
  SparseMatrix::Builder builder(3, 4);
  builder.Add(2, 3, 1.0);
  builder.Add(0, 1, 2.0);
  builder.Add(2, 0, 3.0);
  const SparseMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(SparseBuilderTest, CoalescesDuplicates) {
  SparseMatrix::Builder builder(2, 2);
  builder.Add(1, 1, 1.5);
  builder.Add(1, 1, 2.5);
  const SparseMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 4.0);
}

TEST(SparseBuilderTest, DropsCancelledEntries) {
  SparseMatrix::Builder builder(2, 2);
  builder.Add(0, 0, 1.0);
  builder.Add(0, 0, -1.0);
  builder.Add(0, 1, 2.0);
  const SparseMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(SparseBuilderTest, ReusableAfterBuild) {
  SparseMatrix::Builder builder(1, 1);
  builder.Add(0, 0, 1.0);
  const SparseMatrix first = builder.Build();
  EXPECT_EQ(first.nnz(), 1u);
  const SparseMatrix second = builder.Build();  // drained
  EXPECT_EQ(second.nnz(), 0u);
}

TEST(SparseMatrixTest, RowSumsAndColumnSums) {
  SparseMatrix::Builder builder(2, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(0, 2, 2.0);
  builder.Add(1, 2, 3.0);
  const SparseMatrix m = builder.Build();
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 3.0);
  EXPECT_EQ(m.ColumnSums(), (std::vector<double>{1.0, 0.0, 5.0}));
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 1.0 + 4.0 + 9.0);
  EXPECT_EQ(m.RowNnz(0), 2u);
}

/// Σ v² recomputed from values(), in storage order.
double SumOfSquares(const SparseMatrix& m) {
  double total = 0.0;
  for (double v : m.values()) total += v * v;
  return total;
}

TEST(SparseMatrixTest, FrobeniusNormSquaredOfEveryWayToMakeAMatrix) {
  Rng rng(5);
  const SparseMatrix built = RandomSparse(9, 6, 0.4, &rng);
  const SparseMatrix transposed = built.Transposed();
  const SparseMatrix selected = built.SelectRows({3, 0, 3, 8});
  const SparseMatrix from_csr = SparseMatrix::FromCsr(
      built.rows(), built.cols(), built.row_ptr(), built.col_idx(),
      built.values());
  const SparseMatrix empty;
  for (const SparseMatrix* m :
       {&built, &transposed, &selected, &from_csr, &empty}) {
    EXPECT_EQ(m->FrobeniusNormSquared(), SumOfSquares(*m));
  }
  EXPECT_GT(built.FrobeniusNormSquared(), 0.0);
  EXPECT_EQ(empty.FrobeniusNormSquared(), 0.0);
}

TEST(SparseMatrixTest, FromCsrTakesCanonicalArraysAsTheBuilderMakesThem) {
  Rng rng(6);
  const SparseMatrix built = RandomSparse(9, 6, 0.4, &rng);
  const SparseMatrix m = SparseMatrix::FromCsr(
      built.rows(), built.cols(), built.row_ptr(), built.col_idx(),
      built.values());
  EXPECT_EQ(m.rows(), built.rows());
  EXPECT_EQ(m.cols(), built.cols());
  EXPECT_EQ(m.row_ptr(), built.row_ptr());
  EXPECT_EQ(m.col_idx(), built.col_idx());
  EXPECT_EQ(m.values(), built.values());
  EXPECT_EQ(SparseMatrix::FromCsr(0, 4, {0}, {}, {}).cols(), 4u);

  // Rows {0: (1, 2.0), (3, 1.0)} and {1: (0, 5.0)} of a 2x4 matrix, then
  // one defect each: columns out of order, a stored zero, a column past
  // cols, and offsets that do not end at nnz.
  EXPECT_EQ(SparseMatrix::FromCsr(2, 4, {0, 2, 3}, {1, 3, 0}, {2, 1, 5})
                .At(1, 0),
            5.0);
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 4, {0, 2, 3}, {3, 1, 0}, {2, 1, 5}),
               "check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 4, {0, 2, 3}, {1, 3, 0}, {2, 0, 5}),
               "check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 4, {0, 2, 3}, {1, 4, 0}, {2, 1, 5}),
               "check failed");
  EXPECT_DEATH(SparseMatrix::FromCsr(2, 4, {0, 2, 2}, {1, 3, 0}, {2, 1, 5}),
               "check failed");
}

TEST(SparseMatrixTest, TransposeMatchesDense) {
  Rng rng(3);
  const SparseMatrix m = RandomSparse(7, 5, 0.3, &rng);
  const SparseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 7u);
  EXPECT_EQ(t.nnz(), m.nnz());
  const DenseMatrix dm = m.ToDense();
  const DenseMatrix dt = t.ToDense();
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(dt.At(j, i), dm.At(i, j));
    }
  }
}

TEST(SparseMatrixTest, SelectRowsKeepsContent) {
  Rng rng(4);
  const SparseMatrix m = RandomSparse(6, 4, 0.5, &rng);
  const SparseMatrix sub = m.SelectRows({4, 0, 4});
  EXPECT_EQ(sub.rows(), 3u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(sub.At(0, j), m.At(4, j));
    EXPECT_DOUBLE_EQ(sub.At(1, j), m.At(0, j));
    EXPECT_DOUBLE_EQ(sub.At(2, j), m.At(4, j));
  }
}

TEST(SparseMatrixTest, FromDenseRoundTrip) {
  DenseMatrix d({{0, 1.5, 0}, {2.5, 0, -3.0}});
  const SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_EQ(s.nnz(), 3u);
  EXPECT_EQ(s.ToDense(), d);
}

TEST(SparseMatrixTest, FromDenseTolerance) {
  DenseMatrix d({{0.05, 1.0}});
  const SparseMatrix s = SparseMatrix::FromDense(d, 0.1);
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_DOUBLE_EQ(s.At(0, 1), 1.0);
}

/// CSR structural invariants on random instances (property test).
class SparseInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseInvariantTest, CsrInvariantsHold) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t rows = 1 + rng.NextUint64Below(40);
  const size_t cols = 1 + rng.NextUint64Below(40);
  const SparseMatrix m = RandomSparse(rows, cols, 0.2, &rng);

  const auto& row_ptr = m.row_ptr();
  ASSERT_EQ(row_ptr.size(), rows + 1);
  EXPECT_EQ(row_ptr.front(), 0u);
  EXPECT_EQ(row_ptr.back(), m.nnz());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_LE(row_ptr[i], row_ptr[i + 1]);
    // Within-row columns strictly increasing (sorted + unique).
    for (size_t p = row_ptr[i] + 1; p < row_ptr[i + 1]; ++p) {
      EXPECT_LT(m.col_idx()[p - 1], m.col_idx()[p]);
    }
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      EXPECT_LT(m.col_idx()[p], cols);
      EXPECT_NE(m.values()[p], 0.0);
    }
  }
}

TEST_P(SparseInvariantTest, TransposeIsInvolution) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  const size_t rows = 1 + rng.NextUint64Below(30);
  const size_t cols = 1 + rng.NextUint64Below(30);
  const SparseMatrix m = RandomSparse(rows, cols, 0.25, &rng);
  const SparseMatrix tt = m.Transposed().Transposed();
  EXPECT_EQ(tt.ToDense(), m.ToDense());
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SparseInvariantTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace triclust
