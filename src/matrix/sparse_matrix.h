#ifndef TRICLUST_SRC_MATRIX_SPARSE_MATRIX_H_
#define TRICLUST_SRC_MATRIX_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/logging.h"

namespace triclust {

class DenseMatrix;

/// Immutable sparse matrix in Compressed Sparse Row (CSR) form.
///
/// The data matrices of the framework — tweet–feature Xp (n×l),
/// user–feature Xu (m×l), user–tweet Xr (m×n) and the user–user graph Gu
/// (m×m) — are extremely sparse (a tweet holds ~10 of tens of thousands of
/// features), so all solver kernels stream over CSR and never densify.
/// Within a row, column indices are sorted ascending and unique; duplicate
/// (i, j) insertions in the builder are coalesced by summation.
class SparseMatrix {
 public:
  /// Accumulates COO triplets and produces a canonical CSR matrix.
  class Builder {
   public:
    /// Fixes the dimensions up front; Add() checks bounds against them.
    Builder(size_t rows, size_t cols);

    /// Adds `value` at (row, col). Duplicates accumulate. Zero values are
    /// kept until Build(), which drops exact zeros (so `x + (-x)` vanishes).
    void Add(size_t row, size_t col, double value);

    /// Sorts, coalesces duplicates, drops zeros, and builds the CSR arrays.
    /// The builder is left empty and reusable.
    SparseMatrix Build();

   private:
    struct Entry {
      uint32_t row;
      uint32_t col;
      double value;
    };
    size_t rows_;
    size_t cols_;
    std::vector<Entry> entries_;
  };

  /// Empty 0×0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  /// CSR arrays. row_ptr has rows()+1 entries; the entries of row i live at
  /// positions [row_ptr[i], row_ptr[i+1]).
  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Number of stored entries in row `i`.
  size_t RowNnz(size_t i) const {
    TRICLUST_CHECK_LT(i, rows_);
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Value at (i, j); 0 when not stored. O(log RowNnz).
  double At(size_t i, size_t j) const;

  /// Sum of the entries in row `i`.
  double RowSum(size_t i) const;

  /// Sum of every column, as a dense vector of length cols().
  std::vector<double> ColumnSums() const;

  /// Sum over all stored values.
  double Sum() const;

  /// Σ v² over stored values, i.e. ||X||²F. Summed in storage order once,
  /// when the matrix is made (the data matrices never change, while the
  /// solvers' objective needs this every iteration).
  double FrobeniusNormSquared() const { return frobenius_norm_squared_; }

  /// Transposed copy (CSR of the transpose, built in O(nnz)).
  SparseMatrix Transposed() const;

  /// Extracts the sub-matrix of the given rows (in order), keeping the
  /// column space. Used to slice Xu/Xr into new/evolving user blocks for the
  /// online algorithm.
  SparseMatrix SelectRows(const std::vector<size_t>& row_ids) const;

  /// Dense copy (tests/debugging only; asserts the result is small).
  DenseMatrix ToDense() const;

  /// Builds from a dense matrix, keeping entries with |v| > tolerance.
  static SparseMatrix FromDense(const DenseMatrix& dense,
                                double tolerance = 0.0);

  /// Takes CSR arrays that are already canonical — rows+1 non-decreasing
  /// row offsets from 0 to nnz, each row's columns ascending, unique and
  /// below `cols`, no stored zeros — so a caller that produces rows in order
  /// skips the Builder's sort. The result is byte for byte what the Builder
  /// makes of the same entries. CHECK-fails on arrays that are not
  /// canonical.
  static SparseMatrix FromCsr(size_t rows, size_t cols,
                              std::vector<size_t> row_ptr,
                              std::vector<uint32_t> col_idx,
                              std::vector<double> values);

 private:
  friend class Builder;
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;
  std::vector<uint32_t> col_idx_;
  std::vector<double> values_;
  double frobenius_norm_squared_ = 0.0;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_SPARSE_MATRIX_H_
