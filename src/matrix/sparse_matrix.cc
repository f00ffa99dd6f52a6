#include "src/matrix/sparse_matrix.h"

#include <algorithm>
#include <utility>

#include "src/matrix/dense_matrix.h"

namespace triclust {

namespace {

/// Σ v² in storage order: every way of making a matrix ends with this.
double SumOfSquares(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v * v;
  return total;
}

}  // namespace

SparseMatrix::Builder::Builder(size_t rows, size_t cols)
    : rows_(rows), cols_(cols) {}

void SparseMatrix::Builder::Add(size_t row, size_t col, double value) {
  TRICLUST_CHECK_LT(row, rows_);
  TRICLUST_CHECK_LT(col, cols_);
  entries_.push_back(
      {static_cast<uint32_t>(row), static_cast<uint32_t>(col), value});
}

SparseMatrix SparseMatrix::Builder::Build() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_.assign(rows_ + 1, 0);
  out.col_idx_.reserve(entries_.size());
  out.values_.reserve(entries_.size());

  size_t i = 0;
  while (i < entries_.size()) {
    const uint32_t row = entries_[i].row;
    const uint32_t col = entries_[i].col;
    double sum = 0.0;
    while (i < entries_.size() && entries_[i].row == row &&
           entries_[i].col == col) {
      sum += entries_[i].value;
      ++i;
    }
    if (sum != 0.0) {
      out.col_idx_.push_back(col);
      out.values_.push_back(sum);
      ++out.row_ptr_[row + 1];
    }
  }
  for (size_t r = 0; r < rows_; ++r) {
    out.row_ptr_[r + 1] += out.row_ptr_[r];
  }
  out.frobenius_norm_squared_ = SumOfSquares(out.values_);
  entries_.clear();
  return out;
}

double SparseMatrix::At(size_t i, size_t j) const {
  TRICLUST_CHECK_LT(i, rows_);
  TRICLUST_CHECK_LT(j, cols_);
  const auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i]);
  const auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<uint32_t>(j));
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

double SparseMatrix::RowSum(size_t i) const {
  TRICLUST_CHECK_LT(i, rows_);
  double total = 0.0;
  for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) total += values_[p];
  return total;
}

std::vector<double> SparseMatrix::ColumnSums() const {
  std::vector<double> sums(cols_, 0.0);
  for (size_t p = 0; p < values_.size(); ++p) {
    sums[col_idx_[p]] += values_[p];
  }
  return sums;
}

double SparseMatrix::Sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());

  // Counting sort by target row (= source column).
  for (uint32_t c : col_idx_) ++out.row_ptr_[c + 1];
  for (size_t r = 0; r < cols_; ++r) out.row_ptr_[r + 1] += out.row_ptr_[r];

  std::vector<size_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const size_t dst = cursor[col_idx_[p]]++;
      out.col_idx_[dst] = static_cast<uint32_t>(i);
      out.values_[dst] = values_[p];
    }
  }
  out.frobenius_norm_squared_ = SumOfSquares(out.values_);
  return out;
}

SparseMatrix SparseMatrix::SelectRows(
    const std::vector<size_t>& row_ids) const {
  SparseMatrix out;
  out.rows_ = row_ids.size();
  out.cols_ = cols_;
  out.row_ptr_.assign(row_ids.size() + 1, 0);
  size_t total = 0;
  for (size_t r = 0; r < row_ids.size(); ++r) {
    TRICLUST_CHECK_LT(row_ids[r], rows_);
    total += RowNnz(row_ids[r]);
    out.row_ptr_[r + 1] = total;
  }
  out.col_idx_.reserve(total);
  out.values_.reserve(total);
  for (size_t row_id : row_ids) {
    for (size_t p = row_ptr_[row_id]; p < row_ptr_[row_id + 1]; ++p) {
      out.col_idx_.push_back(col_idx_[p]);
      out.values_.push_back(values_[p]);
    }
  }
  out.frobenius_norm_squared_ = SumOfSquares(out.values_);
  return out;
}

DenseMatrix SparseMatrix::ToDense() const {
  TRICLUST_CHECK_LE(rows_ * cols_, size_t{16} * 1024 * 1024);
  DenseMatrix dense(rows_, cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      dense(i, col_idx_[p]) = values_[p];
    }
  }
  return dense;
}

SparseMatrix SparseMatrix::FromCsr(size_t rows, size_t cols,
                                   std::vector<size_t> row_ptr,
                                   std::vector<uint32_t> col_idx,
                                   std::vector<double> values) {
  TRICLUST_CHECK_EQ(row_ptr.size(), rows + 1);
  TRICLUST_CHECK_EQ(row_ptr.front(), 0u);
  TRICLUST_CHECK_EQ(row_ptr.back(), col_idx.size());
  TRICLUST_CHECK_EQ(values.size(), col_idx.size());
  for (size_t r = 0; r < rows; ++r) {
    TRICLUST_CHECK_LE(row_ptr[r], row_ptr[r + 1]);
    for (size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      TRICLUST_CHECK_LT(col_idx[p], cols);
      TRICLUST_CHECK(p == row_ptr[r] || col_idx[p - 1] < col_idx[p]);
      TRICLUST_CHECK(values[p] != 0.0);
    }
  }
  SparseMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.values_ = std::move(values);
  out.frobenius_norm_squared_ = SumOfSquares(out.values_);
  return out;
}

SparseMatrix SparseMatrix::FromDense(const DenseMatrix& dense,
                                     double tolerance) {
  Builder builder(dense.rows(), dense.cols());
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      const double v = dense(i, j);
      if (std::abs(v) > tolerance) builder.Add(i, j, v);
    }
  }
  return builder.Build();
}

}  // namespace triclust
