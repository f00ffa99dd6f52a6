#include "src/matrix/dense_matrix.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace triclust {

DenseMatrix::DenseMatrix(
    std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& r : rows) {
    if (cols_ == 0) cols_ = r.size();
    TRICLUST_CHECK_EQ(r.size(), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

DenseMatrix DenseMatrix::Identity(size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::Random(size_t rows, size_t cols, Rng* rng, double lo,
                                double hi) {
  TRICLUST_CHECK(rng != nullptr);
  DenseMatrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data_[i] = rng->Uniform(lo, hi);
  return m;
}

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void DenseMatrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void DenseMatrix::AddInPlace(const DenseMatrix& other) {
  TRICLUST_CHECK_EQ(rows_, other.rows_);
  TRICLUST_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void DenseMatrix::SubInPlace(const DenseMatrix& other) {
  TRICLUST_CHECK_EQ(rows_, other.rows_);
  TRICLUST_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void DenseMatrix::ScaleInPlace(double factor) {
  for (double& v : data_) v *= factor;
}

void DenseMatrix::Axpy(double factor, const DenseMatrix& other) {
  TRICLUST_CHECK_EQ(rows_, other.rows_);
  TRICLUST_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out(j, i) = (*this)(i, j);
    }
  }
  return out;
}

DenseMatrix DenseMatrix::SelectRows(const std::vector<size_t>& row_ids) const {
  DenseMatrix out(row_ids.size(), cols_);
  for (size_t r = 0; r < row_ids.size(); ++r) {
    TRICLUST_CHECK_LT(row_ids[r], rows_);
    std::copy(Row(row_ids[r]), Row(row_ids[r]) + cols_, out.Row(r));
  }
  return out;
}

double DenseMatrix::Sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

size_t DenseMatrix::ArgMaxRow(size_t i) const {
  TRICLUST_CHECK_LT(i, rows_);
  TRICLUST_CHECK_GT(cols_, 0u);
  const double* row = Row(i);
  size_t best = 0;
  for (size_t j = 1; j < cols_; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

std::vector<int> DenseMatrix::RowArgMax() const {
  std::vector<int> out(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    out[i] = static_cast<int>(ArgMaxRow(i));
  }
  return out;
}

void DenseMatrix::NormalizeRowsL1() {
  for (size_t i = 0; i < rows_; ++i) {
    double* row = Row(i);
    double total = 0.0;
    for (size_t j = 0; j < cols_; ++j) total += std::fabs(row[j]);
    if (total <= 0.0) {
      for (size_t j = 0; j < cols_; ++j) row[j] = 1.0 / cols_;
    } else {
      for (size_t j = 0; j < cols_; ++j) row[j] /= total;
    }
  }
}

}  // namespace triclust
