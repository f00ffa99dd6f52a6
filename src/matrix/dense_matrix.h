#ifndef TRICLUST_SRC_MATRIX_DENSE_MATRIX_H_
#define TRICLUST_SRC_MATRIX_DENSE_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "src/util/logging.h"

namespace triclust {

class Rng;

/// Row-major dense matrix of doubles.
///
/// The cluster-indicator matrices of the tri-clustering framework
/// (Sp ∈ R^{n×k}, Su ∈ R^{m×k}, Sf ∈ R^{l×k}) and the k×k association
/// matrices (Hp, Hu) are dense and tall-skinny (k is 2 or 3), so a simple
/// contiguous row-major layout is both cache-friendly for the SpMM kernels
/// and trivially correct. Copyable and movable.
class DenseMatrix {
 public:
  /// Empty 0×0 matrix.
  DenseMatrix() : rows_(0), cols_(0) {}

  /// rows×cols matrix filled with `fill`.
  DenseMatrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: DenseMatrix({{1,2},{3,4}}).
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n×n identity.
  static DenseMatrix Identity(size_t n);

  /// rows×cols with i.i.d. entries uniform in [lo, hi).
  static DenseMatrix Random(size_t rows, size_t cols, Rng* rng, double lo,
                            double hi);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t i, size_t j) {
    TRICLUST_CHECK_LT(i, rows_);
    TRICLUST_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }
  double At(size_t i, size_t j) const {
    TRICLUST_CHECK_LT(i, rows_);
    TRICLUST_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }

  /// Unchecked element access for inner loops.
  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  /// Pointer to the start of row `i`.
  double* Row(size_t i) { return data_.data() + i * cols_; }
  const double* Row(size_t i) const { return data_.data() + i * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Reshapes to rows×cols, reusing the existing allocation when capacity
  /// allows (entries are unspecified afterwards). This is the workhorse of
  /// the solver's scratch-buffer reuse: after the first iteration sizes a
  /// workspace matrix, later Resize calls to the same shape are free.
  void Resize(size_t rows, size_t cols);

  /// Element-wise in-place operations.
  void AddInPlace(const DenseMatrix& other);
  void SubInPlace(const DenseMatrix& other);
  void ScaleInPlace(double factor);
  /// this += factor * other.
  void Axpy(double factor, const DenseMatrix& other);

  /// Transposed copy.
  DenseMatrix Transposed() const;

  /// Extracts the sub-matrix of the given rows (in order).
  DenseMatrix SelectRows(const std::vector<size_t>& row_ids) const;

  /// Sum of all entries.
  double Sum() const;

  /// Index of the largest entry in row `i` (ties break to the lowest index).
  size_t ArgMaxRow(size_t i) const;

  /// Argmax of each row, i.e. the hard cluster assignment of a
  /// cluster-indicator matrix.
  std::vector<int> RowArgMax() const;

  /// Normalizes each row to sum to one (rows of all zeros become uniform).
  void NormalizeRowsL1();

  friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_DENSE_MATRIX_H_
