#include <algorithm>
#include <cmath>

#include "src/matrix/kernels.h"

namespace triclust {
namespace kernels {

/// Generic reference bodies — the exact loops ops.cc ran before the
/// dispatch layer existed, and the bitwise oracle every specialized body
/// below is pinned against (tests/kernel_dispatch_test.cc). Change these
/// and every reproducibility guarantee in the repo moves with them.

void GenericSpMMRows(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* d, size_t k,
                     double* c, size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double* crow = c + i * k;
    for (size_t j = 0; j < k; ++j) crow[j] = 0.0;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = values[p];
      const double* drow = d + static_cast<size_t>(col_idx[p]) * k;
      for (size_t j = 0; j < k; ++j) {
        crow[j] += v * drow[j];
      }
    }
  }
}

void GenericAtBAccumulate(const double* a, size_t ka, const double* b,
                          size_t kb, size_t p_begin, size_t p_end,
                          double* out) {
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * ka;
    const double* brow = b + p * kb;
    for (size_t i = 0; i < ka; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out + i * kb;
      for (size_t j = 0; j < kb; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

void GenericMatMulRows(const double* a, size_t p_dim, const double* b,
                       size_t n, double* c, size_t row_begin,
                       size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * p_dim;
    double* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) crow[j] = 0.0;
    for (size_t p = 0; p < p_dim; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GenericABtRows(const double* a, size_t p_dim, const double* b,
                    size_t b_rows, double* c, size_t row_begin,
                    size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * p_dim;
    double* crow = c + i * b_rows;
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = b + j * p_dim;
      double dot = 0.0;
      for (size_t p = 0; p < p_dim; ++p) dot += arow[p] * brow[p];
      crow[j] = dot;
    }
  }
}

void GenericMulUpdateRange(double* m, const double* numer,
                           const double* denom, double eps, size_t begin,
                           size_t end) {
  for (size_t i = begin; i < end; ++i) {
    // Negative intermediate values can only arise from floating-point
    // noise (all rule terms are constructed non-negative); clamp before
    // the ratio.
    const double n = std::max(numer[i], 0.0) + eps;
    const double d = std::max(denom[i], 0.0) + eps;
    m[i] *= std::sqrt(n / d);
  }
}

double GenericSpCrossRows(const size_t* row_ptr, const uint32_t* col_idx,
                          const double* values, const double* u,
                          const double* v, size_t k, size_t row_begin,
                          size_t row_end) {
  double total = 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* urow = u + i * k;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double* vrow = v + static_cast<size_t>(col_idx[p]) * k;
      double dot = 0.0;
      for (size_t c = 0; c < k; ++c) dot += urow[c] * vrow[c];
      total += values[p] * dot;
    }
  }
  return total;
}

/// Fixed-k bodies: identical statement sequence per output element, with K
/// a compile-time constant so the accumulators live in registers for the
/// whole row (the generic loops must round-trip every += through memory —
/// the compiler cannot prove the output does not alias the inputs). The
/// inner loops below fully unroll at K ∈ {2,3}.

namespace {

template <size_t K>
void SpMMRowsFixed(const size_t* row_ptr, const uint32_t* col_idx,
                   const double* values, const double* d, double* c,
                   size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double acc[K];
    for (size_t j = 0; j < K; ++j) acc[j] = 0.0;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = values[p];
      const double* drow = d + static_cast<size_t>(col_idx[p]) * K;
      for (size_t j = 0; j < K; ++j) acc[j] += v * drow[j];
    }
    double* crow = c + i * K;
    for (size_t j = 0; j < K; ++j) crow[j] = acc[j];
  }
}

template <size_t K>
void AtBAccumulateFixed(const double* a, const double* b, size_t p_begin,
                        size_t p_end, double* out) {
  // The K×K product is registers-resident: load once, accumulate across
  // the whole row range, store once.
  double acc[K][K];
  for (size_t i = 0; i < K; ++i) {
    for (size_t j = 0; j < K; ++j) acc[i][j] = out[i * K + j];
  }
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * K;
    const double* brow = b + p * K;
    for (size_t i = 0; i < K; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      for (size_t j = 0; j < K; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (size_t i = 0; i < K; ++i) {
    for (size_t j = 0; j < K; ++j) out[i * K + j] = acc[i][j];
  }
}

template <size_t K>
void MatMulRowsFixed(const double* a, const double* b, double* c,
                     size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * K;
    double acc[K];
    for (size_t j = 0; j < K; ++j) acc[j] = 0.0;
    for (size_t p = 0; p < K; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * K;
      for (size_t j = 0; j < K; ++j) acc[j] += av * brow[j];
    }
    double* crow = c + i * K;
    for (size_t j = 0; j < K; ++j) crow[j] = acc[j];
  }
}

template <size_t K>
void ABtRowsFixed(const double* a, const double* b, size_t b_rows, double* c,
                  size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * K;
    double ar[K];
    for (size_t p = 0; p < K; ++p) ar[p] = arow[p];
    double* crow = c + i * b_rows;
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = b + j * K;
      double dot = 0.0;
      for (size_t p = 0; p < K; ++p) dot += ar[p] * brow[p];
      crow[j] = dot;
    }
  }
}

template <size_t K>
double SpCrossRowsFixed(const size_t* row_ptr, const uint32_t* col_idx,
                        const double* values, const double* u,
                        const double* v, size_t row_begin, size_t row_end) {
  double total = 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* urow = u + i * K;
    double ur[K];
    for (size_t c = 0; c < K; ++c) ur[c] = urow[c];
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double* vrow = v + static_cast<size_t>(col_idx[p]) * K;
      double dot = 0.0;
      for (size_t c = 0; c < K; ++c) dot += ur[c] * vrow[c];
      total += values[p] * dot;
    }
  }
  return total;
}

}  // namespace

void SpMMRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t, double* c,
                size_t row_begin, size_t row_end) {
  SpMMRowsFixed<2>(row_ptr, col_idx, values, d, c, row_begin, row_end);
}
void SpMMRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t, double* c,
                size_t row_begin, size_t row_end) {
  SpMMRowsFixed<3>(row_ptr, col_idx, values, d, c, row_begin, row_end);
}

void AtBAccumulateK2(const double* a, size_t, const double* b, size_t,
                     size_t p_begin, size_t p_end, double* out) {
  AtBAccumulateFixed<2>(a, b, p_begin, p_end, out);
}
void AtBAccumulateK3(const double* a, size_t, const double* b, size_t,
                     size_t p_begin, size_t p_end, double* out) {
  AtBAccumulateFixed<3>(a, b, p_begin, p_end, out);
}

void MatMulRowsK2(const double* a, size_t, const double* b, size_t, double* c,
                  size_t row_begin, size_t row_end) {
  MatMulRowsFixed<2>(a, b, c, row_begin, row_end);
}
void MatMulRowsK3(const double* a, size_t, const double* b, size_t, double* c,
                  size_t row_begin, size_t row_end) {
  MatMulRowsFixed<3>(a, b, c, row_begin, row_end);
}

void ABtRowsK2(const double* a, size_t, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end) {
  ABtRowsFixed<2>(a, b, b_rows, c, row_begin, row_end);
}
void ABtRowsK3(const double* a, size_t, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end) {
  ABtRowsFixed<3>(a, b, b_rows, c, row_begin, row_end);
}

double SpCrossRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t, size_t row_begin, size_t row_end) {
  return SpCrossRowsFixed<2>(row_ptr, col_idx, values, u, v, row_begin,
                             row_end);
}
double SpCrossRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t, size_t row_begin, size_t row_end) {
  return SpCrossRowsFixed<3>(row_ptr, col_idx, values, u, v, row_begin,
                             row_end);
}

}  // namespace kernels
}  // namespace triclust
