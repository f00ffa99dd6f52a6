#include <algorithm>
#include <cmath>
#include <vector>

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

void GenericMulStepRows(double* m, size_t k, const MulStepOperands& o,
                        size_t row_begin, size_t row_end) {
  // Per row: a copy of it, since its m·K terms read all of it before any
  // entry is written, and the four m·K rows, accumulated together in
  // GenericMatMulRows' order. Thread-local: each pool worker runs its own
  // rows.
  static thread_local std::vector<double> scratch;
  scratch.resize(5 * k);
  double* const row = scratch.data();
  double* const m_k1 = row + k;
  double* const m_k2 = row + 2 * k;
  double* const m_delta_pos = row + 3 * k;
  double* const m_delta_neg = row + 4 * k;
  // Copied out of `o`: as far as the compiler knows, a store to m could
  // change them, which would reload them for every element.
  const double c = o.c;
  const double lambda = o.lambda;
  const double eps = o.eps;
  for (size_t i = row_begin; i < row_end; ++i) {
    double* const mrow = m + i * k;
    for (size_t j = 0; j < k; ++j) {
      row[j] = mrow[j];
      m_k1[j] = 0.0;
      m_k2[j] = 0.0;
      m_delta_pos[j] = 0.0;
      m_delta_neg[j] = 0.0;
    }
    for (size_t p = 0; p < k; ++p) {
      const double a = row[p];
      if (a == 0.0) continue;
      const size_t b = p * k;
      for (size_t j = 0; j < k; ++j) {
        m_k1[j] += a * o.k1[b + j];
        m_k2[j] += a * o.k2[b + j];
        m_delta_pos[j] += a * o.delta_pos[b + j];
        m_delta_neg[j] += a * o.delta_neg[b + j];
      }
    }
    for (size_t j = 0; j < k; ++j) {
      const size_t e = i * k + j;
      double numer = o.p[e] + o.q[e];
      if (o.r != nullptr) numer += c * o.r[e];
      numer += m_delta_neg[j];
      if (o.pull_weights != nullptr) {
        numer += o.pull_weights[i] * o.pull_target[e];
      }
      double denom = m_k1[j] + m_k2[j];
      if (o.r != nullptr) denom += c * o.s[e];
      denom += m_delta_pos[j];
      if (o.pull_weights != nullptr) denom += o.pull_weights[i] * row[j];
      if (lambda > 0.0) denom += lambda;
      // Negative intermediate values can only arise from floating-point
      // noise (all rule terms are constructed non-negative); clamp before
      // the ratio.
      const double n = std::max(numer, 0.0) + eps;
      const double d = std::max(denom, 0.0) + eps;
      mrow[j] = row[j] * std::sqrt(n / d);
    }
  }
}

double GenericSpCrossRows(const size_t* row_ptr, const uint32_t* col_idx,
                          const double* values, const double* u,
                          const double* v, size_t k, double* xv,
                          size_t row_begin, size_t row_end) {
  double total = 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* urow = u + i * k;
    // X·V's row: GenericSpMMRows' loop, run beside the cross sum.
    double* xvrow = xv != nullptr ? xv + i * k : nullptr;
    if (xvrow != nullptr) {
      for (size_t j = 0; j < k; ++j) xvrow[j] = 0.0;
    }
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double* vrow = v + static_cast<size_t>(col_idx[p]) * k;
      double dot = 0.0;
      for (size_t c = 0; c < k; ++c) dot += urow[c] * vrow[c];
      total += values[p] * dot;
      if (xvrow != nullptr) {
        for (size_t j = 0; j < k; ++j) xvrow[j] += values[p] * vrow[j];
      }
    }
  }
  return total;
}

/// Fixed-k bodies: identical statement sequence per output element, with K
/// a compile-time constant so the accumulators live in registers for the
/// whole row (the generic loops must round-trip every += through memory —
/// the compiler cannot prove the output does not alias the inputs). The
/// inner loops below fully unroll at K ∈ {2,3}.
///
/// The explicit unrolls matter at -O2 (the default RelWithDebInfo build):
/// GCC unrolls none of these loops by itself there and then keeps the
/// accumulators on the stack, reloading them for every term. They change
/// no operation's order.

namespace {

template <size_t K>
void SpMMRowsFixed(const size_t* row_ptr, const uint32_t* col_idx,
                   const double* values, const double* d, double* c,
                   size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    double acc[K];
#pragma GCC unroll 4
    for (size_t j = 0; j < K; ++j) acc[j] = 0.0;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = values[p];
      const double* drow = d + static_cast<size_t>(col_idx[p]) * K;
#pragma GCC unroll 4
      for (size_t j = 0; j < K; ++j) acc[j] += v * drow[j];
    }
    double* crow = c + i * K;
#pragma GCC unroll 4
    for (size_t j = 0; j < K; ++j) crow[j] = acc[j];
  }
}

template <size_t K>
void AtBAccumulateFixed(const double* a, const double* b, size_t p_begin,
                        size_t p_end, double* out) {
  // The K×K product is registers-resident: load once, accumulate across
  // the whole row range, store once.
  double acc[K][K];
#pragma GCC unroll 4
  for (size_t i = 0; i < K; ++i) {
#pragma GCC unroll 4
    for (size_t j = 0; j < K; ++j) acc[i][j] = out[i * K + j];
  }
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * K;
    const double* brow = b + p * K;
#pragma GCC unroll 4
    for (size_t i = 0; i < K; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
#pragma GCC unroll 4
      for (size_t j = 0; j < K; ++j) acc[i][j] += av * brow[j];
    }
  }
#pragma GCC unroll 4
  for (size_t i = 0; i < K; ++i) {
#pragma GCC unroll 4
    for (size_t j = 0; j < K; ++j) out[i * K + j] = acc[i][j];
  }
}

template <size_t K>
void MatMulRowsFixed(const double* a, const double* b, double* c,
                     size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * K;
    double acc[K];
#pragma GCC unroll 4
    for (size_t j = 0; j < K; ++j) acc[j] = 0.0;
#pragma GCC unroll 4
    for (size_t p = 0; p < K; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b + p * K;
#pragma GCC unroll 4
      for (size_t j = 0; j < K; ++j) acc[j] += av * brow[j];
    }
    double* crow = c + i * K;
#pragma GCC unroll 4
    for (size_t j = 0; j < K; ++j) crow[j] = acc[j];
  }
}

template <size_t K>
void ABtRowsFixed(const double* a, const double* b, size_t b_rows, double* c,
                  size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * K;
    double ar[K];
#pragma GCC unroll 4
    for (size_t p = 0; p < K; ++p) ar[p] = arow[p];
    double* crow = c + i * b_rows;
    for (size_t j = 0; j < b_rows; ++j) {
      const double* brow = b + j * K;
      double dot = 0.0;
#pragma GCC unroll 4
      for (size_t p = 0; p < K; ++p) dot += ar[p] * brow[p];
      crow[j] = dot;
    }
  }
}

/// kFormXV adds X·V's row, accumulated as SpMMRowsFixed does.
template <size_t K, bool kFormXV>
double SpCrossRowsFixed(const size_t* row_ptr, const uint32_t* col_idx,
                        const double* values, const double* u,
                        const double* v, double* xv, size_t row_begin,
                        size_t row_end) {
  double total = 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* urow = u + i * K;
    double ur[K];
    double acc[K];
#pragma GCC unroll 4
    for (size_t c = 0; c < K; ++c) {
      ur[c] = urow[c];
      acc[c] = 0.0;
    }
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double x = values[p];
      const double* vrow = v + static_cast<size_t>(col_idx[p]) * K;
      double dot = 0.0;
#pragma GCC unroll 4
      for (size_t c = 0; c < K; ++c) dot += ur[c] * vrow[c];
      total += x * dot;
      if constexpr (kFormXV) {
#pragma GCC unroll 4
        for (size_t j = 0; j < K; ++j) acc[j] += x * vrow[j];
      }
    }
    if constexpr (kFormXV) {
      double* xvrow = xv + i * K;
#pragma GCC unroll 4
      for (size_t j = 0; j < K; ++j) xvrow[j] = acc[j];
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
                     size_t, double* xv, size_t row_begin, size_t row_end) {
  return xv != nullptr
             ? SpCrossRowsFixed<2, true>(row_ptr, col_idx, values, u, v, xv,
                                         row_begin, row_end)
             : SpCrossRowsFixed<2, false>(row_ptr, col_idx, values, u, v,
                                          nullptr, row_begin, row_end);
}
double SpCrossRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t, double* xv, size_t row_begin, size_t row_end) {
  return xv != nullptr
             ? SpCrossRowsFixed<3, true>(row_ptr, col_idx, values, u, v, xv,
                                         row_begin, row_end)
             : SpCrossRowsFixed<3, false>(row_ptr, col_idx, values, u, v,
                                          nullptr, row_begin, row_end);
}

}  // namespace kernels
}  // namespace triclust
