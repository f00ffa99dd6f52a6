#include "src/matrix/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/matrix/kernel_dispatch.h"
#include "src/matrix/kernels.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace triclust {
namespace {

/// Minimum rows before a row-partitioned product is worth a pool dispatch;
/// below this (notably the k×k association algebra, k = 2–3) the
/// cross-thread synchronization dwarfs the arithmetic. Results are
/// bit-identical either way, so this is purely a scheduling threshold.
constexpr size_t kMinRowsToParallelize = 32;

/// Σ x[i]·y[i] over [begin, end): the chunk body of TraceAtB and, with
/// x == y, of FrobeniusNormSquared. One plain loop in every kernel mode.
double DotRange(const double* x, const double* y, size_t begin, size_t end) {
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    total += x[i] * y[i];
  }
  return total;
}

/// Σ (x[i]−y[i])² over [begin, end): the chunk body of
/// FrobeniusDistanceSquared.
double DiffSquaredRange(const double* x, const double* y, size_t begin,
                        size_t end) {
  double total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double diff = x[i] - y[i];
    total += diff * diff;
  }
  return total;
}

/// The guarded step over [begin, end) of flat arrays: the body of
/// MultiplicativeUpdateInPlace.
void MulUpdateRange(double* m, const double* numer, const double* denom,
                    double eps, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    // Negative intermediate values can only arise from floating-point
    // noise (all rule terms are constructed non-negative); clamp before
    // the ratio.
    const double n = std::max(numer[i], 0.0) + eps;
    const double d = std::max(denom[i], 0.0) + eps;
    m[i] *= std::sqrt(n / d);
  }
}

}  // namespace

/// The dense/sparse products below all share one structure: ops.cc keeps
/// the shape checks, output sizing, and the parallel decomposition
/// (unchanged from the pre-dispatch code, so the bit-identical-at-every-
/// width contract of parallel.h is untouched), and the per-range body is
/// selected once per call from src/matrix/kernels.h — generic reference,
/// fixed-k unroll, or AVX2, per the active KernelMode (kernel_dispatch.h).
/// Selection happens here on the calling thread, so pool workers always
/// execute the fit thread's decision.

void MatMulInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  TRICLUST_CHECK(c != nullptr);
  TRICLUST_CHECK_EQ(a.cols(), b.rows());
  c->Resize(a.rows(), b.cols());
  const kernels::MatMulRowsFn body =
      kernels::SelectMatMulRows(a.cols(), b.cols());
  ParallelFor(0, a.rows(), kMinRowsToParallelize,
              [&](size_t row_begin, size_t row_end) {
                body(a.data(), a.cols(), b.data(), b.cols(), c->data(),
                     row_begin, row_end);
              });
}

DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  MatMulInto(a, b, &c);
  return c;
}

void MatMulAtBInto(const DenseMatrix& a, const DenseMatrix& b,
                   DenseMatrix* c) {
  TRICLUST_CHECK(c != nullptr);
  TRICLUST_CHECK_EQ(a.rows(), b.rows());
  c->Resize(a.cols(), b.cols());
  const size_t out_size = c->size();
  const size_t rows = a.rows();
  const kernels::AtBAccumulateFn accumulate =
      kernels::SelectAtBAccumulate(a.cols(), b.cols());

  if (rows <= kReduceRowGrain) {
    c->Fill(0.0);
    accumulate(a.data(), a.cols(), b.data(), b.cols(), 0, rows, c->data());
    return;
  }
  // Output is a small k×k accumulator shared by every input row, so this is
  // a chunked reduction: fixed-grain row chunks (independent of the width)
  // accumulate into private buffers, combined in chunk order. The chunked
  // path runs at EVERY width — with a width of 1 the ParallelFor below
  // degrades to an inline loop over the same chunks — so the result is
  // bit-identical no matter what thread budget a fit runs under. The
  // partials buffer is thread-local so steady-state solver iterations stay
  // allocation-free (each concurrent fit drives its kernels from its own
  // thread; pool workers write through the captured pointer).
  const size_t num_chunks = (rows + kReduceRowGrain - 1) / kReduceRowGrain;
  static thread_local std::vector<double> partials_storage;
  partials_storage.assign(num_chunks * out_size, 0.0);
  // Captured as a plain pointer: a lambda body naming a thread_local would
  // resolve it per-executing-thread, handing each pool worker its own
  // (empty) vector instead of the driving thread's buffer.
  double* const partials = partials_storage.data();
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t chunk = chunk_begin; chunk < chunk_end; ++chunk) {
      const size_t lo = chunk * kReduceRowGrain;
      const size_t hi = std::min(rows, lo + kReduceRowGrain);
      accumulate(a.data(), a.cols(), b.data(), b.cols(), lo, hi,
                 partials + chunk * out_size);
    }
  });
  c->Fill(0.0);
  double* out = c->data();
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const double* partial = partials + chunk * out_size;
    for (size_t i = 0; i < out_size; ++i) out[i] += partial[i];
  }
}

DenseMatrix MatMulAtB(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  MatMulAtBInto(a, b, &c);
  return c;
}

void MatMulABtInto(const DenseMatrix& a, const DenseMatrix& b,
                   DenseMatrix* c) {
  TRICLUST_CHECK(c != nullptr);
  TRICLUST_CHECK_EQ(a.cols(), b.cols());
  c->Resize(a.rows(), b.rows());
  const kernels::ABtRowsFn body = kernels::SelectABtRows(a.cols());
  ParallelFor(0, a.rows(), kMinRowsToParallelize,
              [&](size_t row_begin, size_t row_end) {
                body(a.data(), a.cols(), b.data(), b.rows(), c->data(),
                     row_begin, row_end);
              });
}

DenseMatrix MatMulABt(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  MatMulABtInto(a, b, &c);
  return c;
}

void SpMMInto(const SparseMatrix& x, const DenseMatrix& d, DenseMatrix* c) {
  TRICLUST_CHECK(c != nullptr);
  TRICLUST_CHECK_EQ(x.cols(), d.rows());
  c->Resize(x.rows(), d.cols());
  const auto& row_ptr = x.row_ptr();
  const auto& col_idx = x.col_idx();
  const auto& values = x.values();
  const kernels::SpMMRowsFn body = kernels::SelectSpMMRows(d.cols());
  ParallelFor(0, x.rows(), kMinRowsToParallelize,
              [&](size_t row_begin, size_t row_end) {
                body(row_ptr.data(), col_idx.data(), values.data(), d.data(),
                     d.cols(), c->data(), row_begin, row_end);
              });
}

DenseMatrix SpMM(const SparseMatrix& x, const DenseMatrix& d) {
  DenseMatrix c;
  SpMMInto(x, d, &c);
  return c;
}

double FrobeniusNormSquared(const DenseMatrix& d) {
  const double* p = d.data();
  return ParallelReduce(0, d.size(), kReduceFlatGrain,
                        [p](size_t begin, size_t end) {
                          return DotRange(p, p, begin, end);
                        });
}

double FrobeniusDistanceSquared(const DenseMatrix& a, const DenseMatrix& b) {
  TRICLUST_CHECK_EQ(a.rows(), b.rows());
  TRICLUST_CHECK_EQ(a.cols(), b.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  return ParallelReduce(0, a.size(), kReduceFlatGrain,
                        [pa, pb](size_t begin, size_t end) {
                          return DiffSquaredRange(pa, pb, begin, end);
                        });
}

double TraceAtB(const DenseMatrix& a, const DenseMatrix& b) {
  TRICLUST_CHECK_EQ(a.rows(), b.rows());
  TRICLUST_CHECK_EQ(a.cols(), b.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  return ParallelReduce(0, a.size(), kReduceFlatGrain,
                        [pa, pb](size_t begin, size_t end) {
                          return DotRange(pa, pb, begin, end);
                        });
}

double FactorizationLossSquared(const SparseMatrix& x, const DenseMatrix& u,
                                const DenseMatrix& v, DenseMatrix* xv) {
  TRICLUST_CHECK_EQ(x.rows(), u.rows());
  TRICLUST_CHECK_EQ(x.cols(), v.rows());
  TRICLUST_CHECK_EQ(u.cols(), v.cols());
  const size_t k = u.cols();
  double* xv_data = nullptr;
  if (xv != nullptr) {
    TRICLUST_CHECK(xv != &u && xv != &v);
    xv->Resize(x.rows(), k);
    xv_data = xv->data();
  }

  const auto& row_ptr = x.row_ptr();
  const auto& col_idx = x.col_idx();
  const auto& values = x.values();
  const kernels::SpCrossRowsFn cross_body = kernels::SelectSpCrossRows(k);
  // cross = Σ Xᵢⱼ (Uᵢ·Vⱼ), reduced over row ranges of X; each range also
  // writes its rows of X·V when asked.
  const double cross = ParallelReduce(
      0, x.rows(), kReduceRowGrain, [&](size_t row_begin, size_t row_end) {
        return cross_body(row_ptr.data(), col_idx.data(), values.data(),
                          u.data(), v.data(), k, xv_data, row_begin, row_end);
      });

  const DenseMatrix utu = MatMulAtB(u, u);
  const DenseMatrix vtv = MatMulAtB(v, v);
  // tr((UᵀU)(VᵀV)) — both are k×k and symmetric, so the trace is the
  // element-wise product; fold the mirrored off-diagonal pairs to walk only
  // the upper triangle.
  double quad = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double* urow = utu.Row(i);
    const double* vrow = vtv.Row(i);
    quad += urow[i] * vrow[i];
    double off = 0.0;
    for (size_t j = i + 1; j < k; ++j) off += urow[j] * vrow[j];
    quad += 2.0 * off;
  }
  return x.FrobeniusNormSquared() - 2.0 * cross + quad;
}

double TriFactorizationLossSquared(const SparseMatrix& x,
                                   const DenseMatrix& s, const DenseMatrix& h,
                                   const DenseMatrix& f, DenseMatrix* xf) {
  return FactorizationLossSquared(x, MatMul(s, h), f, xf);
}

double GraphLaplacianQuadraticForm(const SparseMatrix& g,
                                   const std::vector<double>& degrees,
                                   const DenseMatrix& s) {
  TRICLUST_CHECK_EQ(g.rows(), g.cols());
  TRICLUST_CHECK_EQ(g.rows(), s.rows());
  TRICLUST_CHECK_EQ(degrees.size(), s.rows());
  const size_t k = s.cols();

  const double diag = ParallelReduce(
      0, s.rows(), kReduceRowGrain, [&](size_t row_begin, size_t row_end) {
        double total = 0.0;
        for (size_t i = row_begin; i < row_end; ++i) {
          const double* row = s.Row(i);
          double norm_sq = 0.0;
          for (size_t c = 0; c < k; ++c) norm_sq += row[c] * row[c];
          total += degrees[i] * norm_sq;
        }
        return total;
      });

  const auto& row_ptr = g.row_ptr();
  const auto& col_idx = g.col_idx();
  const auto& values = g.values();
  // Same shape as the factorization cross term (u = v = S over G's
  // sparsity), so it shares that kernel family.
  const kernels::SpCrossRowsFn cross_body = kernels::SelectSpCrossRows(k);
  const double cross = ParallelReduce(
      0, g.rows(), kReduceRowGrain, [&](size_t row_begin, size_t row_end) {
        return cross_body(row_ptr.data(), col_idx.data(), values.data(),
                          s.data(), s.data(), k, nullptr, row_begin, row_end);
      });
  return diag - cross;
}

void MultiplicativeUpdateInPlace(DenseMatrix* m, const DenseMatrix& numer,
                                 const DenseMatrix& denom, double eps) {
  TRICLUST_CHECK(m != nullptr);
  TRICLUST_CHECK_EQ(m->rows(), numer.rows());
  TRICLUST_CHECK_EQ(m->cols(), numer.cols());
  TRICLUST_CHECK_EQ(m->rows(), denom.rows());
  TRICLUST_CHECK_EQ(m->cols(), denom.cols());
  double* pm = m->data();
  const double* pn = numer.data();
  const double* pd = denom.data();
  ParallelFor(0, m->size(), kReduceFlatGrain,
              [pm, pn, pd, eps](size_t begin, size_t end) {
                MulUpdateRange(pm, pn, pd, eps, begin, end);
              });
}

void MultiplicativeStepInPlace(DenseMatrix* m,
                               const MultiplicativeStepTerms& terms,
                               double eps) {
  TRICLUST_CHECK(m != nullptr);
  const size_t n = m->rows();
  const size_t k = m->cols();
  for (const DenseMatrix* rows : {&terms.p, &terms.q}) {
    TRICLUST_CHECK_EQ(rows->rows(), n);
    TRICLUST_CHECK_EQ(rows->cols(), k);
  }
  for (const DenseMatrix* kk : {&terms.k1, &terms.k2, &terms.delta_pos,
                                &terms.delta_neg}) {
    TRICLUST_CHECK_EQ(kk->rows(), k);
    TRICLUST_CHECK_EQ(kk->cols(), k);
  }
  TRICLUST_CHECK_EQ(terms.r == nullptr, terms.s == nullptr);
  if (terms.r != nullptr) {
    for (const DenseMatrix* rows : {terms.r, terms.s}) {
      TRICLUST_CHECK_EQ(rows->rows(), n);
      TRICLUST_CHECK_EQ(rows->cols(), k);
    }
  }
  TRICLUST_CHECK_EQ(terms.pull_weights == nullptr,
                    terms.pull_target == nullptr);
  if (terms.pull_weights != nullptr) {
    TRICLUST_CHECK_EQ(terms.pull_weights->size(), n);
    TRICLUST_CHECK_EQ(terms.pull_target->rows(), n);
    TRICLUST_CHECK_EQ(terms.pull_target->cols(), k);
  }
  const kernels::MulStepOperands operands{
      terms.p.data(),
      terms.q.data(),
      terms.c,
      terms.r != nullptr ? terms.r->data() : nullptr,
      terms.s != nullptr ? terms.s->data() : nullptr,
      terms.k1.data(),
      terms.k2.data(),
      terms.delta_pos.data(),
      terms.delta_neg.data(),
      terms.pull_weights != nullptr ? terms.pull_weights->data() : nullptr,
      terms.pull_target != nullptr ? terms.pull_target->data() : nullptr,
      terms.lambda,
      eps};
  const kernels::MulStepRowsFn body = kernels::SelectMulStepRows(k);
  double* const pm = m->data();
  ParallelFor(0, n, kMinRowsToParallelize,
              [&](size_t row_begin, size_t row_end) {
                body(pm, k, operands, row_begin, row_end);
              });
}

void SplitPositiveNegative(const DenseMatrix& m, DenseMatrix* positive,
                           DenseMatrix* negative) {
  TRICLUST_CHECK(positive != nullptr);
  TRICLUST_CHECK(negative != nullptr);
  positive->Resize(m.rows(), m.cols());
  negative->Resize(m.rows(), m.cols());
  const double* pm = m.data();
  double* pp = positive->data();
  double* pn = negative->data();
  ParallelFor(0, m.size(), kReduceFlatGrain,
              [pm, pp, pn](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  const double abs = std::fabs(pm[i]);
                  pp[i] = 0.5 * (abs + pm[i]);
                  pn[i] = 0.5 * (abs - pm[i]);
                }
              });
}

void DiagScaleRowsInto(const std::vector<double>& diag, const DenseMatrix& d,
                       DenseMatrix* out) {
  TRICLUST_CHECK(out != nullptr);
  TRICLUST_CHECK_EQ(diag.size(), d.rows());
  out->Resize(d.rows(), d.cols());
  ParallelFor(0, d.rows(), kReduceRowGrain,
              [&](size_t row_begin, size_t row_end) {
                for (size_t i = row_begin; i < row_end; ++i) {
                  const double* src = d.Row(i);
                  double* dst = out->Row(i);
                  for (size_t j = 0; j < d.cols(); ++j) {
                    dst[j] = diag[i] * src[j];
                  }
                }
              });
}

DenseMatrix DiagScaleRows(const std::vector<double>& diag,
                          const DenseMatrix& d) {
  DenseMatrix out;
  DiagScaleRowsInto(diag, d, &out);
  return out;
}

bool IsNonNegative(const DenseMatrix& d) {
  const double* p = d.data();
  for (size_t i = 0; i < d.size(); ++i) {
    if (p[i] < 0.0) return false;
  }
  return true;
}

bool AllFinite(const DenseMatrix& d) {
  const double* p = d.data();
  for (size_t i = 0; i < d.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

}  // namespace triclust
