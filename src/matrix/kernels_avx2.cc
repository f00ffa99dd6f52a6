/// AVX2 kernel bodies. This is the ONE translation unit compiled with
/// -mavx2. It is built without -mfma, so the compiler has no FMA
/// instruction to fuse the mul+add sequences into (-ffp-contract=off
/// forbids the fusion as well; see CMakeLists.txt). It deliberately
/// includes no project headers beyond kernels.h (plain declarations): any
/// inline function instantiated here would be compiled with AVX2 and could
/// be the copy the linker keeps, crashing non-AVX2 hosts.
///
/// On targets where the compiler cannot produce AVX2 (no __AVX2__ after
/// the flags), every body forwards to its generic counterpart and
/// Avx2KernelsCompiled() reports false, so dispatch never advertises a
/// vector tier it does not have.
///
/// Bit-exactness notes (every body here matches the generic loop):
///  - products use separate _mm256_mul_pd + _mm256_add_pd (never FMA);
///    per output element that is the scalar op sequence on independent
///    lanes, so results match the generic loop bit-for-bit.
///  - the k = 3 MatMul and AtB bodies and the step bodies do not branch on
///    the generic loops' a == 0 skip: a term whose a-entry is ±0 is
///    selected to +0.0 (its product and-ed with a cmp NEQ_UQ mask, so NaN
///    a-entries are kept and a skipped 0·∞ never becomes NaN). That gives
///    the skip's bits because every accumulator starts at +0.0 and, under
///    round-to-nearest, a sum is −0.0 only when both operands are: the
///    accumulator never holds −0.0, so adding +0.0 never changes it.
///    MatMul and the step's m·K terms therefore add their first term to
///    +0.0 rather than assigning it (a −0.0 product becomes +0.0, as in the
///    generic loop); AtB's accumulators start from the caller-zeroed
///    output.
///  - k = 3 rows are 3 lanes: loaded as one 2-wide and one scalar load
///    (lane 3 reads as 0.0) and stored the same way, so the fourth lane is
///    never read from or written to memory.

#include "src/matrix/kernels.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace triclust {
namespace kernels {

#if defined(__AVX2__)

namespace {

/// p[0..2] in lanes 0–2 and 0.0 in lane 3: one 2-wide and one scalar load.
inline __m256d Load3(const double* p) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p)),
                              _mm_load_sd(p + 2), 1);
}

/// Stores lanes 0–2 to p[0..2]; lane 3 is never written.
inline void Store3(double* p, __m256d v) {
  _mm_storeu_pd(p, _mm256_castpd256_pd128(v));
  _mm_store_sd(p + 2, _mm256_extractf128_pd(v, 1));
}

/// The term (*a)·row, selected to +0.0 where *a == ±0 (the generic skip).
inline __m256d SelectedTerm(const double* a, __m256d row) {
  const __m256d av = _mm256_broadcast_sd(a);
  const __m256d keep = _mm256_cmp_pd(av, _mm256_setzero_pd(), _CMP_NEQ_UQ);
  return _mm256_and_pd(keep, _mm256_mul_pd(av, row));
}

/// The 2-lane SelectedTerm.
inline __m128d SelectedTerm2(const double* a, __m128d row) {
  const __m128d av = _mm_set1_pd(*a);
  const __m128d keep = _mm_cmp_pd(av, _mm_setzero_pd(), _CMP_NEQ_UQ);
  return _mm_and_pd(keep, _mm_mul_pd(av, row));
}

/// The k×k matrix b as its rows, for the step bodies' m·K terms.
struct Rows3 {
  explicit Rows3(const double* b)
      : r0(Load3(b)), r1(Load3(b + 3)), r2(Load3(b + 6)) {}
  __m256d r0, r1, r2;
};
struct Rows2 {
  explicit Rows2(const double* b)
      : r0(_mm_loadu_pd(b)), r1(_mm_loadu_pd(b + 2)) {}
  __m128d r0, r1;
};

/// The MatMul row a·b: from +0.0, ascending p, ±0 a-entries selected out.
inline __m256d RowTimes(const double* a, const Rows3& b) {
  __m256d acc = _mm256_add_pd(_mm256_setzero_pd(), SelectedTerm(a, b.r0));
  acc = _mm256_add_pd(acc, SelectedTerm(a + 1, b.r1));
  return _mm256_add_pd(acc, SelectedTerm(a + 2, b.r2));
}
inline __m128d RowTimes(const double* a, const Rows2& b) {
  const __m128d acc = _mm_add_pd(_mm_setzero_pd(), SelectedTerm2(a, b.r0));
  return _mm_add_pd(acc, SelectedTerm2(a + 1, b.r1));
}

}  // namespace

bool Avx2KernelsCompiled() { return true; }

void Avx2SpMMRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t, double* c,
                    size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    __m128d acc = _mm_setzero_pd();
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const __m128d v = _mm_set1_pd(values[p]);
      const __m128d drow =
          _mm_loadu_pd(d + static_cast<size_t>(col_idx[p]) * 2);
      acc = _mm_add_pd(acc, _mm_mul_pd(v, drow));
    }
    _mm_storeu_pd(c + i * 2, acc);
  }
}

void Avx2SpMMRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t, double* c,
                    size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    __m128d acc01 = _mm_setzero_pd();
    double acc2 = 0.0;
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const double v = values[p];
      const double* drow = d + static_cast<size_t>(col_idx[p]) * 3;
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(_mm_set1_pd(v),
                                           _mm_loadu_pd(drow)));
      acc2 += v * drow[2];
    }
    double* crow = c + i * 3;
    _mm_storeu_pd(crow, acc01);
    crow[2] = acc2;
  }
}

void Avx2AtBAccumulateK2(const double* a, size_t, const double* b, size_t,
                         size_t p_begin, size_t p_end, double* out) {
  __m128d acc0 = _mm_loadu_pd(out);
  __m128d acc1 = _mm_loadu_pd(out + 2);
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * 2;
    const __m128d brow = _mm_loadu_pd(b + p * 2);
    if (arow[0] != 0.0) {
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_set1_pd(arow[0]), brow));
    }
    if (arow[1] != 0.0) {
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_set1_pd(arow[1]), brow));
    }
  }
  _mm_storeu_pd(out, acc0);
  _mm_storeu_pd(out + 2, acc1);
}

void Avx2AtBAccumulateK3(const double* a, size_t, const double* b, size_t,
                         size_t p_begin, size_t p_end, double* out) {
  __m256d acc0 = Load3(out);
  __m256d acc1 = Load3(out + 3);
  __m256d acc2 = Load3(out + 6);
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * 3;
    const __m256d brow = Load3(b + p * 3);
    acc0 = _mm256_add_pd(acc0, SelectedTerm(arow, brow));
    acc1 = _mm256_add_pd(acc1, SelectedTerm(arow + 1, brow));
    acc2 = _mm256_add_pd(acc2, SelectedTerm(arow + 2, brow));
  }
  Store3(out, acc0);
  Store3(out + 3, acc1);
  Store3(out + 6, acc2);
}

void Avx2MatMulRowsK3(const double* a, size_t, const double* b, size_t,
                      double* c, size_t row_begin, size_t row_end) {
  const __m256d b0 = Load3(b);
  const __m256d b1 = Load3(b + 3);
  const __m256d b2 = Load3(b + 6);
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* arow = a + i * 3;
    // Added to +0.0, not assigned: a −0.0 first product must become +0.0.
    __m256d acc = _mm256_add_pd(_mm256_setzero_pd(), SelectedTerm(arow, b0));
    acc = _mm256_add_pd(acc, SelectedTerm(arow + 1, b1));
    acc = _mm256_add_pd(acc, SelectedTerm(arow + 2, b2));
    Store3(c + i * 3, acc);
  }
}

/// The step bodies: the generic element sequence on independent lanes, one
/// row per iteration. The clamp is max(0, x) with x as the second operand:
/// MAXPD returns its second operand when either is NaN or both are zero,
/// so NaN propagates with its payload, −0.0 keeps its sign (and +eps
/// neutralizes it) and negatives clamp to +0.0, exactly like
/// std::max(x, 0.0). Per-lane div and sqrt are correctly rounded IEEE, like
/// their scalar forms. Row i of m is loaded before it is stored, so s may
/// be m itself.

void Avx2MulStepRowsK3(double* m, size_t, const MulStepOperands& o,
                       size_t row_begin, size_t row_end) {
  const Rows3 k1(o.k1), k2(o.k2), delta_pos(o.delta_pos),
      delta_neg(o.delta_neg);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d eps = _mm256_set1_pd(o.eps);
  const __m256d c = _mm256_set1_pd(o.c);
  const __m256d lambda = _mm256_set1_pd(o.lambda);
  const bool has_c = o.r != nullptr;
  const bool has_pull = o.pull_weights != nullptr;
  const bool has_lambda = o.lambda > 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t e = i * 3;
    double* const mrow = m + e;
    const __m256d mv = Load3(mrow);
    __m256d numer = _mm256_add_pd(Load3(o.p + e), Load3(o.q + e));
    if (has_c) numer = _mm256_add_pd(numer, _mm256_mul_pd(c, Load3(o.r + e)));
    numer = _mm256_add_pd(numer, RowTimes(mrow, delta_neg));
    __m256d denom = _mm256_add_pd(RowTimes(mrow, k1), RowTimes(mrow, k2));
    if (has_c) denom = _mm256_add_pd(denom, _mm256_mul_pd(c, Load3(o.s + e)));
    denom = _mm256_add_pd(denom, RowTimes(mrow, delta_pos));
    if (has_pull) {
      const __m256d w = _mm256_broadcast_sd(o.pull_weights + i);
      numer = _mm256_add_pd(numer, _mm256_mul_pd(w, Load3(o.pull_target + e)));
      denom = _mm256_add_pd(denom, _mm256_mul_pd(w, mv));
    }
    if (has_lambda) denom = _mm256_add_pd(denom, lambda);
    const __m256d n = _mm256_add_pd(_mm256_max_pd(zero, numer), eps);
    const __m256d d = _mm256_add_pd(_mm256_max_pd(zero, denom), eps);
    Store3(mrow, _mm256_mul_pd(mv, _mm256_sqrt_pd(_mm256_div_pd(n, d))));
  }
}

void Avx2MulStepRowsK2(double* m, size_t, const MulStepOperands& o,
                       size_t row_begin, size_t row_end) {
  const Rows2 k1(o.k1), k2(o.k2), delta_pos(o.delta_pos),
      delta_neg(o.delta_neg);
  const __m128d zero = _mm_setzero_pd();
  const __m128d eps = _mm_set1_pd(o.eps);
  const __m128d c = _mm_set1_pd(o.c);
  const __m128d lambda = _mm_set1_pd(o.lambda);
  const bool has_c = o.r != nullptr;
  const bool has_pull = o.pull_weights != nullptr;
  const bool has_lambda = o.lambda > 0.0;
  for (size_t i = row_begin; i < row_end; ++i) {
    const size_t e = i * 2;
    double* const mrow = m + e;
    const __m128d mv = _mm_loadu_pd(mrow);
    __m128d numer = _mm_add_pd(_mm_loadu_pd(o.p + e), _mm_loadu_pd(o.q + e));
    if (has_c) numer = _mm_add_pd(numer, _mm_mul_pd(c, _mm_loadu_pd(o.r + e)));
    numer = _mm_add_pd(numer, RowTimes(mrow, delta_neg));
    __m128d denom = _mm_add_pd(RowTimes(mrow, k1), RowTimes(mrow, k2));
    if (has_c) denom = _mm_add_pd(denom, _mm_mul_pd(c, _mm_loadu_pd(o.s + e)));
    denom = _mm_add_pd(denom, RowTimes(mrow, delta_pos));
    if (has_pull) {
      const __m128d w = _mm_set1_pd(o.pull_weights[i]);
      numer = _mm_add_pd(numer, _mm_mul_pd(w, _mm_loadu_pd(o.pull_target + e)));
      denom = _mm_add_pd(denom, _mm_mul_pd(w, mv));
    }
    if (has_lambda) denom = _mm_add_pd(denom, lambda);
    const __m128d n = _mm_add_pd(_mm_max_pd(zero, numer), eps);
    const __m128d d = _mm_add_pd(_mm_max_pd(zero, denom), eps);
    _mm_storeu_pd(mrow, _mm_mul_pd(mv, _mm_sqrt_pd(_mm_div_pd(n, d))));
  }
}

#else  // !defined(__AVX2__)

bool Avx2KernelsCompiled() { return false; }

void Avx2SpMMRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t k,
                    double* c, size_t row_begin, size_t row_end) {
  GenericSpMMRows(row_ptr, col_idx, values, d, k, c, row_begin, row_end);
}
void Avx2SpMMRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t k,
                    double* c, size_t row_begin, size_t row_end) {
  GenericSpMMRows(row_ptr, col_idx, values, d, k, c, row_begin, row_end);
}
void Avx2AtBAccumulateK2(const double* a, size_t ka, const double* b,
                         size_t kb, size_t p_begin, size_t p_end,
                         double* out) {
  GenericAtBAccumulate(a, ka, b, kb, p_begin, p_end, out);
}
void Avx2AtBAccumulateK3(const double* a, size_t ka, const double* b,
                         size_t kb, size_t p_begin, size_t p_end,
                         double* out) {
  GenericAtBAccumulate(a, ka, b, kb, p_begin, p_end, out);
}
void Avx2MatMulRowsK3(const double* a, size_t p_dim, const double* b,
                      size_t n, double* c, size_t row_begin, size_t row_end) {
  GenericMatMulRows(a, p_dim, b, n, c, row_begin, row_end);
}
void Avx2MulStepRowsK2(double* m, size_t k, const MulStepOperands& o,
                       size_t row_begin, size_t row_end) {
  GenericMulStepRows(m, k, o, row_begin, row_end);
}
void Avx2MulStepRowsK3(double* m, size_t k, const MulStepOperands& o,
                       size_t row_begin, size_t row_end) {
  GenericMulStepRows(m, k, o, row_begin, row_end);
}

#endif  // defined(__AVX2__)

}  // namespace kernels
}  // namespace triclust
