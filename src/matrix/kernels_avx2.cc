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
///  - the multiplicative update uses _mm256_max_pd(0, x), whose
///    second-operand NaN/±0 semantics exactly reproduce std::max(x, 0.0):
///    NaN propagates, -0.0 is kept (and neutralized by +eps), negatives
///    clamp. Per-lane div/sqrt are correctly rounded IEEE, like their
///    scalar forms.
///  - masked tails process the remaining lanes with the same per-lane ops.

#include "src/matrix/kernels.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace triclust {
namespace kernels {

#if defined(__AVX2__)

namespace {

/// Lane mask with the low `rem` (1–3) lanes active.
inline __m256i TailMask(size_t rem) {
  return _mm256_setr_epi64x(rem > 0 ? -1 : 0, rem > 1 ? -1 : 0,
                            rem > 2 ? -1 : 0, 0);
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

void Avx2SpMMRowsK4(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t, double* c,
                    size_t row_begin, size_t row_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const __m256d v = _mm256_set1_pd(values[p]);
      const __m256d drow =
          _mm256_loadu_pd(d + static_cast<size_t>(col_idx[p]) * 4);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(v, drow));
    }
    _mm256_storeu_pd(c + i * 4, acc);
  }
}

void Avx2SpMMRowsWide(const size_t* row_ptr, const uint32_t* col_idx,
                      const double* values, const double* d, size_t k,
                      double* c, size_t row_begin, size_t row_end) {
  const size_t full = k / 4 * 4;
  const size_t rem = k - full;
  const __m256i tail = TailMask(rem);
  for (size_t i = row_begin; i < row_end; ++i) {
    double* crow = c + i * k;
    // 4-lane column blocks, each with its accumulator in a register across
    // the whole sparse row; the row's index/value arrays are re-walked per
    // block, which the d-row traffic dwarfs for k this large.
    for (size_t jb = 0; jb < full; jb += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const __m256d v = _mm256_set1_pd(values[p]);
        const __m256d drow =
            _mm256_loadu_pd(d + static_cast<size_t>(col_idx[p]) * k + jb);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, drow));
      }
      _mm256_storeu_pd(crow + jb, acc);
    }
    if (rem > 0) {
      __m256d acc = _mm256_setzero_pd();
      for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        const __m256d v = _mm256_set1_pd(values[p]);
        const __m256d drow = _mm256_maskload_pd(
            d + static_cast<size_t>(col_idx[p]) * k + full, tail);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(v, drow));
      }
      _mm256_maskstore_pd(crow + full, tail, acc);
    }
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
  // 3-lane masked rows: lane 3 stays zero in every accumulator and is never
  // stored, so the three live lanes see exactly the scalar op sequence.
  const __m256i mask = TailMask(3);
  __m256d acc0 = _mm256_maskload_pd(out, mask);
  __m256d acc1 = _mm256_maskload_pd(out + 3, mask);
  __m256d acc2 = _mm256_maskload_pd(out + 6, mask);
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * 3;
    const __m256d brow = _mm256_maskload_pd(b + p * 3, mask);
    if (arow[0] != 0.0) {
      acc0 = _mm256_add_pd(acc0,
                           _mm256_mul_pd(_mm256_set1_pd(arow[0]), brow));
    }
    if (arow[1] != 0.0) {
      acc1 = _mm256_add_pd(acc1,
                           _mm256_mul_pd(_mm256_set1_pd(arow[1]), brow));
    }
    if (arow[2] != 0.0) {
      acc2 = _mm256_add_pd(acc2,
                           _mm256_mul_pd(_mm256_set1_pd(arow[2]), brow));
    }
  }
  _mm256_maskstore_pd(out, mask, acc0);
  _mm256_maskstore_pd(out + 3, mask, acc1);
  _mm256_maskstore_pd(out + 6, mask, acc2);
}

void Avx2AtBAccumulateK4(const double* a, size_t, const double* b, size_t,
                         size_t p_begin, size_t p_end, double* out) {
  __m256d acc0 = _mm256_loadu_pd(out);
  __m256d acc1 = _mm256_loadu_pd(out + 4);
  __m256d acc2 = _mm256_loadu_pd(out + 8);
  __m256d acc3 = _mm256_loadu_pd(out + 12);
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * 4;
    const __m256d brow = _mm256_loadu_pd(b + p * 4);
    // The a(p,i)==0 skip of the generic loop is kept per output row: av is
    // a scalar broadcast, so skipping is still an all-lanes decision.
    if (arow[0] != 0.0) {
      acc0 = _mm256_add_pd(acc0,
                           _mm256_mul_pd(_mm256_set1_pd(arow[0]), brow));
    }
    if (arow[1] != 0.0) {
      acc1 = _mm256_add_pd(acc1,
                           _mm256_mul_pd(_mm256_set1_pd(arow[1]), brow));
    }
    if (arow[2] != 0.0) {
      acc2 = _mm256_add_pd(acc2,
                           _mm256_mul_pd(_mm256_set1_pd(arow[2]), brow));
    }
    if (arow[3] != 0.0) {
      acc3 = _mm256_add_pd(acc3,
                           _mm256_mul_pd(_mm256_set1_pd(arow[3]), brow));
    }
  }
  _mm256_storeu_pd(out, acc0);
  _mm256_storeu_pd(out + 4, acc1);
  _mm256_storeu_pd(out + 8, acc2);
  _mm256_storeu_pd(out + 12, acc3);
}

void Avx2AtBAccumulateWide(const double* a, size_t ka, const double* b,
                           size_t kb, size_t p_begin, size_t p_end,
                           double* out) {
  const size_t full = kb / 4 * 4;
  const size_t rem = kb - full;
  const __m256i tail = TailMask(rem);
  for (size_t p = p_begin; p < p_end; ++p) {
    const double* arow = a + p * ka;
    const double* brow = b + p * kb;
    for (size_t i = 0; i < ka; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      const __m256d avv = _mm256_set1_pd(av);
      double* orow = out + i * kb;
      for (size_t j = 0; j < full; j += 4) {
        const __m256d sum = _mm256_add_pd(
            _mm256_loadu_pd(orow + j),
            _mm256_mul_pd(avv, _mm256_loadu_pd(brow + j)));
        _mm256_storeu_pd(orow + j, sum);
      }
      if (rem > 0) {
        const __m256d sum = _mm256_add_pd(
            _mm256_maskload_pd(orow + full, tail),
            _mm256_mul_pd(avv, _mm256_maskload_pd(brow + full, tail)));
        _mm256_maskstore_pd(orow + full, tail, sum);
      }
    }
  }
}

void Avx2MulUpdateRange(double* m, const double* numer, const double* denom,
                        double eps, size_t begin, size_t end) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d veps = _mm256_set1_pd(eps);
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    // max(0, x) keeps x as the second operand so NaN propagates and ±0
    // keeps its sign, exactly like std::max(x, 0.0).
    const __m256d n = _mm256_add_pd(
        _mm256_max_pd(zero, _mm256_loadu_pd(numer + i)), veps);
    const __m256d d = _mm256_add_pd(
        _mm256_max_pd(zero, _mm256_loadu_pd(denom + i)), veps);
    const __m256d step = _mm256_sqrt_pd(_mm256_div_pd(n, d));
    _mm256_storeu_pd(m + i, _mm256_mul_pd(_mm256_loadu_pd(m + i), step));
  }
  if (i < end) GenericMulUpdateRange(m, numer, denom, eps, i, end);
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
void Avx2SpMMRowsK4(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t k,
                    double* c, size_t row_begin, size_t row_end) {
  GenericSpMMRows(row_ptr, col_idx, values, d, k, c, row_begin, row_end);
}
void Avx2SpMMRowsWide(const size_t* row_ptr, const uint32_t* col_idx,
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
void Avx2AtBAccumulateK4(const double* a, size_t ka, const double* b,
                         size_t kb, size_t p_begin, size_t p_end,
                         double* out) {
  GenericAtBAccumulate(a, ka, b, kb, p_begin, p_end, out);
}
void Avx2AtBAccumulateWide(const double* a, size_t ka, const double* b,
                           size_t kb, size_t p_begin, size_t p_end,
                           double* out) {
  GenericAtBAccumulate(a, ka, b, kb, p_begin, p_end, out);
}
void Avx2MulUpdateRange(double* m, const double* numer, const double* denom,
                        double eps, size_t begin, size_t end) {
  GenericMulUpdateRange(m, numer, denom, eps, begin, end);
}

#endif  // defined(__AVX2__)

}  // namespace kernels
}  // namespace triclust
