#ifndef TRICLUST_SRC_MATRIX_KERNELS_H_
#define TRICLUST_SRC_MATRIX_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace triclust {
namespace kernels {

/// Internal kernel bodies behind the public ops.h entry points.
///
/// ops.cc keeps ownership of shape checks, output sizing, and the parallel
/// decomposition (ParallelFor row ranges / fixed-grain reduction chunks —
/// the bit-identical-at-every-width contract of parallel.h). What it
/// delegates here is the body run over one row range / flat range /
/// accumulation chunk, selected once per kernel invocation on the calling
/// thread via the Select* functions below (which read the active dispatch,
/// see kernel_dispatch.h).
///
/// Everything is raw-pointer based on purpose: kernels_avx2.cc is the one
/// TU compiled with -mavx2, and keeping class headers (with their inline
/// member functions) out of it prevents the linker from ever picking an
/// AVX2-compiled copy of shared inline code for a non-AVX2 host.
///
/// Dense matrices are row-major with stride == cols (DenseMatrix layout);
/// sparse operands arrive as their CSR arrays.
///
/// Naming: Generic* is the reference loop (bitwise oracle), *K2/K3 the
/// unrolled fixed-k bodies, Avx2* the vector bodies. All three tiers are
/// bit-identical; see kernel_dispatch.h. Specialized bodies exist only for
/// the shapes a program runs (k = 2 and 3; AtB and MatMul only k×k);
/// every other shape runs the Generic* body. Only dispatched bodies live
/// here: the flat reductions (TraceAtB, the Frobenius forms) are one plain
/// loop each, private to ops.cc.

/// --- body signatures -------------------------------------------------------

/// SpMM rows [row_begin, row_end): c(i,:) = Σ_p values[p]·d(col_idx[p],:),
/// k-wide rows. Zeroes each output row before accumulating.
using SpMMRowsFn = void (*)(const size_t* row_ptr, const uint32_t* col_idx,
                            const double* values, const double* d, size_t k,
                            double* c, size_t row_begin, size_t row_end);

/// MatMulAtB accumulation: out(ka×kb) += Σ_{p∈[p_begin,p_end)}
/// a(p,:)ᵀ·b(p,:). Adds into `out` (caller zeroes it), preserving the
/// generic per-element add order and its a(p,i)==0 skip.
using AtBAccumulateFn = void (*)(const double* a, size_t ka, const double* b,
                                 size_t kb, size_t p_begin, size_t p_end,
                                 double* out);

/// MatMul rows [row_begin, row_end): c(i,:) = Σ_p a(i,p)·b(p,:), where a is
/// ·×p_dim and b is p_dim×n. Zeroes each output row first; skips a(i,p)==0
/// like the generic loop.
using MatMulRowsFn = void (*)(const double* a, size_t p_dim, const double* b,
                              size_t n, double* c, size_t row_begin,
                              size_t row_end);

/// MatMulABt rows [row_begin, row_end): c(i,j) = a(i,:)·b(j,:) over the
/// shared p_dim; b has b_rows rows.
using ABtRowsFn = void (*)(const double* a, size_t p_dim, const double* b,
                           size_t b_rows, double* c, size_t row_begin,
                           size_t row_end);

/// Element range [begin, end) of the guarded multiplicative step
/// m[i] *= sqrt((max(n[i],0)+eps) / (max(d[i],0)+eps)).
using MulUpdateRangeFn = void (*)(double* m, const double* numer,
                                  const double* denom, double eps,
                                  size_t begin, size_t end);

/// Σ_{i∈[row_begin,row_end)} Σ_{p∈row i} values[p]·(u(i,:)·v(col_idx[p],:))
/// — the cross term of FactorizationLossSquared and of the graph
/// Laplacian quadratic form. k-wide factor rows.
using SpCrossRowsFn = double (*)(const size_t* row_ptr,
                                 const uint32_t* col_idx,
                                 const double* values, const double* u,
                                 const double* v, size_t k, size_t row_begin,
                                 size_t row_end);

/// --- selection (reads ActiveDispatch(); call on the kernel's calling
/// thread, before handing the body to ParallelFor/ParallelReduce) ---------

SpMMRowsFn SelectSpMMRows(size_t k);
AtBAccumulateFn SelectAtBAccumulate(size_t ka, size_t kb);
MatMulRowsFn SelectMatMulRows(size_t p_dim, size_t n);
ABtRowsFn SelectABtRows(size_t p_dim);
MulUpdateRangeFn SelectMulUpdateRange();
SpCrossRowsFn SelectSpCrossRows(size_t k);

/// --- scalar bodies (kernels_fixed_k.cc) -----------------------------------

void GenericSpMMRows(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* d, size_t k,
                     double* c, size_t row_begin, size_t row_end);
void SpMMRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t k, double* c,
                size_t row_begin, size_t row_end);
void SpMMRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                const double* values, const double* d, size_t k, double* c,
                size_t row_begin, size_t row_end);

void GenericAtBAccumulate(const double* a, size_t ka, const double* b,
                          size_t kb, size_t p_begin, size_t p_end,
                          double* out);
void AtBAccumulateK2(const double* a, size_t ka, const double* b, size_t kb,
                     size_t p_begin, size_t p_end, double* out);
void AtBAccumulateK3(const double* a, size_t ka, const double* b, size_t kb,
                     size_t p_begin, size_t p_end, double* out);

void GenericMatMulRows(const double* a, size_t p_dim, const double* b,
                       size_t n, double* c, size_t row_begin, size_t row_end);
void MatMulRowsK2(const double* a, size_t p_dim, const double* b, size_t n,
                  double* c, size_t row_begin, size_t row_end);
void MatMulRowsK3(const double* a, size_t p_dim, const double* b, size_t n,
                  double* c, size_t row_begin, size_t row_end);

void GenericABtRows(const double* a, size_t p_dim, const double* b,
                    size_t b_rows, double* c, size_t row_begin,
                    size_t row_end);
void ABtRowsK2(const double* a, size_t p_dim, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end);
void ABtRowsK3(const double* a, size_t p_dim, const double* b, size_t b_rows,
               double* c, size_t row_begin, size_t row_end);

void GenericMulUpdateRange(double* m, const double* numer,
                           const double* denom, double eps, size_t begin,
                           size_t end);

double GenericSpCrossRows(const size_t* row_ptr, const uint32_t* col_idx,
                          const double* values, const double* u,
                          const double* v, size_t k, size_t row_begin,
                          size_t row_end);
double SpCrossRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t k, size_t row_begin, size_t row_end);
double SpCrossRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                     const double* values, const double* u, const double* v,
                     size_t k, size_t row_begin, size_t row_end);

/// --- AVX2 TU bodies (kernels_avx2.cc; forward to the generic bodies when
/// the TU is compiled without AVX2 — Avx2KernelsCompiled() tells which) ----

/// True when this build's AVX2 TU really carries vector code (i.e. the
/// compiler accepted -mavx2). The public triclust::Avx2KernelsCompiled()
/// forwards here.
bool Avx2KernelsCompiled();

/// Separate mul+add (never FMA) and per-lane IEEE ops: bit-identical.
void Avx2SpMMRowsK2(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t k,
                    double* c, size_t row_begin, size_t row_end);
void Avx2SpMMRowsK3(const size_t* row_ptr, const uint32_t* col_idx,
                    const double* values, const double* d, size_t k,
                    double* c, size_t row_begin, size_t row_end);
void Avx2AtBAccumulateK2(const double* a, size_t ka, const double* b,
                         size_t kb, size_t p_begin, size_t p_end,
                         double* out);
void Avx2AtBAccumulateK3(const double* a, size_t ka, const double* b,
                         size_t kb, size_t p_begin, size_t p_end,
                         double* out);
void Avx2MulUpdateRange(double* m, const double* numer, const double* denom,
                        double eps, size_t begin, size_t end);

}  // namespace kernels
}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_KERNELS_H_
