#ifndef TRICLUST_SRC_MATRIX_OPS_H_
#define TRICLUST_SRC_MATRIX_OPS_H_

#include <vector>

#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"

namespace triclust {

/// All kernels below run at the width of the ThreadBudget installed on the
/// calling thread, and serially when none is (src/util/parallel.h). The
/// row-partitioned products split their output rows across the pool, each
/// row computed by the serial per-row loop; the scalar reductions cut their
/// input into fixed-size chunks independent of the width and combine the
/// chunk sums in chunk order, and at width 1 they walk the same chunks in
/// the same order. Every kernel is therefore bit-identical at every width,
/// including 1.
///
/// Inner bodies (per row range / reduction chunk) are selected per call
/// from src/matrix/kernels.h according to the active KernelMode — see
/// src/matrix/kernel_dispatch.h for the mode semantics. Every tier is
/// bit-identical to the generic loops, and the parallel decomposition above
/// is mode-independent.
///
/// Each product has two forms: a value-returning convenience wrapper and an
/// `...Into` variant that writes into a caller-owned matrix, resizing it
/// without reallocation when its capacity suffices. The solver's update
/// pipeline calls the Into forms on workspace scratch so steady-state
/// iterations are allocation-free.

/// Dense kernels ------------------------------------------------------------

/// C = A·B. A is m×p, B is p×n.
DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b);
void MatMulInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c);

/// C = Aᵀ·B. A is p×m, B is p×n (shared leading dimension p). This is the
/// k×k workhorse (SᵀS, SᵀX·, ...) so it streams both operands row-wise.
DenseMatrix MatMulAtB(const DenseMatrix& a, const DenseMatrix& b);
void MatMulAtBInto(const DenseMatrix& a, const DenseMatrix& b,
                   DenseMatrix* c);

/// C = A·Bᵀ. A is m×p, B is n×p.
DenseMatrix MatMulABt(const DenseMatrix& a, const DenseMatrix& b);
void MatMulABtInto(const DenseMatrix& a, const DenseMatrix& b,
                   DenseMatrix* c);

/// Sparse–dense kernels ------------------------------------------------------

/// C = X·D. X is CSR m×n, D is n×k. O(nnz·k). Row-partitioned.
DenseMatrix SpMM(const SparseMatrix& x, const DenseMatrix& d);
void SpMMInto(const SparseMatrix& x, const DenseMatrix& d, DenseMatrix* c);

/// There is no Xᵀ·D kernel: form it as SpMM over X.Transposed(), built
/// once and reused (update::UpdateWorkspace caches one per data matrix).

/// Norms and traces -----------------------------------------------------------

/// ||D||²F.
double FrobeniusNormSquared(const DenseMatrix& d);

/// ||A − B||²F; shapes must match.
double FrobeniusDistanceSquared(const DenseMatrix& a, const DenseMatrix& b);

/// tr(AᵀB) = Σᵢⱼ AᵢⱼBᵢⱼ; shapes must match.
double TraceAtB(const DenseMatrix& a, const DenseMatrix& b);

/// ||X − U·Vᵀ||²F for sparse X (m×n), dense U (m×k), V (n×k), evaluated in
/// O(nnz·k + (m+n)·k²) without forming U·Vᵀ:
///   ||X||² − 2·Σ_{(i,j)∈nnz} Xᵢⱼ·(Uᵢ·Vⱼ) + tr((UᵀU)(VᵀV)).
/// When `xv` is not null (and is neither U nor V), the row pass that sums
/// the cross term also writes X·V into it: bit for bit what
/// SpMMInto(x, v, xv) gives, with the loss unchanged.
double FactorizationLossSquared(const SparseMatrix& x, const DenseMatrix& u,
                                const DenseMatrix& v,
                                DenseMatrix* xv = nullptr);

/// ||X − S·H·Fᵀ||²F, i.e. FactorizationLossSquared with U = S·H, writing
/// X·F into `xf` when it is not null.
double TriFactorizationLossSquared(const SparseMatrix& x,
                                   const DenseMatrix& s, const DenseMatrix& h,
                                   const DenseMatrix& f,
                                   DenseMatrix* xf = nullptr);

/// Graph regularization tr(Sᵀ·L·S) for L = D − G where G is a symmetric
/// non-negative CSR adjacency and D its degree diagonal:
///   Σᵢ dᵢ·||Sᵢ||² − Σ_{(i,j)∈G} Gᵢⱼ·(Sᵢ·Sⱼ).
double GraphLaplacianQuadraticForm(const SparseMatrix& g,
                                   const std::vector<double>& degrees,
                                   const DenseMatrix& s);

/// Element-wise helpers used by the multiplicative update rules ---------------

/// M ← M ∘ sqrt((max(numer, 0) + eps)/(max(denom, 0) + eps)), the guarded
/// multiplicative step over formed numerators and denominators: the
/// H-rules' k×k step (paper Eq. 12/13/20/21). `eps` keeps 0/0 stationary
/// and denominators positive. One plain loop in every kernel mode.
void MultiplicativeUpdateInPlace(DenseMatrix* m, const DenseMatrix& numer,
                                 const DenseMatrix& denom, double eps);

/// The terms of one S-rule's step (UpdateSp, UpdateSu, UpdateSf; paper
/// Eq. 7/9/11 offline, 20–26 online) on an n×k factor M. P, Q, R, S and the
/// pull target are n×k; K1, K2 and the Δ parts are k×k. A term left null,
/// and λ ≤ 0, is absent: skipped, never added as a zero. Built like
/// update::FitTargets: the required terms in braces, the optional ones
/// assigned after.
struct MultiplicativeStepTerms {
  const DenseMatrix& p;
  const DenseMatrix& q;
  const DenseMatrix& k1;
  const DenseMatrix& k2;
  /// Δ⁺ and Δ⁻, as SplitPositiveNegative forms them.
  const DenseMatrix& delta_pos;
  const DenseMatrix& delta_neg;
  /// c·R in the numerator and c·S in the denominator; both or neither.
  /// S may be M itself.
  double c = 0.0;
  const DenseMatrix* r = nullptr;
  const DenseMatrix* s = nullptr;
  /// The per-row pull wᵢ·Tᵢⱼ (numerator) and wᵢ·Mᵢⱼ (denominator); both
  /// or neither.
  const std::vector<double>* pull_weights = nullptr;
  const DenseMatrix* pull_target = nullptr;
  /// The L1 sparsity constant λ, added to every denominator when > 0.
  double lambda = 0.0;
};

/// One S-rule's numerator, denominator and step in a single row pass. Per
/// element, in this order:
///   numer = P + Q [+ c·R] + (M·Δ⁻) [+ wᵢ·Tᵢⱼ]
///   denom = (M·K1) + (M·K2) [+ c·S] + (M·Δ⁺) [+ wᵢ·Mᵢⱼ] [+ λ]
///   Mᵢⱼ ← Mᵢⱼ · sqrt((max(numer, 0) + eps) / (max(denom, 0) + eps))
/// with each M·K the MatMul row. That is bit for bit what forming each term
/// with MatMulInto, AddInPlace, Axpy and DiagScaleRowsInto in this order
/// and then calling MultiplicativeUpdateInPlace gives, without the
/// whole-matrix passes and their scratch. Row-partitioned; allocates
/// nothing per call.
void MultiplicativeStepInPlace(DenseMatrix* m,
                               const MultiplicativeStepTerms& terms,
                               double eps);

/// Splits M into its positive part (|M|+M)/2 and negative part (|M|−M)/2
/// (both entry-wise non-negative), the Δ⁺/Δ⁻ decomposition of the paper.
void SplitPositiveNegative(const DenseMatrix& m, DenseMatrix* positive,
                           DenseMatrix* negative);

/// out(i, :) = diag[i] * d(i, :). Used for the β·Du·Su Laplacian terms.
DenseMatrix DiagScaleRows(const std::vector<double>& diag,
                          const DenseMatrix& d);
void DiagScaleRowsInto(const std::vector<double>& diag, const DenseMatrix& d,
                       DenseMatrix* out);

/// True when every entry is ≥ 0 (invariant of all factor matrices).
bool IsNonNegative(const DenseMatrix& d);

/// True when every entry is finite.
bool AllFinite(const DenseMatrix& d);

}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_OPS_H_
