#ifndef TRICLUST_SRC_CORE_UPDATES_H_
#define TRICLUST_SRC_CORE_UPDATES_H_

#include <vector>

#include "src/core/config.h"
#include "src/core/init.h"
#include "src/core/result.h"
#include "src/data/matrix_builder.h"
#include "src/graph/user_graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"

namespace triclust {
namespace update {

/// The multiplicative update rules of the tri-clustering framework
/// (paper Eq. 7, 9, 11, 12, 13 offline; Eq. 20–24, 26 online). Each rule
/// performs one in-place step M ← M ∘ sqrt(numerator/denominator) with the
/// Lagrangian Δ-term split into positive and negative parts, exactly as
/// derived in the paper; `eps` guards the denominators.
///
/// The online variants are the same formulas with time-dependent targets:
/// Sf's lexicon target becomes the decayed window aggregate Sfw(t) and Su
/// gains a per-row temporal term γ·(Su − Suw), so one parameterized kernel
/// serves both frameworks, and so does the one loop around the rules
/// (RunUpdateLoop, at the end of this file).
///
/// All three S-rules take an L1 `sparsity` weight (paper §7's sparsity
/// regularization; 0 turns it off): the sub-gradient of λs·||S||₁ over
/// S ≥ 0 is the constant λs, which lands in the denominator of the
/// multiplicative step and shrinks small entries toward zero.

/// The state every update rule runs on: cached CSR transposes of the data
/// matrices plus pre-sized scratch matrices for every intermediate of the
/// multiplicative algebra. One workspace owned for the duration of a fit
/// (what OfflineTriClusterer and OnlineTriClusterer do) makes every
/// iteration after the first allocation-free, and forms each Xᵀ·D as the
/// row-parallel SpMM over a transpose built once.
///
/// It also keeps the two X·Sf products that two rules of a sweep share,
/// since Sf changes only in its own rule (Eq. 7): UpdateSp keeps the Xp·Sf
/// it forms for UpdateHp, and UpdateSu keeps the Xu·Sf it forms for
/// UpdateHu. Each kept product is keyed on the X it came from (by address,
/// like the transposes) and on a copy of the Sf it came from (by bytes, so
/// an Sf edited in place is a miss). UpdateHp/UpdateHu reuse it only when
/// both keys match and otherwise form the product afresh, so they give
/// the bits of a rule run on a fresh workspace (the rules sharing a
/// workspace run under one fit's kernel mode).
///
/// A workspace may be shared by all five rules of a fit (they run
/// sequentially and the scratch is overwritten per call) but must not be
/// used from two threads at once, and the sparse matrices handed to the
/// rules must stay alive and unmodified while it caches their transposes
/// and products. Every rule requires one and CHECK-fails on nullptr; a
/// fresh workspace per call gives the same bits as a shared one.
class UpdateWorkspace {
 public:
  /// Identifies which data matrix a cached transpose belongs to.
  enum class TransposeSlot { kXp = 0, kXu = 1, kXr = 2 };

  /// Identifies a kept X·Sf product: Xp·Sf (UpdateSp → UpdateHp) or
  /// Xu·Sf (UpdateSu → UpdateHu).
  enum class ProductSlot { kXpSf = 0, kXuSf = 1 };

  /// The CSR transpose of `x`, built on first use and rebuilt only when a
  /// different matrix (by address) is bound to the slot.
  const SparseMatrix& Transposed(TransposeSlot slot, const SparseMatrix& x);

  /// Forms x·sf and keeps it in `slot`, keyed on x's address and a copy of
  /// sf. The S-rules call this: Sf may have changed since the last sweep.
  const DenseMatrix& FormXSf(ProductSlot slot, const SparseMatrix& x,
                             const DenseMatrix& sf);

  /// The product kept in `slot` when it was formed from this very `x` and
  /// from an Sf with the same bytes as `sf`; otherwise FormXSf(slot, x, sf).
  /// The H-rules call this.
  const DenseMatrix& KeptXSf(ProductSlot slot, const SparseMatrix& x,
                             const DenseMatrix& sf);

  /// Forgets the cached transposes and the kept X·Sf products (scratch
  /// matrices are kept). Needed when re-using a long-lived workspace
  /// against *new* data matrices that may coincidentally alias a prior
  /// fit's freed addresses — the by-address key cannot distinguish that
  /// case on its own.
  /// SnapshotSolver::Solve calls this on every caller-owned workspace;
  /// direct users of the update rules must do likewise at fit boundaries.
  void ResetTransposeCache();

  /// Scratch matrices, used freely by the update rules. rows_* hold
  /// (n|m|l)×k intermediates, kk_* hold k×k ones.
  DenseMatrix rows_a, rows_b, rows_c, rows_d, rows_e, rows_f;
  DenseMatrix kk_a, kk_b, kk_c, kk_d, kk_e, kk_f;
  DenseMatrix delta, delta_pos, delta_neg;
  DenseMatrix numer, denom;

 private:
  struct CachedTranspose {
    const SparseMatrix* source = nullptr;
    SparseMatrix transposed;
  };
  CachedTranspose transpose_cache_[3];

  struct KeptProduct {
    const SparseMatrix* x = nullptr;
    DenseMatrix sf;       // the Sf the product was formed from
    DenseMatrix product;  // x·sf
  };
  KeptProduct kept_products_[2];
};

/// Eq. (7)/(23): feature-cluster update. `sf_target` is Sf0 offline and
/// Sfw(t) online; `alpha` weighs the term.
void UpdateSf(const SparseMatrix& xp, const SparseMatrix& xu,
              const DenseMatrix& sp, const DenseMatrix& su,
              const DenseMatrix& hp, const DenseMatrix& hu, double alpha,
              const DenseMatrix& sf_target, DenseMatrix* sf, double eps,
              double sparsity, UpdateWorkspace* workspace);

/// Eq. (9)/(22): tweet-cluster update. `prior_weights`/`prior_target`
/// optionally add a per-row quadratic pull δᵢ·||Spᵢ − targetᵢ||² — the
/// guided (semi-supervised) regularization of paper §7, used to inject
/// seed tweet labels; both must be passed together.
void UpdateSp(const SparseMatrix& xp, const SparseMatrix& xr,
              const DenseMatrix& sf, const DenseMatrix& hp,
              const DenseMatrix& su, DenseMatrix* sp, double eps,
              double sparsity, const std::vector<double>* prior_weights,
              const DenseMatrix* prior_target, UpdateWorkspace* workspace);

/// Eq. (11) offline (temporal_weights == nullptr) and Eq. (24)/(26) online:
/// user-cluster update with graph regularization β and optional per-row
/// temporal regularization. `temporal_weights` holds the per-row γ (0 for
/// new users, γ for evolving users) and `temporal_target` the decayed
/// aggregate Suw(t); both must be passed together.
void UpdateSu(const SparseMatrix& xu, const SparseMatrix& xr,
              const UserGraph& gu, const DenseMatrix& sf,
              const DenseMatrix& hu, const DenseMatrix& sp, double beta,
              const std::vector<double>* temporal_weights,
              const DenseMatrix* temporal_target, DenseMatrix* su,
              double eps, double sparsity, UpdateWorkspace* workspace);

/// Eq. (12)/(21): tweet-association update. Reuses the Xp·Sf that
/// UpdateSp kept in `workspace` when its keys match (see UpdateWorkspace).
void UpdateHp(const SparseMatrix& xp, const DenseMatrix& sp,
              const DenseMatrix& sf, DenseMatrix* hp, double eps,
              UpdateWorkspace* workspace);

/// Eq. (13)/(20): user-association update. Reuses the Xu·Sf that
/// UpdateSu kept in `workspace` when its keys match (see UpdateWorkspace).
void UpdateHu(const SparseMatrix& xu, const DenseMatrix& su,
              const DenseMatrix& sf, DenseMatrix* hu, double eps,
              UpdateWorkspace* workspace);

/// An optional per-row pull δᵢ·||Mᵢ − targetᵢ||² on a cluster matrix: the
/// (weights, target) pair of UpdateSp's prior and UpdateSu's temporal
/// slots. Both null means no pull.
struct RowPull {
  const std::vector<double>* weights = nullptr;
  const DenseMatrix* target = nullptr;
};

/// Everything that tells Algorithm 2's loop from Algorithm 1's, passed by
/// reference; the referenced matrices must outlive the loop.
struct FitTargets {
  /// Sf's target and its weight α: Sf0 with TriClusterConfig::alpha
  /// offline, Sfw(t) with OnlineConfig::alpha online.
  const DenseMatrix& sf_target;
  double alpha;
  /// Guided tweet seeds (offline only).
  RowPull sp_pull = {};
  /// Guided user seeds offline, the γ-weighted Suw(t) online.
  RowPull su_pull = {};
  /// Books the Su pull's loss as temporal_user_loss (online) rather than
  /// guided_loss (offline). LossComponents::Total() sums in a fixed order,
  /// so the booking is part of the stop test's bits and of Fig. 8's output.
  bool su_pull_is_temporal = false;
};

/// The multiplicative loop of Algorithms 1 and 2, starting from the initial
/// factors `f`: records the objective, then sweeps Sp → Hp → Su → Hu → Sf
/// until the relative objective change drops below config.tolerance or
/// config.max_iterations sweeps have run. A sweep that makes the objective
/// non-finite is undone — the last finite iterate is restored and that
/// sweep's loss dropped — and ends the loop. Reads config's β, ε, sparsity,
/// tolerance and track_loss (α comes from `targets`); the caller installs
/// the fit's thread budget and kernel mode.
TriClusterResult RunUpdateLoop(const DatasetMatrices& data,
                               const TriClusterConfig& config,
                               const FitTargets& targets, FactorSet f,
                               UpdateWorkspace* workspace);

}  // namespace update
}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_UPDATES_H_
