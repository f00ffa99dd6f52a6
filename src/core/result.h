#ifndef TRICLUST_SRC_CORE_RESULT_H_
#define TRICLUST_SRC_CORE_RESULT_H_

#include <vector>

#include "src/matrix/dense_matrix.h"
#include "src/matrix/ops.h"

namespace triclust {

/// Per-component value of the tri-clustering objective at one iteration
/// (regularization weights already applied), used for the convergence study
/// of paper Fig. 8.
struct LossComponents {
  /// ||Xp − Sp·Hp·Sfᵀ||²F (Eq. 2).
  double xp_loss = 0.0;
  /// ||Xu − Su·Hu·Sfᵀ||²F (Eq. 3).
  double xu_loss = 0.0;
  /// ||Xr − Su·Spᵀ||²F (Eq. 4).
  double xr_loss = 0.0;
  /// α·||Sf − target||²F (Eq. 5 offline; temporal feature reg online).
  double lexicon_loss = 0.0;
  /// β·tr(SuᵀLuSu) (Eq. 6).
  double graph_loss = 0.0;
  /// γ·||Su − Suw||²F over evolving users (online only).
  double temporal_user_loss = 0.0;
  /// δ·(||Sp − seed||² + ||Su − seed||²) over seeded rows (guided mode).
  double guided_loss = 0.0;

  double Total() const {
    return xp_loss + xu_loss + xr_loss + lexicon_loss + graph_loss +
           temporal_user_loss + guided_loss;
  }
};

/// Output of one tri-clustering solve (offline, or one online snapshot).
struct TriClusterResult {
  /// Tweet-cluster matrix Sp (n×k); row i is the soft sentiment of tweet i.
  DenseMatrix sp;
  /// User-cluster matrix Su (m×k).
  DenseMatrix su;
  /// Feature-cluster matrix Sf (l×k).
  DenseMatrix sf;
  /// Association matrices (k×k).
  DenseMatrix hp;
  DenseMatrix hu;

  /// Loss at each recorded iteration (empty when track_loss is false).
  std::vector<LossComponents> loss_history;
  int iterations = 0;
  bool converged = false;

  /// Hard cluster assignment of each tweet (argmax of Sp rows).
  std::vector<int> TweetClusters() const { return sp.RowArgMax(); }
  /// Hard cluster assignment of each user.
  std::vector<int> UserClusters() const { return su.RowArgMax(); }
  /// Hard cluster assignment of each feature.
  std::vector<int> FeatureClusters() const { return sf.RowArgMax(); }
};

/// True when every factor of `result` is finite. A NaN or Inf anywhere
/// means a poisoned stream (corrupt restore, degenerate input):
/// SnapshotSolver::Solve does not roll such a result into the stream state,
/// and CampaignEngine::Advance rejects the fit.
inline bool ResultIsFinite(const TriClusterResult& result) {
  return AllFinite(result.sp) && AllFinite(result.su) &&
         AllFinite(result.sf) && AllFinite(result.hp) && AllFinite(result.hu);
}

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_RESULT_H_
