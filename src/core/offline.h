#ifndef TRICLUST_SRC_CORE_OFFLINE_H_
#define TRICLUST_SRC_CORE_OFFLINE_H_

#include "src/core/config.h"
#include "src/core/result.h"
#include "src/data/matrix_builder.h"
#include "src/matrix/dense_matrix.h"

namespace triclust {

/// The offline tri-clustering solver (paper §3, Algorithm 1).
///
/// Minimizes
///   ||Xp − Sp·Hp·Sfᵀ||²F + ||Xu − Su·Hu·Sfᵀ||²F + ||Xr − Su·Spᵀ||²F
///   + α·||Sf − Sf0||²F + β·tr(SuᵀLuSu)
/// over non-negative factors with the analytical multiplicative updates of
/// Eq. (7)/(9)/(11)/(12)/(13), iterating until the relative objective change
/// drops below `tolerance` or `max_iterations` is reached. The paper (§3.2)
/// states that the objective is non-increasing under each update. The tests
/// check that per step only for the Hp and Hu rules, and for the temporal
/// Su step of the online solver on small random instances. On the
/// Prop30-like bench corpus at the default config, the Sf and Su rules
/// raise the objective in 285 and 143 of 300 sweeps.
///
/// Typical use:
///   MatrixBuilder builder; builder.Fit(corpus);
///   DatasetMatrices data = builder.BuildAll(corpus);
///   DenseMatrix sf0 = lexicon.BuildSf0(builder.vocabulary(), k);
///   TriClusterResult result = OfflineTriClusterer(config).Run(data, sf0);
///   std::vector<int> tweet_clusters = result.TweetClusters();
/// Optional seed labels for guided (semi-supervised) tri-clustering — the
/// "guided regularization" of the paper's §7 and the §1 remark that
/// "performance can be improved by including high quality labeled data".
/// Seeded rows of Sp/Su are pulled toward their one-hot class row with
/// weight δ; kUnlabeled entries are free. Either vector may be empty.
struct Supervision {
  /// Per-tweet seeds, size n or empty.
  std::vector<Sentiment> tweet_seeds;
  /// Per-user seeds, size m or empty.
  std::vector<Sentiment> user_seeds;
  /// Pull weight δ.
  double weight = 1.0;
};

class OfflineTriClusterer {
 public:
  explicit OfflineTriClusterer(TriClusterConfig config = {});

  const TriClusterConfig& config() const { return config_; }

  /// Solves over the given matrices; `sf0` is the l×k lexicon prior.
  /// `supervision` optionally turns the solver semi-supervised. Runs at the
  /// width of the ThreadBudget its caller installed, serially under none
  /// (src/util/parallel.h); the result is bit-identical at every width.
  TriClusterResult Run(const DatasetMatrices& data, const DenseMatrix& sf0,
                       const Supervision* supervision = nullptr) const;

 private:
  TriClusterConfig config_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_OFFLINE_H_
