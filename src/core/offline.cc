#include "src/core/offline.h"

#include <vector>

#include "src/core/init.h"
#include "src/core/updates.h"
#include "src/util/logging.h"

namespace triclust {

OfflineTriClusterer::OfflineTriClusterer(TriClusterConfig config)
    : config_(config) {
  const Status valid = ValidateConfig(config_);
  if (!valid.ok()) TRICLUST_LOG(kError) << valid.message();
  TRICLUST_CHECK(valid.ok());
}

namespace {

/// Expands seed labels into a per-row pull toward each seed's one-hot
/// class row, stored in `weights`/`target`; rows without a usable seed get
/// weight 0. No seeds, no pull.
update::RowPull SeedPull(const std::vector<Sentiment>& seeds, size_t rows,
                         size_t k, double weight,
                         std::vector<double>* weights, DenseMatrix* target) {
  if (seeds.empty()) return {};
  TRICLUST_CHECK_EQ(seeds.size(), rows);
  weights->assign(rows, 0.0);
  *target = DenseMatrix(rows, k, 0.0);
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (seeds[i] == Sentiment::kUnlabeled) continue;
    const int cls = SentimentIndex(seeds[i]);
    if (cls >= static_cast<int>(k)) continue;
    (*weights)[i] = weight;
    (*target)(i, static_cast<size_t>(cls)) = 1.0;
  }
  return {weights, target};
}

}  // namespace

TriClusterResult OfflineTriClusterer::Run(const DatasetMatrices& data,
                                          const DenseMatrix& sf0,
                                          const Supervision* supervision) const {
  TRICLUST_CHECK_EQ(data.xp.rows(), data.xr.cols());
  TRICLUST_CHECK_EQ(data.xu.rows(), data.xr.rows());
  TRICLUST_CHECK_EQ(data.xp.cols(), data.xu.cols());
  TRICLUST_CHECK_EQ(sf0.rows(), data.xp.cols());
  TRICLUST_CHECK_EQ(sf0.cols(), static_cast<size_t>(config_.num_clusters));

  // The kernels run at the width of the caller's installed thread budget
  // (serially under none), and one workspace amortizes the data-matrix
  // transposes plus all update scratch across iterations.
  ScopedKernelMode kernel_scope(config_.kernel_mode);
  update::UpdateWorkspace workspace;

  // Guided mode: expand seed labels into per-row pulls for Sp and Su.
  update::FitTargets targets{sf0, config_.alpha};
  std::vector<double> tweet_seed_weights, user_seed_weights;
  DenseMatrix tweet_seed_target, user_seed_target;
  if (supervision != nullptr) {
    TRICLUST_CHECK_GE(supervision->weight, 0.0);
    const size_t k = static_cast<size_t>(config_.num_clusters);
    targets.sp_pull = SeedPull(supervision->tweet_seeds, data.num_tweets(), k,
                               supervision->weight, &tweet_seed_weights,
                               &tweet_seed_target);
    targets.su_pull = SeedPull(supervision->user_seeds, data.num_users(), k,
                               supervision->weight, &user_seed_weights,
                               &user_seed_target);
  }

  return update::RunUpdateLoop(data, config_, targets,
                               InitializeFactors(data, sf0, config_),
                               &workspace);
}

}  // namespace triclust
