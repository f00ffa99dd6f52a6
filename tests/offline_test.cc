#include "src/core/offline.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/init.h"
#include "src/eval/metrics.h"
#include "src/matrix/ops.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::WithOverflowingEntry;

TEST(OfflineTest, ObjectiveDescendsThenStabilizes) {
  // The paper (§3.2) states that each update rule is non-increasing at
  // fixed other factors; updates_test checks that per step only for Hp and
  // Hu (and the temporal Su step on small random instances), and on
  // Prop30-like data the Sf and Su steps do raise the objective. The
  // composed sweep oscillates near the balance point, as in paper Fig. 8
  // ("minimizes the loss for Eq. (3) at the cost of increasing the error of
  // Eq. (2), and then vice versa"). The testable property: a deep initial
  // descent, then bounded oscillation.
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 40;
  config.tolerance = 0.0;  // run all iterations
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  ASSERT_GT(r.loss_history.size(), 10u);
  const double first = r.loss_history.front().Total();
  double lowest = first;
  for (const LossComponents& loss : r.loss_history) {
    lowest = std::min(lowest, loss.Total());
  }
  EXPECT_LT(lowest, 0.9 * first);  // deep descent happened
  // The early phase (before the balancing regime) is strictly decreasing.
  for (size_t i = 1; i < std::min<size_t>(8, r.loss_history.size()); ++i) {
    EXPECT_LE(r.loss_history[i].Total(),
              r.loss_history[i - 1].Total() * (1.0 + 1e-6))
        << "at iteration " << i;
  }
  // Oscillation stays near the floor rather than diverging.
  EXPECT_LE(r.loss_history.back().Total(), 1.5 * lowest);
}

TEST(OfflineTest, FactorsStayNonNegativeAndFinite) {
  const auto p = MakeSmallProblem();
  const TriClusterResult r = OfflineTriClusterer().Run(p.data, p.sf0);
  EXPECT_TRUE(IsNonNegative(r.sp));
  EXPECT_TRUE(IsNonNegative(r.su));
  EXPECT_TRUE(IsNonNegative(r.sf));
  EXPECT_TRUE(IsNonNegative(r.hp));
  EXPECT_TRUE(IsNonNegative(r.hu));
  EXPECT_TRUE(AllFinite(r.sp));
  EXPECT_TRUE(AllFinite(r.su));
  EXPECT_TRUE(AllFinite(r.sf));
}

TEST(OfflineTest, ShapesMatchProblem) {
  const auto p = MakeSmallProblem();
  const TriClusterResult r = OfflineTriClusterer().Run(p.data, p.sf0);
  EXPECT_EQ(r.sp.rows(), p.data.num_tweets());
  EXPECT_EQ(r.su.rows(), p.data.num_users());
  EXPECT_EQ(r.sf.rows(), p.data.num_features());
  EXPECT_EQ(r.sp.cols(), 3u);
  EXPECT_EQ(r.hp.rows(), 3u);
  EXPECT_EQ(r.TweetClusters().size(), p.data.num_tweets());
  EXPECT_EQ(r.UserClusters().size(), p.data.num_users());
  EXPECT_EQ(r.FeatureClusters().size(), p.data.num_features());
}

TEST(OfflineTest, RecoversSentimentAboveChance) {
  const auto p = MakeSmallProblem();
  const TriClusterResult r = OfflineTriClusterer().Run(p.data, p.sf0);
  const double tweet_acc =
      ClusteringAccuracy(r.TweetClusters(), p.data.tweet_labels);
  const double user_acc =
      ClusteringAccuracy(r.UserClusters(), p.data.user_labels);
  EXPECT_GT(tweet_acc, 0.6);
  EXPECT_GT(user_acc, 0.6);
}

TEST(OfflineTest, DeterministicForFixedSeed) {
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 15;
  const TriClusterResult a = OfflineTriClusterer(config).Run(p.data, p.sf0);
  const TriClusterResult b = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_EQ(a.sp, b.sp);
  EXPECT_EQ(a.su, b.su);
  EXPECT_EQ(a.sf, b.sf);
}

TEST(OfflineTest, ToleranceStopsEarly) {
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 500;
  config.tolerance = 1e-2;  // loose → early stop
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 500);
}

TEST(OfflineTest, RandomInitAlsoConverges) {
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.init = InitStrategy::kRandom;
  config.max_iterations = 60;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  ASSERT_FALSE(r.loss_history.empty());
  EXPECT_LT(r.loss_history.back().Total(),
            r.loss_history.front().Total());
}

TEST(OfflineTest, LexiconSeededBeatsRandomInitOnAccuracy) {
  const auto p = MakeSmallProblem();
  TriClusterConfig seeded;
  seeded.max_iterations = 40;
  TriClusterConfig random = seeded;
  random.init = InitStrategy::kRandom;
  const TriClusterResult rs = OfflineTriClusterer(seeded).Run(p.data, p.sf0);
  const TriClusterResult rr = OfflineTriClusterer(random).Run(p.data, p.sf0);
  const double acc_seeded =
      ClusteringAccuracy(rs.TweetClusters(), p.data.tweet_labels);
  const double acc_random =
      ClusteringAccuracy(rr.TweetClusters(), p.data.tweet_labels);
  EXPECT_GE(acc_seeded + 0.05, acc_random);  // seeded at least comparable
}

TEST(OfflineTest, TwoClusterConfiguration) {
  const auto p = MakeSmallProblem(/*seed=*/6, /*k=*/2);
  TriClusterConfig config;
  config.num_clusters = 2;
  config.max_iterations = 30;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_EQ(r.sp.cols(), 2u);
  for (int c : r.TweetClusters()) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 2);
  }
}

TEST(OfflineTest, ZeroRegularizationWeights) {
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.alpha = 0.0;
  config.beta = 0.0;
  config.max_iterations = 20;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  ASSERT_FALSE(r.loss_history.empty());
  EXPECT_DOUBLE_EQ(r.loss_history.back().lexicon_loss, 0.0);
  EXPECT_DOUBLE_EQ(r.loss_history.back().graph_loss, 0.0);
  EXPECT_LT(r.loss_history.back().Total(), r.loss_history.front().Total());
}

TEST(OfflineTest, LossComponentsAllNonNegative) {
  const auto p = MakeSmallProblem();
  const TriClusterResult r = OfflineTriClusterer().Run(p.data, p.sf0);
  for (const LossComponents& loss : r.loss_history) {
    EXPECT_GE(loss.xp_loss, 0.0);
    EXPECT_GE(loss.xu_loss, 0.0);
    EXPECT_GE(loss.xr_loss, 0.0);
    EXPECT_GE(loss.lexicon_loss, 0.0);
    EXPECT_GE(loss.graph_loss, -1e-9);
    EXPECT_DOUBLE_EQ(loss.temporal_user_loss, 0.0);
  }
}

TEST(OfflineTest, TrackLossOffKeepsHistoryEmpty) {
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.track_loss = false;
  config.max_iterations = 5;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_TRUE(r.loss_history.empty());
  EXPECT_EQ(r.iterations, 5);
}

TEST(OfflineTest, ValidateConfigRejectsOutOfRangeParameters) {
  EXPECT_TRUE(ValidateConfig(TriClusterConfig()).ok());
  TriClusterConfig one_cluster;
  one_cluster.num_clusters = 1;
  TriClusterConfig nan_alpha;
  nan_alpha.alpha = std::nan("");
  TriClusterConfig negative_beta;
  negative_beta.beta = -0.1;
  TriClusterConfig no_iterations;
  no_iterations.max_iterations = 0;
  // A NaN epsilon stops every fit after one sweep with its initial factors;
  // a NaN tolerance or sparsity breaks the stop test or the rules.
  TriClusterConfig nan_epsilon;
  nan_epsilon.epsilon = std::nan("");
  TriClusterConfig zero_epsilon;
  zero_epsilon.epsilon = 0.0;
  TriClusterConfig nan_tolerance;
  nan_tolerance.tolerance = std::nan("");
  TriClusterConfig negative_tolerance;
  negative_tolerance.tolerance = -1e-5;
  TriClusterConfig nan_sparsity;
  nan_sparsity.sparsity = std::nan("");
  TriClusterConfig negative_sparsity;
  negative_sparsity.sparsity = -0.1;
  for (const TriClusterConfig& bad :
       {one_cluster, nan_alpha, negative_beta, no_iterations, nan_epsilon,
        zero_epsilon, nan_tolerance, negative_tolerance, nan_sparsity,
        negative_sparsity}) {
    EXPECT_EQ(ValidateConfig(bad).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ValidateConfig(negative_beta).message(),
            "config requires beta >= 0");
  EXPECT_EQ(ValidateConfig(nan_epsilon).message(),
            "config requires epsilon > 0");
  // Tolerance 0 (run every iteration) stays valid.
  TriClusterConfig zero_tolerance;
  zero_tolerance.tolerance = 0.0;
  EXPECT_TRUE(ValidateConfig(zero_tolerance).ok());
}

TEST(OfflineTest, NonFiniteObjectiveRestoresLastFiniteFactors) {
  // An Xp entry of 1e200 overflows the objective from the start: the first
  // sweep's objective is non-finite too, so the loop restores the initial
  // factors, drops that sweep's loss and stops without converging.
  auto p = MakeSmallProblem();
  p.data.xp = WithOverflowingEntry(p.data.xp);
  const TriClusterConfig config;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_FALSE(r.converged);
  ASSERT_EQ(r.loss_history.size(), 1u);
  EXPECT_FALSE(std::isfinite(r.loss_history[0].Total()));
  const FactorSet init = InitializeFactors(p.data, p.sf0, config);
  EXPECT_EQ(r.sp, init.sp);
  EXPECT_EQ(r.su, init.su);
  EXPECT_EQ(r.sf, init.sf);
  EXPECT_EQ(r.hp, init.hp);
  EXPECT_EQ(r.hu, init.hu);
}

/// Ablation property: removing the Xr coupling (the term the paper adds over
/// Gao et al.'s split formulation) must not *improve* user-level accuracy on
/// homophilous data with noisy tweets.
TEST(OfflineTest, CouplingTermHelpsUserAccuracy) {
  const auto p = MakeSmallProblem(/*seed=*/12);
  TriClusterConfig config;
  config.max_iterations = 50;
  const TriClusterResult full = OfflineTriClusterer(config).Run(p.data, p.sf0);

  // Decoupled variant: empty Xr (user–tweet edges removed).
  DatasetMatrices decoupled = p.data;
  SparseMatrix::Builder empty_xr(p.data.num_users(), p.data.num_tweets());
  decoupled.xr = empty_xr.Build();
  const TriClusterResult split =
      OfflineTriClusterer(config).Run(decoupled, p.sf0);

  const double acc_full =
      ClusteringAccuracy(full.UserClusters(), p.data.user_labels);
  const double acc_split =
      ClusteringAccuracy(split.UserClusters(), p.data.user_labels);
  EXPECT_GE(acc_full + 0.03, acc_split);
}

}  // namespace
}  // namespace triclust
