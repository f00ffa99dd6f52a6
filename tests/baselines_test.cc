#include <gtest/gtest.h>

#include "src/baselines/aggregation.h"
#include "src/baselines/bacg.h"
#include "src/baselines/essa.h"
#include "src/baselines/label_propagation.h"
#include "src/baselines/linear_svm.h"
#include "src/baselines/naive_bayes.h"
#include "src/baselines/userreg.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "src/util/parallel.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::SmallProblem;

const Sentiment P = Sentiment::kPositive;
const Sentiment N = Sentiment::kNegative;
const Sentiment X = Sentiment::kUnlabeled;

/// A tiny linearly-separable problem: feature 0 ⇒ positive, 1 ⇒ negative.
struct ToyProblem {
  SparseMatrix x;
  std::vector<Sentiment> labels;
};

ToyProblem MakeToy(size_t per_class = 20) {
  SparseMatrix::Builder builder(2 * per_class, 3);
  std::vector<Sentiment> labels;
  Rng rng(3);
  for (size_t i = 0; i < per_class; ++i) {
    builder.Add(i, 0, 1.0 + rng.NextDouble());
    builder.Add(i, 2, rng.NextDouble());  // shared noise feature
    labels.push_back(P);
  }
  for (size_t i = per_class; i < 2 * per_class; ++i) {
    builder.Add(i, 1, 1.0 + rng.NextDouble());
    builder.Add(i, 2, rng.NextDouble());
    labels.push_back(N);
  }
  return {builder.Build(), labels};
}

// --- Naive Bayes -------------------------------------------------------------

TEST(NaiveBayesTest, LearnsSeparableToy) {
  const ToyProblem toy = MakeToy();
  MultinomialNaiveBayes nb(2);
  nb.Train(toy.x, toy.labels);
  EXPECT_TRUE(nb.trained());
  const auto pred = nb.Predict(toy.x);
  EXPECT_DOUBLE_EQ(ClassificationAccuracy(pred, toy.labels), 1.0);
}

TEST(NaiveBayesTest, PosteriorRowsSumToOne) {
  const ToyProblem toy = MakeToy();
  MultinomialNaiveBayes nb(2);
  nb.Train(toy.x, toy.labels);
  const DenseMatrix proba = nb.PredictProba(toy.x);
  for (size_t i = 0; i < proba.rows(); ++i) {
    double total = 0.0;
    for (size_t c = 0; c < proba.cols(); ++c) {
      EXPECT_GE(proba(i, c), 0.0);
      total += proba(i, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(NaiveBayesTest, IgnoresUnlabeledRows) {
  ToyProblem toy = MakeToy();
  // Corrupt half the labels to kUnlabeled; training must still work.
  for (size_t i = 0; i < toy.labels.size(); i += 2) toy.labels[i] = X;
  MultinomialNaiveBayes nb(2);
  nb.Train(toy.x, toy.labels);
  const auto pred = nb.Predict(toy.x);
  size_t correct = 0;
  size_t total = 0;
  for (size_t i = 1; i < toy.labels.size(); i += 2) {
    ++total;
    if (pred[i] == toy.labels[i]) ++correct;
  }
  EXPECT_EQ(correct, total);
}

TEST(NaiveBayesTest, CrossValidatedAccuracyOnCampaign) {
  const SmallProblem p = MakeSmallProblem();
  const double acc = CrossValidatedAccuracy(
      p.data.tweet_labels, 5, 1, [&](const std::vector<Sentiment>& masked) {
        MultinomialNaiveBayes nb;
        nb.Train(p.data.xp, masked);
        return nb.Predict(p.data.xp);
      });
  EXPECT_GT(acc, 0.7);  // supervised NB should be strong here
}

// --- Linear SVM --------------------------------------------------------------

TEST(LinearSvmTest, LearnsSeparableToy) {
  const ToyProblem toy = MakeToy();
  SvmOptions options;
  options.num_classes = 2;
  LinearSvm svm(options);
  svm.Train(toy.x, toy.labels);
  EXPECT_TRUE(svm.trained());
  const auto pred = svm.Predict(toy.x);
  EXPECT_GT(ClassificationAccuracy(pred, toy.labels), 0.95);
}

TEST(LinearSvmTest, DecisionFunctionShape) {
  const ToyProblem toy = MakeToy();
  SvmOptions options;
  options.num_classes = 2;
  LinearSvm svm(options);
  svm.Train(toy.x, toy.labels);
  const DenseMatrix margins = svm.DecisionFunction(toy.x);
  EXPECT_EQ(margins.rows(), toy.x.rows());
  EXPECT_EQ(margins.cols(), 2u);
}

TEST(LinearSvmTest, DeterministicInSeed) {
  const ToyProblem toy = MakeToy();
  SvmOptions options;
  options.num_classes = 2;
  LinearSvm a(options);
  LinearSvm b(options);
  a.Train(toy.x, toy.labels);
  b.Train(toy.x, toy.labels);
  EXPECT_EQ(a.Predict(toy.x), b.Predict(toy.x));
}

TEST(LinearSvmTest, BeatsChanceOnCampaign) {
  const SmallProblem p = MakeSmallProblem();
  const double acc = CrossValidatedAccuracy(
      p.data.tweet_labels, 5, 2, [&](const std::vector<Sentiment>& masked) {
        LinearSvm svm;
        svm.Train(p.data.xp, masked);
        return svm.Predict(p.data.xp);
      });
  EXPECT_GT(acc, 0.6);
}

// --- Label propagation -------------------------------------------------------

TEST(LabelPropagationTest, BipartitePropagatesThroughSharedFeatures) {
  // Tweets 0 and 2 share feature 0; tweet 1 and 3 share feature 1.
  SparseMatrix::Builder builder(4, 2);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 1, 1.0);
  builder.Add(2, 0, 1.0);
  builder.Add(3, 1, 1.0);
  const SparseMatrix x = builder.Build();
  const std::vector<Sentiment> seeds = {P, N, X, X};
  const auto pred = PropagateBipartite(x, seeds);
  EXPECT_EQ(pred[2], P);
  EXPECT_EQ(pred[3], N);
}

TEST(LabelPropagationTest, UnreachedItemsStayUnlabeled) {
  SparseMatrix::Builder builder(3, 2);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 0, 1.0);
  // Row 2 has no features at all.
  const SparseMatrix x = builder.Build();
  const auto pred = PropagateBipartite(x, {P, X, X});
  EXPECT_EQ(pred[1], P);
  EXPECT_EQ(pred[2], X);
}

TEST(LabelPropagationTest, GraphPropagationFollowsEdges) {
  const UserGraph g = UserGraph::FromEdges(
      5, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}});
  const std::vector<Sentiment> seeds = {P, X, X, N, X};
  const auto pred = PropagateGraph(g, seeds);
  EXPECT_EQ(pred[0], P);
  EXPECT_EQ(pred[1], P);
  EXPECT_EQ(pred[2], P);
  EXPECT_EQ(pred[3], N);
  EXPECT_EQ(pred[4], N);
}

TEST(LabelPropagationTest, IsolatedNodesStayUnlabeled) {
  const UserGraph g = UserGraph::FromEdges(3, {{0, 1, 1}});
  const auto pred = PropagateGraph(g, {P, X, X});
  EXPECT_EQ(pred[2], X);
}

TEST(LabelPropagationTest, MoreSeedsHelpOnCampaign) {
  const SmallProblem p = MakeSmallProblem();
  const auto seeds5 = SampleSeedLabels(p.data.tweet_labels, 0.05, 7);
  const auto seeds10 = SampleSeedLabels(p.data.tweet_labels, 0.10, 7);
  const auto pred5 = PropagateBipartite(p.data.xp, seeds5);
  const auto pred10 = PropagateBipartite(p.data.xp, seeds10);
  const double acc5 = ClassificationAccuracy(pred5, p.data.tweet_labels);
  const double acc10 = ClassificationAccuracy(pred10, p.data.tweet_labels);
  EXPECT_GT(acc10, 0.4);
  EXPECT_GE(acc10 + 0.08, acc5);  // typically better, always comparable
}

TEST(LabelPropagationTest, ThreadedMatchesSerialBitwise) {
  // The propagation kernels are row-partitioned SpMMs (the bipartite form
  // goes through a cached transpose), so every caller budget must produce
  // the serial predictions exactly.
  const SmallProblem p = MakeSmallProblem();
  const auto seeds = SampleSeedLabels(p.data.tweet_labels, 0.10, 7);
  const auto expected_items = PropagateBipartite(p.data.xp, seeds);
  const auto user_seeds = SampleSeedLabels(p.data.user_labels, 0.2, 7);
  const auto expected_users = PropagateGraph(p.data.gu, user_seeds);
  for (const int threads : {0, 2, 4}) {
    const ScopedThreadBudget budget{ThreadBudget(threads)};
    EXPECT_EQ(PropagateBipartite(p.data.xp, seeds), expected_items)
        << "threads=" << threads;
    EXPECT_EQ(PropagateGraph(p.data.gu, user_seeds), expected_users)
        << "threads=" << threads;
  }
}

// --- UserReg -----------------------------------------------------------------

TEST(UserRegTest, ProducesPredictionsAtBothLevels) {
  const SmallProblem p = MakeSmallProblem();
  const auto seeds = SampleSeedLabels(p.data.tweet_labels, 0.10, 3);
  const UserRegResult r = RunUserReg(p.data, seeds);
  EXPECT_EQ(r.tweet_predictions.size(), p.data.num_tweets());
  EXPECT_EQ(r.user_predictions.size(), p.data.num_users());
  const double tweet_acc =
      ClassificationAccuracy(r.tweet_predictions, p.data.tweet_labels);
  const double user_acc =
      ClassificationAccuracy(r.user_predictions, p.data.user_labels);
  EXPECT_GT(tweet_acc, 0.5);
  EXPECT_GT(user_acc, 0.5);
}

TEST(UserRegTest, SocialSmoothingChangesIsolatedNothing) {
  const SmallProblem p = MakeSmallProblem();
  const auto seeds = SampleSeedLabels(p.data.tweet_labels, 0.10, 3);
  UserRegOptions no_social;
  no_social.social_weight = 0.0;
  UserRegOptions with_social;
  with_social.social_weight = 0.5;
  const UserRegResult a = RunUserReg(p.data, seeds, no_social);
  const UserRegResult b = RunUserReg(p.data, seeds, with_social);
  // Both valid; outputs differ somewhere (the graph matters).
  EXPECT_NE(a.user_predictions, b.user_predictions);
}

TEST(UserRegTest, ThreadedMatchesSerialBitwise) {
  const SmallProblem p = MakeSmallProblem();
  const auto seeds = SampleSeedLabels(p.data.tweet_labels, 0.10, 3);
  const UserRegResult expected = RunUserReg(p.data, seeds);
  for (const int threads : {0, 2, 4}) {
    const ScopedThreadBudget budget{ThreadBudget(threads)};
    const UserRegResult got = RunUserReg(p.data, seeds);
    EXPECT_EQ(got.tweet_predictions, expected.tweet_predictions)
        << "threads=" << threads;
    EXPECT_EQ(got.user_predictions, expected.user_predictions)
        << "threads=" << threads;
  }
}

// --- ESSA --------------------------------------------------------------------

TEST(EssaTest, ClustersTweetsAboveChance) {
  const SmallProblem p = MakeSmallProblem();
  EssaOptions options;
  options.max_iterations = 40;
  const TriClusterResult r = RunEssa(p.data.xp, p.sf0, options);
  EXPECT_EQ(r.sp.rows(), p.data.num_tweets());
  EXPECT_EQ(r.su.rows(), 0u);  // no user side
  const double acc =
      ClusteringAccuracy(r.TweetClusters(), p.data.tweet_labels);
  EXPECT_GT(acc, 0.5);
}

TEST(EssaTest, LossDecreases) {
  const SmallProblem p = MakeSmallProblem();
  EssaOptions options;
  options.max_iterations = 30;
  const TriClusterResult r = RunEssa(p.data.xp, p.sf0, options);
  ASSERT_GT(r.loss_history.size(), 2u);
  EXPECT_LT(r.loss_history.back().Total(),
            r.loss_history.front().Total());
}

// --- BACG --------------------------------------------------------------------

TEST(BacgTest, AssignsEveryUserAValidCluster) {
  const SmallProblem p = MakeSmallProblem();
  const std::vector<int> clusters = RunBacg(p.data.xu, p.data.gu);
  ASSERT_EQ(clusters.size(), p.data.num_users());
  for (int c : clusters) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

TEST(BacgTest, BeatsChanceUsingStructureAndContent) {
  const SmallProblem p = MakeSmallProblem();
  const std::vector<int> clusters = RunBacg(p.data.xu, p.data.gu);
  const double acc = ClusteringAccuracy(clusters, p.data.user_labels);
  EXPECT_GT(acc, 0.45);
}

TEST(BacgTest, DeterministicInSeed) {
  const SmallProblem p = MakeSmallProblem();
  EXPECT_EQ(RunBacg(p.data.xu, p.data.gu), RunBacg(p.data.xu, p.data.gu));
}

// --- aggregation --------------------------------------------------------------

TEST(AggregationTest, MajorityVoteOverUserTweets) {
  const SmallProblem p = MakeSmallProblem();
  // Perfect tweet predictions → aggregated users should score well but the
  // paper's bias argument says not perfectly (noisy off-stance tweets).
  const auto user_pred =
      AggregateTweetsToUsers(p.data, p.data.tweet_labels);
  const double acc =
      ClassificationAccuracy(user_pred, p.data.user_labels);
  EXPECT_GT(acc, 0.7);
}

TEST(AggregationTest, UnpredictedTweetsYieldUnlabeledUsers) {
  const SmallProblem p = MakeSmallProblem();
  const std::vector<Sentiment> none(p.data.num_tweets(), X);
  const auto user_pred = AggregateTweetsToUsers(p.data, none);
  for (const Sentiment s : user_pred) EXPECT_EQ(s, X);
}

TEST(AggregationTest, AggregationBiasExistsOnNoisyTweets) {
  // The motivating claim (paper §1): aggregating noisy tweet-level
  // predictions biases user-level estimates. With ground-truth tweet labels
  // the ceiling is how often a user's majority tweet class equals their
  // stance; off-stance tweets make it < 100%.
  const SmallProblem p = MakeSmallProblem();
  const auto user_pred =
      AggregateTweetsToUsers(p.data, p.data.tweet_labels);
  const double acc = ClassificationAccuracy(user_pred, p.data.user_labels);
  EXPECT_LT(acc, 1.0);
}

}  // namespace
}  // namespace triclust
