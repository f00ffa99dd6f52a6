/// End-to-end integration tests across modules: corpus persistence →
/// matrices → solvers → metrics, plus the cross-method relationships the
/// paper's evaluation relies on.

#include <cstdio>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/baselines/aggregation.h"
#include "src/baselines/essa.h"
#include "src/baselines/naive_bayes.h"
#include "src/core/offline.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;

TEST(IntegrationTest, SaveLoadSolveIsIdenticalToDirectSolve) {
  const auto p = MakeSmallProblem();
  const std::string path = ::testing::TempDir() + "/integration_corpus.tsv";
  ASSERT_TRUE(WriteTsv(p.dataset.corpus, path).ok());
  auto loaded = ReadTsv(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  MatrixBuilder builder;
  builder.Fit(loaded.value());
  const DatasetMatrices data = builder.BuildAll(loaded.value());
  ASSERT_EQ(data.num_tweets(), p.data.num_tweets());
  ASSERT_EQ(data.num_features(), p.data.num_features());

  TriClusterConfig config;
  config.max_iterations = 20;
  const SentimentLexicon lexicon =
      CorruptLexicon(p.dataset.true_lexicon, 0.7, 0.02, 5);
  const DenseMatrix sf0 = lexicon.BuildSf0(builder.vocabulary(), 3);
  const TriClusterResult from_disk =
      OfflineTriClusterer(config).Run(data, sf0);
  const TriClusterResult direct =
      OfflineTriClusterer(config).Run(p.data, p.sf0);
  // The reloaded corpus produces the same clustering (note: per-day user
  // trajectories are not persisted, but static labels and text are).
  EXPECT_EQ(from_disk.TweetClusters(), direct.TweetClusters());
}

TEST(IntegrationTest, JointClusteringBeatsTweetOnlyClustering) {
  // The paper's core claim: coupling users into the factorization beats
  // clustering tweets alone (ESSA) on the same matrices.
  const auto p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 60;
  const TriClusterResult tri = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EssaOptions essa_options;
  essa_options.max_iterations = 60;
  const TriClusterResult essa = RunEssa(p.data.xp, p.sf0, essa_options);
  const double tri_acc =
      ClusteringAccuracy(tri.TweetClusters(), p.data.tweet_labels);
  const double essa_acc =
      ClusteringAccuracy(essa.TweetClusters(), p.data.tweet_labels);
  EXPECT_GE(tri_acc + 0.02, essa_acc);  // tri at least comparable...
  // ...and at user level ESSA has no answer at all while tri does well.
  EXPECT_GT(ClusteringAccuracy(tri.UserClusters(), p.data.user_labels),
            0.6);
}

TEST(IntegrationTest, JointUserEstimateBeatsNoisyAggregation) {
  // §1's motivating bias: aggregating per-tweet *predictions* (not truth)
  // misestimates users; the joint factorization is more robust. Compare
  // tri-clustering's user accuracy to NB-predict-then-aggregate with weak
  // supervision.
  const auto p = MakeSmallProblem();
  const auto seeds = SampleSeedLabels(p.data.tweet_labels, 0.05, 3);
  MultinomialNaiveBayes nb;
  nb.Train(p.data.xp, seeds);
  const auto aggregated =
      AggregateTweetsToUsers(p.data, nb.Predict(p.data.xp));
  const double agg_acc =
      ClassificationAccuracy(aggregated, p.data.user_labels);

  TriClusterConfig config;
  config.max_iterations = 60;
  const TriClusterResult tri = OfflineTriClusterer(config).Run(p.data, p.sf0);
  const double tri_acc =
      ClusteringAccuracy(tri.UserClusters(), p.data.user_labels);
  EXPECT_GE(tri_acc + 0.05, agg_acc);
}

TEST(IntegrationTest, OnlineStreamMatchesOfflineOnStableUsers) {
  // Users that never flip should receive consistent sentiment from the
  // online stream in its second half (after history accumulates).
  const auto p = MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  OnlineConfig config;
  config.base.max_iterations = 30;
  config.base.track_loss = false;
  const SnapshotSolver solver(config, p.sf0);
  StreamState state;

  std::unordered_map<size_t, std::vector<Sentiment>> assigned;
  const auto snapshots = SplitByDay(corpus);
  for (const Snapshot& snap : snapshots) {
    const DatasetMatrices data =
        p.builder.Build(corpus, snap.tweet_ids, snap.last_day);
    const TriClusterResult r = solver.Solve(data, &state);
    if (data.num_tweets() == 0) continue;
    const auto clusters = r.UserClusters();
    const auto mapping =
        MajorityVoteMapping(clusters, data.user_labels, 3);
    for (size_t j = 0; j < data.num_users(); ++j) {
      assigned[data.user_ids[j]].push_back(
          mapping[static_cast<size_t>(clusters[j])]);
    }
  }
  // Consistency: users seen ≥ 5 times mostly keep one assignment.
  size_t consistent = 0;
  size_t measured = 0;
  for (const auto& [user, history] : assigned) {
    if (history.size() < 5) continue;
    ++measured;
    size_t counts[kNumSentimentClasses] = {0, 0, 0};
    for (Sentiment s : history) ++counts[SentimentIndex(s)];
    const size_t peak =
        *std::max_element(counts, counts + kNumSentimentClasses);
    if (static_cast<double>(peak) / history.size() >= 0.7) ++consistent;
  }
  ASSERT_GT(measured, 10u);
  EXPECT_GT(static_cast<double>(consistent) / measured, 0.6);
}

TEST(IntegrationTest, TimelineModesRankLikeThePaper) {
  // Full-batch ≥ mini-batch on user accuracy; online within striking
  // distance of full-batch at much lower cost (Fig. 11/12 summary). Small
  // data makes single-run comparisons noisy, so allow generous slack.
  const auto p = MakeSmallProblem();
  OnlineConfig config;
  config.base.max_iterations = 30;
  config.base.track_loss = false;
  const auto online =
      bench_util::ReplayOnline(p.dataset.corpus, p.builder, p.sf0, config);
  const auto full = bench_util::RunOfflinePerDay(
      p.dataset.corpus, p.builder, p.sf0, config.base, /*full_batch=*/true);
  EXPECT_GT(full.TotalMs(), online.TotalMs() * 1.5);
  EXPECT_GE(online.aggregate.user_accuracy + 0.12,
            full.aggregate.user_accuracy);
}

TEST(IntegrationTest, WholePipelineIsDeterministic) {
  auto run = [] {
    const auto p = MakeSmallProblem();
    TriClusterConfig config;
    config.max_iterations = 15;
    return OfflineTriClusterer(config)
        .Run(p.data, p.sf0)
        .TweetClusters();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace triclust
