#ifndef TRICLUST_BENCH_METHODS_H_
#define TRICLUST_BENCH_METHODS_H_

/// Method-comparison harness shared by the Table 4 (tweet-level) and
/// Table 5 (user-level) benches. Protocols follow the paper's §5:
///  * supervised methods (SVM, NB): 5-fold cross-validation on the labeled
///    set, accuracy only (no NMI — they are classifiers, not clusterings);
///  * semi-supervised (LP-5, LP-10, UserReg-10): seeded with 5%/10% labels,
///    scored on everything;
///  * unsupervised (ESSA, BACG, tri-clustering): clustering accuracy + NMI;
///  * online tri-clustering: Algorithm 2 over per-day snapshots, replayed
///    through the serving stack; accuracy and NMI are the scored-weighted
///    aggregate of the day scores (bench_util::ReplayOnline).

#include <cmath>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/baselines/aggregation.h"
#include "src/baselines/bacg.h"
#include "src/baselines/essa.h"
#include "src/baselines/label_propagation.h"
#include "src/baselines/linear_svm.h"
#include "src/baselines/naive_bayes.h"
#include "src/baselines/userreg.h"
#include "src/core/offline.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"

namespace triclust {
namespace bench_methods {

struct MethodScores {
  double accuracy = std::nan("");
  double nmi = std::nan("");
};

// --- shared pieces -----------------------------------------------------------

inline TriClusterConfig OfflineConfig(const bench_flags::Flags& flags) {
  TriClusterConfig config;  // paper's balanced offline choice α=.05, β=.8
  config.max_iterations = flags.ScaledIters(100);
  config.track_loss = false;
  return config;
}

inline OnlineConfig OnlineCfg(const bench_flags::Flags& flags) {
  OnlineConfig config;  // paper's online choice α=τ=.9, γ=.2, w=2
  config.base = OfflineConfig(flags);
  config.base.max_iterations = flags.ScaledIters(60);
  return config;
}

inline DenseMatrix Sf0Of(const bench_util::BenchDataset& b, int k = 3) {
  return b.lexicon.BuildSf0(b.builder.vocabulary(), k);
}

/// Clusters → pooled accuracy/NMI against truth.
inline MethodScores ScoreClustering(const std::vector<int>& clusters,
                                    const std::vector<Sentiment>& truth) {
  MethodScores s;
  s.accuracy = 100.0 * ClusteringAccuracy(clusters, truth);
  s.nmi = 100.0 * NormalizedMutualInformation(clusters, truth);
  return s;
}

// --- tweet-level methods ------------------------------------------------------

inline MethodScores TweetSvm(const bench_util::BenchDataset& b) {
  MethodScores s;
  s.accuracy =
      100.0 * CrossValidatedAccuracy(
                  b.data.tweet_labels, 5, 41,
                  [&](const std::vector<Sentiment>& masked) {
                    LinearSvm svm;
                    svm.Train(b.data.xp, masked);
                    return svm.Predict(b.data.xp);
                  });
  return s;
}

inline MethodScores TweetNaiveBayes(const bench_util::BenchDataset& b) {
  MethodScores s;
  s.accuracy =
      100.0 * CrossValidatedAccuracy(
                  b.data.tweet_labels, 5, 42,
                  [&](const std::vector<Sentiment>& masked) {
                    MultinomialNaiveBayes nb;
                    nb.Train(b.data.xp, masked);
                    return nb.Predict(b.data.xp);
                  });
  return s;
}

inline MethodScores TweetLabelPropagation(const bench_util::BenchDataset& b,
                                          double fraction) {
  const auto seeds = SampleSeedLabels(b.data.tweet_labels, fraction, 43);
  const auto pred = PropagateBipartite(b.data.xp, seeds);
  MethodScores s;
  s.accuracy = 100.0 * ClassificationAccuracy(pred, b.data.tweet_labels);
  return s;
}

inline UserRegResult RunUserReg10(const bench_util::BenchDataset& b) {
  const auto seeds = SampleSeedLabels(b.data.tweet_labels, 0.10, 44);
  return RunUserReg(b.data, seeds);
}

inline MethodScores TweetUserReg(const bench_util::BenchDataset& b) {
  MethodScores s;
  s.accuracy = 100.0 * ClassificationAccuracy(
                           RunUserReg10(b).tweet_predictions,
                           b.data.tweet_labels);
  return s;
}

inline MethodScores TweetEssa(const bench_util::BenchDataset& b,
                              const bench_flags::Flags& flags) {
  EssaOptions options;
  options.max_iterations = flags.ScaledIters(100);
  const TriClusterResult r = RunEssa(b.data.xp, Sf0Of(b), options);
  return ScoreClustering(r.TweetClusters(), b.data.tweet_labels);
}

/// Offline tri-clustering; result shared between tweet/user tables.
inline TriClusterResult RunOfflineTri(const bench_util::BenchDataset& b,
                                      const bench_flags::Flags& flags) {
  return OfflineTriClusterer(OfflineConfig(flags)).Run(b.data, Sf0Of(b));
}

/// Online tri-clustering over per-day snapshots at the tables' online
/// setting: the aggregate of the replayed stream's day scores.
inline TimelineAggregate ReplayOnlineTri(const bench_util::BenchDataset& b,
                                         const bench_flags::Flags& flags) {
  return bench_util::ReplayOnline(b.dataset.corpus, b.builder, Sf0Of(b),
                                  OnlineCfg(flags))
      .aggregate;
}

// --- user-level methods -------------------------------------------------------

inline MethodScores UserSvm(const bench_util::BenchDataset& b) {
  MethodScores s;
  s.accuracy =
      100.0 * CrossValidatedAccuracy(
                  b.data.user_labels, 5, 45,
                  [&](const std::vector<Sentiment>& masked) {
                    LinearSvm svm;
                    svm.Train(b.data.xu, masked);
                    return svm.Predict(b.data.xu);
                  });
  return s;
}

inline MethodScores UserNaiveBayes(const bench_util::BenchDataset& b) {
  MethodScores s;
  s.accuracy =
      100.0 * CrossValidatedAccuracy(
                  b.data.user_labels, 5, 46,
                  [&](const std::vector<Sentiment>& masked) {
                    MultinomialNaiveBayes nb;
                    nb.Train(b.data.xu, masked);
                    return nb.Predict(b.data.xu);
                  });
  return s;
}

inline MethodScores UserLabelPropagation(const bench_util::BenchDataset& b,
                                         double fraction) {
  // Tan-et-al-style LP on the user–user retweet graph [30].
  const auto seeds = SampleSeedLabels(b.data.user_labels, fraction, 47);
  const auto pred = PropagateGraph(b.data.gu, seeds);
  MethodScores s;
  s.accuracy = 100.0 * ClassificationAccuracy(pred, b.data.user_labels);
  return s;
}

inline MethodScores UserUserReg(const bench_util::BenchDataset& b) {
  MethodScores s;
  s.accuracy = 100.0 * ClassificationAccuracy(
                           RunUserReg10(b).user_predictions,
                           b.data.user_labels);
  return s;
}

inline MethodScores UserBacg(const bench_util::BenchDataset& b) {
  const std::vector<int> clusters = RunBacg(b.data.xu, b.data.gu);
  return ScoreClustering(clusters, b.data.user_labels);
}

}  // namespace bench_methods
}  // namespace triclust

#endif  // TRICLUST_BENCH_METHODS_H_
