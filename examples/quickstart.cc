/// Quickstart: generate a small campaign, run offline tri-clustering, and
/// print tweet-level and user-level accuracy.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart

#include <iostream>

#include "src/core/offline.h"
#include "src/data/matrix_builder.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"

int main() {
  using namespace triclust;

  // 1. Data: a synthetic Prop-30-like Twitter campaign (the paper's real
  //    collection is proprietary; see README.md, "Substitutions").
  const SyntheticDataset dataset = GenerateSynthetic(Prop30LikeConfig());
  const Corpus& corpus = dataset.corpus;
  std::cout << "corpus: " << corpus.num_tweets() << " tweets, "
            << corpus.num_users() << " users, " << corpus.num_days()
            << " days\n";

  // 2. Matrices: the three bipartite graphs + user graph, and the lexicon
  //    prior Sf0 built from an imperfect word list (60% coverage, 5% noise).
  MatrixBuilder builder;
  builder.Fit(corpus);
  const DatasetMatrices data = builder.BuildAll(corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(dataset.true_lexicon, /*coverage=*/0.6,
                     /*error_rate=*/0.05, /*seed=*/99);
  TriClusterConfig config;  // α=0.05, β=0.8: the paper's offline setting
  const DenseMatrix sf0 =
      lexicon.BuildSf0(builder.vocabulary(), config.num_clusters);

  // 3. Solve (Algorithm 1).
  const TriClusterResult result = OfflineTriClusterer(config).Run(data, sf0);
  std::cout << "solver: " << result.iterations << " iterations, converged="
            << (result.converged ? "yes" : "no") << "\n";
  if (!result.loss_history.empty()) {
    std::cout << "objective: " << result.loss_history.front().Total()
              << " -> " << result.loss_history.back().Total() << "\n";
  }

  // 4. Score against ground truth.
  const double tweet_acc =
      ClusteringAccuracy(result.TweetClusters(), data.tweet_labels);
  const double tweet_nmi = NormalizedMutualInformation(result.TweetClusters(),
                                                       data.tweet_labels);
  const double user_acc =
      ClusteringAccuracy(result.UserClusters(), data.user_labels);
  const double user_nmi = NormalizedMutualInformation(result.UserClusters(),
                                                      data.user_labels);
  std::cout << "tweet-level: accuracy=" << 100.0 * tweet_acc
            << "% NMI=" << 100.0 * tweet_nmi << "%\n";
  std::cout << "user-level:  accuracy=" << 100.0 * user_acc
            << "% NMI=" << 100.0 * user_nmi << "%\n";
  return 0;
}
