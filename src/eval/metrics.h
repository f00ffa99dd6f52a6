#ifndef TRICLUST_SRC_EVAL_METRICS_H_
#define TRICLUST_SRC_EVAL_METRICS_H_

#include <vector>

#include "src/text/sentiment.h"

namespace triclust {

/// Evaluation metrics of the paper's §5. All metrics silently skip items
/// whose ground truth is kUnlabeled (the paper evaluates on the labeled
/// subset only), and cluster ids < 0 are treated as "unassigned" and skipped
/// as well.

/// Clustering accuracy with majority-vote cluster→class assignment:
///   A(C, G) = (1/n) Σ_{o∈C} max_{g∈G} |o ∩ g|.
/// `clusters` are arbitrary cluster ids; `truth` the ground-truth classes.
double ClusteringAccuracy(const std::vector<int>& clusters,
                          const std::vector<Sentiment>& truth);

/// Normalized mutual information:
///   NMI(C, G) = 2·I(C; G) / (H(C) + H(G)),
/// with the convention NMI = 1 when both partitions are single-cluster
/// (zero entropy) and 0 when exactly one of them is.
double NormalizedMutualInformation(const std::vector<int>& clusters,
                                   const std::vector<Sentiment>& truth);

/// Plain classification accuracy for supervised baselines whose outputs are
/// already sentiment classes.
double ClassificationAccuracy(const std::vector<Sentiment>& predicted,
                              const std::vector<Sentiment>& truth);

/// The majority-vote mapping cluster-id → class used by ClusteringAccuracy;
/// clusters never observed map to class 0. `num_clusters` bounds cluster ids.
std::vector<Sentiment> MajorityVoteMapping(
    const std::vector<int>& clusters, const std::vector<Sentiment>& truth,
    int num_clusters);

/// Applies a cluster→class mapping to turn cluster ids into sentiments
/// (unassigned ids become kUnlabeled).
std::vector<Sentiment> ApplyMapping(const std::vector<int>& clusters,
                                    const std::vector<Sentiment>& mapping);

/// Clustering accuracy under the *best one-to-one* cluster→class mapping.
/// Stricter than majority-vote accuracy, which may map two clusters onto
/// one class: PermutationAccuracy ≤ ClusteringAccuracy always holds.
/// Solved exactly by a subset DP over the C = 3 sentiment classes —
/// O(k·2^C) for k distinct cluster ids, safe for any cluster count.
double PermutationAccuracy(const std::vector<int>& clusters,
                           const std::vector<Sentiment>& truth);

/// Adjusted Rand Index in [-1, 1]: pair-counting agreement corrected for
/// chance; 1 = identical partitions, ~0 = independent.
double AdjustedRandIndex(const std::vector<int>& clusters,
                         const std::vector<Sentiment>& truth);

/// Row-normalized confusion counts over the labeled subset.
struct ConfusionMatrix {
  /// counts[truth][predicted], classes indexed by SentimentIndex.
  std::vector<std::vector<size_t>> counts;
  size_t total = 0;

  /// Macro-averaged F1 over classes with any support.
  double MacroF1() const;
};
ConfusionMatrix BuildConfusion(const std::vector<Sentiment>& predicted,
                               const std::vector<Sentiment>& truth,
                               int num_classes);

}  // namespace triclust

#endif  // TRICLUST_SRC_EVAL_METRICS_H_
