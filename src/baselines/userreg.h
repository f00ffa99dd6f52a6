#ifndef TRICLUST_SRC_BASELINES_USERREG_H_
#define TRICLUST_SRC_BASELINES_USERREG_H_

#include <vector>

#include "src/data/matrix_builder.h"
#include "src/text/sentiment.h"

namespace triclust {

/// Options of the UserReg baseline.
struct UserRegOptions {
  int num_classes = kNumSentimentClasses;
  /// Smoothing rounds over the user–user graph.
  int smoothing_iterations = 3;
  /// Mixing weight of neighbour opinion per smoothing round. Light by
  /// default: the aggregate of a user's own tweets is the stronger signal;
  /// heavy neighbour averaging washes it out.
  double social_weight = 0.1;
  /// Weight of the author's aggregated stance when re-scoring tweets.
  double user_prior_weight = 0.5;
  uint64_t seed = 17;
};

/// Result of one UserReg run: predictions at both levels.
struct UserRegResult {
  std::vector<Sentiment> tweet_predictions;
  std::vector<Sentiment> user_predictions;
};

/// Semi-supervised UserReg baseline (Deng et al. [7]).
///
/// Faithful to the paper's description of the method's structure: tweet
/// sentiments come from a supervised classifier (Naive Bayes here) trained
/// on the seeded labels; user sentiments are the aggregate of the user's
/// tweet posteriors, regularized over the user–user (pseudo-friendship →
/// retweet) graph; the user estimate then feeds back into tweet scores.
/// The paper's Tables 4/5 row "UserReg-10" seeds 10% of the labels.
/// Runs at the caller's width (the installed ThreadBudget, see
/// src/util/parallel.h); the hot kernels are row-partitioned SpMMs, so
/// results are bit-identical at every width.
UserRegResult RunUserReg(const DatasetMatrices& data,
                         const std::vector<Sentiment>& seed_tweet_labels,
                         const UserRegOptions& options = {});

}  // namespace triclust

#endif  // TRICLUST_SRC_BASELINES_USERREG_H_
