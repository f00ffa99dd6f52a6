#ifndef TRICLUST_SRC_DATA_STATS_H_
#define TRICLUST_SRC_DATA_STATS_H_

#include <vector>

#include "src/data/corpus.h"

namespace triclust {

/// Descriptive statistics of a corpus, which the generator's validation
/// tests (tests/property_test.cc) check generated corpora against.
struct CorpusStats {
  size_t num_tweets = 0;
  size_t num_users = 0;
  int num_days = 0;
  size_t num_retweets = 0;
  /// Tweets per day, index = day.
  std::vector<size_t> daily_volume;
  /// Tweets authored per user, index = user id.
  std::vector<size_t> user_activity;
  /// Gini coefficient of user activity in [0, 1]; high = long tail (the
  /// paper's "super-active users" phenomenon).
  double activity_gini = 0.0;
  /// Fraction of active users posting on more than one day.
  double returning_user_fraction = 0.0;
};

/// Computes all statistics in one pass over the corpus.
CorpusStats ComputeCorpusStats(const Corpus& corpus);

/// Gini coefficient of a non-negative sample (0 = equal, →1 = concentrated).
double GiniCoefficient(std::vector<double> values);

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_STATS_H_
