#ifndef TRICLUST_SRC_CORE_TIMELINE_H_
#define TRICLUST_SRC_CORE_TIMELINE_H_

#include <vector>

#include "src/core/config.h"
#include "src/data/corpus.h"
#include "src/data/matrix_builder.h"
#include "src/data/snapshots.h"
#include "src/text/lexicon.h"

namespace triclust {

/// How temporal data is processed (paper §4 intro and §5.2):
enum class TimelineMode {
  /// Algorithm 2: factorize new data with temporal regularization.
  kOnline,
  /// Offline algorithm on each snapshot independently (fast, low quality).
  kMiniBatch,
  /// Offline algorithm on all data seen so far at every timestamp
  /// (high quality, expensive).
  kFullBatch,
};

const char* TimelineModeName(TimelineMode mode);

/// Per-snapshot measurements of one timeline run (the series plotted in
/// paper Fig. 11/12: runtime, tweet-level and user-level accuracy).
struct TimelineStepMetrics {
  int snapshot_index = 0;
  int day = 0;
  size_t num_tweets = 0;
  size_t num_users = 0;
  double seconds = 0.0;
  double tweet_accuracy = 0.0;
  double tweet_nmi = 0.0;
  double user_accuracy = 0.0;
  double user_nmi = 0.0;
  int iterations = 0;
};

/// Runs one processing mode over the snapshot sequence and scores every
/// snapshot against ground truth (user labels are the temporal truth at the
/// snapshot's last day). `builder` must already be Fit() on the corpus.
std::vector<TimelineStepMetrics> RunTimeline(
    const Corpus& corpus, const MatrixBuilder& builder,
    const std::vector<Snapshot>& snapshots, const SentimentLexicon& lexicon,
    TimelineMode mode, const OnlineConfig& config);

/// Averages a metric across steps, weighting each snapshot equally and
/// skipping empty snapshots.
double AverageTweetAccuracy(const std::vector<TimelineStepMetrics>& steps);
double AverageUserAccuracy(const std::vector<TimelineStepMetrics>& steps);
double TotalSeconds(const std::vector<TimelineStepMetrics>& steps);

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_TIMELINE_H_
