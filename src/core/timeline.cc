#include "src/core/timeline.h"

#include "src/core/offline.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/eval/metrics.h"
#include "src/util/logging.h"
#include "src/util/stopwatch.h"

namespace triclust {

const char* TimelineModeName(TimelineMode mode) {
  switch (mode) {
    case TimelineMode::kOnline:
      return "online";
    case TimelineMode::kMiniBatch:
      return "mini-batch";
    case TimelineMode::kFullBatch:
      return "full-batch";
  }
  return "?";
}

namespace {

void Score(const DatasetMatrices& data, const TriClusterResult& result,
           TimelineStepMetrics* step) {
  if (data.num_tweets() == 0) return;
  const std::vector<int> tweet_clusters = result.TweetClusters();
  const std::vector<int> user_clusters = result.UserClusters();
  step->tweet_accuracy =
      100.0 * ClusteringAccuracy(tweet_clusters, data.tweet_labels);
  step->tweet_nmi = 100.0 * NormalizedMutualInformation(tweet_clusters,
                                                        data.tweet_labels);
  step->user_accuracy =
      100.0 * ClusteringAccuracy(user_clusters, data.user_labels);
  step->user_nmi =
      100.0 * NormalizedMutualInformation(user_clusters, data.user_labels);
}

}  // namespace

std::vector<TimelineStepMetrics> RunTimeline(
    const Corpus& corpus, const MatrixBuilder& builder,
    const std::vector<Snapshot>& snapshots, const SentimentLexicon& lexicon,
    TimelineMode mode, const OnlineConfig& config) {
  const DenseMatrix sf0 =
      lexicon.BuildSf0(builder.vocabulary(), config.base.num_clusters);

  std::vector<TimelineStepMetrics> steps;
  steps.reserve(snapshots.size());

  const SnapshotSolver online(config, sf0);
  StreamState online_state;
  OfflineTriClusterer offline(config.base);

  std::vector<size_t> prefix_tweets;  // full-batch accumulator

  for (size_t s = 0; s < snapshots.size(); ++s) {
    const Snapshot& snap = snapshots[s];
    TimelineStepMetrics step;
    step.snapshot_index = static_cast<int>(s);
    step.day = snap.last_day;
    step.num_tweets = snap.size();

    const DatasetMatrices data =
        builder.Build(corpus, snap.tweet_ids, snap.last_day);
    step.num_users = data.num_users();

    Stopwatch watch;
    switch (mode) {
      case TimelineMode::kOnline: {
        const TriClusterResult result = online.Solve(data, &online_state);
        step.seconds = watch.ElapsedSeconds();
        step.iterations = result.iterations;
        Score(data, result, &step);
        break;
      }
      case TimelineMode::kMiniBatch: {
        if (data.num_tweets() > 0) {
          const TriClusterResult result = offline.Run(data, sf0);
          step.seconds = watch.ElapsedSeconds();
          step.iterations = result.iterations;
          Score(data, result, &step);
        }
        break;
      }
      case TimelineMode::kFullBatch: {
        prefix_tweets.insert(prefix_tweets.end(), snap.tweet_ids.begin(),
                             snap.tweet_ids.end());
        if (!prefix_tweets.empty()) {
          // Re-solve over all data seen so far, then score only the rows of
          // the current snapshot (the last snap.size() tweets of the prefix
          // and the users active today).
          const DatasetMatrices all =
              builder.Build(corpus, prefix_tweets, snap.last_day);
          const TriClusterResult result = offline.Run(all, sf0);
          step.seconds = watch.ElapsedSeconds();
          step.iterations = result.iterations;
          if (snap.size() > 0) {
            const std::vector<int> all_tweet_clusters =
                result.TweetClusters();
            const std::vector<int> all_user_clusters = result.UserClusters();
            std::vector<int> tweet_clusters(
                all_tweet_clusters.end() -
                    static_cast<ptrdiff_t>(snap.size()),
                all_tweet_clusters.end());
            std::vector<Sentiment> tweet_labels(
                all.tweet_labels.end() - static_cast<ptrdiff_t>(snap.size()),
                all.tweet_labels.end());
            step.tweet_accuracy =
                100.0 * ClusteringAccuracy(tweet_clusters, tweet_labels);
            step.tweet_nmi = 100.0 * NormalizedMutualInformation(
                                         tweet_clusters, tweet_labels);

            // All users seen so far, scored against the temporal truth at
            // today's date — full-batch re-estimates everyone each day.
            std::vector<int> user_clusters;
            std::vector<Sentiment> user_labels;
            for (size_t j = 0; j < all.user_ids.size(); ++j) {
              user_clusters.push_back(all_user_clusters[j]);
              user_labels.push_back(all.user_labels[j]);
            }
            step.user_accuracy =
                100.0 * ClusteringAccuracy(user_clusters, user_labels);
            step.user_nmi = 100.0 * NormalizedMutualInformation(
                                        user_clusters, user_labels);
          }
        }
        break;
      }
    }
    steps.push_back(step);
  }
  return steps;
}

namespace {

double Average(const std::vector<TimelineStepMetrics>& steps,
               double TimelineStepMetrics::*field) {
  double total = 0.0;
  size_t count = 0;
  for (const auto& step : steps) {
    if (step.num_tweets == 0) continue;
    total += step.*field;
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

double AverageTweetAccuracy(const std::vector<TimelineStepMetrics>& steps) {
  return Average(steps, &TimelineStepMetrics::tweet_accuracy);
}
double AverageUserAccuracy(const std::vector<TimelineStepMetrics>& steps) {
  return Average(steps, &TimelineStepMetrics::user_accuracy);
}
double TotalSeconds(const std::vector<TimelineStepMetrics>& steps) {
  double total = 0.0;
  for (const auto& step : steps) total += step.seconds;
  return total;
}

}  // namespace triclust
