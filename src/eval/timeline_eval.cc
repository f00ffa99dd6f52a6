#include "src/eval/timeline_eval.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/eval/metrics.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"

namespace triclust {

namespace {

/// Scored-weighted accumulator behind every aggregate metric: NaN inputs
/// (snapshots that scored nothing) carry no weight.
struct WeightedMean {
  double sum = 0.0;
  size_t weight = 0;

  void Add(double value, size_t items) {
    if (items == 0 || !std::isfinite(value)) return;
    sum += value * static_cast<double>(items);
    weight += items;
  }
  double Mean() const {
    return weight == 0 ? serving::kUnscoredMetric
                       : sum / static_cast<double>(weight);
  }
};

size_t CountScored(const std::vector<int>& clusters,
                   const std::vector<Sentiment>& truth) {
  size_t scored = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] != Sentiment::kUnlabeled && clusters[i] >= 0) ++scored;
  }
  return scored;
}

/// Lossless CSV double: empty for NaN (nothing scored), shortest
/// round-trippable decimal otherwise.
std::string CsvNum(double value) {
  if (!std::isfinite(value)) return "";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// RFC-4180 quoting for the free-form campaign-name column.
std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string quoted = "\"";
  for (const char ch : value) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

SnapshotScore ScoreSnapshot(const Corpus& corpus,
                            const DatasetMatrices& data,
                            const TriClusterResult& result, int day,
                            size_t campaign, int label_day) {
  SnapshotScore score;
  score.day = day;
  score.campaign = campaign;
  score.label_day = label_day;
  score.tweets = data.num_tweets();
  score.users = data.num_users();

  const std::vector<int> tweet_clusters = result.TweetClusters();
  const std::vector<int> user_clusters = result.UserClusters();
  TRICLUST_CHECK_EQ(tweet_clusters.size(), data.tweet_ids.size());
  TRICLUST_CHECK_EQ(user_clusters.size(), data.user_ids.size());

  // Map rows back into the corpus: static labels for tweets, temporal
  // per-day labels (D rows, static fallback) for users — the same values
  // MatrixBuilder baked into data.tweet_labels/user_labels.
  std::vector<Sentiment> tweet_truth;
  tweet_truth.reserve(data.tweet_ids.size());
  for (const size_t tweet_id : data.tweet_ids) {
    tweet_truth.push_back(corpus.tweet(tweet_id).label);
  }
  std::vector<Sentiment> user_truth;
  user_truth.reserve(data.user_ids.size());
  for (const size_t user_id : data.user_ids) {
    user_truth.push_back(label_day >= 0
                             ? corpus.UserSentimentAt(user_id, label_day)
                             : corpus.user(user_id).label);
  }

  score.tweets_scored = CountScored(tweet_clusters, tweet_truth);
  if (score.tweets_scored > 0) {
    score.tweet_accuracy = ClusteringAccuracy(tweet_clusters, tweet_truth);
    score.tweet_permutation_accuracy =
        PermutationAccuracy(tweet_clusters, tweet_truth);
    score.tweet_nmi =
        NormalizedMutualInformation(tweet_clusters, tweet_truth);
  }
  score.users_scored = CountScored(user_clusters, user_truth);
  if (score.users_scored > 0) {
    score.user_accuracy = ClusteringAccuracy(user_clusters, user_truth);
    score.user_permutation_accuracy =
        PermutationAccuracy(user_clusters, user_truth);
    score.user_nmi = NormalizedMutualInformation(user_clusters, user_truth);
  }
  return score;
}

TimelineAggregate AggregateScores(const std::vector<SnapshotScore>& scores) {
  WeightedMean tweet_accuracy, tweet_perm, tweet_nmi;
  WeightedMean user_accuracy, user_perm, user_nmi;
  TimelineAggregate out;
  for (const SnapshotScore& s : scores) {
    ++out.snapshots;
    if (s.tweets_scored > 0 || s.users_scored > 0) ++out.snapshots_scored;
    tweet_accuracy.Add(s.tweet_accuracy, s.tweets_scored);
    tweet_perm.Add(s.tweet_permutation_accuracy, s.tweets_scored);
    tweet_nmi.Add(s.tweet_nmi, s.tweets_scored);
    user_accuracy.Add(s.user_accuracy, s.users_scored);
    user_perm.Add(s.user_permutation_accuracy, s.users_scored);
    user_nmi.Add(s.user_nmi, s.users_scored);
  }
  out.tweets_scored = tweet_accuracy.weight;
  out.users_scored = user_accuracy.weight;
  out.tweet_accuracy = tweet_accuracy.Mean();
  out.tweet_permutation_accuracy = tweet_perm.Mean();
  out.tweet_nmi = tweet_nmi.Mean();
  out.user_accuracy = user_accuracy.Mean();
  out.user_permutation_accuracy = user_perm.Mean();
  out.user_nmi = user_nmi.Mean();
  return out;
}

TimelineEvaluator::TimelineEvaluator(const serving::CampaignEngine* engine)
    : engine_(engine) {
  TRICLUST_CHECK(engine != nullptr);
  timelines_.resize(engine->num_campaigns());
  for (size_t i = 0; i < timelines_.size(); ++i) {
    timelines_[i].campaign = i;
    timelines_[i].name = engine->name(i);
  }
}

void TimelineEvaluator::Observe(
    int day, const serving::CampaignEngine::SnapshotReport& report) {
  TRICLUST_CHECK_LT(report.campaign, engine_->num_campaigns());
  // Campaign churn can register campaigns after construction; grow the
  // timeline table to match the engine (ids are dense).
  while (timelines_.size() < engine_->num_campaigns()) {
    CampaignTimeline timeline;
    timeline.campaign = timelines_.size();
    timeline.name = engine_->name(timeline.campaign);
    timelines_.push_back(std::move(timeline));
  }
  if (!report.fitted) return;
  timelines_[report.campaign].scores.push_back(
      ScoreSnapshot(engine_->corpus(report.campaign), report.data,
                    report.result, day, report.campaign, report.label_day));
}

void TimelineEvaluator::Attach(serving::ReplayDriver* driver) {
  TRICLUST_CHECK(driver != nullptr);
  driver->AddObserver(
      [this](int day, const serving::CampaignEngine::SnapshotReport& r) {
        Observe(day, r);
      });
}

TimelineAggregate TimelineEvaluator::RunAggregate() const {
  std::vector<SnapshotScore> all;
  for (const CampaignTimeline& timeline : timelines_) {
    all.insert(all.end(), timeline.scores.begin(), timeline.scores.end());
  }
  return AggregateScores(all);
}

TimelineAggregate TimelineEvaluator::CampaignAggregate(
    size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, timelines_.size());
  return AggregateScores(timelines_[campaign].scores);
}

void TimelineEvaluator::Annotate(serving::ReplayStats* stats) const {
  TRICLUST_CHECK(stats != nullptr);
  for (serving::ReplayDayStats& day : stats->days) {
    std::vector<SnapshotScore> scores;
    for (const CampaignTimeline& timeline : timelines_) {
      for (const SnapshotScore& score : timeline.scores) {
        if (score.day == day.day) scores.push_back(score);
      }
    }
    const TimelineAggregate aggregate = AggregateScores(scores);
    day.tweets_scored = aggregate.tweets_scored;
    day.users_scored = aggregate.users_scored;
    day.tweet_accuracy = aggregate.tweet_accuracy;
    day.user_accuracy = aggregate.user_accuracy;
    day.tweet_nmi = aggregate.tweet_nmi;
    day.user_nmi = aggregate.user_nmi;
  }
  for (serving::CampaignReplayStats& campaign : stats->campaigns) {
    if (campaign.campaign >= timelines_.size()) continue;
    const TimelineAggregate aggregate =
        CampaignAggregate(campaign.campaign);
    campaign.tweets_scored = aggregate.tweets_scored;
    campaign.users_scored = aggregate.users_scored;
    campaign.tweet_accuracy = aggregate.tweet_accuracy;
    campaign.user_accuracy = aggregate.user_accuracy;
    campaign.tweet_nmi = aggregate.tweet_nmi;
    campaign.user_nmi = aggregate.user_nmi;
  }
}

void TimelineEvaluator::WriteCsv(std::ostream& os) const {
  os << "day,campaign,name,label_day,tweets,tweets_scored,"
        "tweet_accuracy,tweet_permutation_accuracy,tweet_nmi,"
        "users,users_scored,user_accuracy,user_permutation_accuracy,"
        "user_nmi\n";
  std::vector<const SnapshotScore*> ordered;
  for (const CampaignTimeline& timeline : timelines_) {
    for (const SnapshotScore& score : timeline.scores) {
      ordered.push_back(&score);
    }
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SnapshotScore* a, const SnapshotScore* b) {
                     return a->day != b->day ? a->day < b->day
                                             : a->campaign < b->campaign;
                   });
  for (const SnapshotScore* s : ordered) {
    os << s->day << ',' << s->campaign << ','
       << CsvField(timelines_[s->campaign].name) << ',' << s->label_day
       << ',' << s->tweets << ',' << s->tweets_scored << ','
       << CsvNum(s->tweet_accuracy) << ','
       << CsvNum(s->tweet_permutation_accuracy) << ','
       << CsvNum(s->tweet_nmi) << ',' << s->users << ',' << s->users_scored
       << ',' << CsvNum(s->user_accuracy) << ','
       << CsvNum(s->user_permutation_accuracy) << ','
       << CsvNum(s->user_nmi) << '\n';
  }
}

Status TimelineEvaluator::WriteCsvFile(const std::string& path) const {
  return AtomicWriteFile(path, [this](std::ostream* os) {
    WriteCsv(*os);
    return os->good() ? Status::OK()
                      : Status::IoError("timeline csv write failed");
  });
}

}  // namespace triclust
