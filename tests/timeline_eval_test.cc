/// Tests of the replay-driven evaluation harness
/// (src/eval/timeline_eval.h): hand-computed per-day scores on the
/// checked-in sample corpus (including a day where temporal D-row user
/// labels differ from the static stance), the scored-weighted aggregate,
/// bit-for-bit equality of the replayed timeline against directly-scored
/// per-day solves, stats annotation, and the CSV export. Also the paper
/// programs' stream runners over it (bench/bench_util.h): the online replay
/// and the mini-batch and full-batch offline loops of Figs. 11/12.

#include "src/eval/timeline_eval.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/core/snapshot_solver.h"
#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "src/text/lexicon.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::SmallProblem;

#ifndef TRICLUST_TESTDATA_DIR
#error "TRICLUST_TESTDATA_DIR must point at the repo's testdata directory"
#endif

Corpus LoadSampleCorpus() {
  auto loaded =
      ReadTsv(std::string(TRICLUST_TESTDATA_DIR) + "/sample_corpus.tsv");
  TRICLUST_CHECK(loaded.ok());
  return std::move(loaded).value();
}

OnlineConfig FastConfig() {
  OnlineConfig config;
  config.base.max_iterations = 15;
  config.base.track_loss = false;
  return config;
}

/// One-hot n×k matrix whose row argmax is exactly `clusters`.
DenseMatrix OneHot(const std::vector<int>& clusters, size_t k) {
  DenseMatrix m(clusters.size(), k);
  for (size_t i = 0; i < clusters.size(); ++i) {
    m.At(i, static_cast<size_t>(clusters[i])) = 1.0;
  }
  return m;
}

// --- hand-computed scores on testdata/sample_corpus.tsv --------------------
//
// Day 2 of the sample corpus: tweets 15..22 with labels
//   [pos, neg, pos, neg, pos, pos, neg, unlabeled]
// authored by users (in first-appearance order) [0,3,4,2,5,1,6,7]. The
// D rows give user 4 the temporal label pos on day 2 — *different* from
// its static stance neu — and leave user 7 unlabeled until day 3.

TEST(ScoreSnapshotTest, HandComputedTweetMetricsOnSampleDay2) {
  const Corpus corpus = LoadSampleCorpus();
  MatrixBuilder builder;
  builder.Fit(corpus);
  const std::vector<size_t> day2 = corpus.TweetIdsInDayRange(2, 2);
  ASSERT_EQ(day2, (std::vector<size_t>{15, 16, 17, 18, 19, 20, 21, 22}));
  const DatasetMatrices data = builder.Build(corpus, day2, 2);
  ASSERT_EQ(data.user_ids, (std::vector<size_t>{0, 3, 4, 2, 5, 1, 6, 7}));

  // Crafted assignment: cluster 0 = {t15, t17, t20, t22},
  // cluster 1 = {t16, t18, t19, t21}.
  const std::vector<int> tweet_clusters = {0, 1, 0, 1, 1, 0, 1, 0};
  const std::vector<int> user_clusters = {0, 1, 0, 1, 0, 0, 1, 1};
  TriClusterResult result;
  result.sp = OneHot(tweet_clusters, 2);
  result.su = OneHot(user_clusters, 2);

  const SnapshotScore score =
      ScoreSnapshot(corpus, data, result, /*day=*/2, /*campaign=*/0,
                    /*label_day=*/2);
  EXPECT_EQ(score.day, 2);
  EXPECT_EQ(score.label_day, 2);
  EXPECT_EQ(score.tweets, 8u);

  // Tweet level, scored = 7 (t22 is unlabeled). Cluster 0 holds 3
  // labeled tweets, all pos; cluster 1 holds 3 neg + 1 pos. Majority
  // vote: (3 + 3)/7; the best one-to-one map (c0→pos, c1→neg) agrees.
  EXPECT_EQ(score.tweets_scored, 7u);
  EXPECT_DOUBLE_EQ(score.tweet_accuracy, 6.0 / 7.0);
  EXPECT_DOUBLE_EQ(score.tweet_permutation_accuracy, 6.0 / 7.0);
  // NMI by hand: cluster sizes {3, 4}, class sizes {pos 4, neg 3},
  // joint {(c0,pos)=3, (c1,pos)=1, (c1,neg)=3}.
  const double h =
      -(3.0 / 7.0 * std::log(3.0 / 7.0) + 4.0 / 7.0 * std::log(4.0 / 7.0));
  const double mi = 6.0 / 7.0 * std::log(7.0 / 4.0) +
                    1.0 / 7.0 * std::log(7.0 / 16.0);
  EXPECT_NEAR(score.tweet_nmi, mi / h, 1e-12);

  // User level, scored = 7 (user 7 has no label on day 2). With the
  // *temporal* day-2 labels, cluster 0 = {u0, u4, u5, u1} is all pos —
  // user 4's D row (pos) overrides its static neu — and cluster 1 =
  // {u3, u2, u6} is all neg: a perfect partition.
  EXPECT_EQ(score.users_scored, 7u);
  EXPECT_DOUBLE_EQ(score.user_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(score.user_permutation_accuracy, 1.0);
  EXPECT_NEAR(score.user_nmi, 1.0, 1e-12);

  // The same assignment scored against the *static* stances (label_day
  // -1) loses user 4: cluster 0 becomes {pos, neu, pos, pos} → 6/7.
  // This pins that per-day scoring really consumes the D rows.
  const SnapshotScore static_score =
      ScoreSnapshot(corpus, data, result, 2, 0, /*label_day=*/-1);
  EXPECT_EQ(static_score.users_scored, 7u);
  EXPECT_DOUBLE_EQ(static_score.user_accuracy, 6.0 / 7.0);
}

TEST(ScoreSnapshotTest, UserSevenBecomesScorableOnDayThree) {
  // Day 3: user 7 (static unlabeled) gains a temporal neg label, so the
  // scored-user count grows from 7 to 8 — the timeline reflects labels
  // arriving over time, not just the static table.
  const Corpus corpus = LoadSampleCorpus();
  MatrixBuilder builder;
  builder.Fit(corpus);
  const std::vector<size_t> day3 = corpus.TweetIdsInDayRange(3, 3);
  const DatasetMatrices data = builder.Build(corpus, day3, 3);
  ASSERT_EQ(data.num_users(), 8u);

  std::vector<int> user_clusters(data.num_users(), 0);
  TriClusterResult result;
  result.sp = OneHot(std::vector<int>(data.num_tweets(), 0), 2);
  result.su = OneHot(user_clusters, 2);
  const SnapshotScore score = ScoreSnapshot(corpus, data, result, 3, 0, 3);
  EXPECT_EQ(score.users_scored, 8u);
}

TEST(AggregateScoresTest, WeightsByScoredItemsAndSkipsSnapshotsWithNothing) {
  std::vector<SnapshotScore> scores(3);
  scores[0].tweets_scored = 10;
  scores[0].tweet_accuracy = 0.8;
  scores[0].users_scored = 4;
  scores[0].user_accuracy = 0.9;
  // scores[1] scored nothing: NaN metrics, no weight.
  scores[2].tweets_scored = 5;
  scores[2].tweet_accuracy = 0.5;
  scores[2].users_scored = 1;
  scores[2].user_accuracy = 0.4;

  const TimelineAggregate aggregate = AggregateScores(scores);
  EXPECT_EQ(aggregate.snapshots, 3u);
  EXPECT_EQ(aggregate.snapshots_scored, 2u);
  EXPECT_EQ(aggregate.tweets_scored, 15u);
  EXPECT_EQ(aggregate.users_scored, 5u);
  EXPECT_DOUBLE_EQ(aggregate.tweet_accuracy, (10 * 0.8 + 5 * 0.5) / 15);
  EXPECT_DOUBLE_EQ(aggregate.user_accuracy, (4 * 0.9 + 1 * 0.4) / 5);
  EXPECT_TRUE(std::isnan(aggregate.tweet_nmi));
  EXPECT_TRUE(std::isnan(AggregateScores({}).user_accuracy));
}

// --- end-to-end: replayed timeline == directly scored per-day solve --------

void ExpectSameScore(const SnapshotScore& got, const SnapshotScore& expected,
                     const std::string& context) {
  EXPECT_EQ(got.day, expected.day) << context;
  EXPECT_EQ(got.label_day, expected.label_day) << context;
  EXPECT_EQ(got.tweets, expected.tweets) << context;
  EXPECT_EQ(got.tweets_scored, expected.tweets_scored) << context;
  EXPECT_EQ(got.users, expected.users) << context;
  EXPECT_EQ(got.users_scored, expected.users_scored) << context;
  // Bit-for-bit: identical factors scored by the identical kernel.
  EXPECT_EQ(got.tweet_accuracy, expected.tweet_accuracy) << context;
  EXPECT_EQ(got.tweet_permutation_accuracy,
            expected.tweet_permutation_accuracy)
      << context;
  EXPECT_EQ(got.tweet_nmi, expected.tweet_nmi) << context;
  EXPECT_EQ(got.user_accuracy, expected.user_accuracy) << context;
  EXPECT_EQ(got.user_permutation_accuracy,
            expected.user_permutation_accuracy)
      << context;
  EXPECT_EQ(got.user_nmi, expected.user_nmi) << context;
}

TEST(TimelineEvaluatorTest, ReplayedTimelineMatchesDirectScoringBitwise) {
  const Corpus corpus = LoadSampleCorpus();
  MatrixBuilder builder;
  builder.Fit(corpus);
  const DenseMatrix sf0 =
      SentimentLexicon::BuiltinEnglish().BuildSf0(builder.vocabulary(), 3);

  serving::CampaignEngine engine;
  engine.AddCampaign("sample", FastConfig(), sf0, builder, &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);
  TimelineEvaluator evaluator(&engine);
  evaluator.Attach(&driver);
  serving::ReplayStats stats = driver.Replay();
  evaluator.Annotate(&stats);

  const auto& scores = evaluator.timelines()[0].scores;
  const auto splits = SplitByDay(corpus);
  ASSERT_EQ(scores.size(), splits.size());

  const SnapshotSolver solver(FastConfig(), sf0);
  StreamState state;
  for (size_t day = 0; day < splits.size(); ++day) {
    const DatasetMatrices data =
        builder.Build(corpus, splits[day].tweet_ids, splits[day].last_day);
    const TriClusterResult expected = solver.Solve(data, &state);
    const SnapshotScore direct =
        ScoreSnapshot(corpus, data, expected, static_cast<int>(day), 0,
                      splits[day].last_day);
    ExpectSameScore(scores[day], direct, "day " + std::to_string(day));
    // Every sample-corpus day carries labeled tweets and users.
    EXPECT_GT(scores[day].tweets_scored, 0u);
    EXPECT_GT(scores[day].users_scored, 0u);
  }

  // Annotate() mirrored the per-day values into the replay stats (one
  // campaign → the day micro-average is that campaign's score).
  ASSERT_EQ(stats.days.size(), splits.size());
  for (size_t day = 0; day < splits.size(); ++day) {
    EXPECT_EQ(stats.days[day].tweets_scored, scores[day].tweets_scored);
    EXPECT_EQ(stats.days[day].tweet_accuracy, scores[day].tweet_accuracy);
    EXPECT_EQ(stats.days[day].user_accuracy, scores[day].user_accuracy);
    EXPECT_EQ(stats.days[day].tweet_nmi, scores[day].tweet_nmi);
    EXPECT_EQ(stats.days[day].user_nmi, scores[day].user_nmi);
  }
  EXPECT_TRUE(std::isfinite(stats.campaigns[0].tweet_accuracy));
  EXPECT_TRUE(std::isfinite(stats.campaigns[0].user_accuracy));
  EXPECT_GT(stats.campaigns[0].tweets_scored, 0u);
  EXPECT_GT(stats.campaigns[0].users_scored, 0u);

  // The run aggregate micro-averages over every scored item.
  const TimelineAggregate aggregate = evaluator.RunAggregate();
  size_t tweets_scored = 0;
  for (const SnapshotScore& s : scores) tweets_scored += s.tweets_scored;
  EXPECT_EQ(aggregate.tweets_scored, tweets_scored);
  EXPECT_EQ(aggregate.snapshots, scores.size());
  EXPECT_TRUE(std::isfinite(aggregate.tweet_accuracy));
  EXPECT_GE(aggregate.tweet_permutation_accuracy, 0.0);
  EXPECT_LE(aggregate.tweet_accuracy, 1.0);
}

TEST(TimelineEvaluatorTest, AttachingEvaluatorPreservesReplayFactors) {
  // The observer hook must be purely observational: factors replayed
  // with an evaluator attached are bit-identical to factors replayed
  // without one.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;

  auto run = [&](bool with_evaluator) {
    serving::CampaignEngine engine;
    engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                       &corpus).ValueOrDie();
    serving::ReplayDriver driver(&engine);
    driver.AddStream(0, corpus);
    std::vector<TriClusterResult> results;
    driver.AddObserver(
        [&](int, const serving::CampaignEngine::SnapshotReport& r) {
          results.push_back(r.result);
        });
    TimelineEvaluator evaluator(&engine);
    if (with_evaluator) evaluator.Attach(&driver);
    driver.Replay();
    return results;
  };

  const auto plain = run(false);
  const auto observed = run(true);
  ASSERT_EQ(plain.size(), observed.size());
  ASSERT_FALSE(plain.empty());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].sp, observed[i].sp) << i;
    EXPECT_EQ(plain[i].su, observed[i].su) << i;
    EXPECT_EQ(plain[i].sf, observed[i].sf) << i;
  }
}

TEST(TimelineEvaluatorTest, MultiCampaignTimelinesAndCsv) {
  const Corpus corpus = LoadSampleCorpus();
  MatrixBuilder builder;
  builder.Fit(corpus);
  const DenseMatrix sf0 =
      SentimentLexicon::BuiltinEnglish().BuildSf0(builder.vocabulary(), 3);

  const auto streams = serving::PartitionIntoStreams(corpus, 2);
  serving::CampaignEngine engine;
  for (size_t s = 0; s < streams.size(); ++s) {
    engine.AddCampaign("topic-" + std::to_string(s), FastConfig(), sf0,
                       builder, &corpus).ValueOrDie();
  }
  serving::ReplayDriver driver(&engine);
  for (size_t s = 0; s < streams.size(); ++s) {
    driver.AddStream(s, streams[s]);
  }
  TimelineEvaluator evaluator(&engine);
  evaluator.Attach(&driver);
  const serving::ReplayStats stats = driver.Replay();

  ASSERT_EQ(evaluator.timelines().size(), 2u);
  size_t total_scored_snapshots = 0;
  for (const CampaignTimeline& timeline : evaluator.timelines()) {
    EXPECT_FALSE(timeline.scores.empty());
    total_scored_snapshots += timeline.scores.size();
  }
  EXPECT_EQ(total_scored_snapshots, stats.total_fits);

  std::ostringstream csv;
  evaluator.WriteCsv(csv);
  const std::string text = csv.str();
  // Header + one line per fitted snapshot; no NaNs leak into the CSV.
  EXPECT_EQ(static_cast<size_t>(
                std::count(text.begin(), text.end(), '\n')),
            total_scored_snapshots + 1);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("day,campaign,name,label_day"), 0u);
}

// --- the stream runners of the paper programs ------------------------------

/// Online, mini-batch and full-batch over SmallCampaign's daily stream at a
/// reduced iteration budget, computed once for the tests below.
struct ModeRuns {
  std::vector<Snapshot> snapshots;
  bench_util::StreamScores online, mini, full;
};

const ModeRuns& Modes() {
  static const ModeRuns* const runs = [] {
    const SmallProblem p = MakeSmallProblem();
    const Corpus& corpus = p.dataset.corpus;
    OnlineConfig config;
    config.base.max_iterations = 25;
    config.base.track_loss = false;
    return new ModeRuns{
        SplitByDay(corpus),
        bench_util::ReplayOnline(corpus, p.builder, p.sf0, config),
        bench_util::RunOfflinePerDay(corpus, p.builder, p.sf0, config.base,
                                     /*full_batch=*/false),
        bench_util::RunOfflinePerDay(corpus, p.builder, p.sf0, config.base,
                                     /*full_batch=*/true)};
  }();
  return *runs;
}

TEST(StreamRunnerTest, EveryModeScoresAboveChance) {
  const ModeRuns& m = Modes();
  for (const auto* run : {&m.online, &m.mini, &m.full}) {
    ASSERT_EQ(run->days.size(), m.snapshots.size());
    EXPECT_GT(run->aggregate.tweet_accuracy, 0.5);
    EXPECT_GT(run->aggregate.user_accuracy, 0.5);
  }
}

TEST(StreamRunnerTest, OnlineNotWorseThanMiniBatch) {
  // The headline claim of §5.2: temporal regularization buys accuracy over
  // independent per-snapshot solves. Allow a small tolerance: individual
  // snapshots vary.
  const ModeRuns& m = Modes();
  EXPECT_GE(m.online.aggregate.user_accuracy + 0.03,
            m.mini.aggregate.user_accuracy);
  EXPECT_GE(m.online.aggregate.tweet_accuracy + 0.03,
            m.mini.aggregate.tweet_accuracy);
}

TEST(StreamRunnerTest, FullBatchCostsMoreTimeThanOnline) {
  // Full-batch re-solves growing prefixes; across the whole stream its
  // total time must dominate online's.
  const ModeRuns& m = Modes();
  EXPECT_GT(m.full.TotalMs(), m.online.TotalMs());
}

TEST(StreamRunnerTest, FullBatchScoresTodaysTweets) {
  // Full batch fits every tweet seen so far but scores only today's.
  const ModeRuns& m = Modes();
  ASSERT_EQ(m.full.days.size(), m.snapshots.size());
  for (size_t d = 0; d < m.snapshots.size(); ++d) {
    EXPECT_EQ(m.full.days[d].tweets, m.snapshots[d].size()) << "day " << d;
  }
}

}  // namespace
}  // namespace triclust
