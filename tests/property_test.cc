/// Cross-module property tests: parameterized sweeps asserting invariants
/// that must hold on *any* input, complementing the per-module example
/// tests. Each suite runs over a range of random seeds.

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "src/data/stats.h"
#include "src/eval/metrics.h"
#include "src/text/tokenizer.h"
#include "src/text/vectorizer.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

// --- generator invariants -----------------------------------------------------

TEST_P(SeededProperty, GeneratedCorpusIsStructurallySound) {
  SyntheticConfig config;
  config.seed = GetParam();
  config.num_users = 40 + GetParam() * 13 % 100;
  config.num_days = 4 + static_cast<int>(GetParam() % 7);
  config.base_tweets_per_day = 40.0;
  config.burst_days = {static_cast<int>(GetParam() % config.num_days)};
  const SyntheticDataset d = GenerateSynthetic(config);

  const CorpusStats stats = ComputeCorpusStats(d.corpus);
  EXPECT_EQ(stats.num_tweets, d.corpus.num_tweets());
  size_t volume_total = 0;
  for (size_t v : stats.daily_volume) volume_total += v;
  EXPECT_EQ(volume_total, stats.num_tweets);
  size_t activity_total = 0;
  for (size_t a : stats.user_activity) activity_total += a;
  EXPECT_EQ(activity_total, stats.num_tweets);
  EXPECT_GE(stats.activity_gini, 0.0);
  EXPECT_LE(stats.activity_gini, 1.0);
  // Long-tail activity: clearly unequal.
  EXPECT_GT(stats.activity_gini, 0.3);
  EXPECT_GT(stats.num_retweets, 0u);

  // Retweets always reference earlier tweets by other authors.
  for (const Tweet& t : d.corpus.tweets()) {
    if (!t.IsRetweet()) continue;
    const Tweet& orig = d.corpus.tweet(static_cast<size_t>(t.retweet_of));
    EXPECT_LT(orig.id, t.id);
    EXPECT_NE(orig.user, t.user);
  }
}

TEST_P(SeededProperty, CorpusTsvRoundTripIsLossless) {
  SyntheticConfig config;
  config.seed = GetParam() + 77;
  config.num_users = 30;
  config.num_days = 3;
  config.base_tweets_per_day = 30.0;
  const SyntheticDataset d = GenerateSynthetic(config);
  const std::string path = ::testing::TempDir() + "/prop_roundtrip_" +
                           std::to_string(GetParam()) + ".tsv";
  ASSERT_TRUE(WriteTsv(d.corpus, path).ok());
  auto loaded = ReadTsv(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());
  ASSERT_EQ(loaded.value().num_tweets(), d.corpus.num_tweets());
  for (size_t i = 0; i < d.corpus.num_tweets(); ++i) {
    EXPECT_EQ(loaded.value().tweet(i).text, d.corpus.tweet(i).text);
    EXPECT_EQ(loaded.value().tweet(i).label, d.corpus.tweet(i).label);
  }
}

// --- tokenizer invariants --------------------------------------------------------

TEST_P(SeededProperty, TokenizerOutputIsCanonical) {
  SyntheticConfig config;
  config.seed = GetParam() + 200;
  config.num_users = 25;
  config.num_days = 2;
  config.base_tweets_per_day = 40.0;
  const SyntheticDataset d = GenerateSynthetic(config);
  const Tokenizer tokenizer;
  for (const Tweet& t : d.corpus.tweets()) {
    const auto tokens = tokenizer.Tokenize(t.text);
    // Deterministic.
    EXPECT_EQ(tokens, tokenizer.Tokenize(t.text));
    for (const std::string& token : tokens) {
      EXPECT_FALSE(token.empty());
      // Lowercase canonical form: no ASCII capital survives.
      EXPECT_EQ(std::find_if(token.begin(), token.end(),
                             [](char c) { return c >= 'A' && c <= 'Z'; }),
                token.end())
          << token;
      // No whitespace inside tokens.
      EXPECT_EQ(token.find(' '), std::string::npos);
    }
  }
}

// --- vectorizer invariants -------------------------------------------------------

TEST_P(SeededProperty, TransformRowsBoundedByDistinctTokens) {
  SyntheticConfig config;
  config.seed = GetParam() + 300;
  config.num_users = 25;
  config.num_days = 2;
  config.base_tweets_per_day = 30.0;
  const SyntheticDataset d = GenerateSynthetic(config);
  const Tokenizer tokenizer;
  std::vector<std::vector<std::string>> docs;
  for (const Tweet& t : d.corpus.tweets()) {
    docs.push_back(tokenizer.Tokenize(t.text));
  }
  DocumentVectorizer vectorizer;
  const SparseMatrix x = vectorizer.FitTransform(docs);
  ASSERT_EQ(x.rows(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    std::unordered_set<std::string> distinct(docs[i].begin(),
                                             docs[i].end());
    EXPECT_LE(x.RowNnz(i), distinct.size());
  }
  // Every stored value is strictly positive (tf-idf of present tokens).
  for (double v : x.values()) EXPECT_GT(v, 0.0);
}

// --- metric invariants -------------------------------------------------------------

TEST_P(SeededProperty, MetricsInvariantUnderItemPermutation) {
  Rng rng(GetParam() + 400);
  std::vector<int> clusters(60);
  std::vector<Sentiment> truth(60);
  for (size_t i = 0; i < clusters.size(); ++i) {
    clusters[i] = static_cast<int>(rng.NextUint64Below(3));
    truth[i] = SentimentFromIndex(static_cast<int>(rng.NextUint64Below(3)));
  }
  const auto perm = rng.Permutation(clusters.size());
  std::vector<int> shuffled_clusters(clusters.size());
  std::vector<Sentiment> shuffled_truth(truth.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    shuffled_clusters[i] = clusters[perm[i]];
    shuffled_truth[i] = truth[perm[i]];
  }
  EXPECT_DOUBLE_EQ(ClusteringAccuracy(clusters, truth),
                   ClusteringAccuracy(shuffled_clusters, shuffled_truth));
  EXPECT_NEAR(NormalizedMutualInformation(clusters, truth),
              NormalizedMutualInformation(shuffled_clusters, shuffled_truth),
              1e-12);
  EXPECT_NEAR(AdjustedRandIndex(clusters, truth),
              AdjustedRandIndex(shuffled_clusters, shuffled_truth), 1e-12);
  EXPECT_DOUBLE_EQ(
      PermutationAccuracy(clusters, truth),
      PermutationAccuracy(shuffled_clusters, shuffled_truth));
}

TEST_P(SeededProperty, AccuracyAtLeastLargestClassShare) {
  // Majority-vote accuracy can never fall below the share of the largest
  // ground-truth class (mapping everything there achieves it).
  Rng rng(GetParam() + 500);
  std::vector<int> clusters(50);
  std::vector<Sentiment> truth(50);
  size_t counts[kNumSentimentClasses] = {0, 0, 0};
  for (size_t i = 0; i < clusters.size(); ++i) {
    clusters[i] = static_cast<int>(rng.NextUint64Below(2));
    const int g = static_cast<int>(rng.NextUint64Below(3));
    truth[i] = SentimentFromIndex(g);
    ++counts[g];
  }
  const double largest_share =
      static_cast<double>(
          *std::max_element(counts, counts + kNumSentimentClasses)) /
      static_cast<double>(clusters.size());
  EXPECT_GE(ClusteringAccuracy(clusters, truth) + 1e-12, largest_share);
}

// --- matrix-builder invariants --------------------------------------------------

TEST_P(SeededProperty, SnapshotsPartitionTheCorpusMatrices) {
  SyntheticConfig config;
  config.seed = GetParam() + 600;
  config.num_users = 30;
  config.num_days = 4;
  config.base_tweets_per_day = 30.0;
  const SyntheticDataset d = GenerateSynthetic(config);
  MatrixBuilder builder;
  builder.Fit(d.corpus);
  const DatasetMatrices all = builder.BuildAll(d.corpus);

  size_t tweet_total = 0;
  size_t xp_nnz_total = 0;
  for (const Snapshot& snap : SplitByDay(d.corpus)) {
    const DatasetMatrices day = builder.Build(d.corpus, snap.tweet_ids);
    tweet_total += day.num_tweets();
    xp_nnz_total += day.xp.nnz();
    EXPECT_EQ(day.xp.cols(), all.xp.cols());
  }
  EXPECT_EQ(tweet_total, all.num_tweets());
  // Xp rows are per-tweet, so the nnz partitions exactly.
  EXPECT_EQ(xp_nnz_total, all.xp.nnz());
}

TEST_P(SeededProperty, ScenarioKnobsKeepCorpusDenseAndStreamable) {
  // The adversarial scenario knobs (spam fleet, topic hijack, dead days,
  // extreme bursts — src/data/scenario.h composes these) must not break
  // the corpus contracts everything downstream relies on: dense in-order
  // ids, valid user references, and non-decreasing tweet days in id order
  // (the canonical-TSV property the streaming reader requires), even on
  // burst days an order of magnitude over baseline.
  SyntheticConfig config;
  config.seed = GetParam() + 900;
  config.num_users = 60;
  config.num_days = 6 + static_cast<int>(GetParam() % 5);
  config.base_tweets_per_day = 50.0;
  config.burst_days = {1, 2 + static_cast<int>(GetParam() % 4)};
  config.burst_multiplier = 8.0;
  config.dead_days = {0, config.num_days - 1,
                      static_cast<int>(GetParam() % 3)};
  config.hijack_day = config.num_days / 2;
  config.num_spam_users = 20 + GetParam() % 30;
  config.spam_tweets_per_user_per_day = 1.5;
  const SyntheticDataset d = GenerateSynthetic(config);
  ASSERT_GT(d.corpus.num_tweets(), 0u);
  // The spam fleet extends the user table; ids must stay dense.
  EXPECT_EQ(d.corpus.num_users(),
            config.num_users + config.num_spam_users);

  const std::unordered_set<int> dead(config.dead_days.begin(),
                                     config.dead_days.end());
  int prev_day = 0;
  for (size_t id = 0; id < d.corpus.num_tweets(); ++id) {
    const Tweet& t = d.corpus.tweet(id);
    EXPECT_EQ(t.id, id);
    EXPECT_LT(t.user, d.corpus.num_users());
    // No backward day references: id order is day order, which is what
    // lets WriteTsv output feed the streaming reader.
    EXPECT_GE(t.day, prev_day) << "tweet " << id;
    EXPECT_GE(t.day, 0);
    EXPECT_LT(t.day, config.num_days);
    EXPECT_EQ(dead.count(t.day), 0u)
        << "tweet " << id << " posted on dead day " << t.day;
    if (t.IsRetweet()) {
      EXPECT_LT(static_cast<size_t>(t.retweet_of), id);
    }
    prev_day = t.day;
  }
  // The hijack swaps word roles, not labels: the label vocabulary stays
  // the standard sentiment set and the lexicon maps only polar classes.
  for (const auto& [word, sentiment] : d.true_lexicon.Entries()) {
    EXPECT_FALSE(word.empty());
    EXPECT_TRUE(sentiment == Sentiment::kPositive ||
                sentiment == Sentiment::kNegative)
        << word;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<uint64_t>(1, 9));

// --- corpus stats ------------------------------------------------------------------

TEST(GiniTest, KnownValues) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({5.0}), 0.0);
  EXPECT_NEAR(GiniCoefficient({1.0, 1.0, 1.0, 1.0}), 0.0, 1e-12);
  // All mass on one of n: G = (n−1)/n.
  EXPECT_NEAR(GiniCoefficient({0.0, 0.0, 0.0, 10.0}), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0}), 0.0);
}

TEST(CorpusStatsTest, CountsMiniCorpus) {
  Corpus c;
  const size_t a = c.AddUser("a");
  const size_t b = c.AddUser("b");
  c.AddUser("silent");
  c.AddTweet(a, 0, "x");
  c.AddTweet(a, 1, "y");
  c.AddTweet(b, 1, "z", Sentiment::kUnlabeled, 0);
  const CorpusStats stats = ComputeCorpusStats(c);
  EXPECT_EQ(stats.num_tweets, 3u);
  EXPECT_EQ(stats.num_retweets, 1u);
  EXPECT_EQ(stats.daily_volume, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(stats.user_activity, (std::vector<size_t>{2, 1, 0}));
  // a posts on two days; b on one → 1 of 2 active users returns.
  EXPECT_DOUBLE_EQ(stats.returning_user_fraction, 0.5);
}

}  // namespace
}  // namespace triclust
