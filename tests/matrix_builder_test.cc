#include "src/data/matrix_builder.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/snapshots.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

Corpus MiniCorpus() {
  Corpus c;
  const size_t alice = c.AddUser("alice", Sentiment::kPositive);
  const size_t bob = c.AddUser("bob", Sentiment::kNegative);
  const size_t carol = c.AddUser("carol", Sentiment::kPositive);
  c.AddTweet(alice, 0, "love gmo labeling", Sentiment::kPositive);   // 0
  c.AddTweet(bob, 0, "hate gmo labeling", Sentiment::kNegative);     // 1
  c.AddTweet(alice, 1, "labeling safe food", Sentiment::kPositive);  // 2
  // carol retweets alice's tweet 0 on day 1:
  c.AddTweet(carol, 1, "love gmo labeling", Sentiment::kPositive, 0);  // 3
  return c;
}

TEST(MatrixBuilderTest, DimensionsConsistent) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  EXPECT_EQ(d.num_tweets(), 4u);
  EXPECT_EQ(d.num_users(), 3u);
  EXPECT_EQ(d.xp.rows(), 4u);
  EXPECT_EQ(d.xu.rows(), 3u);
  EXPECT_EQ(d.xu.cols(), d.xp.cols());
  EXPECT_EQ(d.xr.rows(), 3u);
  EXPECT_EQ(d.xr.cols(), 4u);
  EXPECT_EQ(d.gu.num_nodes(), 3u);
  EXPECT_EQ(d.tweet_labels.size(), 4u);
  EXPECT_EQ(d.user_labels.size(), 3u);
}

TEST(MatrixBuilderTest, XuIsSumOfUserTweetRows) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  // alice (user row 0) authored tweet rows 0 and 2.
  for (size_t f = 0; f < d.xu.cols(); ++f) {
    EXPECT_NEAR(d.xu.At(0, f), d.xp.At(0, f) + d.xp.At(2, f), 1e-12);
  }
}

TEST(MatrixBuilderTest, XrHasPostingAndRetweetIncidence) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  // Row order follows first appearance: alice=0, bob=1, carol=2.
  EXPECT_DOUBLE_EQ(d.xr.At(0, 0), 1.0);  // alice posts tweet 0
  EXPECT_DOUBLE_EQ(d.xr.At(1, 1), 1.0);  // bob posts tweet 1
  EXPECT_DOUBLE_EQ(d.xr.At(2, 3), 1.0);  // carol posts the retweet
  EXPECT_DOUBLE_EQ(d.xr.At(2, 0), 1.0);  // …and is linked to the original
  EXPECT_DOUBLE_EQ(d.xr.At(1, 0), 0.0);
}

TEST(MatrixBuilderTest, GuLinksRetweeterToOriginalAuthor) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  EXPECT_EQ(d.gu.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(d.gu.adjacency().At(2, 0), 1.0);  // carol—alice
  EXPECT_DOUBLE_EQ(d.gu.adjacency().At(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(d.gu.adjacency().At(1, 0), 0.0);
}

TEST(MatrixBuilderTest, LabelsAlignWithRows) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d = builder.BuildAll(c);
  EXPECT_EQ(d.tweet_labels[1], Sentiment::kNegative);
  EXPECT_EQ(d.user_labels[0], Sentiment::kPositive);  // alice
  EXPECT_EQ(d.user_labels[1], Sentiment::kNegative);  // bob
}

TEST(MatrixBuilderTest, SnapshotSubsetKeepsVocabulary) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices full = builder.BuildAll(c);
  const DatasetMatrices day1 = builder.Build(c, c.TweetIdsInDayRange(1, 1));
  EXPECT_EQ(day1.num_tweets(), 2u);
  EXPECT_EQ(day1.num_users(), 2u);  // alice and carol
  EXPECT_EQ(day1.xp.cols(), full.xp.cols());  // shared feature space
}

TEST(MatrixBuilderTest, SnapshotRetweetOfOutOfWindowOriginal) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  // Day-1 window contains the retweet (id 3) but not its original (id 0):
  const DatasetMatrices d = builder.Build(c, c.TweetIdsInDayRange(1, 1));
  // Posting incidence only; no crash, no edge to a missing tweet row.
  size_t carol_row = 2;  // appearance order within day 1: alice(2)=0, carol=1
  carol_row = 1;
  EXPECT_DOUBLE_EQ(d.xr.At(carol_row, 1), 1.0);
  // Gu edge still exists because both users are active on day 1.
  EXPECT_EQ(d.gu.num_edges(), 1u);
}

TEST(MatrixBuilderTest, TemporalUserLabels) {
  Corpus c = MiniCorpus();
  c.SetUserSentimentAt(0, 1, Sentiment::kNegative);  // alice flips on day 1
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices d0 =
      builder.Build(c, c.TweetIdsInDayRange(0, 0), /*user_label_day=*/0);
  const DatasetMatrices d1 =
      builder.Build(c, c.TweetIdsInDayRange(1, 1), /*user_label_day=*/1);
  EXPECT_EQ(d0.user_labels[0], Sentiment::kPositive);
  EXPECT_EQ(d1.user_labels[0], Sentiment::kNegative);
}

TEST(MatrixBuilderTest, WorksOnSyntheticCampaign) {
  const auto p = testing_util::MakeSmallProblem();
  EXPECT_GT(p.data.xp.nnz(), 1000u);
  EXPECT_GT(p.data.num_features(), 100u);
  EXPECT_GT(p.data.gu.num_edges(), 10u);
  // Every tweet row must connect to exactly its author (+ possibly an
  // original): column sums of Xr ≥ 1.
  const std::vector<double> colsum = p.data.xr.ColumnSums();
  for (double v : colsum) EXPECT_GE(v, 1.0);
}

// --- incremental ingestion ----------------------------------------------------

void ExpectSameSparse(const SparseMatrix& a, const SparseMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

void ExpectSameDataset(const DatasetMatrices& got,
                       const DatasetMatrices& expected) {
  ExpectSameSparse(got.xp, expected.xp);
  ExpectSameSparse(got.xu, expected.xu);
  ExpectSameSparse(got.xr, expected.xr);
  ExpectSameSparse(got.gu.adjacency(), expected.gu.adjacency());
  EXPECT_EQ(got.tweet_ids, expected.tweet_ids);
  EXPECT_EQ(got.user_ids, expected.user_ids);
  EXPECT_EQ(got.tweet_labels, expected.tweet_labels);
  EXPECT_EQ(got.user_labels, expected.user_labels);
}

TEST(MatrixBuilderTest, EmitSnapshotMatchesBuildBitwise) {
  const auto d = testing_util::SmallCampaign();
  MatrixBuilder builder;
  builder.Fit(d.corpus);
  for (const Snapshot& day : SplitByDay(d.corpus)) {
    const DatasetMatrices expected =
        builder.Build(d.corpus, day.tweet_ids, day.last_day);
    builder.Append(d.corpus, day.tweet_ids);
    EXPECT_EQ(builder.num_pending(), day.tweet_ids.size());
    const DatasetMatrices got =
        builder.EmitSnapshot(d.corpus, day.last_day);
    EXPECT_EQ(builder.num_pending(), 0u);
    ExpectSameDataset(got, expected);
  }
}

// Every Xp row, compared bit for bit with what a separately fitted
// DocumentVectorizer gives for the tweet's freshly tokenized text alone.
void ExpectRowsMatchOracle(const DatasetMatrices& data, const Corpus& corpus,
                           const DocumentVectorizer& oracle) {
  const Tokenizer tokenizer;
  ASSERT_EQ(data.xp.rows(), data.tweet_ids.size());
  for (size_t i = 0; i < data.tweet_ids.size(); ++i) {
    const Tweet& tweet = corpus.tweet(data.tweet_ids[i]);
    const SparseMatrix expected =
        oracle.Transform({tokenizer.Tokenize(tweet.text)});
    SCOPED_TRACE("tweet " + std::to_string(data.tweet_ids[i]));
    ExpectSameSparse(data.xp.SelectRows({i}), expected);
  }
}

TEST(MatrixBuilderTest, RowsMatchAnIndependentVectorizerBitwise) {
  auto d = testing_util::SmallCampaign();
  Corpus& corpus = d.corpus;

  const Tokenizer tokenizer;
  std::vector<std::vector<std::string>> docs;
  for (const Tweet& t : corpus.tweets()) {
    docs.push_back(tokenizer.Tokenize(t.text));
  }
  DocumentVectorizer oracle;
  oracle.Fit(docs);

  MatrixBuilder fitted;
  fitted.Fit(corpus);
  MatrixBuilder streamed;
  streamed.FitStreamBegin();
  for (const Tweet& t : corpus.tweets()) streamed.FitStreamCount(t.text);
  streamed.FitStreamAdmitBegin();
  for (const Tweet& t : corpus.tweets()) streamed.FitStreamAdmit(t.text);
  streamed.FitStreamFinish();
  ASSERT_EQ(fitted.vocabulary().tokens(), oracle.vocabulary().tokens());
  ASSERT_EQ(streamed.vocabulary().tokens(), oracle.vocabulary().tokens());

  ExpectRowsMatchOracle(fitted.BuildAll(corpus), corpus, oracle);

  // A tweet neither builder saw at fit time; its unseen word drops out.
  const std::string late_text = corpus.tweet(0).text + " brandnewword";
  const size_t late = corpus.AddTweet(corpus.tweet(0).user,
                                      corpus.tweet(0).day, late_text);
  for (MatrixBuilder* builder : {&fitted, &streamed}) {
    for (const Snapshot& day : SplitByDay(corpus)) {
      builder->Append(corpus, day.tweet_ids);
      ExpectRowsMatchOracle(builder->EmitSnapshot(corpus, day.last_day),
                            corpus, oracle);
    }
  }
  fitted.Append(corpus, late);
  EXPECT_GT(fitted.EmitSnapshot(corpus).xp.RowNnz(0), 0u);
}

TEST(MatrixBuilderTest, CopiesShareTheFitButNotPendingRows) {
  const auto d = testing_util::SmallCampaign();
  MatrixBuilder original;
  original.Fit(d.corpus);
  MatrixBuilder copy = original;
  EXPECT_TRUE(copy.fitted());
  const std::vector<size_t> ids = SplitByDay(d.corpus)[3].tweet_ids;
  copy.Append(d.corpus, ids);
  EXPECT_EQ(copy.num_pending(), ids.size());
  EXPECT_EQ(original.num_pending(), 0u);

  original.Append(d.corpus, ids);
  ExpectSameDataset(copy.EmitSnapshot(d.corpus, 3),
                    original.EmitSnapshot(d.corpus, 3));
  EXPECT_EQ(copy.vocabulary().tokens(), original.vocabulary().tokens());
}

TEST(MatrixBuilderTest, RefittingTheOriginalLeavesCopiesUnchanged) {
  const auto d = testing_util::SmallCampaign();
  const Corpus other = MiniCorpus();
  const std::vector<size_t> ids = SplitByDay(d.corpus)[3].tweet_ids;
  MatrixBuilder original;
  original.Fit(d.corpus);
  const std::vector<std::string> tokens = original.vocabulary().tokens();
  const DatasetMatrices expected = original.Build(d.corpus, ids, 3);

  const auto expect_unchanged = [&](MatrixBuilder& copy) {
    EXPECT_TRUE(copy.fitted());
    EXPECT_EQ(copy.vocabulary().tokens(), tokens);
    ExpectSameDataset(copy.Build(d.corpus, ids, 3), expected);
    copy.Append(d.corpus, ids);
    ExpectSameDataset(copy.EmitSnapshot(d.corpus, 3), expected);
  };

  MatrixBuilder before_refit = original;
  original.Fit(other);
  ASSERT_NE(original.vocabulary().tokens(), tokens);
  expect_unchanged(before_refit);

  original.Fit(d.corpus);
  MatrixBuilder before_stream = original;
  original.FitStreamBegin();
  EXPECT_FALSE(original.fitted());
  EXPECT_TRUE(original.vocabulary().empty());
  expect_unchanged(before_stream);
}

TEST(MatrixBuilderTest, AppendAccumulatesAcrossBatches) {
  // Several small Ingest-style batches must emit the same snapshot as one
  // Build over the concatenated ids.
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  builder.Append(c, {0, 1});
  builder.Append(c, 2);
  builder.Append(c, {3});
  EXPECT_EQ(builder.num_pending(), 4u);
  const DatasetMatrices got = builder.EmitSnapshot(c);
  const DatasetMatrices expected = builder.Build(c, {0, 1, 2, 3});
  ExpectSameDataset(got, expected);
}

TEST(MatrixBuilderTest, AppendTokenizesTweetsArrivedAfterFit) {
  Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const size_t vocab = builder.vocabulary().size();
  // A tweet that arrives after Fit: in-vocabulary tokens land in the fixed
  // feature space, unseen ones drop out.
  const size_t dave = c.AddUser("dave");
  const size_t late = c.AddTweet(dave, 2, "love labeling brandnewword");
  builder.Append(c, late);
  const DatasetMatrices got = builder.EmitSnapshot(c, -1);
  EXPECT_EQ(got.num_tweets(), 1u);
  EXPECT_EQ(got.xp.cols(), vocab);
  EXPECT_GT(got.xp.RowNnz(0), 0u);   // known tokens mapped
  EXPECT_LE(got.xp.RowNnz(0), 2u);   // "brandnewword" dropped
  EXPECT_EQ(got.user_ids, (std::vector<size_t>{dave}));
}

TEST(MatrixBuilderTest, EmitEmptyPendingYieldsEmptySnapshot) {
  const Corpus c = MiniCorpus();
  MatrixBuilder builder;
  builder.Fit(c);
  const DatasetMatrices got = builder.EmitSnapshot(c);
  EXPECT_EQ(got.num_tweets(), 0u);
  EXPECT_EQ(got.num_users(), 0u);
  EXPECT_EQ(got.xp.cols(), builder.vocabulary().size());
}

// --- snapshots ---------------------------------------------------------------

TEST(SnapshotsTest, SplitByDayCoversEveryTweetOnce) {
  const Corpus c = MiniCorpus();
  const std::vector<Snapshot> snaps = SplitByDay(c);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].tweet_ids, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(snaps[1].tweet_ids, (std::vector<size_t>{2, 3}));
  EXPECT_EQ(snaps[0].first_day, 0);
  EXPECT_EQ(snaps[1].last_day, 1);
}

TEST(SnapshotsTest, SplitByWindowGroupsDays) {
  const auto d = testing_util::SmallCampaign();
  const std::vector<Snapshot> snaps = SplitByWindow(d.corpus, 3);
  ASSERT_EQ(snaps.size(), 4u);  // 10 days → 4 windows (3+3+3+1)
  size_t total = 0;
  for (const auto& s : snaps) total += s.size();
  EXPECT_EQ(total, d.corpus.num_tweets());
  EXPECT_EQ(snaps[3].first_day, 9);
  EXPECT_EQ(snaps[3].last_day, 9);
}

TEST(SnapshotsTest, EmptyDaysYieldEmptySnapshots) {
  Corpus c;
  const size_t u = c.AddUser("u");
  c.AddTweet(u, 0, "first");
  c.AddTweet(u, 3, "last");
  const std::vector<Snapshot> snaps = SplitByDay(c);
  ASSERT_EQ(snaps.size(), 4u);
  EXPECT_EQ(snaps[1].size(), 0u);
  EXPECT_EQ(snaps[2].size(), 0u);
}

}  // namespace
}  // namespace triclust
