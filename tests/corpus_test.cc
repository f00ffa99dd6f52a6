#include "src/data/corpus.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/data/corpus_io.h"

namespace triclust {
namespace {

Corpus TwoUserCorpus() {
  Corpus c;
  const size_t alice = c.AddUser("alice", Sentiment::kPositive);
  const size_t bob = c.AddUser("bob", Sentiment::kNegative);
  c.AddTweet(alice, 0, "yes on 37", Sentiment::kPositive);
  c.AddTweet(bob, 1, "no on 37", Sentiment::kNegative);
  c.AddTweet(alice, 2, "monsanto is pure evil", Sentiment::kPositive);
  c.AddTweet(bob, 2, "yes on 37", Sentiment::kPositive, /*retweet_of=*/0);
  return c;
}

TEST(CorpusTest, AddAndAccess) {
  const Corpus c = TwoUserCorpus();
  EXPECT_EQ(c.num_users(), 2u);
  EXPECT_EQ(c.num_tweets(), 4u);
  EXPECT_EQ(c.num_days(), 3);
  EXPECT_EQ(c.user(0).handle, "alice");
  EXPECT_EQ(c.tweet(2).text, "monsanto is pure evil");
  EXPECT_TRUE(c.tweet(3).IsRetweet());
  EXPECT_FALSE(c.tweet(0).IsRetweet());
  EXPECT_EQ(c.tweet(3).retweet_of, 0);
}

TEST(CorpusTest, EmptyCorpus) {
  Corpus c;
  EXPECT_EQ(c.num_days(), 0);
  EXPECT_EQ(c.num_tweets(), 0u);
}

TEST(CorpusTest, TweetIdsInDayRange) {
  const Corpus c = TwoUserCorpus();
  EXPECT_EQ(c.TweetIdsInDayRange(0, 0), (std::vector<size_t>{0}));
  EXPECT_EQ(c.TweetIdsInDayRange(2, 2), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(c.TweetIdsInDayRange(0, 2).size(), 4u);
  EXPECT_TRUE(c.TweetIdsInDayRange(5, 9).empty());
}

TEST(CorpusTest, LabelCounts) {
  const Corpus c = TwoUserCorpus();
  const auto tweets = c.CountTweetLabels();
  EXPECT_EQ(tweets.positive, 3u);
  EXPECT_EQ(tweets.negative, 1u);
  EXPECT_EQ(tweets.neutral, 0u);
  const auto users = c.CountUserLabels();
  EXPECT_EQ(users.positive, 1u);
  EXPECT_EQ(users.negative, 1u);
}

TEST(CorpusTest, TemporalUserLabelsFallBackToStatic) {
  Corpus c = TwoUserCorpus();
  EXPECT_FALSE(c.HasTemporalUserLabels());
  EXPECT_EQ(c.UserSentimentAt(0, 5), Sentiment::kPositive);
  c.SetUserSentimentAt(0, 1, Sentiment::kNegative);
  EXPECT_TRUE(c.HasTemporalUserLabels());
  EXPECT_EQ(c.UserSentimentAt(0, 1), Sentiment::kNegative);
  // Unannotated days still fall back.
  EXPECT_EQ(c.UserSentimentAt(0, 0), Sentiment::kPositive);
  EXPECT_EQ(c.UserSentimentAt(1, 1), Sentiment::kNegative);
}

TEST(CorpusTest, SaveLoadRoundTrip) {
  const Corpus original = TwoUserCorpus();
  const std::string path = ::testing::TempDir() + "/corpus_roundtrip.tsv";
  ASSERT_TRUE(WriteTsv(original, path).ok());

  auto loaded = ReadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Corpus& c = loaded.value();
  EXPECT_EQ(c.num_users(), original.num_users());
  EXPECT_EQ(c.num_tweets(), original.num_tweets());
  for (size_t i = 0; i < c.num_tweets(); ++i) {
    EXPECT_EQ(c.tweet(i).text, original.tweet(i).text);
    EXPECT_EQ(c.tweet(i).user, original.tweet(i).user);
    EXPECT_EQ(c.tweet(i).day, original.tweet(i).day);
    EXPECT_EQ(c.tweet(i).label, original.tweet(i).label);
    EXPECT_EQ(c.tweet(i).retweet_of, original.tweet(i).retweet_of);
  }
  for (size_t u = 0; u < c.num_users(); ++u) {
    EXPECT_EQ(c.user(u).handle, original.user(u).handle);
    EXPECT_EQ(c.user(u).label, original.user(u).label);
  }
  std::remove(path.c_str());
}

TEST(CorpusTest, SaveEscapesTabsAndNewlinesLosslessly) {
  // Historically tabs/newlines were flattened to spaces; the corpus_io
  // escaping (docs/FORMATS.md) round-trips the exact bytes instead.
  Corpus c;
  const size_t u = c.AddUser("u");
  c.AddTweet(u, 0, "has\ttab and\nnewline");
  const std::string path = ::testing::TempDir() + "/corpus_sanitize.tsv";
  ASSERT_TRUE(WriteTsv(c, path).ok());
  auto loaded = ReadTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().tweet(0).text, "has\ttab and\nnewline");
  std::remove(path.c_str());
}

TEST(CorpusTest, LoadMissingFileFails) {
  const auto r = ReadTsv("/nonexistent/path/corpus.tsv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CorpusTest, LoadRejectsMalformedRows) {
  const std::string path = ::testing::TempDir() + "/corpus_bad.tsv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("Z\tgarbage\n", f);
    fclose(f);
  }
  const auto r = ReadTsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CorpusTest, LoadRejectsBadUserReference) {
  const std::string path = ::testing::TempDir() + "/corpus_baduser.tsv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("U\t0\talice\tpos\n", f);
    fputs("T\t0\t5\t0\tpos\t-1\thello world\n", f);  // user 5 undefined
    fclose(f);
  }
  const auto r = ReadTsv(path);
  std::remove(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(":2: tweet references undefined user 5"),
            std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace triclust
