#include "src/data/matrix_builder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "src/util/crc32.h"
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

// --- fingerprints ------------------------------------------------------------
// The tests above compare the builder with itself (Build against Emit,
// streamed against in-memory, the builder against a DocumentVectorizer).
// These CRC-32 values were recorded once and pin the actual bits of the
// feature space across commits: every token stream, the vocabulary with its
// document frequencies, and Xp. Xp is fingerprinted under kTermFrequency
// with L2 rows, which uses only sqrt (correctly rounded under IEEE 754), so
// no libm result enters a value (fit_golden_test's rule). A deliberate change
// to these bits must re-record the values (the failure prints them) and say
// why in the change log.

#ifndef TRICLUST_TESTDATA_DIR
#error "TRICLUST_TESTDATA_DIR must point at the repo's testdata directory"
#endif

Corpus SampleCorpus() {
  auto loaded =
      ReadTsv(std::string(TRICLUST_TESTDATA_DIR) + "/sample_corpus.tsv");
  TRICLUST_CHECK(loaded.ok());
  return std::move(loaded).value();
}

/// Hand-written tweets that take every branch of Tokenizer::Tokenize under
/// both option sets of TokenFingerprints, plus one tweet with 31 distinct
/// features, so its per-row count map grows past 13 and 29 buckets.
Corpus BranchCorpus() {
  const char* const texts[] = {
      "RT @Bob: Support #Prop37!! http://t.co/AbC www.x.org HTTPS://Y.z",
      "rt RT: Rt :) :D D: :-( <3 love it :( again",
      "#!!foo #?? # @ @@ #Yes_On_37 ^_^ >:( :'( =D (: ): :/ :-/ :] :[ =(",
      "=) ;) ;-) :-) :-D :d d: \"quoted,\" (words). don't agri-tech!",
      "a an axe 14000 3rd 42nd 2012 x1 __ _a_ -- 'tis",
      "tab\tsep\rcarriage\nnewline\vvertical\fform  two  spaces ",
      "caf\xc3\xa9 na\xc3\xafve \xc3\x89" "COLE \xe2\x80\x9cquoted\xe2\x80\x9d",
      "the and of this is the monsanto THE Monsanto monsanto",
      "",
      "   \t ",
      "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu "
      "nu xi omicron pi rho sigma tau upsilon phi chi psi omega one two "
      "three four five six seven alpha beta alpha gamma #alpha @alpha",
      "love labeling gmo gmo corn safe food #prop37 :) monsanto evil",
      "hate labeling gmo corn corn scam :( #noprop37 monsanto",
  };
  Corpus c;
  const size_t alice = c.AddUser("alice", Sentiment::kPositive);
  const size_t bob = c.AddUser("bob", Sentiment::kNegative);
  int i = 0;
  for (const char* text : texts) {
    c.AddTweet(i % 2 == 0 ? alice : bob, /*day=*/i / 4, text);
    ++i;
  }
  return c;
}

/// The other setting of every TokenizerOptions field.
TokenizerOptions FlippedTokenizerOptions() {
  TokenizerOptions options;
  options.lowercase = false;
  options.keep_hashtags = false;
  options.keep_mentions = true;
  options.strip_urls = false;
  options.map_emoticons = false;
  options.strip_retweet_marker = false;
  options.min_token_length = 1;
  options.strip_numbers = false;
  return options;
}

std::string Hex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", crc);
  return buf;
}

uint32_t CrcString(const std::string& s, uint32_t crc) {
  const uint64_t size = s.size();
  crc = Crc32(&size, sizeof(size), crc);
  return Crc32(s.data(), s.size(), crc);
}

/// Every tweet's token stream, in tweet order.
uint32_t TokenFingerprint(const Corpus& corpus,
                          const TokenizerOptions& options) {
  const Tokenizer tokenizer(options);
  uint32_t crc = 0;
  for (const Tweet& t : corpus.tweets()) {
    const std::vector<std::string> tokens = tokenizer.Tokenize(t.text);
    const uint64_t count = tokens.size();
    crc = Crc32(&count, sizeof(count), crc);
    for (const std::string& token : tokens) crc = CrcString(token, crc);
  }
  return crc;
}

/// The vocabulary in id order with each document frequency, and the
/// number of fit documents.
uint32_t VocabularyFingerprint(const DocumentVectorizer& vectorizer) {
  uint32_t crc = 0;
  const std::vector<std::string>& tokens = vectorizer.vocabulary().tokens();
  for (size_t id = 0; id < tokens.size(); ++id) {
    crc = CrcString(tokens[id], crc);
    const uint64_t df = vectorizer.DocumentFrequency(id);
    crc = Crc32(&df, sizeof(df), crc);
  }
  const uint64_t docs = vectorizer.num_fit_documents();
  return Crc32(&docs, sizeof(docs), crc);
}

uint32_t XpFingerprint(const SparseMatrix& xp) {
  const uint64_t dims[] = {xp.rows(), xp.cols()};
  uint32_t crc = Crc32(dims, sizeof(dims), 0);
  crc = Crc32(xp.row_ptr().data(), xp.row_ptr().size() * sizeof(size_t), crc);
  crc = Crc32(xp.col_idx().data(), xp.col_idx().size() * sizeof(uint32_t),
              crc);
  return Crc32(xp.values().data(), xp.values().size() * sizeof(double), crc);
}

TEST(MatrixBuilderTest, TokenStreamsMatchRecordedFingerprints) {
  EXPECT_EQ(Hex(TokenFingerprint(SampleCorpus(), {})), "0x32a15dda");
  EXPECT_EQ(Hex(TokenFingerprint(SampleCorpus(), FlippedTokenizerOptions())),
            "0xac4af1a6");
  EXPECT_EQ(Hex(TokenFingerprint(BranchCorpus(), {})), "0xb7f531c9");
  EXPECT_EQ(Hex(TokenFingerprint(BranchCorpus(), FlippedTokenizerOptions())),
            "0x85a91963");
}

struct FingerprintCase {
  const char* name;
  Corpus (*corpus)();
  size_t min_document_frequency;
  bool remove_stopwords;
  const char* vocabulary;
  const char* xp;
};

// One fit, four ways (DocumentVectorizer, MatrixBuilder::Fit, the streaming
// passes, Append of every tweet), must give the recorded bits.
TEST(MatrixBuilderTest, FeatureSpaceMatchesRecordedFingerprints) {
  const FingerprintCase cases[] = {
      {"sample", SampleCorpus, 1, true, "0xb3ec3fc6", "0x1ea6e5b7"},
      {"sample, min df 2, stop words kept", SampleCorpus, 2, false,
       "0x27e7f3de", "0x718d42a3"},
      {"branches", BranchCorpus, 1, true, "0x32ba6fd9", "0x0795058f"},
      {"branches, min df 2, stop words kept", BranchCorpus, 2, false,
       "0x01191f61", "0xa415177d"},
  };
  for (const FingerprintCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Corpus corpus = c.corpus();
    VectorizerOptions options;
    options.weighting = TermWeighting::kTermFrequency;
    options.min_document_frequency = c.min_document_frequency;
    options.remove_stopwords = c.remove_stopwords;
    const Tokenizer tokenizer;
    std::vector<std::vector<std::string>> docs;
    for (const Tweet& t : corpus.tweets()) {
      docs.push_back(tokenizer.Tokenize(t.text));
    }
    DocumentVectorizer vectorizer(options);
    const SparseMatrix transformed = vectorizer.FitTransform(docs);
    EXPECT_EQ(Hex(VocabularyFingerprint(vectorizer)), c.vocabulary);
    EXPECT_EQ(Hex(XpFingerprint(transformed)), c.xp);

    MatrixBuilder fitted({}, options);
    fitted.Fit(corpus);
    EXPECT_EQ(fitted.vocabulary().tokens(), vectorizer.vocabulary().tokens());
    EXPECT_EQ(Hex(XpFingerprint(fitted.BuildAll(corpus).xp)), c.xp);

    MatrixBuilder streamed({}, options);
    streamed.FitStreamBegin();
    for (const Tweet& t : corpus.tweets()) streamed.FitStreamCount(t.text);
    streamed.FitStreamAdmitBegin();
    for (const Tweet& t : corpus.tweets()) streamed.FitStreamAdmit(t.text);
    streamed.FitStreamFinish();
    EXPECT_EQ(streamed.vocabulary().tokens(),
              vectorizer.vocabulary().tokens());
    for (MatrixBuilder* builder : {&fitted, &streamed}) {
      for (const Tweet& t : corpus.tweets()) builder->Append(corpus, t.id);
      EXPECT_EQ(Hex(XpFingerprint(builder->EmitSnapshot(corpus).xp)), c.xp);
    }
  }
}

TEST(MatrixBuilderTest, RowsOfTweetsTheFitNeverSawMatchRecordedFingerprint) {
  Corpus corpus = SampleCorpus();
  VectorizerOptions options;
  options.weighting = TermWeighting::kTermFrequency;
  MatrixBuilder builder({}, options);
  builder.Fit(corpus);
  const Corpus late = BranchCorpus();
  std::vector<size_t> late_ids;
  for (const Tweet& t : late.tweets()) {
    late_ids.push_back(corpus.AddTweet(0, 3, t.text));
  }
  builder.Append(corpus, late_ids);
  EXPECT_EQ(Hex(XpFingerprint(builder.EmitSnapshot(corpus).xp)),
            "0xd28c7814");
}

// Under kTermFrequency every w² is an integer and the norm is exact in any
// order, so the fingerprints above cannot see the order a row's norm is
// summed in. Under tf-idf that order fixes the last bits of a row. This
// test spells out the order every row has been summed in: that of a fresh
// std::unordered_map<size_t, double> filled by counts[id] += 1 in token
// order. It compares on this machine's libm, so it records no value.
TEST(MatrixBuilderTest, RowNormsAreSummedInTheOrderOfAFreshCountMap) {
  for (const Corpus& corpus : {SampleCorpus(), BranchCorpus()}) {
    const Tokenizer tokenizer;
    std::vector<std::vector<std::string>> docs;
    for (const Tweet& t : corpus.tweets()) {
      docs.push_back(tokenizer.Tokenize(t.text));
    }
    DocumentVectorizer oracle;
    oracle.Fit(docs);
    const Vocabulary& vocabulary = oracle.vocabulary();
    const double n = static_cast<double>(oracle.num_fit_documents());

    MatrixBuilder builder;
    builder.Fit(corpus);
    const SparseMatrix xp = builder.BuildAll(corpus).xp;
    ASSERT_EQ(xp.rows(), docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      std::unordered_map<size_t, double> counts;
      for (const std::string& token : docs[i]) {
        const ptrdiff_t id = vocabulary.IdOf(token);
        if (id >= 0) counts[static_cast<size_t>(id)] += 1.0;
      }
      double norm_sq = 0.0;
      for (auto& [id, count] : counts) {
        const double df = static_cast<double>(oracle.DocumentFrequency(id));
        count *= std::log((1.0 + n) / (1.0 + df)) + 1.0;
        norm_sq += count * count;
      }
      std::vector<std::pair<uint32_t, double>> expected;
      for (const auto& [id, w] : counts) {
        expected.emplace_back(static_cast<uint32_t>(id),
                              w * (1.0 / std::sqrt(norm_sq)));
      }
      std::sort(expected.begin(), expected.end());
      std::vector<std::pair<uint32_t, double>> got;
      for (size_t p = xp.row_ptr()[i]; p < xp.row_ptr()[i + 1]; ++p) {
        got.emplace_back(xp.col_idx()[p], xp.values()[p]);
      }
      EXPECT_EQ(got, expected) << "tweet " << i;
    }
  }
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
