#include <gtest/gtest.h>

#include "src/text/lexicon.h"
#include "src/text/stopwords.h"
#include "src/text/tokenizer.h"
#include "src/text/vectorizer.h"
#include "src/text/vocabulary.h"

namespace triclust {
namespace {

// --- stopwords --------------------------------------------------------------

TEST(StopWordsTest, CommonWordsPresent) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("and"));
  EXPECT_TRUE(IsStopWord("of"));
  EXPECT_TRUE(IsStopWord("yourself"));
}

TEST(StopWordsTest, ContentWordsAbsent) {
  EXPECT_FALSE(IsStopWord("monsanto"));
  EXPECT_FALSE(IsStopWord("evil"));
  EXPECT_FALSE(IsStopWord(""));
  EXPECT_FALSE(IsStopWord("#prop37"));
}

TEST(StopWordsTest, ListNonTrivial) { EXPECT_GT(StopWordCount(), 100u); }

// --- vocabulary -------------------------------------------------------------

TEST(VocabularyTest, AssignsSequentialIds) {
  Vocabulary v;
  EXPECT_EQ(v.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(v.GetOrAdd("beta"), 1u);
  EXPECT_EQ(v.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(v.size(), 2u);
  // Ids and lookups survive the index growing many times over.
  for (size_t i = 2; i < 1000; ++i) {
    EXPECT_EQ(v.GetOrAdd("w" + std::to_string(i)), i);
  }
  EXPECT_EQ(v.GetOrAdd(""), 1000u);
  for (size_t i = 2; i < 1000; ++i) {
    const std::string token = "w" + std::to_string(i);
    EXPECT_EQ(v.IdOf(token), static_cast<ptrdiff_t>(i));
    EXPECT_EQ(v.GetOrAdd(token), i);
    EXPECT_EQ(v.TokenOf(i), token);
  }
  EXPECT_EQ(v.IdOf("alpha"), 0);
  EXPECT_EQ(v.IdOf(""), 1000);
  EXPECT_EQ(v.IdOf("w1000"), -1);
  EXPECT_EQ(v.size(), 1001u);
}

TEST(VocabularyTest, LookupAndReverse) {
  Vocabulary v;
  v.GetOrAdd("x");
  EXPECT_EQ(v.IdOf("x"), 0);
  EXPECT_EQ(v.IdOf("missing"), -1);
  EXPECT_TRUE(v.Contains("x"));
  EXPECT_FALSE(v.Contains("missing"));
  EXPECT_EQ(v.TokenOf(0), "x");
  EXPECT_EQ(v.tokens(), std::vector<std::string>{"x"});
}

TEST(VocabularyTest, EmptyState) {
  Vocabulary v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.IdOf("x"), -1);
  EXPECT_FALSE(v.Contains(""));
}

// --- vectorizer -------------------------------------------------------------

std::vector<std::vector<std::string>> Docs() {
  return {{"gmo", "label", "gmo"},
          {"label", "safe"},
          {"gmo", "corn", "the"}};
}

TEST(VectorizerTest, TermFrequencyCounts) {
  VectorizerOptions options;
  options.weighting = TermWeighting::kTermFrequency;
  options.l2_normalize = false;  // raw counts
  DocumentVectorizer vec(options);
  const SparseMatrix x = vec.FitTransform(Docs());
  EXPECT_EQ(x.rows(), 3u);
  // "the" is a stop word: vocabulary = gmo, label, safe, corn.
  EXPECT_EQ(x.cols(), 4u);
  const ptrdiff_t gmo = vec.vocabulary().IdOf("gmo");
  ASSERT_GE(gmo, 0);
  EXPECT_DOUBLE_EQ(x.At(0, static_cast<size_t>(gmo)), 2.0);
  EXPECT_DOUBLE_EQ(x.At(1, static_cast<size_t>(gmo)), 0.0);
}

TEST(VectorizerTest, StopwordRemovalToggle) {
  VectorizerOptions options;
  options.remove_stopwords = false;
  DocumentVectorizer vec(options);
  vec.Fit(Docs());
  EXPECT_TRUE(vec.vocabulary().Contains("the"));
}

TEST(VectorizerTest, MinDocumentFrequencyDropsRareTerms) {
  VectorizerOptions options;
  options.min_document_frequency = 2;
  DocumentVectorizer vec(options);
  vec.Fit(Docs());
  EXPECT_TRUE(vec.vocabulary().Contains("gmo"));    // df = 2
  EXPECT_TRUE(vec.vocabulary().Contains("label"));  // df = 2
  EXPECT_FALSE(vec.vocabulary().Contains("safe"));  // df = 1
  EXPECT_FALSE(vec.vocabulary().Contains("corn"));  // df = 1
}

TEST(VectorizerTest, TfIdfWeightsRareTermsHigher) {
  VectorizerOptions options;
  options.weighting = TermWeighting::kTfIdf;
  DocumentVectorizer vec(options);
  const SparseMatrix x = vec.FitTransform(Docs());
  const auto id = [&](const char* t) {
    return static_cast<size_t>(vec.vocabulary().IdOf(t));
  };
  // "safe" (df=1) must outweigh "label" (df=2) within document 1 where both
  // have tf = 1.
  EXPECT_GT(x.At(1, id("safe")), x.At(1, id("label")));
}

TEST(VectorizerTest, OutOfVocabularyTokensSkipped) {
  DocumentVectorizer vec;
  vec.Fit(Docs());
  const SparseMatrix x = vec.Transform({{"gmo", "unseen"}});
  EXPECT_EQ(x.rows(), 1u);
  EXPECT_EQ(x.RowNnz(0), 1u);
}

TEST(VectorizerTest, L2NormalizeMakesUnitRows) {
  VectorizerOptions options;
  options.l2_normalize = true;
  DocumentVectorizer vec(options);
  const SparseMatrix x = vec.FitTransform(Docs());
  for (size_t i = 0; i < x.rows(); ++i) {
    double sq = 0.0;
    for (size_t p = x.row_ptr()[i]; p < x.row_ptr()[i + 1]; ++p) {
      sq += x.values()[p] * x.values()[p];
    }
    EXPECT_NEAR(sq, 1.0, 1e-12);
  }
}

TEST(VectorizerTest, DocumentFrequencyAccessor) {
  DocumentVectorizer vec;
  vec.Fit(Docs());
  const ptrdiff_t gmo = vec.vocabulary().IdOf("gmo");
  EXPECT_EQ(vec.DocumentFrequency(static_cast<size_t>(gmo)), 2u);
  EXPECT_EQ(vec.num_fit_documents(), 3u);
}

TEST(VectorizerTest, FitAdmitsFeaturesInFirstAppearanceOrder) {
  DocumentVectorizer vec;
  EXPECT_FALSE(vec.fitted());
  vec.Fit(Docs());
  EXPECT_TRUE(vec.fitted());
  EXPECT_EQ(vec.vocabulary().tokens(),
            (std::vector<std::string>{"gmo", "label", "safe", "corn"}));
  const std::vector<size_t> expected_df = {2, 2, 1, 1};
  for (size_t id = 0; id < expected_df.size(); ++id) {
    EXPECT_EQ(vec.DocumentFrequency(id), expected_df[id]) << id;
  }
}

TEST(VectorizerTest, RefitReplacesThePreviousFit) {
  DocumentVectorizer vec;
  vec.Fit(Docs());
  vec.Fit({{"corn", "safe"}, {"corn"}});
  EXPECT_EQ(vec.vocabulary().tokens(),
            (std::vector<std::string>{"corn", "safe"}));
  EXPECT_EQ(vec.DocumentFrequency(0), 2u);
  EXPECT_EQ(vec.num_fit_documents(), 2u);
}

TEST(VectorizerTest, EmptyDocumentGivesEmptyRow) {
  DocumentVectorizer vec;
  vec.Fit(Docs());
  const SparseMatrix x = vec.Transform({{}, {"gmo"}});
  EXPECT_EQ(x.RowNnz(0), 0u);
  EXPECT_EQ(x.RowNnz(1), 1u);
}

// --- lexicon ----------------------------------------------------------------

TEST(LexiconTest, AddAndLookup) {
  SentimentLexicon lex;
  lex.Add("good", Sentiment::kPositive);
  lex.Add("bad", Sentiment::kNegative);
  EXPECT_EQ(lex.PolarityOf("good"), Sentiment::kPositive);
  EXPECT_EQ(lex.PolarityOf("bad"), Sentiment::kNegative);
  EXPECT_EQ(lex.PolarityOf("corn"), Sentiment::kUnlabeled);
  EXPECT_TRUE(lex.Contains("good"));
  EXPECT_FALSE(lex.Contains("corn"));
  EXPECT_EQ(lex.size(), 2u);
}

TEST(LexiconTest, LastWriteWins) {
  SentimentLexicon lex;
  lex.Add("word", Sentiment::kPositive);
  lex.Add("word", Sentiment::kNegative);
  EXPECT_EQ(lex.PolarityOf("word"), Sentiment::kNegative);
  EXPECT_EQ(lex.size(), 1u);
}

TEST(LexiconTest, BuildSf0RowsAreDistributions) {
  SentimentLexicon lex;
  lex.Add("good", Sentiment::kPositive);
  Vocabulary vocab;
  vocab.GetOrAdd("good");
  vocab.GetOrAdd("corn");
  const DenseMatrix sf0 = lex.BuildSf0(vocab, 3, 0.9);
  ASSERT_EQ(sf0.rows(), 2u);
  ASSERT_EQ(sf0.cols(), 3u);
  for (size_t f = 0; f < 2; ++f) {
    double row_sum = 0.0;
    for (size_t c = 0; c < 3; ++c) row_sum += sf0.At(f, c);
    EXPECT_NEAR(row_sum, 1.0, 1e-12);
  }
  // Covered word: confident row.
  EXPECT_DOUBLE_EQ(sf0.At(0, 0), 0.9);
  EXPECT_DOUBLE_EQ(sf0.At(0, 1), 0.05);
  // Uncovered word: uniform row.
  EXPECT_NEAR(sf0.At(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(LexiconTest, BuildSf0CoversEmoticonTokens) {
  SentimentLexicon lex;  // empty lexicon
  Vocabulary vocab;
  vocab.GetOrAdd(std::string(kPositiveEmoticonToken));
  vocab.GetOrAdd(std::string(kNegativeEmoticonToken));
  const DenseMatrix sf0 = lex.BuildSf0(vocab, 3, 0.8);
  EXPECT_DOUBLE_EQ(sf0.At(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(sf0.At(1, 1), 0.8);
}

TEST(LexiconTest, BuildSf0TwoClassesSkipsNeutralWords) {
  SentimentLexicon lex;
  lex.Add("meh", Sentiment::kNeutral);
  lex.Add("good", Sentiment::kPositive);
  Vocabulary vocab;
  vocab.GetOrAdd("meh");
  vocab.GetOrAdd("good");
  const DenseMatrix sf0 = lex.BuildSf0(vocab, 2, 0.9);
  // Neutral word keeps a uniform row under k=2.
  EXPECT_DOUBLE_EQ(sf0.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(sf0.At(1, 0), 0.9);
}

TEST(LexiconTest, BuiltinEnglishSane) {
  const SentimentLexicon lex = SentimentLexicon::BuiltinEnglish();
  EXPECT_GT(lex.size(), 40u);
  EXPECT_EQ(lex.PolarityOf("love"), Sentiment::kPositive);
  EXPECT_EQ(lex.PolarityOf("evil"), Sentiment::kNegative);
}

TEST(LexiconTest, EntriesRoundTrip) {
  SentimentLexicon lex;
  lex.Add("a", Sentiment::kPositive);
  lex.Add("b", Sentiment::kNegative);
  const auto entries = lex.Entries();
  EXPECT_EQ(entries.size(), 2u);
}

}  // namespace
}  // namespace triclust
