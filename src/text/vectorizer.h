#ifndef TRICLUST_SRC_TEXT_VECTORIZER_H_
#define TRICLUST_SRC_TEXT_VECTORIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/matrix/sparse_matrix.h"
#include "src/text/vocabulary.h"

namespace triclust {

/// Term-weighting scheme for document–feature matrices.
enum class TermWeighting {
  /// Raw term counts.
  kTermFrequency,
  /// tf · idf with smooth idf = ln((1 + N)/(1 + df)) + 1 (the latent
  /// "tf-idf term vector representation" the paper refers to in §5.1).
  kTfIdf,
};

/// Options for DocumentVectorizer.
struct VectorizerOptions {
  TermWeighting weighting = TermWeighting::kTfIdf;
  /// Tokens appearing in fewer than `min_document_frequency` documents are
  /// dropped at Fit time.
  size_t min_document_frequency = 1;
  /// Drop stop-words at Fit time.
  bool remove_stopwords = true;
  /// L2-normalize each document row. On by default: unit rows put
  /// ||Xp − ·||², ||Xu − ·||² and ||Xr − ·||² on comparable scales, the
  /// balance the paper's objective assumes when it calls the three
  /// bipartite terms "equally important" (§3). With raw tf-idf magnitudes
  /// the Xp term dwarfs the coupling and regularization terms and the
  /// framework degenerates to plain document clustering.
  bool l2_normalize = true;
};

/// Builds the tweet–feature matrix Xp from tokenized documents.
///
/// Fit() scans token lists, applies frequency/stop-word filtering and fixes
/// the vocabulary; Transform() maps any token lists (including future
/// snapshots with out-of-vocabulary words, which are skipped) onto that
/// vocabulary as a CSR matrix. FitTransform combines both.
class DocumentVectorizer {
 public:
  /// Marks a token that is not a feature of the fitted vocabulary.
  static constexpr uint32_t kNotAFeature = UINT32_MAX;

  explicit DocumentVectorizer(VectorizerOptions options = {});

  /// Learns the vocabulary and document frequencies: the passes below,
  /// over the same documents.
  void Fit(const std::vector<std::vector<std::string>>& documents);

  /// Maps documents onto the learned vocabulary. Requires Fit().
  SparseMatrix Transform(
      const std::vector<std::vector<std::string>>& documents) const;

  /// Fit() followed by Transform() on the same documents.
  SparseMatrix FitTransform(
      const std::vector<std::vector<std::string>>& documents);

  /// Transform() of documents whose tokens are already mapped to feature
  /// ids (kNotAFeature for the rest). Like every list of documents as ids
  /// below, document d is ids[ends[d - 1], ends[d]), with ends[-1] = 0.
  SparseMatrix TransformFeatureIds(const std::vector<uint32_t>& feature_ids,
                                   const std::vector<size_t>& ends) const;

  // --- the fit, over interned token ids ------------------------------------
  // Every fit runs these calls. FitStreamBegin starts a token table:
  // InternToken gives each distinct token a dense id, in first-seen order,
  // and the passes take a document as its tokens' ids in order. Feed every
  // document once to FitStreamCount (the document-frequency pass), then
  // once more IN THE SAME ORDER to FitStreamAdmit (the vocabulary-admission
  // pass), then call FitStreamFinish. Between the passes only the token
  // table and a few counters per distinct token are held (vocabulary-sized,
  // not corpus-sized), so a corpus that does not fit in RAM can be streamed
  // twice, re-tokenized each time; one that does can be tokenized and
  // interned once and its ids fed to both passes. Either way the learned
  // vocabulary, document frequencies, document count — and therefore every
  // later Transform — are those of Fit() over the same documents.

  /// Starts the document-frequency pass; discards any previous fit.
  void FitStreamBegin();
  /// Id of `token` in the fit's token table, added when new.
  uint32_t InternToken(std::string_view token);
  /// Folds one document into the document-frequency pass.
  void FitStreamCount(const uint32_t* token_ids, size_t count);
  /// Ends the df pass and starts the vocabulary-admission pass.
  void FitStreamAdmitBegin();
  /// Folds one document into the admission pass (same order as counted).
  void FitStreamAdmit(const uint32_t* token_ids, size_t count);
  /// Completes the fit and frees the token table. CHECK-fails unless both
  /// passes saw the same number of documents.
  void FitStreamFinish();
  /// Both passes and FitStreamFinish over documents interned since
  /// FitStreamBegin and kept as token ids. Returns the feature id of every
  /// token id (kNotAFeature for tokens not admitted), which turns the
  /// documents into TransformFeatureIds' input.
  std::vector<uint32_t> FitTokenIds(const std::vector<uint32_t>& token_ids,
                                    const std::vector<size_t>& ends);

  const VectorizerOptions& options() const { return options_; }

  /// True once Fit() or FitStreamFinish() has completed.
  bool fitted() const { return fitted_; }

  /// Learned vocabulary (valid after Fit()).
  const Vocabulary& vocabulary() const { return vocabulary_; }

  /// Documents seen at Fit time (for idf).
  size_t num_fit_documents() const { return num_fit_documents_; }

  /// Document frequency of feature `id`.
  size_t DocumentFrequency(size_t id) const;

 private:
  VectorizerOptions options_;
  Vocabulary vocabulary_;
  std::vector<size_t> document_frequency_;
  /// Smooth idf of each feature, fixed when the fit completes.
  std::vector<double> idf_;
  size_t num_fit_documents_ = 0;
  bool fitted_ = false;

  // Fit state, live only between FitStreamBegin and FitStreamFinish.
  enum class StreamPhase { kNone, kCounting, kAdmitting };
  /// What the fit knows of one distinct token.
  struct TokenStats {
    /// Documents counted so far that hold the token.
    size_t document_frequency = 0;
    /// 1 + the index of the last counted document that held the token.
    size_t last_document = 0;
    /// Feature id once admitted.
    uint32_t feature = kNotAFeature;
    /// Dropped as a stop word (when VectorizerOptions says so).
    bool stop_word = false;
  };
  StreamPhase stream_phase_ = StreamPhase::kNone;
  Vocabulary stream_tokens_;
  std::vector<TokenStats> stream_stats_;
  size_t stream_counted_docs_ = 0;
  size_t stream_admitted_docs_ = 0;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_TEXT_VECTORIZER_H_
