#ifndef TRICLUST_SRC_TEXT_VECTORIZER_H_
#define TRICLUST_SRC_TEXT_VECTORIZER_H_

#include <string>
#include <unordered_map>
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
  explicit DocumentVectorizer(VectorizerOptions options = {});

  /// Learns the vocabulary and document frequencies: both streaming passes
  /// below, over the same documents.
  void Fit(const std::vector<std::vector<std::string>>& documents);

  /// Maps documents onto the learned vocabulary. Requires Fit().
  SparseMatrix Transform(
      const std::vector<std::vector<std::string>>& documents) const;

  /// Fit() followed by Transform() on the same documents.
  SparseMatrix FitTransform(
      const std::vector<std::vector<std::string>>& documents);

  // --- streaming Fit (bounded memory) ---------------------------------------
  // Two-pass Fit for document sets that do not fit in RAM: feed every
  // document once to FitStreamCount (the document-frequency pass), then
  // once more IN THE SAME ORDER to FitStreamAdmit (the vocabulary-admission
  // pass), then call FitStreamFinish. Fit() is exactly these calls, so the
  // learned vocabulary, document frequencies, document count — and
  // therefore every later Transform — are identical to Fit() over the same
  // documents; only a token→df hash map (vocabulary-sized, not
  // corpus-sized) is held between the passes.

  /// Starts the document-frequency pass; discards any previous fit.
  void FitStreamBegin();
  /// Folds one document into the document-frequency pass.
  void FitStreamCount(const std::vector<std::string>& document);
  /// Ends the df pass and starts the vocabulary-admission pass.
  void FitStreamAdmitBegin();
  /// Folds one document into the admission pass (same order as counted).
  void FitStreamAdmit(const std::vector<std::string>& document);
  /// Completes the streaming fit. CHECK-fails unless both passes saw the
  /// same number of documents.
  void FitStreamFinish();

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
  double IdfWeight(size_t feature_id) const;

  VectorizerOptions options_;
  Vocabulary vocabulary_;
  std::vector<size_t> document_frequency_;
  size_t num_fit_documents_ = 0;
  bool fitted_ = false;

  // Streaming-fit state, live only between FitStreamBegin and
  // FitStreamFinish.
  enum class StreamPhase { kNone, kCounting, kAdmitting };
  StreamPhase stream_phase_ = StreamPhase::kNone;
  std::unordered_map<std::string, size_t> stream_df_;
  size_t stream_counted_docs_ = 0;
  size_t stream_admitted_docs_ = 0;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_TEXT_VECTORIZER_H_
