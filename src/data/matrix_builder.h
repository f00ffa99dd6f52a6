#ifndef TRICLUST_SRC_DATA_MATRIX_BUILDER_H_
#define TRICLUST_SRC_DATA_MATRIX_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/data/corpus.h"
#include "src/graph/user_graph.h"
#include "src/matrix/sparse_matrix.h"
#include "src/text/tokenizer.h"
#include "src/text/vectorizer.h"

namespace triclust {

/// The matrix view of (a subset of) a corpus: the three bipartite graphs of
/// the tripartite decomposition plus the user–user graph, with row-id maps
/// back into the corpus and the ground-truth labels used for evaluation.
struct DatasetMatrices {
  /// Tweet–feature matrix Xp (n×l).
  SparseMatrix xp;
  /// User–feature matrix Xu (m×l): sum of each user's tweet rows.
  SparseMatrix xu;
  /// User–tweet matrix Xr (m×n): posting and retweeting incidence.
  SparseMatrix xr;
  /// User–user retweet graph Gu (m×m), one unit of weight per retweet event.
  UserGraph gu;

  /// Row i of Xp is corpus tweet tweet_ids[i].
  std::vector<size_t> tweet_ids;
  /// Row j of Xu/Xr is corpus user user_ids[j].
  std::vector<size_t> user_ids;

  /// Ground-truth labels aligned with the rows above (kUnlabeled allowed).
  std::vector<Sentiment> tweet_labels;
  std::vector<Sentiment> user_labels;

  size_t num_tweets() const { return tweet_ids.size(); }
  size_t num_users() const { return user_ids.size(); }
  size_t num_features() const { return xp.cols(); }
};

/// Builds DatasetMatrices from a corpus against a single fixed vocabulary.
///
/// Fit() tokenizes the whole corpus once and learns the feature space; every
/// subsequent Build() (full corpus or one temporal snapshot) maps onto that
/// shared space, which keeps Sf(t) dimensionally consistent across online
/// snapshots. Out-of-vocabulary tokens in later snapshots are dropped,
/// matching how a deployed system would pin its feature hash space.
///
/// What Fit() learns — the tokenizer options, the fitted vectorizer and the
/// Xp row of every tweet it was given, as one CSR matrix — is one immutable
/// object that every copy of the builder shares. A copy owns only its own
/// pending rows, so copying a fitted builder (one per serving campaign)
/// costs nothing per tweet. Fit(), FitStreamBegin() and FitStreamFinish()
/// replace the builder's object and never write to the old one: refitting a
/// builder leaves its copies' feature space as it was.
///
/// Streaming ingestion: Append() accumulates tweets into a *pending
/// snapshot*, copying each tweet's cached row — O(its row), independent of
/// how much is already pending — and EmitSnapshot() assembles the
/// accumulated rows into DatasetMatrices identical to what Build() would
/// produce for the same tweet ids. This is the ingestion path of the
/// serving layer: a request deadline pays only for the matrices' assembly,
/// never for re-tokenizing or re-weighting the backlog. Tweets added to the
/// corpus after Fit() have no cached row; Append tokenizes and vectorizes
/// them on arrival (their out-of-vocabulary tokens drop out, as in Build).
/// Each row is weighted and normalized on its own, so a cached row is
/// bitwise the row the fitted vectorizer gives for that tweet alone.
class MatrixBuilder {
 public:
  explicit MatrixBuilder(TokenizerOptions tokenizer_options = {},
                         VectorizerOptions vectorizer_options = {});

  /// Tokenizes each tweet once and interns each token once into a dense
  /// id; the document-frequency pass, vocabulary admission and every
  /// tweet's Xp row then run on those ids, and the rows are cached. Only
  /// the distinct token strings, one id per token occurrence and one
  /// offset per tweet are held meanwhile. The vocabulary, document
  /// frequencies and rows are bitwise those of the streaming passes below
  /// over the same texts.
  void Fit(const Corpus& corpus);

  // --- streaming Fit (bounded memory) ---------------------------------------
  // Fit for corpora that do not fit in RAM: feed every tweet's text once
  // to FitStreamCount, then once more IN THE SAME (id) ORDER to
  // FitStreamAdmit, then call FitStreamFinish — typically two passes of
  // ReadTsvStream over the same file. The learned feature space is
  // identical to Fit() over the same texts, and every later Append /
  // EmitSnapshot row matches the in-memory path bit for bit. A builder
  // fitted this way keeps no row cache: Append tokenizes every tweet on
  // arrival, and Build() — which reads the cache — CHECK-fails. Copies
  // share the streamed feature space just as they share a Fit() one.

  /// Starts the document-frequency pass; discards any previous fit (copies
  /// made before keep theirs).
  void FitStreamBegin();
  /// Folds one tweet's text into the document-frequency pass.
  void FitStreamCount(const std::string& text);
  /// Ends the df pass and starts the vocabulary-admission pass.
  void FitStreamAdmitBegin();
  /// Folds one tweet's text into the admission pass (same order).
  void FitStreamAdmit(const std::string& text);
  /// Completes the streaming fit; the builder is now Fit.
  void FitStreamFinish();

  /// True once Fit() or FitStreamFinish() has learned a feature space.
  bool fitted() const { return space_->vectorizer.fitted(); }

  /// Learned feature space (valid after Fit()).
  const Vocabulary& vocabulary() const {
    return space_->vectorizer.vocabulary();
  }

  /// Builds matrices over the given tweets (typically one snapshot), all of
  /// which Fit() saw. Users = authors of those tweets. When
  /// `user_label_day` ≥ 0, user labels are the temporal ground truth at
  /// that day; otherwise static labels.
  DatasetMatrices Build(const Corpus& corpus,
                        const std::vector<size_t>& tweet_ids,
                        int user_label_day = -1) const;

  /// Builds matrices over the whole corpus.
  DatasetMatrices BuildAll(const Corpus& corpus) const;

  /// Appends one tweet to the pending snapshot (O(its row)).
  void Append(const Corpus& corpus, size_t tweet_id);

  /// Appends a batch of tweets to the pending snapshot.
  void Append(const Corpus& corpus, const std::vector<size_t>& tweet_ids);

  /// Number of tweets accumulated since the last EmitSnapshot().
  size_t num_pending() const { return pending_ids_.size(); }

  /// Assembles the pending snapshot — bitwise identical to
  /// Build(corpus, <appended ids in order>, user_label_day) — and clears
  /// the pending buffer. O(pending tweets), no tokenization and no sort:
  /// the pending rows already are Xp's CSR arrays.
  DatasetMatrices EmitSnapshot(const Corpus& corpus, int user_label_day = -1);

 private:
  /// What a fit learns. Never written after it is made, so copies of the
  /// builder share it, and concurrent campaign fits read it, without a lock.
  struct FeatureSpace {
    Tokenizer tokenizer;
    DocumentVectorizer vectorizer;
    /// Row i is the Xp row of tweet i of the corpus given to Fit(); no rows
    /// after a streaming fit.
    SparseMatrix rows;
  };

  /// Token ids of one tweet in the streaming fit's token table.
  std::vector<uint32_t> InternTweet(const std::string& text);

  static std::shared_ptr<const FeatureSpace> MakeSpace(
      Tokenizer tokenizer, DocumentVectorizer vectorizer,
      SparseMatrix rows = SparseMatrix());

  /// Shared tail of Build/EmitSnapshot: everything past Xp (row maps, Xu,
  /// Xr, Gu, labels) derived from an already-vectorized Xp.
  DatasetMatrices Assemble(const Corpus& corpus,
                           std::vector<size_t> tweet_ids, SparseMatrix xp,
                           int user_label_day) const;

  std::shared_ptr<const FeatureSpace> space_;
  /// The vectorizer of a streaming fit in progress (FitStreamBegin to
  /// FitStreamFinish); unfitted otherwise.
  DocumentVectorizer stream_fit_;

  std::vector<size_t> pending_ids_;
  /// The pending tweets' Xp rows as CSR arrays, in Append order. Each is a
  /// canonical row of the fitted space, so together they are the canonical
  /// CSR of the snapshot's Xp that EmitSnapshot hands to FromCsr.
  std::vector<size_t> pending_row_ptr_ = {0};
  std::vector<uint32_t> pending_cols_;
  std::vector<double> pending_values_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_MATRIX_BUILDER_H_
