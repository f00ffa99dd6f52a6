#ifndef TRICLUST_SRC_BASELINES_ESSA_H_
#define TRICLUST_SRC_BASELINES_ESSA_H_

#include "src/core/config.h"
#include "src/core/result.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"
#include "src/text/sentiment.h"

namespace triclust {

/// Options of the ESSA baseline.
struct EssaOptions {
  int num_clusters = kNumSentimentClasses;
  /// Weight of the emotional-signal regularization on features. Calibrated
  /// for L2-normalized document rows (the library default), where the data
  /// terms are O(n); with only the Xp term to fight, the emotional signal
  /// needs this much mass to keep clusters aligned with sentiment.
  double emotion_weight = 10.0;
  int max_iterations = 100;
  double tolerance = 1e-5;
  uint64_t seed = 23;
  InitStrategy init = InitStrategy::kLexiconSeeded;
};

/// ESSA-style unsupervised sentiment clustering (Hu et al. [15]): an
/// orthogonal NMTF of the tweet–feature matrix alone,
///   min ||Xp − Sp·H·Sfᵀ||²F + λ·||Sf − Sf0||²F,
/// where Sf0 carries the emotional signals (lexicon words and emoticon
/// pseudo-tokens). This is exactly the paper's tri-clustering objective with
/// the user side removed, so it shares the update kernels; the comparison
/// against it isolates the value of the user/tweet/graph coupling.
///
/// The published ESSA additionally builds tweet–tweet and feature–feature
/// similarity graphs; the paper itself notes that computing them "is very
/// time consuming", and they encode the same emotional-consistency signal
/// our Sf0 regularization carries, so this reproduction folds both into the
/// feature prior (see README.md, "Substitutions").
TriClusterResult RunEssa(const SparseMatrix& xp, const DenseMatrix& sf0,
                         const EssaOptions& options = {});

}  // namespace triclust

#endif  // TRICLUST_SRC_BASELINES_ESSA_H_
