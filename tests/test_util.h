#ifndef TRICLUST_TESTS_TEST_UTIL_H_
#define TRICLUST_TESTS_TEST_UTIL_H_

#include <vector>

#include "src/data/matrix_builder.h"
#include "src/data/synthetic.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/ops.h"
#include "src/matrix/sparse_matrix.h"
#include "src/util/rng.h"

namespace triclust {
namespace testing_util {

/// Random sparse matrix with the given density, entries in (0, 1].
inline SparseMatrix RandomSparse(size_t rows, size_t cols, double density,
                                 Rng* rng) {
  SparseMatrix::Builder builder(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng->Bernoulli(density)) {
        builder.Add(i, j, rng->Uniform(0.01, 1.0));
      }
    }
  }
  return builder.Build();
}

/// Random strictly-positive dense matrix.
inline DenseMatrix RandomPositive(size_t rows, size_t cols, Rng* rng) {
  return DenseMatrix::Random(rows, cols, rng, 0.05, 1.0);
}

/// `x` with its first stored entry replaced by 1e200: the squared
/// reconstruction error of any fit over it overflows, so the solvers'
/// objective turns non-finite.
inline SparseMatrix WithOverflowingEntry(const SparseMatrix& x) {
  SparseMatrix::Builder builder(x.rows(), x.cols());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t p = x.row_ptr()[i]; p < x.row_ptr()[i + 1]; ++p) {
      builder.Add(i, x.col_idx()[p], p == 0 ? 1e200 : x.values()[p]);
    }
  }
  return builder.Build();
}

/// Dense reference of ||X − U·Vᵀ||²F (for checking the sparse fast path).
inline double DenseFactorizationLoss(const SparseMatrix& x,
                                     const DenseMatrix& u,
                                     const DenseMatrix& v) {
  const DenseMatrix dense_x = x.ToDense();
  const DenseMatrix approx = MatMulABt(u, v);
  return FrobeniusDistanceSquared(dense_x, approx);
}

/// A small synthetic campaign sized for unit tests (≈1.5k tweets), shared
/// by the solver and baseline tests. Deterministic.
inline SyntheticDataset SmallCampaign(uint64_t seed = 5) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_users = 120;
  config.num_days = 10;
  config.base_tweets_per_day = 120.0;
  config.burst_days = {6};
  config.num_polar_words_per_class = 60;
  config.num_topic_words = 120;
  config.num_function_words = 60;
  return GenerateSynthetic(config);
}

/// Matrices + prior for SmallCampaign; builder is Fit on the whole corpus.
struct SmallProblem {
  SyntheticDataset dataset;
  MatrixBuilder builder;
  DatasetMatrices data;
  DenseMatrix sf0;
};

inline SmallProblem MakeSmallProblem(uint64_t seed = 5, int k = 3,
                                     double lexicon_coverage = 0.7) {
  SmallProblem p;
  p.dataset = SmallCampaign(seed);
  p.builder.Fit(p.dataset.corpus);
  p.data = p.builder.BuildAll(p.dataset.corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(p.dataset.true_lexicon, lexicon_coverage, 0.02, seed);
  p.sf0 = lexicon.BuildSf0(p.builder.vocabulary(), k);
  return p;
}

}  // namespace testing_util
}  // namespace triclust

#endif  // TRICLUST_TESTS_TEST_UTIL_H_
