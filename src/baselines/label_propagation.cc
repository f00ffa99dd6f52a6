#include "src/baselines/label_propagation.h"

#include "src/matrix/ops.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace triclust {

namespace {

DenseMatrix SeedMatrix(const std::vector<Sentiment>& seed_labels,
                       int num_classes) {
  DenseMatrix y(seed_labels.size(), static_cast<size_t>(num_classes), 0.0);
  for (size_t i = 0; i < seed_labels.size(); ++i) {
    if (seed_labels[i] == Sentiment::kUnlabeled) continue;
    const int c = SentimentIndex(seed_labels[i]);
    if (c < num_classes) y(i, static_cast<size_t>(c)) = 1.0;
  }
  return y;
}

void ClampSeeds(const std::vector<Sentiment>& seed_labels, double clamp,
                DenseMatrix* y) {
  for (size_t i = 0; i < seed_labels.size(); ++i) {
    if (seed_labels[i] == Sentiment::kUnlabeled) continue;
    const int c = SentimentIndex(seed_labels[i]);
    if (c >= static_cast<int>(y->cols())) continue;
    for (size_t j = 0; j < y->cols(); ++j) {
      const double seed = (static_cast<int>(j) == c) ? 1.0 : 0.0;
      (*y)(i, j) = clamp * seed + (1.0 - clamp) * (*y)(i, j);
    }
  }
}

std::vector<Sentiment> Harden(const DenseMatrix& y) {
  std::vector<Sentiment> out(y.rows(), Sentiment::kUnlabeled);
  for (size_t i = 0; i < y.rows(); ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < y.cols(); ++j) row_sum += y(i, j);
    if (row_sum <= 0.0) continue;  // never reached by any seed
    out[i] = SentimentFromIndex(static_cast<int>(y.ArgMaxRow(i)));
  }
  return out;
}

/// Row-normalizes in place but leaves all-zero rows zero (so "unreached"
/// stays detectable, unlike NormalizeRowsL1 which would make them uniform).
void NormalizeNonZeroRows(DenseMatrix* m) {
  for (size_t i = 0; i < m->rows(); ++i) {
    double* row = m->Row(i);
    double total = 0.0;
    for (size_t j = 0; j < m->cols(); ++j) total += row[j];
    if (total > 0.0) {
      for (size_t j = 0; j < m->cols(); ++j) row[j] /= total;
    }
  }
}

}  // namespace

std::vector<Sentiment> PropagateBipartite(
    const SparseMatrix& x, const std::vector<Sentiment>& seed_labels,
    const LabelPropagationOptions& options) {
  TRICLUST_CHECK_EQ(x.rows(), seed_labels.size());
  TRICLUST_CHECK_GE(options.num_classes, 2);
  ScopedThreadBudget thread_scope(ThreadBudget(options.num_threads));
  // Cache Xᵀ once so the per-iteration feature step is a row-parallel SpMM;
  // it sums each entry in the order the historical serial scatter did, so
  // this is bitwise the historical result.
  const SparseMatrix xt = x.Transposed();
  DenseMatrix y = SeedMatrix(seed_labels, options.num_classes);
  for (int iter = 0; iter < options.iterations; ++iter) {
    DenseMatrix yf = SpMM(xt, y);  // feature scores
    NormalizeNonZeroRows(&yf);
    y = SpMM(x, yf);  // back to items
    NormalizeNonZeroRows(&y);
    ClampSeeds(seed_labels, options.clamp, &y);
  }
  return Harden(y);
}

std::vector<Sentiment> PropagateGraph(
    const UserGraph& graph, const std::vector<Sentiment>& seed_labels,
    const LabelPropagationOptions& options) {
  TRICLUST_CHECK_EQ(graph.num_nodes(), seed_labels.size());
  TRICLUST_CHECK_GE(options.num_classes, 2);
  ScopedThreadBudget thread_scope(ThreadBudget(options.num_threads));
  DenseMatrix y = SeedMatrix(seed_labels, options.num_classes);
  for (int iter = 0; iter < options.iterations; ++iter) {
    DenseMatrix next = SpMM(graph.adjacency(), y);
    NormalizeNonZeroRows(&next);
    // Isolated or unreached nodes keep their previous scores.
    for (size_t i = 0; i < next.rows(); ++i) {
      double total = 0.0;
      for (size_t j = 0; j < next.cols(); ++j) total += next(i, j);
      if (total <= 0.0) {
        for (size_t j = 0; j < next.cols(); ++j) next(i, j) = y(i, j);
      }
    }
    y = std::move(next);
    ClampSeeds(seed_labels, options.clamp, &y);
  }
  return Harden(y);
}

}  // namespace triclust
