#include "src/core/objective.h"

#include "src/matrix/ops.h"
#include "src/util/logging.h"

namespace triclust {

double WeightedRowDistanceSquared(const std::vector<double>& weights,
                                  const DenseMatrix& target,
                                  const DenseMatrix& m) {
  TRICLUST_CHECK_EQ(weights.size(), m.rows());
  TRICLUST_CHECK_EQ(target.rows(), m.rows());
  TRICLUST_CHECK_EQ(target.cols(), m.cols());
  double total = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    const double w = weights[i];
    if (w == 0.0) continue;
    const double* a = m.Row(i);
    const double* b = target.Row(i);
    double row = 0.0;
    for (size_t c = 0; c < m.cols(); ++c) {
      const double diff = a[c] - b[c];
      row += diff * diff;
    }
    total += w * row;
  }
  return total;
}

LossComponents ComputeObjective(
    const SparseMatrix& xp, const SparseMatrix& xu, const SparseMatrix& xr,
    const UserGraph& gu, const DenseMatrix& sp, const DenseMatrix& su,
    const DenseMatrix& sf, const DenseMatrix& hp, const DenseMatrix& hu,
    double alpha, const DenseMatrix& sf_target, double beta,
    const std::vector<double>* temporal_weights,
    const DenseMatrix* temporal_target, DenseMatrix* xp_sf,
    DenseMatrix* xu_sf) {
  LossComponents loss;
  loss.xp_loss = TriFactorizationLossSquared(xp, sp, hp, sf, xp_sf);
  loss.xu_loss = TriFactorizationLossSquared(xu, su, hu, sf, xu_sf);
  loss.xr_loss = FactorizationLossSquared(xr, su, sp);
  loss.lexicon_loss = alpha * FrobeniusDistanceSquared(sf, sf_target);
  loss.graph_loss =
      beta * GraphLaplacianQuadraticForm(gu.adjacency(), gu.degrees(), su);
  if (temporal_weights != nullptr) {
    TRICLUST_CHECK(temporal_target != nullptr);
    loss.temporal_user_loss =
        WeightedRowDistanceSquared(*temporal_weights, *temporal_target, su);
  }
  return loss;
}

}  // namespace triclust
