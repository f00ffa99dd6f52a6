#ifndef TRICLUST_SRC_CORE_OBJECTIVE_H_
#define TRICLUST_SRC_CORE_OBJECTIVE_H_

#include <vector>

#include "src/core/result.h"
#include "src/graph/user_graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"

namespace triclust {

/// Σᵢ wᵢ·||Mᵢ − targetᵢ||² over the rows with wᵢ ≠ 0: the loss of a
/// per-row pull (the γ-weighted temporal user term online, the δ-weighted
/// seed terms of guided mode offline). `weights` holds one entry per row
/// of `m`, and `target` has `m`'s shape.
double WeightedRowDistanceSquared(const std::vector<double>& weights,
                                  const DenseMatrix& target,
                                  const DenseMatrix& m);

/// Evaluates every component of the tri-clustering objective (paper Eq. 1
/// offline, Eq. 19 online) at the current factors. The temporal user term is
/// included only when `temporal_weights`/`temporal_target` are provided
/// (per-row γ already folded into the weights).
///
/// `xp_sf` and `xu_sf`, when not null, receive Xp·Sf and Xu·Sf: the row
/// passes that sum the xp and xu cross terms write them on the way, bit
/// for bit what SpMMInto(xp, sf) and SpMMInto(xu, sf) give, and every loss
/// component is the same with or without them. Neither may be one of the
/// factor matrices. RunUpdateLoop keeps them for the next sweep's S- and
/// H-rules (update::UpdateWorkspace).
LossComponents ComputeObjective(
    const SparseMatrix& xp, const SparseMatrix& xu, const SparseMatrix& xr,
    const UserGraph& gu, const DenseMatrix& sp, const DenseMatrix& su,
    const DenseMatrix& sf, const DenseMatrix& hp, const DenseMatrix& hu,
    double alpha, const DenseMatrix& sf_target, double beta,
    const std::vector<double>* temporal_weights = nullptr,
    const DenseMatrix* temporal_target = nullptr,
    DenseMatrix* xp_sf = nullptr, DenseMatrix* xu_sf = nullptr);

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_OBJECTIVE_H_
