#include "src/core/updates.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/core/objective.h"
#include "src/matrix/ops.h"
#include "src/util/logging.h"

namespace triclust {
namespace update {

// Every rule below performs the exact operation sequence of the original
// allocate-per-call implementation, with each temporary replaced by a
// workspace buffer, each Xᵀ·D formed as SpMM over the cached transpose,
// which accumulates every output entry in the order the historical scatter
// product did, and each S-rule's numerator, denominator and step formed in
// one row pass (MultiplicativeStepInPlace) that keeps every per-element
// operation and its order — so results are bit-identical to that code
// path.

namespace {

using Slot = UpdateWorkspace::TransposeSlot;
using Product = UpdateWorkspace::ProductSlot;

}  // namespace

const SparseMatrix& UpdateWorkspace::Transposed(TransposeSlot slot,
                                                const SparseMatrix& x) {
  CachedTranspose& entry = transpose_cache_[static_cast<int>(slot)];
  if (entry.source != &x) {
    entry.transposed = x.Transposed();
    entry.source = &x;
  }
  return entry.transposed;
}

DenseMatrix* UpdateWorkspace::UnkeyXSf(ProductSlot slot) {
  KeptProduct& kept = kept_products_[static_cast<int>(slot)];
  kept.x = nullptr;
  return &kept.product;
}

void UpdateWorkspace::KeepXSf(ProductSlot slot, const SparseMatrix& x,
                              const DenseMatrix& sf) {
  KeptProduct& kept = kept_products_[static_cast<int>(slot)];
  TRICLUST_CHECK_EQ(kept.product.rows(), x.rows());
  TRICLUST_CHECK_EQ(kept.product.cols(), sf.cols());
  kept.x = &x;
  kept.sf = sf;
}

const DenseMatrix& UpdateWorkspace::KeptXSf(ProductSlot slot,
                                            const SparseMatrix& x,
                                            const DenseMatrix& sf) {
  const KeptProduct& kept = kept_products_[static_cast<int>(slot)];
  // Compared by bytes, the key bit-identity needs: operator== takes -0.0
  // for 0.0 and refuses NaN as unequal to itself.
  const bool same_sf =
      kept.sf.rows() == sf.rows() && kept.sf.cols() == sf.cols() &&
      (sf.size() == 0 ||
       std::memcmp(kept.sf.data(), sf.data(), sf.size() * sizeof(double)) ==
           0);
  if (kept.x != &x || !same_sf) {
    SpMMInto(x, sf, UnkeyXSf(slot));
    KeepXSf(slot, x, sf);
  }
  return kept.product;
}

void UpdateSf(const SparseMatrix& xp, const SparseMatrix& xu,
              const DenseMatrix& sp, const DenseMatrix& su,
              const DenseMatrix& hp, const DenseMatrix& hu, double alpha,
              const DenseMatrix& sf_target, DenseMatrix* sf, double eps,
              double sparsity, UpdateWorkspace* workspace) {
  TRICLUST_CHECK(sf != nullptr);
  TRICLUST_CHECK(workspace != nullptr);
  UpdateWorkspace& ws = *workspace;
  const size_t l = sf->rows();
  const size_t k = sf->cols();
  TRICLUST_CHECK_EQ(xp.cols(), l);
  TRICLUST_CHECK_EQ(xu.cols(), l);
  TRICLUST_CHECK_EQ(sf_target.rows(), l);
  TRICLUST_CHECK_EQ(sf_target.cols(), k);

  // l×k data-driven pull terms.
  SpMMInto(ws.Transposed(Slot::kXu, xu), su, &ws.rows_a);
  MatMulInto(ws.rows_a, hu, &ws.rows_b);  // Xuᵀ·Su·Hu
  SpMMInto(ws.Transposed(Slot::kXp, xp), sp, &ws.rows_a);
  MatMulInto(ws.rows_a, hp, &ws.rows_c);  // Xpᵀ·Sp·Hp

  // k×k quadratic terms.
  MatMulAtBInto(su, su, &ws.kk_a);     // SuᵀSu
  MatMulAtBInto(sp, sp, &ws.kk_b);     // SpᵀSp
  MatMulInto(ws.kk_a, hu, &ws.kk_c);
  MatMulAtBInto(hu, ws.kk_c, &ws.kk_d);  // HuᵀSuᵀSuHu
  MatMulInto(ws.kk_b, hp, &ws.kk_c);
  MatMulAtBInto(hp, ws.kk_c, &ws.kk_e);  // HpᵀSpᵀSpHp

  // Δ_Sf = SfᵀXuᵀSuHu − HuᵀSuᵀSuHu + SfᵀXpᵀSpHp − HpᵀSpᵀSpHp
  //        − α·Sfᵀ(Sf − Sf_target).
  MatMulAtBInto(*sf, ws.rows_b, &ws.delta);
  ws.delta.SubInPlace(ws.kk_d);
  MatMulAtBInto(*sf, ws.rows_c, &ws.kk_c);
  ws.delta.AddInPlace(ws.kk_c);
  ws.delta.SubInPlace(ws.kk_e);
  MatMulAtBInto(*sf, *sf, &ws.kk_f);
  MatMulAtBInto(*sf, sf_target, &ws.kk_c);
  ws.kk_f.SubInPlace(ws.kk_c);
  ws.delta.Axpy(-alpha, ws.kk_f);

  SplitPositiveNegative(ws.delta, &ws.delta_pos, &ws.delta_neg);

  MultiplicativeStepTerms step{ws.rows_b, ws.rows_c, ws.kk_d, ws.kk_e,
                               ws.delta_pos, ws.delta_neg};
  step.c = alpha;
  step.r = &sf_target;
  step.s = sf;
  step.lambda = sparsity;
  MultiplicativeStepInPlace(sf, step, eps);
}

void UpdateSp(const SparseMatrix& xp, const SparseMatrix& xr,
              const DenseMatrix& sf, const DenseMatrix& hp,
              const DenseMatrix& su, DenseMatrix* sp, double eps,
              double sparsity, const std::vector<double>* prior_weights,
              const DenseMatrix* prior_target, UpdateWorkspace* workspace) {
  TRICLUST_CHECK(sp != nullptr);
  TRICLUST_CHECK(workspace != nullptr);
  UpdateWorkspace& ws = *workspace;
  const size_t n = sp->rows();
  TRICLUST_CHECK_EQ(xp.rows(), n);
  TRICLUST_CHECK_EQ(xr.cols(), n);
  TRICLUST_CHECK_EQ(prior_weights == nullptr, prior_target == nullptr);
  if (prior_weights != nullptr) {
    TRICLUST_CHECK_EQ(prior_weights->size(), n);
    TRICLUST_CHECK_EQ(prior_target->rows(), n);
    TRICLUST_CHECK_EQ(prior_target->cols(), sp->cols());
  }

  // In RunUpdateLoop the objective formed it after the last UpdateSf;
  // UpdateHp reads it next, with the same Sf.
  const DenseMatrix& xp_sf = ws.KeptXSf(Product::kXpSf, xp, sf);
  MatMulABtInto(xp_sf, hp, &ws.rows_b);  // Xp·Sf·Hpᵀ
  SpMMInto(ws.Transposed(Slot::kXr, xr), su, &ws.rows_c);  // Xrᵀ·Su

  MatMulAtBInto(sf, sf, &ws.kk_a);  // SfᵀSf
  MatMulABtInto(ws.kk_a, hp, &ws.kk_b);
  MatMulInto(hp, ws.kk_b, &ws.kk_c);  // Hp·SfᵀSf·Hpᵀ
  MatMulAtBInto(su, su, &ws.kk_d);    // SuᵀSu

  // Δ_Sp = SpᵀXpSfHpᵀ − HpSfᵀSfHpᵀ + SpᵀXrᵀSu − SuᵀSu.
  MatMulAtBInto(*sp, ws.rows_b, &ws.delta);
  ws.delta.SubInPlace(ws.kk_c);
  MatMulAtBInto(*sp, ws.rows_c, &ws.kk_b);
  ws.delta.AddInPlace(ws.kk_b);
  ws.delta.SubInPlace(ws.kk_d);
  if (prior_weights != nullptr) {
    DiagScaleRowsInto(*prior_weights, *sp, &ws.rows_e);
    DiagScaleRowsInto(*prior_weights, *prior_target, &ws.rows_a);
    ws.rows_e.SubInPlace(ws.rows_a);
    MatMulAtBInto(*sp, ws.rows_e, &ws.kk_b);
    ws.delta.SubInPlace(ws.kk_b);
  }

  SplitPositiveNegative(ws.delta, &ws.delta_pos, &ws.delta_neg);

  MultiplicativeStepTerms step{ws.rows_b, ws.rows_c, ws.kk_c, ws.kk_d,
                               ws.delta_pos, ws.delta_neg};
  step.pull_weights = prior_weights;
  step.pull_target = prior_target;
  step.lambda = sparsity;
  MultiplicativeStepInPlace(sp, step, eps);
}

void UpdateSu(const SparseMatrix& xu, const SparseMatrix& xr,
              const UserGraph& gu, const DenseMatrix& sf,
              const DenseMatrix& hu, const DenseMatrix& sp, double beta,
              const std::vector<double>* temporal_weights,
              const DenseMatrix* temporal_target, DenseMatrix* su,
              double eps, double sparsity, UpdateWorkspace* workspace) {
  TRICLUST_CHECK(su != nullptr);
  TRICLUST_CHECK(workspace != nullptr);
  UpdateWorkspace& ws = *workspace;
  const size_t m = su->rows();
  TRICLUST_CHECK_EQ(xu.rows(), m);
  TRICLUST_CHECK_EQ(xr.rows(), m);
  TRICLUST_CHECK_EQ(gu.num_nodes(), m);
  TRICLUST_CHECK_EQ(temporal_weights == nullptr, temporal_target == nullptr);
  if (temporal_weights != nullptr) {
    TRICLUST_CHECK_EQ(temporal_weights->size(), m);
    TRICLUST_CHECK_EQ(temporal_target->rows(), m);
    TRICLUST_CHECK_EQ(temporal_target->cols(), su->cols());
  }

  // In RunUpdateLoop the objective formed it after the last UpdateSf;
  // UpdateHu reads it next, with the same Sf.
  const DenseMatrix& xu_sf = ws.KeptXSf(Product::kXuSf, xu, sf);
  MatMulABtInto(xu_sf, hu, &ws.rows_b);  // Xu·Sf·Huᵀ
  SpMMInto(xr, sp, &ws.rows_c);         // Xr·Sp
  SpMMInto(gu.adjacency(), *su, &ws.rows_d);  // Gu·Su
  DiagScaleRowsInto(gu.degrees(), *su, &ws.rows_e);  // Du·Su

  MatMulAtBInto(sf, sf, &ws.kk_a);  // SfᵀSf
  MatMulABtInto(ws.kk_a, hu, &ws.kk_b);
  MatMulInto(hu, ws.kk_b, &ws.kk_c);  // Hu·SfᵀSf·Huᵀ
  MatMulAtBInto(sp, sp, &ws.kk_d);    // SpᵀSp

  // Δ_Su = SuᵀXuSfHuᵀ + SuᵀXrSp − HuSfᵀSfHuᵀ − SpᵀSp − β·SuᵀLuSu
  //        [− γ·Suᵀ(Su − Suw) over evolving rows online].
  MatMulAtBInto(*su, ws.rows_b, &ws.delta);
  MatMulAtBInto(*su, ws.rows_c, &ws.kk_b);
  ws.delta.AddInPlace(ws.kk_b);
  ws.delta.SubInPlace(ws.kk_c);
  ws.delta.SubInPlace(ws.kk_d);
  MatMulAtBInto(*su, ws.rows_e, &ws.kk_e);  // SuᵀDuSu
  MatMulAtBInto(*su, ws.rows_d, &ws.kk_b);  // SuᵀGuSu
  ws.kk_e.SubInPlace(ws.kk_b);
  ws.delta.Axpy(-beta, ws.kk_e);
  if (temporal_weights != nullptr) {
    DiagScaleRowsInto(*temporal_weights, *su, &ws.rows_f);
    DiagScaleRowsInto(*temporal_weights, *temporal_target, &ws.rows_a);
    ws.rows_f.SubInPlace(ws.rows_a);
    MatMulAtBInto(*su, ws.rows_f, &ws.kk_b);
    ws.delta.SubInPlace(ws.kk_b);
  }

  SplitPositiveNegative(ws.delta, &ws.delta_pos, &ws.delta_neg);

  MultiplicativeStepTerms step{ws.rows_b, ws.rows_c, ws.kk_c, ws.kk_d,
                               ws.delta_pos, ws.delta_neg};
  step.c = beta;
  step.r = &ws.rows_d;
  step.s = &ws.rows_e;
  step.pull_weights = temporal_weights;
  step.pull_target = temporal_target;
  step.lambda = sparsity;
  MultiplicativeStepInPlace(su, step, eps);
}

void UpdateHp(const SparseMatrix& xp, const DenseMatrix& sp,
              const DenseMatrix& sf, DenseMatrix* hp, double eps,
              UpdateWorkspace* workspace) {
  TRICLUST_CHECK(hp != nullptr);
  TRICLUST_CHECK(workspace != nullptr);
  UpdateWorkspace& ws = *workspace;
  const DenseMatrix& xp_sf = ws.KeptXSf(Product::kXpSf, xp, sf);
  MatMulAtBInto(sp, xp_sf, &ws.numer);  // SpᵀXpSf
  MatMulAtBInto(sp, sp, &ws.kk_a);
  MatMulAtBInto(sf, sf, &ws.kk_b);
  MatMulInto(*hp, ws.kk_b, &ws.kk_c);
  MatMulInto(ws.kk_a, ws.kk_c, &ws.denom);  // SpᵀSp·Hp·SfᵀSf
  MultiplicativeUpdateInPlace(hp, ws.numer, ws.denom, eps);
}

void UpdateHu(const SparseMatrix& xu, const DenseMatrix& su,
              const DenseMatrix& sf, DenseMatrix* hu, double eps,
              UpdateWorkspace* workspace) {
  TRICLUST_CHECK(hu != nullptr);
  TRICLUST_CHECK(workspace != nullptr);
  UpdateWorkspace& ws = *workspace;
  const DenseMatrix& xu_sf = ws.KeptXSf(Product::kXuSf, xu, sf);
  MatMulAtBInto(su, xu_sf, &ws.numer);  // SuᵀXuSf
  MatMulAtBInto(su, su, &ws.kk_a);
  MatMulAtBInto(sf, sf, &ws.kk_b);
  MatMulInto(*hu, ws.kk_b, &ws.kk_c);
  MatMulInto(ws.kk_a, ws.kk_c, &ws.denom);  // SuᵀSu·Hu·SfᵀSf
  MultiplicativeUpdateInPlace(hu, ws.numer, ws.denom, eps);
}

TriClusterResult RunUpdateLoop(const DatasetMatrices& data,
                               const TriClusterConfig& config,
                               const FitTargets& targets, FactorSet f) {
  const double eps = config.epsilon;
  const RowPull& sp_pull = targets.sp_pull;
  const RowPull& su_pull = targets.su_pull;
  UpdateWorkspace workspace;
  TriClusterResult result;

  // Sf changes only in UpdateSf, so the Xp·Sf and Xu·Sf this evaluation
  // forms on its way are the next sweep's.
  auto record_loss = [&]() -> double {
    LossComponents loss = ComputeObjective(
        data.xp, data.xu, data.xr, data.gu, f.sp, f.su, f.sf, f.hp, f.hu,
        targets.alpha, targets.sf_target, config.beta, nullptr, nullptr,
        workspace.UnkeyXSf(Product::kXpSf),
        workspace.UnkeyXSf(Product::kXuSf));
    workspace.KeepXSf(Product::kXpSf, data.xp, f.sf);
    workspace.KeepXSf(Product::kXuSf, data.xu, f.sf);
    if (sp_pull.weights != nullptr) {
      loss.guided_loss +=
          WeightedRowDistanceSquared(*sp_pull.weights, *sp_pull.target, f.sp);
    }
    if (su_pull.weights != nullptr) {
      double& booked = targets.su_pull_is_temporal ? loss.temporal_user_loss
                                                   : loss.guided_loss;
      booked +=
          WeightedRowDistanceSquared(*su_pull.weights, *su_pull.target, f.su);
    }
    if (config.track_loss) result.loss_history.push_back(loss);
    return loss.Total();
  };

  double previous_total = record_loss();
  FactorSet last_finite = f;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    // Algorithm 1 order: Sp, Hp, then Su/Hu, then Sf. Online, updating Sf
    // against the still-uninformative Sp/Su of the first sweeps would
    // corrupt the carried-over feature state.
    UpdateSp(data.xp, data.xr, f.sf, f.hp, f.su, &f.sp, eps, config.sparsity,
             sp_pull.weights, sp_pull.target, &workspace);
    UpdateHp(data.xp, f.sp, f.sf, &f.hp, eps, &workspace);
    UpdateSu(data.xu, data.xr, data.gu, f.sf, f.hu, f.sp, config.beta,
             su_pull.weights, su_pull.target, &f.su, eps, config.sparsity,
             &workspace);
    UpdateHu(data.xu, f.su, f.sf, &f.hu, eps, &workspace);
    UpdateSf(data.xp, data.xu, f.sp, f.su, f.hp, f.hu, targets.alpha,
             targets.sf_target, &f.sf, eps, config.sparsity, &workspace);

    result.iterations = iter + 1;
    const double total = record_loss();
    if (!std::isfinite(total)) {
      // Multiplicative blow-up (possible when factor scales run away, e.g.
      // extreme configurations): restore the last finite iterate and stop
      // rather than hand inf/nan factors to the caller or the stream state.
      TRICLUST_LOG(kWarning) << "tri-clustering diverged at iteration "
                             << iter << "; restoring last finite factors";
      f = std::move(last_finite);
      if (config.track_loss) result.loss_history.pop_back();
      break;
    }
    last_finite = f;
    const double denom = std::max(previous_total, 1e-30);
    if (std::fabs(previous_total - total) / denom < config.tolerance) {
      result.converged = true;
      break;
    }
    previous_total = total;
  }

  result.sp = std::move(f.sp);
  result.su = std::move(f.su);
  result.sf = std::move(f.sf);
  result.hp = std::move(f.hp);
  result.hu = std::move(f.hu);
  return result;
}

}  // namespace update
}  // namespace triclust
