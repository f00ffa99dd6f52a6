#ifndef TRICLUST_SRC_CORE_CONFIG_H_
#define TRICLUST_SRC_CORE_CONFIG_H_

#include <cstdint>

#include "src/matrix/dense_matrix.h"
#include "src/matrix/kernel_dispatch.h"
#include "src/util/status.h"

namespace triclust {

/// How the factor matrices are initialized before the multiplicative loop.
enum class InitStrategy {
  /// Uniform random positives (the classical NMF initialization).
  kRandom,
  /// Seed Sf from the lexicon prior Sf0 and propagate it through Xp/Xu to
  /// Sp/Su, which places the multiplicative algorithm in a basin where
  /// clusters already align with sentiment classes.
  kLexiconSeeded,
};

/// Parameters of the offline tri-clustering objective (paper Eq. 1) and of
/// the multiplicative solver (Algorithm 1).
struct TriClusterConfig {
  /// Number of sentiment clusters k (2 = pos/neg, 3 adds neutral).
  int num_clusters = 3;
  /// Weight α of the lexicon term ||Sf − Sf0||²F. The paper's balanced
  /// offline choice is 0.05 (§5.1).
  double alpha = 0.05;
  /// Weight β of the user-graph term tr(SuᵀLuSu). Paper: 0.8.
  double beta = 0.8;
  /// Maximum multiplicative iterations r (paper: converges in 10–100).
  int max_iterations = 100;
  /// Relative objective-change threshold for early convergence.
  double tolerance = 1e-5;
  /// Denominator guard of the multiplicative rules.
  double epsilon = 1e-12;
  /// L1 sparsity weight λs on the cluster matrices Sp/Su/Sf (one of the
  /// optional regularizations the paper's §7 proposes for the unified
  /// framework):  + λs·(||Sp||₁ + ||Su||₁ + ||Sf||₁). Enters each
  /// multiplicative rule as a constant in the denominator; 0 disables.
  double sparsity = 0.0;
  /// Kernel body selection for this fit (src/matrix/kernel_dispatch.h).
  /// kAuto uses the fixed-k unrolls and the AVX2 bodies, which reproduce
  /// the historical scalar bits exactly; kScalar pins the generic
  /// reference loops. Both modes give the same results.
  /// OfflineTriClusterer::Run and SnapshotSolver::Solve install it as a
  /// thread-local ScopedKernelMode for the fit, so concurrent fits may
  /// differ. TRICLUST_FORCE_SCALAR in the environment overrides every fit
  /// to kScalar.
  KernelMode kernel_mode = KernelMode::kAuto;
  /// Seed of the factor initialization.
  uint64_t seed = 7;
  InitStrategy init = InitStrategy::kLexiconSeeded;
  /// Append the per-component loss of each iteration to `loss_history`
  /// (Fig. 8). Costs no extra evaluation: the update loop evaluates the
  /// objective every sweep for its stop test either way.
  bool track_loss = true;
};

/// Additional parameters of the online framework (paper Eq. 19,
/// Algorithm 2). The offline α/β live in `base`; the online α re-weights
/// the temporal feature regularization ||Sf(t) − Sfw(t)||²F.
struct OnlineConfig {
  TriClusterConfig base;
  /// Temporal feature-regularization weight α(t). Paper's best: 0.9.
  double alpha = 0.9;
  /// Temporal user-regularization weight γ. Paper's best: 0.2.
  double gamma = 0.2;
  /// Time-decay factor τ ∈ (0, 1] of the window aggregates. Paper: 0.9.
  double tau = 0.9;
  /// Window size w: snapshots [t−w, t) contribute to Sfw/Suw. Paper: 2.
  int window = 2;
  /// Fraction of the lexicon prior Sf0 blended into the feature target:
  ///   target(t) = (1 − λ)·Sfw(t) + λ·Sf0.
  /// The paper anchors Sf(t) to history alone; with small per-snapshot
  /// volumes the unanchored chain accumulates drift (a random walk in the
  /// feature–sentiment association), so a persistent trace of the lexicon —
  /// the same signal the offline objective keeps via α·||Sf − Sf0||² —
  /// stabilizes long streams. Set to 0 for the paper's exact formulation.
  double lexicon_blend = 0.25;
  /// Initialize evolving users' Su rows from their decayed history Suw
  /// (Algorithm 2 line 1). When false, every user is initialized from the
  /// current snapshot's lexicon propagation and history only acts through
  /// the γ pull — an ablation knob for the warm-start's contribution.
  bool seed_users_from_history = true;
};

/// OK when every parameter the solver relies on is in range, else
/// InvalidArgument naming the first one that is not. The solvers' constructors
/// CHECK it; CampaignEngine::AddCampaign returns it. The online overload
/// also checks `base` and that the lexicon prior `sf0` has one column per
/// cluster.
Status ValidateConfig(const TriClusterConfig& config);
Status ValidateConfig(const OnlineConfig& config, const DenseMatrix& sf0);

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_CONFIG_H_
