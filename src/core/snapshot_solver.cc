#include "src/core/snapshot_solver.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "src/core/init.h"
#include "src/core/updates.h"
#include "src/matrix/ops.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace triclust {

namespace {

/// Pushes `entry` as the newest entry of a window history and drops the
/// oldest ones beyond `max_entries`.
template <typename T>
void PushWindowed(std::deque<T>* history, T entry, int max_entries) {
  history->push_front(std::move(entry));
  while (static_cast<int>(history->size()) > max_entries) history->pop_back();
}

}  // namespace

SnapshotSolver::SnapshotSolver(OnlineConfig config, DenseMatrix sf0)
    : config_(config), sf0_(std::move(sf0)) {
  const Status valid = ValidateConfig(config_, sf0_);
  if (!valid.ok()) TRICLUST_LOG(kError) << valid.message();
  TRICLUST_CHECK(valid.ok());
}

DenseMatrix SnapshotSolver::ComputeSfw(const StreamState& state) const {
  if (state.sf_history.empty()) return sf0_;
  DenseMatrix sfw(sf0_.rows(), sf0_.cols(), 0.0);
  double weight = config_.tau;
  double weight_sum = 0.0;
  for (const DenseMatrix& sf : state.sf_history) {
    sfw.Axpy(weight, sf);
    weight_sum += weight;
    weight *= config_.tau;
  }
  if (weight_sum > 0.0) sfw.ScaleInPlace(1.0 / weight_sum);
  // A converged Sf's magnitude is an arbitrary byproduct of the
  // factorization scale; as a regularization target only the row *shapes*
  // matter. Renormalizing each feature row to a distribution keeps the
  // target on the same scale class as the prior Sf0 (row-stochastic), so
  // the α pull stays meaningful across snapshots of any volume.
  sfw.NormalizeRowsL1();
  // Persistent lexicon anchor (see OnlineConfig::lexicon_blend).
  const double blend = config_.lexicon_blend;
  if (blend > 0.0) {
    sfw.ScaleInPlace(1.0 - blend);
    sfw.Axpy(blend, sf0_);
  }
  return sfw;
}

TriClusterResult SnapshotSolver::Solve(const DatasetMatrices& data,
                                       StreamState* state,
                                       SolveInfo* info) const {
  const size_t n = data.num_tweets();
  const size_t m = data.num_users();
  const size_t k = static_cast<size_t>(config_.base.num_clusters);
  // The Sf and user histories keep the w−1 most recent snapshots, and at
  // least one, so that for window == 1 a quiet day carries the stream's
  // state forward instead of resetting it to the lexicon prior.
  const int history_entries = std::max(config_.window - 1, 1);
  TRICLUST_CHECK_EQ(data.xp.cols(), sf0_.rows());

  // The fit runs at its caller's width (see the class comment). The kernel
  // bodies are the config's (kernel_dispatch.h): pool workers execute
  // whatever this thread selects, so installing the mode here covers every
  // kernel of the fit.
  ScopedKernelMode fit_kernels(config_.base.kernel_mode);

  const DenseMatrix sfw = ComputeSfw(*state);

  // --- partition users (paper: new / evolving / disappeared) --------------
  UserPartition partition;
  for (size_t j = 0; j < m; ++j) {
    if (state->user_history.count(data.user_ids[j]) > 0) {
      partition.evolving_rows.push_back(j);
    } else {
      partition.new_rows.push_back(j);
    }
  }
  partition.num_disappeared =
      state->user_history.size() - partition.evolving_rows.size();
  if (info != nullptr) *info = SolveInfo{sfw, partition};

  if (n == 0) {
    // Nothing arrived in this window: carry the feature state forward.
    TriClusterResult result;
    result.sf = sfw;
    if (!ResultIsFinite(result)) return result;  // state left as it was
    ++state->timestep;
    PushWindowed(&state->sf_history, sfw, history_entries);
    return result;
  }

  // --- temporal user targets ----------------------------------------------
  // Suw(t): decayed aggregate of each evolving user's history (normalized
  // like Sfw); zero rows (and zero weight) for new users.
  DenseMatrix suw(m, k, 0.0);
  std::vector<double> temporal_weights(m, 0.0);
  for (size_t j : partition.evolving_rows) {
    const auto& history = state->user_history.at(data.user_ids[j]);
    double weight = config_.tau;
    for (const auto& row : history) {
      TRICLUST_CHECK_EQ(row.size(), k);
      for (size_t c = 0; c < k; ++c) suw(j, c) += weight * row[c];
      weight *= config_.tau;
    }
    // Row-normalize to a distribution (same rationale as Sfw).
    double row_sum = 0.0;
    for (size_t c = 0; c < k; ++c) row_sum += suw(j, c);
    if (row_sum > 0.0) {
      for (size_t c = 0; c < k; ++c) suw(j, c) /= row_sum;
    } else {
      for (size_t c = 0; c < k; ++c) suw(j, c) = 1.0 / static_cast<double>(k);
    }
    temporal_weights[j] = config_.gamma;
  }

  // --- initialization (Algorithm 2 lines 1–2) -----------------------------
  Rng rng(config_.base.seed + static_cast<uint64_t>(state->timestep) * 7919);
  FactorSet f;
  f.sf = sfw;  // line 1: Sf(t) = Sfw(t)
  {            // strictly positive entries so every coordinate can move
    double* p = f.sf.data();
    for (size_t i = 0; i < f.sf.size(); ++i) {
      p[i] = std::max(p[i], 1e-4) + rng.Uniform(0.0, 0.01);
    }
  }

  f.sp = SpMM(data.xp, sfw);
  f.sp.NormalizeRowsL1();
  for (size_t i = 0; i < f.sp.size(); ++i) {
    f.sp.data()[i] += rng.Uniform(0.01, 0.05);
  }

  f.su = SpMM(data.xu, sfw);
  f.su.NormalizeRowsL1();
  for (size_t i = 0; i < f.su.size(); ++i) {
    f.su.data()[i] += rng.Uniform(0.01, 0.05);
  }
  // line 1: evolving users resume from their aggregate.
  if (config_.seed_users_from_history) {
    for (size_t j : partition.evolving_rows) {
      for (size_t c = 0; c < k; ++c) {
        f.su(j, c) = std::max(suw(j, c), 1e-4) + rng.Uniform(0.0, 0.01);
      }
    }
  }

  f.hp = DenseMatrix::Identity(k);
  f.hu = DenseMatrix::Identity(k);
  for (size_t i = 0; i < f.hp.size(); ++i) {
    f.hp.data()[i] += rng.Uniform(0.01, 0.05);
    f.hu.data()[i] += rng.Uniform(0.01, 0.05);
  }

  // --- multiplicative loop (Algorithm 2 lines 3–8) ------------------------
  update::FitTargets targets{sfw, config_.alpha};
  targets.su_pull = {&temporal_weights, &suw};
  targets.su_pull_is_temporal = true;
  TriClusterResult result =
      update::RunUpdateLoop(data, config_.base, targets, std::move(f));

  // --- roll state forward ---------------------------------------------------
  // Nothing above wrote to `state`, so a non-finite result leaves it as it
  // was: poison never reaches the window aggregates of later snapshots.
  if (!ResultIsFinite(result)) return result;
  PushWindowed(&state->sf_history, result.sf, history_entries);
  for (size_t j = 0; j < m; ++j) {
    PushWindowed(&state->user_history[data.user_ids[j]],
                 std::vector<double>(result.su.Row(j), result.su.Row(j) + k),
                 history_entries);
  }
  ++state->timestep;
  return result;
}

}  // namespace triclust
