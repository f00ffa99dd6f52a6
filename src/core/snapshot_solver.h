#ifndef TRICLUST_SRC_CORE_SNAPSHOT_SOLVER_H_
#define TRICLUST_SRC_CORE_SNAPSHOT_SOLVER_H_

#include <vector>

#include "src/core/config.h"
#include "src/core/result.h"
#include "src/core/stream_state.h"
#include "src/core/updates.h"
#include "src/data/matrix_builder.h"
#include "src/matrix/dense_matrix.h"

namespace triclust {

/// Row partition of one snapshot's users into the paper's categories.
struct UserPartition {
  std::vector<size_t> new_rows;
  std::vector<size_t> evolving_rows;
  /// Users with history that are absent from this snapshot.
  size_t num_disappeared = 0;
};

/// The online per-snapshot solve (paper §4, Algorithm 2) as a *stateless*
/// function object: Solve() maps (StreamState, DatasetMatrices) →
/// (TriClusterResult, StreamState'). The solver itself holds only immutable
/// inputs — the config and the lexicon prior Sf0 — so one instance can be
/// shared by any number of streams, and independent streams can be fitted
/// concurrently as long as each owns its StreamState (and workspace).
///
/// For snapshot t it factorizes only the new data matrices Xp(t)/Xu(t)/Xr(t)
/// while regularizing toward the exponentially-decayed window aggregates
///   Sfw(t) = Σ_{i=1..w−1} τ^i·Sf(t−i)   (features evolve smoothly, Obs. 1)
///   Suw(t) = Σ_{i=1..w−1} τ^i·Su(t−i)   (users rarely flip, Obs. 2)
/// with weights α and γ. Users are partitioned into new (no history —
/// Eq. 24), evolving (history — Eq. 26, extra γ pull), and disappeared
/// (absent at t; their history is retained so they re-enter as evolving).
///
/// The window aggregates are normalized by Σ τ^i so they stay on the scale
/// of one factor matrix (a numerical-stability refinement over the paper's
/// raw sum; τ still sets the relative decay of older snapshots).
///
/// This is the one online entry point: a single stream is a solver plus a
/// caller-held StreamState, and CampaignEngine composes the same two
/// pieces for many streams.
///
/// Threading: Solve() installs no thread budget; it runs at the width of
/// the budget its caller installed (serially under none — see parallel.h),
/// like update::RunUpdateLoop and OfflineTriClusterer::Run.
/// CampaignEngine::Advance splits its pool across the batch's ready fits
/// and installs each fit's slice — kernels are bit-identical at every
/// width, so results never depend on the split.
class SnapshotSolver {
 public:
  /// `sf0` is the l×k lexicon prior, used as the feature target for the
  /// first snapshot (no history yet) and to initialize new users. The
  /// solver is immutable after construction.
  SnapshotSolver(OnlineConfig config, DenseMatrix sf0);

  /// Byproducts of one Solve() call that are not part of the factor result
  /// but that dashboards and tests want to observe.
  struct SolveInfo {
    /// Feature target Sfw(t) used by this solve.
    DenseMatrix sfw;
    /// Partition of the snapshot's users.
    UserPartition partition;
  };

  /// Processes the next snapshot (matrices built against the same
  /// vocabulary as sf0), advancing `state` in place. Returns the factors
  /// for this snapshot; rows of su/sp align with data.user_ids/
  /// data.tweet_ids. Deterministic: the factor initialization is seeded
  /// from config.base.seed and state->timestep only.
  ///
  /// `info` (optional) receives the Sfw target and user partition.
  /// `workspace` (optional) provides caller-owned scratch so steady-state
  /// serving allocates nothing per snapshot; pass nullptr to allocate a
  /// local one (results are bit-identical either way).
  ///
  /// Thread safety: const and re-entrant — concurrent Solve() calls on
  /// one solver are safe as long as each call owns its `state`, `info`,
  /// and `workspace` exclusively. Each call runs under its own thread's
  /// budget (thread-local; see the class comment), so concurrent callers
  /// with different budgets need no coordination.
  TriClusterResult Solve(const DatasetMatrices& data, StreamState* state,
                         SolveInfo* info = nullptr,
                         update::UpdateWorkspace* workspace = nullptr) const;

  /// The decayed, row-normalized feature aggregate Sfw for `state` (Sf0
  /// when the state has no history yet). Thread safety: const; safe
  /// concurrently with other reads of `state`.
  DenseMatrix ComputeSfw(const StreamState& state) const;

  /// The immutable config this solver applies to every snapshot.
  /// Thread safety: safe from any thread.
  const OnlineConfig& config() const { return config_; }

  /// The immutable l×k lexicon prior. Thread safety: safe from any
  /// thread; the reference lives as long as the solver.
  const DenseMatrix& sf0() const { return sf0_; }

 private:
  OnlineConfig config_;
  DenseMatrix sf0_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_SNAPSHOT_SOLVER_H_
