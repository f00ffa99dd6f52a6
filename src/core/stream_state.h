#ifndef TRICLUST_SRC_CORE_STREAM_STATE_H_
#define TRICLUST_SRC_CORE_STREAM_STATE_H_

#include <deque>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "src/matrix/dense_matrix.h"
#include "src/util/status.h"

namespace triclust {

/// The complete evolving state of one online tri-clustering stream
/// (paper §4): everything Algorithm 2 carries from snapshot t−1 to t.
///
/// This is a plain value type — copyable, movable, serializable — with no
/// behavior of its own. The per-snapshot solve lives in SnapshotSolver,
/// which maps (StreamState, DatasetMatrices) → (TriClusterResult,
/// StreamState'); keeping the state inert is what lets a serving layer hold
/// N campaign states side by side, checkpoint them independently, and fit
/// them on whichever thread is free.
///
/// Thread safety: that of any plain value — concurrent readers are safe,
/// and a writer (Solve() advancing it, set_state replacing it) needs
/// exclusive access. No internal synchronization.
struct StreamState {
  /// Number of snapshots processed so far.
  int timestep = 0;
  /// sf_history[0] is Sf(t−1); trimmed to window−1 entries by the solver.
  std::deque<DenseMatrix> sf_history;
  /// Per corpus-user history of Su rows, most recent first, trimmed to
  /// window−1 entries by the solver. A user is never expired: one who
  /// returns after a gap longer than the window is still evolving (Suw warm
  /// start and γ pull), unlike the [t−w, t) window of OnlineConfig. Treating
  /// such users as new lowered accuracy (README.md, "Substitutions").
  std::unordered_map<size_t, std::deque<std::vector<double>>> user_history;

  /// Serializes to the `triclust-online-state 1` text format, the payload
  /// of a CampaignStore checkpoint (spec in docs/FORMATS.md §2). User
  /// histories are written in sorted id order, so identical states yield
  /// identical bytes. Returns an IoError when the stream fails. Thread
  /// safety: const read of the state; `os` must not be shared.
  Status Write(std::ostream* os) const;

  /// Parses a state written by Write(). `num_features`/`num_clusters` are
  /// the dimensions of the owning solver's Sf0; every Sf matrix and user
  /// row in the checkpoint is validated against them (FailedPrecondition
  /// on a feature-space mismatch). Thread safety: stateless aside from
  /// `is`, which must not be shared.
  static Result<StreamState> Read(std::istream* is, size_t num_features,
                                  size_t num_clusters);
};

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_STREAM_STATE_H_
