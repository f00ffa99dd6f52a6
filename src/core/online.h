#ifndef TRICLUST_SRC_CORE_ONLINE_H_
#define TRICLUST_SRC_CORE_ONLINE_H_

#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/result.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/matrix_builder.h"
#include "src/matrix/dense_matrix.h"
#include "src/util/status.h"

namespace triclust {

/// The online tri-clustering solver (paper §4, Algorithm 2) for a single
/// stream: a thin stateful wrapper over the stateless SnapshotSolver and
/// the value-type StreamState it advances. Kept as the convenient
/// single-campaign API (and for compatibility with the original interface);
/// multi-campaign serving composes the same two pieces directly — see
/// src/serving/campaign_engine.h.
///
/// Behavior is identical to the historical monolithic implementation —
/// ProcessSnapshot installs the config's kernel thread budget, delegates to
/// SnapshotSolver::Solve, and records the solve's Sfw/partition for
/// inspection — with one deliberate exception: for window == 1 an empty
/// snapshot now retains the latest Sf history entry instead of erasing it
/// (the legacy path reset the stream to the lexicon prior after one quiet
/// day; see the n == 0 path in snapshot_solver.cc).
class OnlineTriClusterer {
 public:
  /// `sf0` is the l×k lexicon prior, used as the feature target for the
  /// first snapshot (no history yet) and to initialize new users.
  OnlineTriClusterer(OnlineConfig config, DenseMatrix sf0);

  /// Processes the next snapshot (matrices built against the same
  /// vocabulary as sf0). Returns the factors for this snapshot; rows of
  /// su/sp align with data.user_ids/data.tweet_ids.
  TriClusterResult ProcessSnapshot(const DatasetMatrices& data);

  const OnlineConfig& config() const { return solver_.config(); }

  /// Number of snapshots processed so far.
  int timestep() const { return state_.timestep; }

  /// Feature target Sfw(t) used by the most recent ProcessSnapshot call.
  const DenseMatrix& last_sfw() const { return last_info_.sfw; }

  /// User partition of the most recent ProcessSnapshot call (see
  /// snapshot_solver.h).
  const UserPartition& last_partition() const { return last_info_.partition; }

  /// Latest known sentiment row of a corpus user, or empty when unseen.
  std::vector<double> UserSentiment(size_t corpus_user_id) const;

  /// The full stream state (timestep, Sf history, user histories).
  const StreamState& state() const { return state_; }

  /// Checkpoints the stream state so a deployment can restart mid-stream.
  /// The write is atomic (temp file + rename): a crash mid-checkpoint
  /// leaves any previous checkpoint at `path` intact. The config and sf0
  /// are not persisted — construct the clusterer with the same ones, then
  /// Restore.
  Status SaveState(const std::string& path) const;

  /// Restores a checkpoint written by SaveState. The clusterer must have
  /// been constructed with the same k and feature dimensionality. A file
  /// whose integrity trailer is missing or does not match is a ParseError
  /// naming `path`; on any error the current state is kept.
  Status RestoreState(const std::string& path);

 private:
  SnapshotSolver solver_;
  StreamState state_;
  SnapshotSolver::SolveInfo last_info_;
  update::UpdateWorkspace workspace_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_CORE_ONLINE_H_
