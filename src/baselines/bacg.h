#ifndef TRICLUST_SRC_BASELINES_BACG_H_
#define TRICLUST_SRC_BASELINES_BACG_H_

#include <cstdint>
#include <vector>

#include "src/graph/user_graph.h"
#include "src/matrix/sparse_matrix.h"

namespace triclust {

/// Options of the BACG baseline.
struct BacgOptions {
  int num_clusters = 3;
  int max_iterations = 30;
  /// Weight of the structural (neighbour-vote) score against the content
  /// (multinomial log-likelihood) score. Light by default: heavy voting
  /// causes herding into one giant cluster on dense retweet graphs.
  double structure_weight = 0.2;
  uint64_t seed = 29;
  /// Random restarts; the run with the best internal objective wins.
  int restarts = 3;
};

/// BACG-style attributed-graph clustering of users (Xu, Ke et al. [34]):
/// clusters users by *jointly* using structure (the user–user retweet
/// graph) and content (the user–feature rows), with no labels and no
/// sentiment lexicon — the paper's unsupervised user-level comparison row.
///
/// The published BACG is a Bayesian model over attributed graphs; this
/// reproduction keeps its two information sources and alternating-
/// optimization structure with a simpler estimator: spherical k-means on
/// the content rows whose assignment step mixes in the neighbour cluster
/// vote, iterated to a local optimum over several restarts (see README.md,
/// "Substitutions").
///
/// Returns one cluster id per user (ids in [0, num_clusters)).
std::vector<int> RunBacg(const SparseMatrix& xu, const UserGraph& gu,
                         const BacgOptions& options = {});

}  // namespace triclust

#endif  // TRICLUST_SRC_BASELINES_BACG_H_
