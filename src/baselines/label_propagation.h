#ifndef TRICLUST_SRC_BASELINES_LABEL_PROPAGATION_H_
#define TRICLUST_SRC_BASELINES_LABEL_PROPAGATION_H_

#include <vector>

#include "src/graph/user_graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/sparse_matrix.h"
#include "src/text/sentiment.h"

namespace triclust {

/// Options shared by the label-propagation baselines (the paper's LP-5 and
/// LP-10 rows: Goldberg & Zhu [12], Speriosu et al. [29] for tweets, Tan et
/// al. [30] for users).
struct LabelPropagationOptions {
  int num_classes = kNumSentimentClasses;
  int iterations = 30;
  /// Retention of the seed distribution at each step (clamped seeds = 1.0).
  double clamp = 1.0;
  /// Kernel thread budget for the propagation products (src/util/
  /// parallel.h): 0 = hardware concurrency, 1 = the exact serial path.
  /// Both propagation variants run row-partitioned SpMM kernels only (the
  /// bipartite form propagates through a transpose cached once up front),
  /// so results are bit-identical at every setting.
  int num_threads = 1;
};

/// Semi-supervised label propagation over the *lexical* bipartite graph:
/// items ↔ features. The item–item affinity X·Xᵀ is never materialized —
/// each round propagates item scores onto features (XᵀY, row-normalized)
/// and back (X·Yf, row-normalized), then re-clamps seeds.
///
/// `seed_labels[i]` is the known label of item i or kUnlabeled. Returns one
/// sentiment per item (items unreachable from any seed stay kUnlabeled).
std::vector<Sentiment> PropagateBipartite(
    const SparseMatrix& x, const std::vector<Sentiment>& seed_labels,
    const LabelPropagationOptions& options = {});

/// Semi-supervised label propagation over an explicit item graph (the
/// user–user retweet graph for user-level LP): each round replaces every
/// non-seed node's distribution with the weighted average of its
/// neighbours'.
std::vector<Sentiment> PropagateGraph(
    const UserGraph& graph, const std::vector<Sentiment>& seed_labels,
    const LabelPropagationOptions& options = {});

}  // namespace triclust

#endif  // TRICLUST_SRC_BASELINES_LABEL_PROPAGATION_H_
