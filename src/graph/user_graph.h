#ifndef TRICLUST_SRC_GRAPH_USER_GRAPH_H_
#define TRICLUST_SRC_GRAPH_USER_GRAPH_H_

#include <cstddef>
#include <vector>

#include "src/matrix/sparse_matrix.h"

namespace triclust {

/// Undirected, weighted user–user graph Gu.
///
/// In the paper each edge records a retweeting relation between two users;
/// the graph regularization tr(SuᵀLuSu) (Eq. 6) penalizes neighbours with
/// different sentiment rows. The graph is stored as a symmetric CSR
/// adjacency plus its degree vector, from which Lu = Du − Gu is implicit.
class UserGraph {
 public:
  /// Empty graph over `num_nodes` isolated nodes.
  explicit UserGraph(size_t num_nodes = 0);

  /// Builds from undirected weighted edges {u, v, w}. Parallel edges
  /// accumulate; self-loops are dropped (they cancel in the Laplacian).
  struct Edge {
    size_t u;
    size_t v;
    double weight;
  };
  static UserGraph FromEdges(size_t num_nodes, const std::vector<Edge>& edges);

  size_t num_nodes() const { return adjacency_.rows(); }
  size_t num_edges() const { return adjacency_.nnz() / 2; }

  /// Symmetric adjacency matrix Gu.
  const SparseMatrix& adjacency() const { return adjacency_; }

  /// Weighted degree vector (row sums of Gu), the diagonal of Du.
  const std::vector<double>& degrees() const { return degrees_; }

  /// Weighted degree of node `u`.
  double Degree(size_t u) const;

  /// Neighbors of `u` with weights, via CSR row iteration.
  struct Neighbor {
    size_t node;
    double weight;
  };
  std::vector<Neighbor> Neighbors(size_t u) const;

 private:
  explicit UserGraph(SparseMatrix adjacency);

  SparseMatrix adjacency_;
  std::vector<double> degrees_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_GRAPH_USER_GRAPH_H_
