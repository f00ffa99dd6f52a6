#include "src/graph/user_graph.h"

#include "src/util/logging.h"

namespace triclust {

UserGraph::UserGraph(size_t num_nodes) {
  SparseMatrix::Builder builder(num_nodes, num_nodes);
  adjacency_ = builder.Build();
  degrees_.assign(num_nodes, 0.0);
}

UserGraph::UserGraph(SparseMatrix adjacency)
    : adjacency_(std::move(adjacency)) {
  degrees_.resize(adjacency_.rows());
  for (size_t i = 0; i < adjacency_.rows(); ++i) {
    degrees_[i] = adjacency_.RowSum(i);
  }
}

UserGraph UserGraph::FromEdges(size_t num_nodes,
                               const std::vector<Edge>& edges) {
  SparseMatrix::Builder builder(num_nodes, num_nodes);
  for (const Edge& e : edges) {
    TRICLUST_CHECK_LT(e.u, num_nodes);
    TRICLUST_CHECK_LT(e.v, num_nodes);
    TRICLUST_CHECK_GE(e.weight, 0.0);
    if (e.u == e.v) continue;
    builder.Add(e.u, e.v, e.weight);
    builder.Add(e.v, e.u, e.weight);
  }
  return UserGraph(builder.Build());
}

double UserGraph::Degree(size_t u) const {
  TRICLUST_CHECK_LT(u, degrees_.size());
  return degrees_[u];
}

std::vector<UserGraph::Neighbor> UserGraph::Neighbors(size_t u) const {
  TRICLUST_CHECK_LT(u, num_nodes());
  std::vector<Neighbor> out;
  const auto& row_ptr = adjacency_.row_ptr();
  const auto& col_idx = adjacency_.col_idx();
  const auto& values = adjacency_.values();
  out.reserve(row_ptr[u + 1] - row_ptr[u]);
  for (size_t p = row_ptr[u]; p < row_ptr[u + 1]; ++p) {
    out.push_back({col_idx[p], values[p]});
  }
  return out;
}

}  // namespace triclust
