#include "src/graph/user_graph.h"

#include <gtest/gtest.h>

namespace triclust {
namespace {

UserGraph Triangle() {
  return UserGraph::FromEdges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 0.5}});  // node 3 isolated
}

TEST(UserGraphTest, EmptyGraph) {
  UserGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.Degree(2), 0.0);
  EXPECT_TRUE(g.Neighbors(0).empty());
}

TEST(UserGraphTest, FromEdgesBuildsSymmetricAdjacency) {
  const UserGraph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.adjacency().At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.adjacency().At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.adjacency().At(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.adjacency().At(2, 1), 2.0);
}

TEST(UserGraphTest, DegreesAreWeightedRowSums) {
  const UserGraph g = Triangle();
  EXPECT_DOUBLE_EQ(g.Degree(0), 1.5);
  EXPECT_DOUBLE_EQ(g.Degree(1), 3.0);
  EXPECT_DOUBLE_EQ(g.Degree(2), 2.5);
  EXPECT_DOUBLE_EQ(g.Degree(3), 0.0);
  EXPECT_EQ(g.degrees().size(), 4u);
}

TEST(UserGraphTest, ParallelEdgesAccumulate) {
  const UserGraph g =
      UserGraph::FromEdges(2, {{0, 1, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(g.adjacency().At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.adjacency().At(1, 0), 3.0);
}

TEST(UserGraphTest, SelfLoopsDropped) {
  const UserGraph g = UserGraph::FromEdges(2, {{0, 0, 5.0}, {0, 1, 1.0}});
  EXPECT_DOUBLE_EQ(g.adjacency().At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.Degree(0), 1.0);
}

TEST(UserGraphTest, NeighborsListsEdges) {
  const UserGraph g = Triangle();
  const auto nbrs = g.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].node, 0u);
  EXPECT_DOUBLE_EQ(nbrs[0].weight, 1.0);
  EXPECT_EQ(nbrs[1].node, 2u);
  EXPECT_DOUBLE_EQ(nbrs[1].weight, 2.0);
}

}  // namespace
}  // namespace triclust
