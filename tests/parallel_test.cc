/// Parallel-vs-serial equivalence of the kernel layer and the solver stack
/// (see src/util/parallel.h for the determinism contract), plus the
/// workspace-reuse regression tests of the allocation-free update pipeline.

#include "src/util/parallel.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/offline.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/core/updates.h"
#include "src/graph/user_graph.h"
#include "src/matrix/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::RandomPositive;
using testing_util::RandomSparse;
using testing_util::SmallProblem;

/// Sizes above kReduceRowGrain/kReduceFlatGrain so the chunked-reduction
/// code paths actually engage (smaller inputs short-circuit to serial).
constexpr size_t kRows = 3000;
constexpr size_t kCols = 700;
constexpr size_t kK = 3;

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ScopedThreadBudget threads{ThreadBudget(4)};
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, hits.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  ScopedThreadBudget threads{ThreadBudget(4)};
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelReduceTest, MatchesSerialSumWithinRounding) {
  std::vector<double> values(50000);
  Rng rng(3);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  const double serial =
      std::accumulate(values.begin(), values.end(), 0.0);
  ScopedThreadBudget threads{ThreadBudget(4)};
  const double parallel = ParallelReduce(
      0, values.size(), kReduceFlatGrain, [&](size_t begin, size_t end) {
        double total = 0.0;
        for (size_t i = begin; i < end; ++i) total += values[i];
        return total;
      });
  EXPECT_NEAR(parallel, serial, 1e-9 * values.size());
}

TEST(ParallelReduceTest, DeterministicAcrossThreadCounts) {
  std::vector<double> values(50000);
  Rng rng(4);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  auto chunk_sum = [&](size_t begin, size_t end) {
    double total = 0.0;
    for (size_t i = begin; i < end; ++i) total += values[i];
    return total;
  };
  double results[3];
  int idx = 0;
  for (int t : {1, 2, 4}) {
    ScopedThreadBudget threads{ThreadBudget(t)};
    results[idx++] =
        ParallelReduce(0, values.size(), kReduceFlatGrain, chunk_sum);
  }
  // Fixed-grain chunks summed in chunk order at EVERY count — the 1-thread
  // path walks the same chunks serially, so it is bit-identical too (the
  // invariance the per-fit budget splits rely on; see parallel.h).
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

/// Row-partitioned kernels must be bit-identical at any thread count.
class RowPartitionedKernelTest : public ::testing::Test {
 protected:
  RowPartitionedKernelTest()
      : rng_(11),
        a_(DenseMatrix::Random(kRows, kCols, &rng_, -1.0, 1.0)),
        b_(DenseMatrix::Random(kCols, kK, &rng_, -1.0, 1.0)),
        tall_(DenseMatrix::Random(kRows, kK, &rng_, -1.0, 1.0)),
        x_(RandomSparse(kRows, kCols, 0.01, &rng_)) {}

  Rng rng_;
  DenseMatrix a_;     // kRows×kCols
  DenseMatrix b_;     // kCols×kK
  DenseMatrix tall_;  // kRows×kK
  SparseMatrix x_;    // kRows×kCols
};

TEST_F(RowPartitionedKernelTest, MatMulBitIdentical) {
  ScopedThreadBudget serial{ThreadBudget(1)};
  const DenseMatrix expected = MatMul(a_, b_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_EQ(MatMul(a_, b_), expected);
}

TEST_F(RowPartitionedKernelTest, MatMulABtBitIdentical) {
  const DenseMatrix bt = b_.Transposed();  // kK×kCols
  ScopedThreadBudget serial{ThreadBudget(1)};
  const DenseMatrix expected = MatMulABt(a_, bt);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_EQ(MatMulABt(a_, bt), expected);
}

TEST_F(RowPartitionedKernelTest, SpMMBitIdentical) {
  ScopedThreadBudget serial{ThreadBudget(1)};
  const DenseMatrix expected = SpMM(x_, b_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_EQ(SpMM(x_, b_), expected);
}

TEST_F(RowPartitionedKernelTest, DiagScaleRowsBitIdentical) {
  std::vector<double> diag(kRows);
  Rng rng(12);
  for (double& d : diag) d = rng.Uniform(0.0, 2.0);
  ScopedThreadBudget serial{ThreadBudget(1)};
  const DenseMatrix expected = DiagScaleRows(diag, tall_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_EQ(DiagScaleRows(diag, tall_), expected);
}

TEST_F(RowPartitionedKernelTest, MultiplicativeUpdateBitIdentical) {
  Rng rng(13);
  const DenseMatrix numer = RandomPositive(kRows, kK, &rng);
  const DenseMatrix denom = RandomPositive(kRows, kK, &rng);
  DenseMatrix serial_m = tall_;
  DenseMatrix parallel_m = tall_;
  {
    ScopedThreadBudget serial{ThreadBudget(1)};
    MultiplicativeUpdateInPlace(&serial_m, numer, denom, 1e-12);
  }
  {
    ScopedThreadBudget parallel{ThreadBudget(4)};
    MultiplicativeUpdateInPlace(&parallel_m, numer, denom, 1e-12);
  }
  EXPECT_EQ(parallel_m, serial_m);
}

TEST_F(RowPartitionedKernelTest, SplitPositiveNegativeBitIdentical) {
  DenseMatrix pos_serial, neg_serial, pos_parallel, neg_parallel;
  {
    ScopedThreadBudget serial{ThreadBudget(1)};
    SplitPositiveNegative(a_, &pos_serial, &neg_serial);
  }
  {
    ScopedThreadBudget parallel{ThreadBudget(4)};
    SplitPositiveNegative(a_, &pos_parallel, &neg_parallel);
  }
  EXPECT_EQ(pos_parallel, pos_serial);
  EXPECT_EQ(neg_parallel, neg_serial);
}

/// Reductions: fixed-grain chunking makes every thread count (including 1)
/// agree bitwise; the tolerance checks below additionally tie the chunked
/// result to the plain serial accumulation it replaced.
/// tests/thread_budget_test.cc holds the exhaustive any-width bit-identity
/// coverage.
class ReductionKernelTest : public ::testing::Test {
 protected:
  ReductionKernelTest()
      : rng_(21),
        u_(DenseMatrix::Random(kRows, kK, &rng_, 0.0, 1.0)),
        v_(DenseMatrix::Random(kCols, kK, &rng_, 0.0, 1.0)),
        x_(RandomSparse(kRows, kCols, 0.01, &rng_)) {}

  Rng rng_;
  DenseMatrix u_;
  DenseMatrix v_;
  SparseMatrix x_;
};

TEST_F(ReductionKernelTest, MatMulAtBWithinTolerance) {
  ScopedThreadBudget serial{ThreadBudget(1)};
  const DenseMatrix expected = MatMulAtB(u_, u_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  const DenseMatrix actual = MatMulAtB(u_, u_);
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual.data()[i], expected.data()[i],
                1e-12 * std::fabs(expected.data()[i]) + 1e-12);
  }
}

TEST_F(ReductionKernelTest, MatMulAtBDeterministicAcrossThreadCounts) {
  DenseMatrix results[3];
  int idx = 0;
  for (int t : {1, 2, 4}) {
    ScopedThreadBudget threads{ThreadBudget(t)};
    results[idx++] = MatMulAtB(u_, u_);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST_F(ReductionKernelTest, FrobeniusNormSquaredWithinTolerance) {
  ScopedThreadBudget serial{ThreadBudget(1)};
  const double expected = FrobeniusNormSquared(u_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_NEAR(FrobeniusNormSquared(u_), expected, 1e-12 * expected);
}

TEST_F(ReductionKernelTest, FactorizationLossWithinTolerance) {
  ScopedThreadBudget serial{ThreadBudget(1)};
  const double expected = FactorizationLossSquared(x_, u_, v_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_NEAR(FactorizationLossSquared(x_, u_, v_), expected,
              1e-12 * std::fabs(expected) + 1e-12);
}

TEST_F(ReductionKernelTest, GraphLaplacianQuadraticFormWithinTolerance) {
  Rng rng(23);
  std::vector<UserGraph::Edge> edges;
  for (size_t i = 0; i < 4 * kRows; ++i) {
    edges.push_back({rng.NextUint64Below(kRows), rng.NextUint64Below(kRows),
                     rng.Uniform(0.1, 1.0)});
  }
  const UserGraph gu = UserGraph::FromEdges(kRows, edges);
  ScopedThreadBudget serial{ThreadBudget(1)};
  const double expected =
      GraphLaplacianQuadraticForm(gu.adjacency(), gu.degrees(), u_);
  ScopedThreadBudget parallel{ThreadBudget(4)};
  EXPECT_NEAR(GraphLaplacianQuadraticForm(gu.adjacency(), gu.degrees(), u_),
              expected, 1e-10 * std::fabs(expected) + 1e-10);
}

/// Full solver: a 4-thread offline fit must match the serial fit (the
/// fixed-grain reductions and row-partitioned updates are width-invariant;
/// thread_budget_test pins the stronger bitwise form of this guarantee).
TEST(ParallelSolverTest, OfflineFitMatchesSerial) {
  const SmallProblem p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 15;
  config.num_threads = 1;
  const TriClusterResult serial = OfflineTriClusterer(config).Run(p.data, p.sf0);
  config.num_threads = 4;
  const TriClusterResult parallel =
      OfflineTriClusterer(config).Run(p.data, p.sf0);

  ASSERT_EQ(parallel.iterations, serial.iterations);
  auto expect_near = [](const DenseMatrix& a, const DenseMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a.data()[i], b.data()[i],
                  1e-9 * std::fabs(b.data()[i]) + 1e-12);
    }
  };
  expect_near(parallel.sp, serial.sp);
  expect_near(parallel.su, serial.su);
  expect_near(parallel.sf, serial.sf);
  expect_near(parallel.hp, serial.hp);
  expect_near(parallel.hu, serial.hu);
}

/// A fit installs its own budget for its duration and restores the
/// caller's afterwards.
TEST(ParallelSolverTest, FitRestoresTheCallersBudget) {
  const ScopedThreadBudget caller{ThreadBudget(3)};
  const SmallProblem p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 2;
  config.num_threads = 2;
  OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_EQ(CurrentParallelWidth(), 3);
}

/// An online snapshot fit installs no budget of its own: it runs at its
/// caller's width and leaves that budget in place.
TEST(ParallelSolverTest, OnlineSolveLeavesTheCallersBudget) {
  const ScopedThreadBudget caller{ThreadBudget(3)};
  const SmallProblem p = MakeSmallProblem();
  OnlineConfig config;
  config.base.max_iterations = 2;
  StreamState state;
  SnapshotSolver(config, p.sf0).Solve(p.data, &state);
  EXPECT_EQ(CurrentParallelWidth(), 3);
}

/// Workspace reuse must not change any result: one workspace carried across
/// two full update sweeps (even over *different* problems, forcing scratch
/// reshapes) gives bitwise the same factors as a fresh workspace per call,
/// which holds no transpose and no kept product.
TEST(UpdateWorkspaceTest, ReuseAcrossSweepsMatchesFreshAllocations) {
  const SmallProblem problems[2] = {MakeSmallProblem(5), MakeSmallProblem(6)};
  update::UpdateWorkspace shared;

  for (const SmallProblem& p : problems) {
    Rng rng(31);
    const size_t n = p.data.num_tweets();
    const size_t m = p.data.num_users();
    const size_t l = p.data.num_features();
    DenseMatrix sp_ws = RandomPositive(n, 3, &rng);
    DenseMatrix su_ws = RandomPositive(m, 3, &rng);
    DenseMatrix sf_ws = RandomPositive(l, 3, &rng);
    DenseMatrix hp_ws = RandomPositive(3, 3, &rng);
    DenseMatrix hu_ws = RandomPositive(3, 3, &rng);
    DenseMatrix sp_fresh = sp_ws, su_fresh = su_ws, sf_fresh = sf_ws,
                hp_fresh = hp_ws, hu_fresh = hu_ws;

    for (int iter = 0; iter < 3; ++iter) {
      update::UpdateSp(p.data.xp, p.data.xr, sf_ws, hp_ws, su_ws, &sp_ws,
                       1e-12, 0.0, nullptr, nullptr, &shared);
      update::UpdateHp(p.data.xp, sp_ws, sf_ws, &hp_ws, 1e-12, &shared);
      update::UpdateSu(p.data.xu, p.data.xr, p.data.gu, sf_ws, hu_ws, sp_ws,
                       0.8, nullptr, nullptr, &su_ws, 1e-12, 0.0, &shared);
      update::UpdateHu(p.data.xu, su_ws, sf_ws, &hu_ws, 1e-12, &shared);
      update::UpdateSf(p.data.xp, p.data.xu, sp_ws, su_ws, hp_ws, hu_ws,
                       0.05, p.sf0, &sf_ws, 1e-12, 0.0, &shared);

      update::UpdateSp(p.data.xp, p.data.xr, sf_fresh, hp_fresh, su_fresh,
                       &sp_fresh, 1e-12, 0.0, nullptr, nullptr,
                       std::make_unique<update::UpdateWorkspace>().get());
      update::UpdateHp(p.data.xp, sp_fresh, sf_fresh, &hp_fresh, 1e-12,
                       std::make_unique<update::UpdateWorkspace>().get());
      update::UpdateSu(p.data.xu, p.data.xr, p.data.gu, sf_fresh, hu_fresh,
                       sp_fresh, 0.8, nullptr, nullptr, &su_fresh, 1e-12, 0.0,
                       std::make_unique<update::UpdateWorkspace>().get());
      update::UpdateHu(p.data.xu, su_fresh, sf_fresh, &hu_fresh, 1e-12,
                       std::make_unique<update::UpdateWorkspace>().get());
      update::UpdateSf(p.data.xp, p.data.xu, sp_fresh, su_fresh, hp_fresh,
                       hu_fresh, 0.05, p.sf0, &sf_fresh, 1e-12, 0.0,
                       std::make_unique<update::UpdateWorkspace>().get());
    }
    EXPECT_EQ(sp_ws, sp_fresh);
    EXPECT_EQ(su_ws, su_fresh);
    EXPECT_EQ(sf_ws, sf_fresh);
    EXPECT_EQ(hp_ws, hp_fresh);
    EXPECT_EQ(hu_ws, hu_fresh);
  }
}

/// Two consecutive offline fits (each owning a workspace internally) are
/// deterministic and independent — no state bleeds between fits.
TEST(UpdateWorkspaceTest, ConsecutiveOfflineFitsAreIdentical) {
  const SmallProblem p = MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 8;
  const OfflineTriClusterer clusterer(config);
  const TriClusterResult first = clusterer.Run(p.data, p.sf0);
  const TriClusterResult second = clusterer.Run(p.data, p.sf0);
  EXPECT_EQ(first.sp, second.sp);
  EXPECT_EQ(first.su, second.su);
  EXPECT_EQ(first.sf, second.sf);
  EXPECT_EQ(first.hp, second.hp);
  EXPECT_EQ(first.hu, second.hu);
}

TEST(UpdateWorkspaceTest, TransposeCacheTracksBoundMatrix) {
  Rng rng(41);
  const SparseMatrix x1 = RandomSparse(40, 30, 0.2, &rng);
  const SparseMatrix x2 = RandomSparse(25, 35, 0.2, &rng);
  update::UpdateWorkspace ws;
  using Slot = update::UpdateWorkspace::TransposeSlot;
  const SparseMatrix& t1 = ws.Transposed(Slot::kXp, x1);
  EXPECT_EQ(t1.rows(), x1.cols());
  // Same matrix: cache hit returns the same object.
  EXPECT_EQ(&ws.Transposed(Slot::kXp, x1), &t1);
  // Different matrix in the slot: rebuilt.
  const SparseMatrix& t2 = ws.Transposed(Slot::kXp, x2);
  EXPECT_EQ(t2.rows(), x2.cols());
  EXPECT_EQ(t2.cols(), x2.rows());
}

}  // namespace
}  // namespace triclust
