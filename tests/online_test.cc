#include "src/core/snapshot_solver.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "src/core/offline.h"
#include "src/core/stream_state.h"
#include "src/data/snapshots.h"
#include "src/eval/metrics.h"
#include "src/matrix/ops.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::SmallProblem;
using testing_util::WithOverflowingEntry;

OnlineConfig FastOnlineConfig() {
  OnlineConfig config;
  config.base.max_iterations = 30;
  return config;
}

struct OnlineFixtureData {
  SmallProblem problem;
  std::vector<Snapshot> snapshots;
};

OnlineFixtureData MakeFixture(uint64_t seed = 5) {
  OnlineFixtureData f{MakeSmallProblem(seed), {}};
  f.snapshots = SplitByDay(f.problem.dataset.corpus);
  return f;
}

TEST(OnlineTest, FirstSnapshotActsLikeBootstrap) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  EXPECT_EQ(state.timestep, 0);
  const DatasetMatrices day0 = f.problem.builder.Build(
      f.problem.dataset.corpus, f.snapshots[0].tweet_ids, 0);
  SnapshotSolver::SolveInfo info;
  const TriClusterResult r = solver.Solve(day0, &state, &info);
  EXPECT_EQ(state.timestep, 1);
  // No history yet: every user is new, Sfw falls back to Sf0.
  EXPECT_EQ(info.partition.evolving_rows.size(), 0u);
  EXPECT_EQ(info.partition.new_rows.size(), day0.num_users());
  EXPECT_EQ(info.sfw, f.problem.sf0);
  EXPECT_EQ(r.sp.rows(), day0.num_tweets());
  EXPECT_TRUE(IsNonNegative(r.sp));
}

TEST(OnlineTest, UsersBecomeEvolvingOnReappearance) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;

  const DatasetMatrices day0 =
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0);
  solver.Solve(day0, &state);
  std::unordered_set<size_t> seen(day0.user_ids.begin(),
                                  day0.user_ids.end());

  const DatasetMatrices day1 =
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1);
  SnapshotSolver::SolveInfo info;
  solver.Solve(day1, &state, &info);
  const UserPartition& partition = info.partition;
  // Every "evolving" row's user was seen on day 0, every "new" row's wasn't.
  for (size_t row : partition.evolving_rows) {
    EXPECT_TRUE(seen.count(day1.user_ids[row]) > 0);
  }
  for (size_t row : partition.new_rows) {
    EXPECT_TRUE(seen.count(day1.user_ids[row]) == 0);
  }
  EXPECT_EQ(partition.evolving_rows.size() + partition.new_rows.size(),
            day1.num_users());
  // Disappeared = day-0 users not active on day 1.
  size_t expected_disappeared = 0;
  std::unordered_set<size_t> today(day1.user_ids.begin(),
                                   day1.user_ids.end());
  for (size_t u : seen) {
    if (today.count(u) == 0) ++expected_disappeared;
  }
  EXPECT_EQ(partition.num_disappeared, expected_disappeared);
}

TEST(OnlineTest, SfwIsDecayedAggregateOfHistory) {
  const auto f = MakeFixture();
  OnlineConfig config = FastOnlineConfig();
  config.window = 2;  // Sfw(t) = normalized τ·Sf(t−1) = Sf(t−1)
  config.lexicon_blend = 0.0;  // the paper's pure-history aggregate
  const SnapshotSolver solver(config, f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;

  const TriClusterResult r0 = solver.Solve(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0), &state);
  SnapshotSolver::SolveInfo info;
  solver.Solve(f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1),
               &state, &info);
  // With w = 2 the aggregate is the previous Sf with each feature row
  // renormalized to a distribution (factor magnitudes are arbitrary; only
  // the row shapes are regularization targets).
  DenseMatrix expected = r0.sf;
  expected.NormalizeRowsL1();
  const DenseMatrix& sfw = info.sfw;
  ASSERT_EQ(sfw.rows(), expected.rows());
  ASSERT_EQ(sfw.cols(), expected.cols());
  for (size_t i = 0; i < sfw.size(); ++i) {
    EXPECT_NEAR(sfw.data()[i], expected.data()[i], 1e-9);
  }
}

TEST(OnlineTest, UserSentimentHistoryMaintained) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;
  const DatasetMatrices day0 =
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0);
  const TriClusterResult r0 = solver.Solve(day0, &state);
  for (size_t j = 0; j < day0.num_users(); ++j) {
    const auto history = state.user_history.find(day0.user_ids[j]);
    ASSERT_NE(history, state.user_history.end());
    ASSERT_FALSE(history->second.empty());
    const std::vector<double>& row = history->second.front();
    ASSERT_EQ(row.size(), 3u);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(row[c], r0.su(j, c));
    }
  }
  EXPECT_EQ(state.user_history.count(999999), 0u);
}

TEST(OnlineTest, EmptySnapshotCarriesStateForward) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;
  const TriClusterResult r0 = solver.Solve(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0), &state);

  DatasetMatrices empty;
  {
    SparseMatrix::Builder xp_builder(0, f.problem.data.num_features());
    empty.xp = xp_builder.Build();
    SparseMatrix::Builder xu_builder(0, f.problem.data.num_features());
    empty.xu = xu_builder.Build();
    SparseMatrix::Builder xr_builder(0, 0);
    empty.xr = xr_builder.Build();
    empty.gu = UserGraph(0);
  }
  const TriClusterResult r1 = solver.Solve(empty, &state);
  EXPECT_EQ(state.timestep, 2);
  EXPECT_EQ(r1.sp.rows(), 0u);
  EXPECT_EQ(r1.sf.rows(), f.problem.data.num_features());
  // User history survives an empty day.
  const size_t user =
      r0.su.rows() > 0
          ? f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0)
                .user_ids[0]
          : 0;
  const auto history = state.user_history.find(user);
  ASSERT_NE(history, state.user_history.end());
  ASSERT_FALSE(history->second.empty());
  EXPECT_FALSE(history->second.front().empty());
}

TEST(OnlineTest, ObjectiveNonIncreasingWithinSnapshot) {
  const auto f = MakeFixture();
  OnlineConfig config = FastOnlineConfig();
  config.base.tolerance = 0.0;
  config.base.max_iterations = 20;
  const SnapshotSolver solver(config, f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;
  solver.Solve(f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0),
               &state);
  const TriClusterResult r = solver.Solve(
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1), &state);
  ASSERT_GT(r.loss_history.size(), 5u);
  // The warm start places the solve near a balance point, so the component
  // oscillation of paper Fig. 8 can appear from the first iterations; the
  // testable property is overall descent with bounded oscillation.
  const double first = r.loss_history.front().Total();
  double lowest = first;
  for (const LossComponents& loss : r.loss_history) {
    lowest = std::min(lowest, loss.Total());
  }
  EXPECT_LT(lowest, first);
  EXPECT_LE(r.loss_history.back().Total(), 1.25 * lowest);
}

TEST(OnlineTest, AccuracyComparableToOfflinePerSnapshot) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;
  double online_acc = 0.0;
  int scored = 0;
  for (size_t s = 0; s < f.snapshots.size(); ++s) {
    const DatasetMatrices data = f.problem.builder.Build(
        corpus, f.snapshots[s].tweet_ids, f.snapshots[s].last_day);
    const TriClusterResult r = solver.Solve(data, &state);
    if (data.num_tweets() == 0) continue;
    online_acc += ClusteringAccuracy(r.TweetClusters(), data.tweet_labels);
    ++scored;
  }
  ASSERT_GT(scored, 0);
  online_acc /= scored;
  EXPECT_GT(online_acc, 0.6);
}

TEST(OnlineTest, FactorsStayNonNegativeAcrossStream) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;
  for (size_t s = 0; s < 5; ++s) {
    const DatasetMatrices data = f.problem.builder.Build(
        corpus, f.snapshots[s].tweet_ids, f.snapshots[s].last_day);
    const TriClusterResult r = solver.Solve(data, &state);
    EXPECT_TRUE(IsNonNegative(r.sp));
    EXPECT_TRUE(IsNonNegative(r.su));
    EXPECT_TRUE(IsNonNegative(r.sf));
    EXPECT_TRUE(AllFinite(r.sf));
  }
}

TEST(OnlineTest, WindowThreeAggregatesTwoSnapshots) {
  const auto f = MakeFixture();
  OnlineConfig config = FastOnlineConfig();
  config.window = 3;
  config.tau = 0.5;
  config.lexicon_blend = 0.0;  // the paper's pure-history aggregate
  const SnapshotSolver solver(config, f.problem.sf0);
  StreamState state;
  const Corpus& corpus = f.problem.dataset.corpus;
  const TriClusterResult r0 = solver.Solve(
      f.problem.builder.Build(corpus, f.snapshots[0].tweet_ids, 0), &state);
  const TriClusterResult r1 = solver.Solve(
      f.problem.builder.Build(corpus, f.snapshots[1].tweet_ids, 1), &state);
  SnapshotSolver::SolveInfo info;
  solver.Solve(f.problem.builder.Build(corpus, f.snapshots[2].tweet_ids, 2),
               &state, &info);
  // Sfw(2) = row-normalized[(τ·Sf(1) + τ²·Sf(0)) / (τ + τ²)]
  //        = row-normalized[(2·Sf(1) + Sf(0)) / 3].
  DenseMatrix expected = r1.sf;
  expected.ScaleInPlace(2.0 / 3.0);
  expected.Axpy(1.0 / 3.0, r0.sf);
  expected.NormalizeRowsL1();
  const DenseMatrix& got = info.sfw;
  ASSERT_EQ(got.rows(), expected.rows());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-9);
  }
}

TEST(OnlineTest, ValidateConfigChecksBaseOnlineWeightsAndPrior) {
  const DenseMatrix sf0(4, 3, 0.1);
  EXPECT_TRUE(ValidateConfig(OnlineConfig(), sf0).ok());
  // The base config is checked too, not only the online weights.
  OnlineConfig negative_beta;
  negative_beta.base.beta = -1.0;
  OnlineConfig zero_tau;
  zero_tau.tau = 0.0;
  OnlineConfig no_window;
  no_window.window = 0;
  OnlineConfig negative_gamma;
  negative_gamma.gamma = -0.2;
  for (const OnlineConfig& bad :
       {negative_beta, zero_tau, no_window, negative_gamma}) {
    EXPECT_EQ(ValidateConfig(bad, sf0).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ValidateConfig(OnlineConfig(), DenseMatrix(4, 2, 0.1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(OnlineTest, NonFiniteObjectiveRestoresLastFiniteFactors) {
  // As offline: the overflowing entry makes every objective non-finite, so
  // the solve keeps its initial factors after one sweep. The stream still
  // advances, and with finite factors.
  const auto f = MakeFixture();
  DatasetMatrices data = f.problem.builder.Build(
      f.problem.dataset.corpus, f.snapshots[0].tweet_ids, 0);
  data.xp = WithOverflowingEntry(data.xp);
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  const TriClusterResult r = solver.Solve(data, &state);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.loss_history.size(), 1u);
  EXPECT_TRUE(AllFinite(r.sp));
  EXPECT_TRUE(AllFinite(r.su));
  EXPECT_TRUE(AllFinite(r.sf));
  EXPECT_TRUE(AllFinite(r.hp));
  EXPECT_TRUE(AllFinite(r.hu));
  EXPECT_EQ(state.timestep, 1);
}

TEST(OnlineTest, RejectsMismatchedFeatureSpace) {
  const auto f = MakeFixture();
  const SnapshotSolver solver(FastOnlineConfig(), f.problem.sf0);
  StreamState state;
  DatasetMatrices bad;
  SparseMatrix::Builder xp_builder(1, 3);  // wrong feature count
  xp_builder.Add(0, 0, 1.0);
  bad.xp = xp_builder.Build();
  EXPECT_DEATH(solver.Solve(bad, &state), "check failed");
}

}  // namespace
}  // namespace triclust
