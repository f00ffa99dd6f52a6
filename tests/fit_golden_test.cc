// Golden fingerprints of whole fits. Every other bitwise test compares the
// code with itself (determinism, serving against direct SnapshotSolver runs,
// replay against direct solves), so it keeps passing when a refactor moves
// bits on both sides at once. These values were recorded once and pin the
// actual bits of Algorithm 1 and Algorithm 2 across commits.
//
// The inputs are built from arithmetic alone (xorshift draws, RandomSparse,
// UserGraph::FromEdges) so no libm result enters the fingerprints; they hold
// both with the dispatched kernels and under TRICLUST_FORCE_SCALAR=1.
//
// A deliberate change to the fits' bits must re-record every value below
// (the failure message prints the new one) and say why in the change log.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/offline.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/util/crc32.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::RandomPositive;
using testing_util::RandomSparse;

constexpr size_t kFeatures = 30;
constexpr size_t kClusters = 3;

uint32_t CrcMatrix(const DenseMatrix& m, uint32_t crc) {
  return Crc32(m.data(), m.size() * sizeof(double), crc);
}

/// CRC-32 over every output of a fit: the five factors' bytes, each
/// recorded loss component, the iteration count and the converged flag.
uint32_t Fingerprint(const TriClusterResult& r) {
  uint32_t crc = 0;
  for (const DenseMatrix* m : {&r.sp, &r.su, &r.sf, &r.hp, &r.hu}) {
    crc = CrcMatrix(*m, crc);
  }
  for (const LossComponents& loss : r.loss_history) {
    const double parts[] = {loss.xp_loss,      loss.xu_loss,
                            loss.xr_loss,      loss.lexicon_loss,
                            loss.graph_loss,   loss.temporal_user_loss,
                            loss.guided_loss};
    crc = Crc32(parts, sizeof(parts), crc);
  }
  const int32_t iterations = r.iterations;
  crc = Crc32(&iterations, sizeof(iterations), crc);
  const uint8_t converged = r.converged ? 1 : 0;
  return Crc32(&converged, sizeof(converged), crc);
}

/// The fingerprint as fixed-width hex, so a failure prints the value to
/// record.
std::string Hex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", crc);
  return buf;
}

/// One snapshot's matrices over the shared feature space: `user_ids` are
/// the corpus ids of its users, and every tweet is posted by one of them.
DatasetMatrices MakeSnapshot(const std::vector<size_t>& user_ids,
                             size_t num_tweets, Rng* rng) {
  const size_t m = user_ids.size();
  DatasetMatrices d;
  d.xp = RandomSparse(num_tweets, kFeatures, 0.2, rng);
  d.xu = RandomSparse(m, kFeatures, 0.3, rng);
  SparseMatrix::Builder xr(m, num_tweets);
  for (size_t i = 0; i < num_tweets; ++i) {
    xr.Add(rng->NextUint64Below(m), i, 1.0);
    // A retweet by a second user now and then.
    if (rng->Bernoulli(0.3)) xr.Add(rng->NextUint64Below(m), i, 1.0);
  }
  d.xr = xr.Build();
  std::vector<UserGraph::Edge> edges;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (rng->Bernoulli(0.2)) edges.push_back({i, j, rng->Uniform(0.5, 2.0)});
    }
  }
  d.gu = UserGraph::FromEdges(m, edges);
  for (size_t i = 0; i < num_tweets; ++i) d.tweet_ids.push_back(i);
  d.user_ids = user_ids;
  return d;
}

/// An empty snapshot: no tweets, no users, the same feature space.
DatasetMatrices EmptySnapshot() {
  DatasetMatrices d;
  d.xp = SparseMatrix::Builder(0, kFeatures).Build();
  d.xu = SparseMatrix::Builder(0, kFeatures).Build();
  d.xr = SparseMatrix::Builder(0, 0).Build();
  d.gu = UserGraph(0);
  return d;
}

struct OfflineProblem {
  DatasetMatrices data;
  DenseMatrix sf0;
};

OfflineProblem MakeOfflineProblem() {
  Rng rng(20140622);
  OfflineProblem p;
  std::vector<size_t> users;
  for (size_t j = 0; j < 14; ++j) users.push_back(j);
  p.data = MakeSnapshot(users, 40, &rng);
  p.sf0 = RandomPositive(kFeatures, kClusters, &rng);
  return p;
}

TriClusterConfig GoldenConfig() {
  TriClusterConfig config;
  config.num_clusters = static_cast<int>(kClusters);
  // Most fits below converge; the random-init one stops at the cap.
  config.max_iterations = 80;
  config.tolerance = 1e-4;
  config.track_loss = true;
  return config;
}

TEST(FitGoldenTest, OfflineDefault) {
  const OfflineProblem p = MakeOfflineProblem();
  const TriClusterResult r =
      OfflineTriClusterer(GoldenConfig()).Run(p.data, p.sf0);
  EXPECT_EQ(Hex(Fingerprint(r)), "0x77f58274");
}

TEST(FitGoldenTest, OfflineGuidedTweetAndUserSeeds) {
  const OfflineProblem p = MakeOfflineProblem();
  const Sentiment cycle[] = {Sentiment::kPositive, Sentiment::kUnlabeled,
                             Sentiment::kNegative, Sentiment::kNeutral,
                             Sentiment::kUnlabeled};
  Supervision supervision;
  for (size_t i = 0; i < p.data.num_tweets(); ++i) {
    supervision.tweet_seeds.push_back(cycle[i % 5]);
  }
  for (size_t j = 0; j < p.data.num_users(); ++j) {
    supervision.user_seeds.push_back(cycle[(j + 2) % 5]);
  }
  supervision.weight = 0.5;
  const TriClusterResult r =
      OfflineTriClusterer(GoldenConfig()).Run(p.data, p.sf0, &supervision);
  EXPECT_EQ(Hex(Fingerprint(r)), "0x171b7ae1");
}

TEST(FitGoldenTest, OfflineSparsity) {
  const OfflineProblem p = MakeOfflineProblem();
  TriClusterConfig config = GoldenConfig();
  config.sparsity = 0.05;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_EQ(Hex(Fingerprint(r)), "0xc5614c5a");
}

TEST(FitGoldenTest, OfflineRandomInit) {
  const OfflineProblem p = MakeOfflineProblem();
  TriClusterConfig config = GoldenConfig();
  config.init = InitStrategy::kRandom;
  const TriClusterResult r = OfflineTriClusterer(config).Run(p.data, p.sf0);
  EXPECT_EQ(Hex(Fingerprint(r)), "0x53f787b3");
}

TEST(FitGoldenTest, OnlineStreamWithRecurringUsersAndAnEmptyDay) {
  Rng rng(20140623);
  const DenseMatrix sf0 = RandomPositive(kFeatures, kClusters, &rng);
  OnlineConfig config;
  config.base = GoldenConfig();
  config.window = 3;
  const SnapshotSolver solver(config, sf0);
  StreamState state;

  // Users 0..19 form the pool; consecutive days overlap, so users recur
  // (and one returns after an absence), and day 2 is empty.
  const std::vector<std::vector<size_t>> days = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
      {5, 6, 7, 8, 9, 10, 11, 12, 13},
      {},
      {0, 1, 2, 10, 11, 14, 15, 16, 17},
      {3, 4, 12, 13, 15, 16, 18, 19}};
  const char* const expected[] = {"0x437614c3", "0x58f0c512", "0x3d582afc",
                                  "0xe944621c", "0xd76b4cac"};
  for (size_t t = 0; t < days.size(); ++t) {
    const DatasetMatrices data =
        days[t].empty() ? EmptySnapshot() : MakeSnapshot(days[t], 25, &rng);
    const TriClusterResult r = solver.Solve(data, &state);
    EXPECT_EQ(Hex(Fingerprint(r)), expected[t]) << "snapshot " << t;
  }
  EXPECT_EQ(state.timestep, 5);
}

}  // namespace
}  // namespace triclust
