/// Tests of matrix I/O and of the stream-state checkpoint format: a stream
/// continued from a state written and read back must match the
/// uninterrupted stream exactly.

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/snapshots.h"
#include "src/matrix/io.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

// --- dense matrix I/O ---------------------------------------------------------

TEST(MatrixIoTest, RoundTripsExactly) {
  Rng rng(1);
  const DenseMatrix original = DenseMatrix::Random(7, 3, &rng, -5.0, 5.0);
  std::stringstream buffer;
  WriteDenseMatrix(original, &buffer);
  auto loaded = ReadDenseMatrix(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), original);  // bitwise via %.17g
}

TEST(MatrixIoTest, RoundTripsEmptyAndExtremeValues) {
  {
    std::stringstream buffer;
    WriteDenseMatrix(DenseMatrix(0, 0), &buffer);
    auto loaded = ReadDenseMatrix(&buffer);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().rows(), 0u);
  }
  {
    DenseMatrix m({{1e-300, 1e300}, {0.0, -2.5e-17}});
    std::stringstream buffer;
    WriteDenseMatrix(m, &buffer);
    auto loaded = ReadDenseMatrix(&buffer);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value(), m);
  }
}

TEST(MatrixIoTest, RejectsMalformedInput) {
  {
    std::stringstream buffer("not a header\n");
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer("2 2\n1 2\n");  // truncated
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer("1 2\n1 2 3\n");  // wrong arity
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer("1 1\nxyz\n");  // bad value
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());
  }
  {
    std::stringstream buffer;
    EXPECT_FALSE(ReadDenseMatrix(&buffer).ok());  // empty stream
  }
  {
    // A header far larger than the rows that follow it: rejected without
    // first allocating the 10^10 entries it claims.
    std::stringstream buffer("100000 100000\n1 2\n");
    const Result<DenseMatrix> loaded = ReadDenseMatrix(&buffer);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

// --- stream-state checkpoints ------------------------------------------------

/// The payload a checkpoint file holds for `state` (its trailer aside).
std::string StateText(const StreamState& state) {
  std::ostringstream out;
  EXPECT_TRUE(state.Write(&out).ok());
  return out.str();
}

/// Reads `text` back against the dimensions of the lexicon prior `sf0`.
Result<StreamState> ReadState(const std::string& text, const DenseMatrix& sf0) {
  std::istringstream in(text);
  return StreamState::Read(&in, sf0.rows(), sf0.cols());
}

TEST(CheckpointTest, RestartedStreamMatchesUninterruptedStream) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 20;
  config.base.track_loss = false;

  // Reference: uninterrupted run.
  const SnapshotSolver solver(config, p.sf0);
  StreamState reference;
  std::vector<TriClusterResult> expected;
  for (const Snapshot& snap : snapshots) {
    expected.push_back(solver.Solve(
        p.builder.Build(corpus, snap.tweet_ids, snap.last_day), &reference));
  }

  // Interrupted run: checkpoint after day 3, continue from the state read
  // back by a fresh solver.
  StreamState first;
  for (size_t s = 0; s < 4; ++s) {
    solver.Solve(p.builder.Build(corpus, snapshots[s].tweet_ids,
                                 snapshots[s].last_day),
                 &first);
  }
  Result<StreamState> read = ReadState(StateText(first), p.sf0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  StreamState resumed = std::move(read).value();
  EXPECT_EQ(resumed.timestep, 4);

  const SnapshotSolver restarted(config, p.sf0);
  for (size_t s = 4; s < snapshots.size(); ++s) {
    const DatasetMatrices data = p.builder.Build(
        corpus, snapshots[s].tweet_ids, snapshots[s].last_day);
    const TriClusterResult got = restarted.Solve(data, &resumed);
    EXPECT_EQ(got.sp, expected[s].sp) << "snapshot " << s;
    EXPECT_EQ(got.su, expected[s].su) << "snapshot " << s;
    EXPECT_EQ(got.sf, expected[s].sf) << "snapshot " << s;
  }
}

TEST(CheckpointTest, PreservesUserHistories) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 10;
  config.base.track_loss = false;
  const SnapshotSolver solver(config, p.sf0);
  StreamState state;
  const DatasetMatrices day0 =
      p.builder.Build(corpus, snapshots[0].tweet_ids, 0);
  solver.Solve(day0, &state);

  const Result<StreamState> restored = ReadState(StateText(state), p.sf0);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (size_t user_id : day0.user_ids) {
    EXPECT_EQ(restored.value().user_history.at(user_id),
              state.user_history.at(user_id));
  }
}

TEST(CheckpointTest, RejectsWrongFeatureSpace) {
  const auto p = testing_util::MakeSmallProblem();
  OnlineConfig config;
  config.base.max_iterations = 5;
  config.base.track_loss = false;
  const SnapshotSolver solver(config, p.sf0);
  StreamState state;
  const auto snapshots = SplitByDay(p.dataset.corpus);
  solver.Solve(p.builder.Build(p.dataset.corpus, snapshots[0].tweet_ids, 0),
               &state);

  // A solver over a different (smaller) feature space must refuse it.
  const DenseMatrix small_sf0(10, 3, 1.0 / 3.0);
  const Result<StreamState> other = ReadState(StateText(state), small_sf0);
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, TimestepMustBeBelowIntMax) {
  // The counts line is "timestep num_sf num_users"; Solve() increments the
  // timestep, so a loaded one must leave room below INT_MAX.
  const auto read = [](const std::string& counts) {
    std::istringstream in("triclust-online-state 1\n" + counts + "\n");
    return StreamState::Read(&in, 4, 3);
  };
  for (const char* counts :
       {"-1 0 0", "4294967296 0 0", "2147483647 0 0",
        "18446744073709551616 0 0"}) {
    const Result<StreamState> state = read(counts);
    EXPECT_EQ(state.status().code(), StatusCode::kParseError) << counts;
  }
  const Result<StreamState> last = read("2147483646 0 0");
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value().timestep, 2147483646);
}

TEST(CheckpointTest, NonFiniteValuesAreParseErrors) {
  // One Sf matrix (4x3) and one user with one row of k = 3 values.
  const std::string sf = "4 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n";
  const auto read = [&](const std::string& sf_text,
                        const std::string& user_row) {
    std::istringstream in("triclust-online-state 1\n1 1 1\n" + sf_text +
                          "5 1\n" + user_row + "\n");
    return StreamState::Read(&in, 4, 3);
  };
  const Result<StreamState> finite = read(sf, "0.5 0.25 0.25");
  ASSERT_TRUE(finite.ok()) << finite.status().ToString();
  EXPECT_EQ(finite.value().user_history.at(5).front(),
            (std::vector<double>{0.5, 0.25, 0.25}));
  for (const char* row : {"nan 0.25 0.25", "0.5 inf 0.25", "0.5 0.25 1e999"}) {
    const Result<StreamState> state = read(sf, row);
    EXPECT_EQ(state.status().code(), StatusCode::kParseError) << row;
  }
  const Result<StreamState> nan_sf =
      read("4 3\n1 0 0\n0 nan 0\n0 0 1\n1 1 1\n", "0.5 0.25 0.25");
  EXPECT_EQ(nan_sf.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace triclust
