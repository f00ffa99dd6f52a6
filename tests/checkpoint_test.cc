/// Tests of matrix I/O and online-state checkpointing: a restarted
/// clusterer must continue the stream exactly as the original would.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/online.h"
#include "src/core/stream_state.h"
#include "src/data/snapshots.h"
#include "src/matrix/io.h"
#include "src/util/fs.h"
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

// --- online checkpointing -------------------------------------------------------

TEST(CheckpointTest, RestartedStreamMatchesUninterruptedStream) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 20;
  config.base.track_loss = false;

  // Reference: uninterrupted run.
  OnlineTriClusterer reference(config, p.sf0);
  std::vector<TriClusterResult> expected;
  for (const Snapshot& snap : snapshots) {
    expected.push_back(reference.ProcessSnapshot(
        p.builder.Build(corpus, snap.tweet_ids, snap.last_day)));
  }

  // Interrupted run: checkpoint after day 3, restore into a fresh object.
  OnlineTriClusterer first(config, p.sf0);
  for (size_t s = 0; s < 4; ++s) {
    first.ProcessSnapshot(
        p.builder.Build(corpus, snapshots[s].tweet_ids,
                        snapshots[s].last_day));
  }
  const std::string path = ::testing::TempDir() + "/online_state.ckpt";
  ASSERT_TRUE(first.SaveState(path).ok());

  OnlineTriClusterer resumed(config, p.sf0);
  ASSERT_TRUE(resumed.RestoreState(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(resumed.timestep(), 4);

  for (size_t s = 4; s < snapshots.size(); ++s) {
    const DatasetMatrices data = p.builder.Build(
        corpus, snapshots[s].tweet_ids, snapshots[s].last_day);
    const TriClusterResult got = resumed.ProcessSnapshot(data);
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
  OnlineTriClusterer online(config, p.sf0);
  const DatasetMatrices day0 =
      p.builder.Build(corpus, snapshots[0].tweet_ids, 0);
  online.ProcessSnapshot(day0);

  const std::string path = ::testing::TempDir() + "/online_users.ckpt";
  ASSERT_TRUE(online.SaveState(path).ok());
  OnlineTriClusterer restored(config, p.sf0);
  ASSERT_TRUE(restored.RestoreState(path).ok());
  std::remove(path.c_str());

  for (size_t user_id : day0.user_ids) {
    EXPECT_EQ(restored.UserSentiment(user_id),
              online.UserSentiment(user_id));
  }
}

TEST(CheckpointTest, RestoreRejectsTruncatedCheckpoint) {
  const auto p = testing_util::MakeSmallProblem();
  const Corpus& corpus = p.dataset.corpus;
  const auto snapshots = SplitByDay(corpus);
  OnlineConfig config;
  config.base.max_iterations = 10;
  config.base.track_loss = false;
  OnlineTriClusterer online(config, p.sf0);
  for (size_t s = 0; s < 2; ++s) {
    online.ProcessSnapshot(p.builder.Build(corpus, snapshots[s].tweet_ids,
                                           snapshots[s].last_day));
  }
  const std::string path = ::testing::TempDir() + "/online_truncated.ckpt";
  ASSERT_TRUE(online.SaveState(path).ok());

  // Tear the file inside its last value: drop the trailer line, the
  // payload's final newline and the last 6 digits. What is left still
  // parses as a stream state, just with a different final value.
  FileSystem* fs = GetDefaultFileSystem();
  Result<std::string> saved = fs->ReadFileToString(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  std::string torn = saved.value();
  torn.resize(torn.rfind('\n', torn.size() - 2) - 6);
  {
    Result<std::unique_ptr<WritableFile>> file = fs->NewWritableFile(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(file.value()->Append(torn).ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }

  // A clusterer that already holds a stream keeps it when the restore fails.
  OnlineTriClusterer restored(config, p.sf0);
  restored.ProcessSnapshot(p.builder.Build(corpus, snapshots[0].tweet_ids,
                                           snapshots[0].last_day));
  std::ostringstream before;
  ASSERT_TRUE(restored.state().Write(&before).ok());

  const Status status = restored.RestoreState(path);
  std::remove(path.c_str());
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find(path + ": no integrity trailer"),
            std::string::npos)
      << status.message();
  std::ostringstream after;
  ASSERT_TRUE(restored.state().Write(&after).ok());
  EXPECT_EQ(after.str(), before.str());
  EXPECT_EQ(restored.timestep(), 1);
}

TEST(CheckpointTest, RejectsWrongFeatureSpace) {
  const auto p = testing_util::MakeSmallProblem();
  OnlineConfig config;
  config.base.max_iterations = 5;
  config.base.track_loss = false;
  OnlineTriClusterer online(config, p.sf0);
  const auto snapshots = SplitByDay(p.dataset.corpus);
  online.ProcessSnapshot(
      p.builder.Build(p.dataset.corpus, snapshots[0].tweet_ids, 0));
  const std::string path = ::testing::TempDir() + "/online_mismatch.ckpt";
  ASSERT_TRUE(online.SaveState(path).ok());

  // A clusterer over a different (smaller) feature space must refuse it.
  const DenseMatrix small_sf0(10, 3, 1.0 / 3.0);
  OnlineTriClusterer other(config, small_sf0);
  const Status status = other.RestoreState(path);
  std::remove(path.c_str());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
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
  EXPECT_EQ(finite.value().UserSentiment(5),
            (std::vector<double>{0.5, 0.25, 0.25}));
  for (const char* row : {"nan 0.25 0.25", "0.5 inf 0.25", "0.5 0.25 1e999"}) {
    const Result<StreamState> state = read(sf, row);
    EXPECT_EQ(state.status().code(), StatusCode::kParseError) << row;
  }
  const Result<StreamState> nan_sf =
      read("4 3\n1 0 0\n0 nan 0\n0 0 1\n1 1 1\n", "0.5 0.25 0.25");
  EXPECT_EQ(nan_sf.status().code(), StatusCode::kParseError);
}

TEST(CheckpointTest, MissingFileFailsCleanly) {
  const auto p = testing_util::MakeSmallProblem();
  OnlineConfig config;
  OnlineTriClusterer online(config, p.sf0);
  EXPECT_EQ(online.RestoreState("/nonexistent/state.ckpt").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace triclust
