/// Tests of the serving layer: the stateless SnapshotSolver over
/// independent streams, the multi-campaign CampaignEngine against
/// standalone solver runs, and the CampaignStore persistence contract.

#include "src/serving/campaign_engine.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/snapshots.h"
#include "src/serving/campaign_store.h"
#include "src/util/file_util.h"
#include "src/util/fs.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::SmallProblem;

OnlineConfig FastConfig() {
  OnlineConfig config;
  config.base.max_iterations = 15;
  config.base.track_loss = false;
  return config;
}

/// One self-contained campaign fixture over its own synthetic stream.
struct Fixture {
  SmallProblem problem;
  std::vector<Snapshot> days;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f{MakeSmallProblem(seed), {}};
  f.days = SplitByDay(f.problem.dataset.corpus);
  return f;
}

std::string StateBytes(const StreamState& state) {
  std::ostringstream os;
  EXPECT_TRUE(state.Write(&os).ok());
  return os.str();
}

void ExpectSameFactors(const TriClusterResult& got,
                       const TriClusterResult& expected,
                       const std::string& context) {
  EXPECT_EQ(got.sp, expected.sp) << context;
  EXPECT_EQ(got.su, expected.su) << context;
  EXPECT_EQ(got.sf, expected.sf) << context;
  EXPECT_EQ(got.hp, expected.hp) << context;
  EXPECT_EQ(got.hu, expected.hu) << context;
}

// --- SnapshotSolver ----------------------------------------------------------

TEST(SnapshotSolverTest, SharedSolverServesIndependentStreams) {
  // One solver instance, two interleaved streams with their own states:
  // interleaving must not leak state between them.
  const Fixture f = MakeFixture(5);
  const Corpus& corpus = f.problem.dataset.corpus;
  const SnapshotSolver solver(FastConfig(), f.problem.sf0);

  StreamState sequential;
  std::vector<TriClusterResult> expected;
  for (size_t day = 0; day < 3; ++day) {
    const DatasetMatrices data = f.problem.builder.Build(
        corpus, f.days[day].tweet_ids, f.days[day].last_day);
    expected.push_back(solver.Solve(data, &sequential));
  }

  StreamState a;
  StreamState b;
  for (size_t day = 0; day < 3; ++day) {
    const DatasetMatrices data = f.problem.builder.Build(
        corpus, f.days[day].tweet_ids, f.days[day].last_day);
    const TriClusterResult ra = solver.Solve(data, &a);
    const TriClusterResult rb = solver.Solve(data, &b);
    ExpectSameFactors(ra, expected[day], "stream a, day " +
                                             std::to_string(day));
    ExpectSameFactors(rb, expected[day], "stream b, day " +
                                             std::to_string(day));
  }
}

TEST(SnapshotSolverTest, EmptySnapshotCarriesFeatureStateWithWindowOne) {
  // Regression: the historical empty-snapshot path trimmed the Sf history
  // to window-1 entries (not max(window-1, 1) like the main path), so with
  // window == 1 a single quiet day erased the evolved feature state.
  const Fixture f = MakeFixture(5);
  OnlineConfig config = FastConfig();
  config.window = 1;
  const SnapshotSolver solver(config, f.problem.sf0);
  StreamState state;
  solver.Solve(f.problem.builder.Build(f.problem.dataset.corpus,
                                       f.days[0].tweet_ids, 0),
               &state);
  ASSERT_EQ(state.sf_history.size(), 1u);

  DatasetMatrices empty;
  {
    SparseMatrix::Builder xp(0, f.problem.data.num_features());
    empty.xp = xp.Build();
    SparseMatrix::Builder xu(0, f.problem.data.num_features());
    empty.xu = xu.Build();
    SparseMatrix::Builder xr(0, 0);
    empty.xr = xr.Build();
    empty.gu = UserGraph(0);
  }
  solver.Solve(empty, &state);
  EXPECT_EQ(state.timestep, 2);
  ASSERT_EQ(state.sf_history.size(), 1u);  // history survives the quiet day
  // With an emptied history (the old bug) this would be exactly sf0 again.
  EXPECT_FALSE(solver.ComputeSfw(state) == f.problem.sf0);
}

// --- CampaignEngine ----------------------------------------------------------

TEST(CampaignEngineTest, FourCampaignsMatchFourStandaloneClusterers) {
  // Four campaigns over four *different* streams, advanced together with
  // sharded fits, must be bitwise-identical to four standalone
  // SnapshotSolver streams (same configs/seeds) solved one at a time.
  std::vector<Fixture> fixtures;
  for (uint64_t seed : {5, 6, 7, 8}) fixtures.push_back(MakeFixture(seed));

  // Standalone reference runs (serial kernels: this thread installs no
  // budget).
  std::vector<std::vector<TriClusterResult>> expected(fixtures.size());
  for (size_t i = 0; i < fixtures.size(); ++i) {
    const SnapshotSolver standalone(FastConfig(), fixtures[i].problem.sf0);
    StreamState state;
    for (const Snapshot& day : fixtures[i].days) {
      expected[i].push_back(standalone.Solve(
          fixtures[i].problem.builder.Build(fixtures[i].problem.dataset.corpus,
                                            day.tweet_ids, day.last_day),
          &state));
    }
  }

  serving::CampaignEngine::Options options;
  options.num_threads = 4;
  serving::CampaignEngine engine(options);
  for (size_t i = 0; i < fixtures.size(); ++i) {
    engine.AddCampaign("campaign-" + std::to_string(i), FastConfig(),
                       fixtures[i].problem.sf0, fixtures[i].problem.builder,
                       &fixtures[i].problem.dataset.corpus).ValueOrDie();
  }

  size_t max_days = 0;
  for (const Fixture& f : fixtures) {
    max_days = std::max(max_days, f.days.size());
  }
  for (size_t day = 0; day < max_days; ++day) {
    for (size_t i = 0; i < fixtures.size(); ++i) {
      if (day < fixtures[i].days.size()) {
        engine.Ingest(i, fixtures[i].days[day].tweet_ids,
                      static_cast<int>(day));
      }
    }
    serving::AdvanceOptions advance;
    advance.include_idle = true;
    const auto reports = engine.Advance(advance);
    ASSERT_EQ(reports.size(), fixtures.size());
    for (const auto& report : reports) {
      ASSERT_TRUE(report.fitted);
      ASSERT_LT(day, expected[report.campaign].size());
      ExpectSameFactors(report.result, expected[report.campaign][day],
                        "campaign " + std::to_string(report.campaign) +
                            " day " + std::to_string(day));
    }
  }
  for (size_t i = 0; i < fixtures.size(); ++i) {
    EXPECT_EQ(engine.state(i).timestep,
              static_cast<int>(fixtures[i].days.size()));
  }
}

/// Streams a small fleet through one engine under the given thread options
/// and returns every fitted result in report order. Campaign 1 only gets
/// data on day 0, so later days advance a single pending campaign — the
/// budget-split path where one fit gets the whole pool.
std::vector<TriClusterResult> RunBudgetFleet(int num_threads,
                                             size_t num_campaigns = 2) {
  std::vector<Fixture> fixtures;
  for (size_t i = 0; i < num_campaigns; ++i) {
    fixtures.push_back(MakeFixture(5 + 4 * i));
  }
  serving::CampaignEngine::Options options;
  options.num_threads = num_threads;
  serving::CampaignEngine engine(options);
  for (size_t i = 0; i < fixtures.size(); ++i) {
    engine.AddCampaign("c" + std::to_string(i), FastConfig(),
                       fixtures[i].problem.sf0, fixtures[i].problem.builder,
                       &fixtures[i].problem.dataset.corpus).ValueOrDie();
  }
  std::vector<TriClusterResult> results;
  for (size_t day = 0; day < 3; ++day) {
    engine.Ingest(0, fixtures[0].days[day].tweet_ids, static_cast<int>(day));
    if (day == 0) {
      for (size_t i = 1; i < fixtures.size(); ++i) {
        engine.Ingest(i, fixtures[i].days[0].tweet_ids, 0);
      }
    }
    for (auto& report : engine.Advance()) {
      results.push_back(std::move(report.result));
    }
  }
  return results;
}

TEST(CampaignEngineTest, ResultsIndependentOfEngineThreadBudget) {
  // The same fleet advanced with 1 thread and with 4 threads (and with a
  // sibling count that exercises the inline single-fit path) must agree
  // bitwise.
  const auto serial = RunBudgetFleet(1);
  const auto sharded = RunBudgetFleet(4);
  ASSERT_EQ(serial.size(), sharded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameFactors(sharded[i], serial[i], "result " + std::to_string(i));
  }
}

TEST(CampaignEngineTest, ResultsIndependentOfPerFitBudgetSplit) {
  // Engine-vs-engine bitwise equality across the budget-split shapes the
  // hierarchical scheduler produces: serial baseline; 1×N (2 fits
  // splitting 8 threads, and a lone pending fit taking the whole pool on
  // days 1–2); and an uneven split with remainder spill (3 fits over 4
  // threads → {2, 1, 1}). The kernels are width-invariant, so all must
  // agree bitwise.
  const auto reference = RunBudgetFleet(1);
  const auto split = RunBudgetFleet(8);
  ASSERT_EQ(split.size(), reference.size());
  for (size_t i = 0; i < split.size(); ++i) {
    ExpectSameFactors(split[i], reference[i],
                      "threads 8 result " + std::to_string(i));
  }

  // Uneven remainder spill needs 3 campaigns: 4 threads → budgets {2,1,1}.
  const auto uneven_reference = RunBudgetFleet(1, 3);
  const auto uneven = RunBudgetFleet(4, 3);
  ASSERT_EQ(uneven.size(), uneven_reference.size());
  for (size_t i = 0; i < uneven.size(); ++i) {
    ExpectSameFactors(uneven[i], uneven_reference[i],
                      "uneven result " + std::to_string(i));
  }
}

TEST(CampaignEngineTest, ZeroThreadsMeansHardwareConcurrency) {
  // EngineOptions::num_threads = 0 is documented as "use hardware
  // concurrency": pin the resolution, and that the resolved pool still
  // yields bit-identical results.
  serving::CampaignEngine::Options options;
  options.num_threads = 0;
  serving::CampaignEngine engine(options);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(engine.effective_num_threads(),
            hw > 0 ? static_cast<int>(hw) : 1);

  serving::CampaignEngine::Options explicit_options;
  explicit_options.num_threads = 3;
  EXPECT_EQ(serving::CampaignEngine(explicit_options).effective_num_threads(),
            3);

  const auto reference = RunBudgetFleet(1);
  const auto automatic = RunBudgetFleet(0);
  ASSERT_EQ(automatic.size(), reference.size());
  for (size_t i = 0; i < automatic.size(); ++i) {
    ExpectSameFactors(automatic[i], reference[i],
                      "auto-threads result " + std::to_string(i));
  }
}

TEST(CampaignEngineTest, DeadlineDefersFitsAndQueueSurvives) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), f.problem.sf0, f.problem.builder,
                     &f.problem.dataset.corpus).ValueOrDie();

  engine.Ingest(0, f.days[0].tweet_ids, 0);
  const size_t pending = engine.num_pending(0);
  ASSERT_GT(pending, 0u);

  // An (effectively) already-expired deadline defers every fit.
  serving::AdvanceOptions expired;
  expired.deadline_ms = 1e-9;
  const auto deferred = engine.Advance(expired);
  ASSERT_EQ(deferred.size(), 1u);
  EXPECT_FALSE(deferred[0].fitted);
  EXPECT_EQ(engine.num_pending(0), pending);
  EXPECT_EQ(engine.state(0).timestep, 0);

  // More tweets accumulate into the same snapshot; the eventual fit sees
  // the batched ingest exactly as a single larger Ingest would.
  engine.Ingest(0, f.days[1].tweet_ids, 1);
  const auto reports = engine.Advance();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].fitted);
  EXPECT_EQ(reports[0].data.num_tweets(),
            f.days[0].tweet_ids.size() + f.days[1].tweet_ids.size());
  EXPECT_EQ(engine.num_pending(0), 0u);
  EXPECT_EQ(engine.state(0).timestep, 1);
}

// --- CampaignStore -----------------------------------------------------------

/// TempDir() persists across test runs; scrub any prior generation so the
/// store starts from a clean slate.
std::string TempStoreDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::remove((dir + "/MANIFEST").c_str());
  for (int i = 0; i < 16; ++i) {
    for (int gen = 1; gen <= 8; ++gen) {
      std::remove((dir + "/campaign_" + std::to_string(i) + ".g" +
                   std::to_string(gen) + ".ckpt")
                      .c_str());
    }
  }
  return dir;
}

TEST(CampaignStoreTest, SaveRestoreRoundTripContinuesBitIdentically) {
  std::vector<Fixture> fixtures;
  for (uint64_t seed : {5, 6}) fixtures.push_back(MakeFixture(seed));

  auto make_engine = [&](serving::CampaignEngine* engine) {
    for (size_t i = 0; i < fixtures.size(); ++i) {
      engine->AddCampaign("campaign-" + std::to_string(i), FastConfig(),
                          fixtures[i].problem.sf0,
                          fixtures[i].problem.builder,
                          &fixtures[i].problem.dataset.corpus).ValueOrDie();
    }
  };
  auto ingest_day = [&](serving::CampaignEngine* engine, size_t day) {
    for (size_t i = 0; i < fixtures.size(); ++i) {
      engine->Ingest(i, fixtures[i].days[day].tweet_ids,
                     static_cast<int>(day));
    }
  };

  serving::CampaignEngine original;
  make_engine(&original);
  for (size_t day = 0; day < 3; ++day) {
    ingest_day(&original, day);
    original.Advance();
  }

  const serving::CampaignStore store(TempStoreDir("round_trip_store"));
  ASSERT_FALSE(store.HasManifest());
  ASSERT_TRUE(store.Save(original).ok());
  ASSERT_TRUE(store.HasManifest());

  serving::CampaignEngine restored;
  make_engine(&restored);
  ASSERT_TRUE(store.Restore(&restored).ok());
  for (size_t i = 0; i < fixtures.size(); ++i) {
    EXPECT_EQ(restored.state(i).timestep, 3);
  }

  // Both engines continue the streams; they must stay in lockstep.
  for (size_t day = 3; day < 5; ++day) {
    ingest_day(&original, day);
    ingest_day(&restored, day);
    const auto expected = original.Advance();
    const auto got = restored.Advance();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t r = 0; r < got.size(); ++r) {
      ExpectSameFactors(got[r].result, expected[r].result,
                        "day " + std::to_string(day));
    }
  }
}

TEST(CampaignStoreTest, RepeatedSavesAdvanceGenerationsAndReclaimOld) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), f.problem.sf0, f.problem.builder,
                     &f.problem.dataset.corpus).ValueOrDie();
  const std::string dir = TempStoreDir("generation_store");
  const serving::CampaignStore store(dir);

  engine.Ingest(0, f.days[0].tweet_ids, 0);
  engine.Advance();
  ASSERT_TRUE(store.Save(engine).ok());
  EXPECT_TRUE(PathExists(dir + "/campaign_0.g1.ckpt"));

  // Orphans from a hypothetical crashed save: a committed-but-superseded
  // checkpoint of another generation and a dead writer's temp file.
  { std::ofstream orphan(dir + "/campaign_7.g9.ckpt"); orphan << "stale"; }
  {
    std::ofstream temp(dir + "/campaign_3.g9.ckpt.tmp.99999");
    temp << "stale";
  }

  // A second Save commits a new generation and reclaims every checkpoint
  // file the new manifest does not reference (old generations + orphans);
  // the new generation's state wins on Restore.
  engine.Ingest(0, f.days[1].tweet_ids, 1);
  engine.Advance();
  ASSERT_TRUE(store.Save(engine).ok());
  EXPECT_TRUE(PathExists(dir + "/campaign_0.g2.ckpt"));
  EXPECT_FALSE(PathExists(dir + "/campaign_0.g1.ckpt"));
  EXPECT_FALSE(PathExists(dir + "/campaign_7.g9.ckpt"));
  EXPECT_FALSE(PathExists(dir + "/campaign_3.g9.ckpt.tmp.99999"));

  serving::CampaignEngine restored;
  restored.AddCampaign("c0", FastConfig(), f.problem.sf0, f.problem.builder,
                       &f.problem.dataset.corpus).ValueOrDie();
  ASSERT_TRUE(store.Restore(&restored).ok());
  EXPECT_EQ(restored.state(0).timestep, 2);
}

TEST(CampaignStoreTest, RestoreRejectsUnregisteredCampaign) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine engine;
  engine.AddCampaign("known", FastConfig(), f.problem.sf0, f.problem.builder,
                     &f.problem.dataset.corpus).ValueOrDie();
  engine.Ingest(0, f.days[0].tweet_ids, 0);
  engine.Advance();

  const serving::CampaignStore store(TempStoreDir("unregistered_store"));
  ASSERT_TRUE(store.Save(engine).ok());

  serving::CampaignEngine other;
  other.AddCampaign("different-name", FastConfig(), f.problem.sf0,
                    f.problem.builder, &f.problem.dataset.corpus).ValueOrDie();
  const Status status = store.Restore(&other);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(CampaignStoreTest, RestoreFailsCleanlyWithoutManifest) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), f.problem.sf0, f.problem.builder,
                     &f.problem.dataset.corpus).ValueOrDie();
  const serving::CampaignStore store(TempStoreDir("missing_store"));
  EXPECT_FALSE(store.HasManifest());
  EXPECT_EQ(store.Restore(&engine).code(), StatusCode::kIoError);
}

// --- atomic persistence ------------------------------------------------------

TEST(AtomicWriteTest, WriterErrorLeavesPreviousContentsIntact) {
  const std::string path = ::testing::TempDir() + "/atomic_write_probe";
  ASSERT_TRUE(AtomicWriteFile(path, [](std::ostream* os) {
                *os << "generation 1";
                return Status::OK();
              }).ok());

  const Status failed = AtomicWriteFile(path, [](std::ostream* os) {
    *os << "half-written generation 2";
    return Status::IoError("simulated crash mid-write");
  });
  EXPECT_FALSE(failed.ok());
  // Temp (pid-unique name) cleaned up.
  EXPECT_FALSE(PathExists(path + ".tmp." + std::to_string(getpid())));

  std::ifstream in(path);
  std::string contents;
  std::getline(in, contents);
  EXPECT_EQ(contents, "generation 1");
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, SaveStateIsAtomicAndLeavesNoTemp) {
  const Fixture f = MakeFixture(5);
  const SnapshotSolver solver(FastConfig(), f.problem.sf0);
  StreamState state;
  solver.Solve(f.problem.builder.Build(f.problem.dataset.corpus,
                                       f.days[0].tweet_ids, 0),
               &state);
  // A stream-state checkpoint as the campaign store writes one.
  const auto save = [&state](const std::string& path) {
    return AtomicWriteFileChecksummed(
        GetDefaultFileSystem(), path,
        [&state](std::ostream* os) { return state.Write(os); });
  };

  const std::string path = ::testing::TempDir() + "/atomic_state.ckpt";
  const std::string temp = path + ".tmp." + std::to_string(getpid());
  ASSERT_TRUE(save(path).ok());
  EXPECT_FALSE(PathExists(temp));

  // Overwriting an existing checkpoint goes through the same temp+rename.
  solver.Solve(f.problem.builder.Build(f.problem.dataset.corpus,
                                       f.days[1].tweet_ids, 1),
               &state);
  ASSERT_TRUE(save(path).ok());
  EXPECT_FALSE(PathExists(temp));

  // The file holds the second state behind a trailer that verifies.
  Result<std::string> contents =
      GetDefaultFileSystem()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  const Result<std::string> payload =
      VerifyChecksummedPayload(std::move(contents).value(), path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  std::istringstream in(payload.value());
  const Result<StreamState> restored = StreamState::Read(
      &in, f.problem.sf0.rows(), f.problem.sf0.cols());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().timestep, 2);
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, CreateDirectoriesIsIdempotent) {
  const std::string dir = ::testing::TempDir() + "/nested/store/dir";
  ASSERT_TRUE(CreateDirectories(dir).ok());
  ASSERT_TRUE(CreateDirectories(dir).ok());
  EXPECT_TRUE(PathExists(dir));
}

// --- registration validation -------------------------------------------------

TEST(CampaignEngineTest, AddCampaignRejectsBadAdminInputWithoutAborting) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine engine;
  const auto add = [&](const std::string& name) {
    return engine.AddCampaign(name, FastConfig(), f.problem.sf0,
                              f.problem.builder, &f.problem.dataset.corpus);
  };

  const Result<size_t> good = add("good-name");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value(), 0u);

  EXPECT_EQ(add("").status().code(), StatusCode::kInvalidArgument);
  // Control characters would corrupt the store's line-oriented manifest.
  EXPECT_EQ(add("two\nlines").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(add("tab\there").status().code(), StatusCode::kInvalidArgument);
  // A leading space would be eaten by the manifest parser's field split.
  EXPECT_EQ(add(" padded").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(add("good-name").status().code(), StatusCode::kAlreadyExists);
  // Interior spaces are fine — the manifest keeps the name to end-of-line.
  EXPECT_TRUE(add("two words").ok());

  const DenseMatrix wrong_rows(f.problem.sf0.rows() + 1,
                               f.problem.sf0.cols(), 0.1);
  const Result<size_t> mismatched =
      engine.AddCampaign("mismatched", FastConfig(), wrong_rows,
                         f.problem.builder, &f.problem.dataset.corpus);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // An unfitted builder has an empty vocabulary, so a 0-row prior passes the
  // shape check; the first Ingest or Advance would then abort in it.
  const Result<size_t> unfitted =
      engine.AddCampaign("unfitted", FastConfig(), DenseMatrix(0, 3),
                         MatrixBuilder(), &f.problem.dataset.corpus);
  EXPECT_EQ(unfitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unfitted.status().message().find("never fit"), std::string::npos)
      << unfitted.status().ToString();

  // Configs the solver cannot run are rejected too, rather than aborting in
  // SnapshotSolver's constructor.
  const auto add_config = [&](const std::string& name, OnlineConfig config,
                              const DenseMatrix& sf0) {
    return engine.AddCampaign(name, config, sf0, f.problem.builder,
                              &f.problem.dataset.corpus);
  };
  OnlineConfig zero_tau = FastConfig();
  zero_tau.tau = 0.0;
  const Result<size_t> bad_tau = add_config("bad-tau", zero_tau, f.problem.sf0);
  EXPECT_EQ(bad_tau.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_tau.status().message().find("tau"), std::string::npos)
      << bad_tau.status().ToString();
  const DenseMatrix wrong_cols(f.problem.sf0.rows(),
                               f.problem.sf0.cols() + 1, 0.1);
  EXPECT_EQ(add_config("bad-cols", FastConfig(), wrong_cols).status().code(),
            StatusCode::kInvalidArgument);
  OnlineConfig no_iterations = FastConfig();
  no_iterations.base.max_iterations = 0;
  EXPECT_EQ(
      add_config("bad-iters", no_iterations, f.problem.sf0).status().code(),
      StatusCode::kInvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  OnlineConfig nan_epsilon = FastConfig();
  nan_epsilon.base.epsilon = nan;
  OnlineConfig nan_tolerance = FastConfig();
  nan_tolerance.base.tolerance = nan;
  OnlineConfig nan_sparsity = FastConfig();
  nan_sparsity.base.sparsity = nan;
  EXPECT_EQ(
      add_config("nan-epsilon", nan_epsilon, f.problem.sf0).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      add_config("nan-tolerance", nan_tolerance, f.problem.sf0).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      add_config("nan-sparsity", nan_sparsity, f.problem.sf0).status().code(),
      StatusCode::kInvalidArgument);

  // Rejected registrations left no residue.
  EXPECT_EQ(engine.num_campaigns(), 2u);
  EXPECT_EQ(engine.FindCampaign("good-name"), 0);
  EXPECT_EQ(engine.FindCampaign("two words"), 1);
  EXPECT_EQ(engine.FindCampaign("mismatched"), -1);
  EXPECT_EQ(engine.FindCampaign("bad-tau"), -1);
  EXPECT_EQ(engine.FindCampaign("bad-cols"), -1);
  EXPECT_EQ(engine.FindCampaign("bad-iters"), -1);
  EXPECT_EQ(engine.FindCampaign("nan-epsilon"), -1);
  EXPECT_EQ(engine.FindCampaign("nan-tolerance"), -1);
  EXPECT_EQ(engine.FindCampaign("nan-sparsity"), -1);
  EXPECT_EQ(engine.FindCampaign("unfitted"), -1);
  // The engine still advances: every campaign it holds has a feature space.
  serving::AdvanceOptions idle;
  idle.include_idle = true;
  EXPECT_EQ(engine.Advance(idle).size(), 2u);
}

// --- graceful degradation ----------------------------------------------------

/// Replaces the campaign's state with a NaN-poisoned copy (every recorded
/// factor becomes non-finite), the injection point for fit-failure tests.
void PoisonState(serving::CampaignEngine* engine, size_t campaign) {
  StreamState poisoned = engine->state(campaign);
  ASSERT_FALSE(poisoned.sf_history.empty())
      << "poisoning needs at least one advanced day";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (DenseMatrix& sf : poisoned.sf_history) sf.Fill(nan);
  for (auto& [user, rows] : poisoned.user_history) {
    for (std::vector<double>& row : rows) {
      std::fill(row.begin(), row.end(), nan);
    }
  }
  engine->set_state(campaign, std::move(poisoned));
}

TEST(CampaignHealthTest, PoisonedCampaignDegradesQuarantinesAndRevives) {
  // Two campaigns; campaign 0 gets poisoned, campaign 1 must stay
  // bit-identical to a solo reference run throughout (per-campaign blast
  // radius).
  std::vector<Fixture> fixtures;
  for (uint64_t seed : {5, 6}) fixtures.push_back(MakeFixture(seed));

  serving::CampaignEngine reference;
  reference.AddCampaign("sibling", FastConfig(), fixtures[1].problem.sf0,
                        fixtures[1].problem.builder,
                        &fixtures[1].problem.dataset.corpus).ValueOrDie();

  serving::CampaignEngine engine;  // quarantine_after_failures = 3 default
  engine.AddCampaign("victim", FastConfig(), fixtures[0].problem.sf0,
                     fixtures[0].problem.builder,
                     &fixtures[0].problem.dataset.corpus).ValueOrDie();
  engine.AddCampaign("sibling", FastConfig(), fixtures[1].problem.sf0,
                     fixtures[1].problem.builder,
                     &fixtures[1].problem.dataset.corpus).ValueOrDie();

  const auto ingest_day = [&](size_t day) {
    engine.Ingest(0, fixtures[0].days[day].tweet_ids, static_cast<int>(day));
    engine.Ingest(1, fixtures[1].days[day].tweet_ids, static_cast<int>(day));
    reference.Ingest(0, fixtures[1].days[day].tweet_ids,
                     static_cast<int>(day));
  };
  const auto expect_sibling_matches = [&](size_t day) {
    const auto expected = reference.Advance();
    ASSERT_EQ(expected.size(), 1u);
    const auto reports = engine.Advance();
    bool sibling_seen = false;
    for (const auto& report : reports) {
      if (engine.name(report.campaign) != "sibling") continue;
      sibling_seen = true;
      EXPECT_TRUE(report.fitted);
      ExpectSameFactors(report.result, expected[0].result,
                        "sibling day " + std::to_string(day));
    }
    EXPECT_TRUE(sibling_seen) << "day " << day;
  };

  // Day 0: both healthy.
  ingest_day(0);
  expect_sibling_matches(0);
  EXPECT_EQ(engine.health(0), serving::CampaignHealth::kHealthy);
  EXPECT_TRUE(engine.HealthReport().AllHealthy());

  // Poison the victim; three consecutive failed fits quarantine it, and
  // every failure rolls its state back untouched.
  PoisonState(&engine, 0);
  const std::string poisoned_bytes = StateBytes(engine.state(0));
  for (int round = 1; round <= 3; ++round) {
    ingest_day(static_cast<size_t>(round));
    const auto expected = reference.Advance();
    ASSERT_EQ(expected.size(), 1u);
    const auto reports = engine.Advance();
    bool victim_seen = false;
    for (const auto& report : reports) {
      if (engine.name(report.campaign) == "sibling") {
        ExpectSameFactors(report.result, expected[0].result,
                          "sibling round " + std::to_string(round));
        continue;
      }
      victim_seen = true;
      EXPECT_FALSE(report.fitted);
      EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
      EXPECT_NE(report.status.message().find("non-finite"),
                std::string::npos);
    }
    if (round < 3) {
      EXPECT_TRUE(victim_seen);
      EXPECT_EQ(engine.health(0), serving::CampaignHealth::kDegraded);
    } else {
      EXPECT_EQ(engine.health(0), serving::CampaignHealth::kQuarantined);
    }
    // Rollback: the failed fit never advanced the victim's state.
    EXPECT_EQ(StateBytes(engine.state(0)), poisoned_bytes)
        << "round " << round;
    EXPECT_EQ(engine.last_error(0).code(), StatusCode::kFailedPrecondition);
  }

  const serving::EngineHealthReport mid = engine.HealthReport();
  EXPECT_EQ(mid.healthy, 1u);
  EXPECT_EQ(mid.quarantined, 1u);
  EXPECT_EQ(mid.campaigns[0].consecutive_failures, 3);
  EXPECT_FALSE(mid.campaigns[0].last_error.ok());
  EXPECT_FALSE(mid.AllHealthy());

  // Quarantined: Advance() skips the victim entirely; its queue grows.
  ingest_day(4);
  expect_sibling_matches(4);
  EXPECT_GT(engine.num_pending(0), 0u);
  EXPECT_EQ(engine.state(0).timestep, 1);  // never advanced past day 0

  // Recovery: replace the poisoned state with a clean one and revive. The
  // accumulated queue fits on the next Advance and health returns to
  // kHealthy (last_error stays on record).
  StreamState clean;
  {
    // Rebuild the victim's day-0 state with a standalone solver.
    const SnapshotSolver rebuild(FastConfig(), fixtures[0].problem.sf0);
    rebuild.Solve(fixtures[0].problem.builder.Build(
                      fixtures[0].problem.dataset.corpus,
                      fixtures[0].days[0].tweet_ids, 0),
                  &clean);
  }
  engine.set_state(0, std::move(clean));
  engine.ReviveCampaign(0);
  EXPECT_EQ(engine.health(0), serving::CampaignHealth::kHealthy);
  EXPECT_FALSE(engine.last_error(0).ok());  // kept for the record

  ingest_day(5);
  const auto reports = engine.Advance();
  bool victim_fitted = false;
  for (const auto& report : reports) {
    if (engine.name(report.campaign) != "sibling") {
      victim_fitted = report.fitted;
      EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    }
  }
  EXPECT_TRUE(victim_fitted);
  EXPECT_EQ(engine.health(0), serving::CampaignHealth::kHealthy);
  EXPECT_EQ(engine.HealthReport().campaigns[0].consecutive_failures, 0);
}

TEST(CampaignHealthTest, QuarantineDisabledKeepsRetryingDegraded) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine::Options options;
  options.quarantine_after_failures = 0;  // never quarantine
  serving::CampaignEngine engine(options);
  engine.AddCampaign("c0", FastConfig(), f.problem.sf0, f.problem.builder,
                     &f.problem.dataset.corpus).ValueOrDie();
  engine.Ingest(0, f.days[0].tweet_ids, 0);
  engine.Advance();
  PoisonState(&engine, 0);

  for (int round = 0; round < 5; ++round) {
    engine.Ingest(0, f.days[1].tweet_ids, 1);
    const auto reports = engine.Advance();
    ASSERT_EQ(reports.size(), 1u);  // still scheduled every time
    EXPECT_FALSE(reports[0].fitted);
    EXPECT_EQ(engine.health(0), serving::CampaignHealth::kDegraded);
  }
  EXPECT_EQ(engine.HealthReport().campaigns[0].consecutive_failures, 5);
}

TEST(CampaignHealthTest, ManualQuarantineSkipsAdvanceUntilRevived) {
  Fixture f = MakeFixture(5);
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), f.problem.sf0, f.problem.builder,
                     &f.problem.dataset.corpus).ValueOrDie();
  engine.QuarantineCampaign(0, Status::Internal("operator pulled it"));
  EXPECT_EQ(engine.health(0), serving::CampaignHealth::kQuarantined);
  EXPECT_EQ(engine.last_error(0).code(), StatusCode::kInternal);

  engine.Ingest(0, f.days[0].tweet_ids, 0);
  EXPECT_TRUE(engine.Advance().empty());
  EXPECT_EQ(engine.num_pending(0), f.days[0].tweet_ids.size());

  engine.ReviveCampaign(0);
  const auto reports = engine.Advance();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].fitted);
  EXPECT_EQ(engine.state(0).timestep, 1);
}

}  // namespace
}  // namespace triclust
