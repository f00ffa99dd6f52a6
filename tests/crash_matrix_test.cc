// Crash and corruption recovery tests for the CampaignStore (the
// executable form of its durability contract):
//
//  - Crash matrix: simulate a power loss after the i-th filesystem
//    operation of a Save, for every i, and assert the directory always
//    restores to one *complete* fleet generation — the previous one or the
//    new one, bit-identically, never a mix.
//  - Flipped bytes: corrupt any byte of a checkpoint or the MANIFEST and
//    Restore must refuse with a checksum/trailer diagnostic.
//  - Torn tail: a checkpoint cut inside its last value still parses as a
//    stream state, so only the missing trailer refuses it; the engine keeps
//    its state.
//  - Partial recovery: RestorePartial quarantines only the campaign whose
//    checkpoint is bad; the rest of the fleet restores and keeps serving.
//  - Missing checkpoint: the diagnostic names the file, the manifest, and
//    the generation.
//  - Format 1: a hand-written trailer-less format-1 store is refused, and
//    neither Restore nor Save touches its files.

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/stream_state.h"
#include "src/data/snapshots.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/campaign_store.h"
#include "src/util/fs.h"
#include "src/util/retry.h"
#include "src/util/status.h"
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

struct Fixture {
  SmallProblem problem;
  std::vector<Snapshot> days;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f{MakeSmallProblem(seed), {}};
  f.days = SplitByDay(f.problem.dataset.corpus);
  return f;
}

/// A per-test directory under TempDir(), wiped of any previous contents
/// (TempDir persists across runs).
std::string FreshDir(const std::string& name) {
  FileSystem* fs = GetDefaultFileSystem();
  const std::string dir = ::testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    const Result<std::vector<std::string>> listing = fs->ListDirectory(dir);
    if (listing.ok()) {
      for (const std::string& entry : listing.value()) {
        // Deliberate discard: best-effort scratch-dir cleanup; a leftover
        // file only wastes temp space.
        (void)fs->Remove(dir + "/" + entry);
      }
    }
  }
  return dir;
}

std::string StateBytes(const StreamState& state) {
  std::ostringstream os;
  EXPECT_TRUE(state.Write(&os).ok());
  return os.str();
}

/// The fleet harness shared by the tests: campaigns over independent
/// synthetic streams, with helpers to register engines, drive days, and
/// snapshot every campaign's serialized state.
class FleetHarness {
 public:
  explicit FleetHarness(size_t num_campaigns) {
    for (size_t i = 0; i < num_campaigns; ++i) {
      fixtures_.push_back(MakeFixture(5 + i));
    }
  }

  size_t size() const { return fixtures_.size(); }

  void Register(serving::CampaignEngine* engine) const {
    for (size_t i = 0; i < fixtures_.size(); ++i) {
      const Result<size_t> id = engine->AddCampaign(
          "campaign-" + std::to_string(i), FastConfig(),
          fixtures_[i].problem.sf0, fixtures_[i].problem.builder,
          &fixtures_[i].problem.dataset.corpus);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
  }

  void IngestDay(serving::CampaignEngine* engine, size_t day) const {
    for (size_t i = 0; i < fixtures_.size(); ++i) {
      if (day < fixtures_[i].days.size()) {
        engine->Ingest(i, fixtures_[i].days[day].tweet_ids,
                       fixtures_[i].days[day].last_day);
      }
    }
  }

  std::vector<std::string> FleetBytes(
      const serving::CampaignEngine& engine) const {
    std::vector<std::string> bytes;
    for (size_t i = 0; i < fixtures_.size(); ++i) {
      bytes.push_back(StateBytes(engine.state(i)));
    }
    return bytes;
  }

 private:
  std::vector<Fixture> fixtures_;
};

// --- the crash matrix --------------------------------------------------------

TEST(CrashMatrixTest, EveryCrashPointRestoresOneCompleteGeneration) {
  FleetHarness fleet(2);

  // Fleet A: two advanced days. Fleet B: one more. The crash interrupts
  // the Save that replaces generation A with generation B.
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  std::vector<StreamState> states_a;
  std::vector<StreamState> states_b;
  for (size_t day = 0; day < 2; ++day) {
    fleet.IngestDay(&engine, day);
    engine.Advance();
  }
  for (size_t i = 0; i < fleet.size(); ++i) states_a.push_back(engine.state(i));
  const std::vector<std::string> bytes_a = fleet.FleetBytes(engine);
  fleet.IngestDay(&engine, 2);
  engine.Advance();
  for (size_t i = 0; i < fleet.size(); ++i) states_b.push_back(engine.state(i));
  const std::vector<std::string> bytes_b = fleet.FleetBytes(engine);
  ASSERT_NE(bytes_a, bytes_b);

  const std::string dir = FreshDir("crash_matrix_store");
  serving::CampaignEngine recovered;
  fleet.Register(&recovered);

  bool save_ran_clean = false;
  for (int crash_op = 0; !save_ran_clean; ++crash_op) {
    ASSERT_LT(crash_op, 64) << "crash op never exhausted the Save sequence";
    FreshDir("crash_matrix_store");

    // Commit generation 1 = fleet A through a clean filesystem.
    serving::CampaignStore clean_store(dir);
    for (size_t i = 0; i < fleet.size(); ++i) {
      engine.set_state(i, StreamState(states_a[i]));
    }
    ASSERT_TRUE(clean_store.Save(engine).ok());

    // Attempt generation 2 = fleet B, losing power after `crash_op`
    // filesystem operations. Retries are disabled so the op numbering is
    // the deterministic single-pass Save sequence.
    FaultInjectionFileSystem fault_fs(GetDefaultFileSystem());
    serving::StoreOptions faulty;
    faulty.fs = &fault_fs;
    faulty.retry.max_attempts = 1;
    const serving::CampaignStore faulty_store(dir, faulty);
    fault_fs.CrashAt(crash_op);
    for (size_t i = 0; i < fleet.size(); ++i) {
      engine.set_state(i, StreamState(states_b[i]));
    }
    const Status save_status = faulty_store.Save(engine);
    save_ran_clean = fault_fs.injected_failures() == 0;
    if (save_ran_clean) {
      ASSERT_TRUE(save_status.ok()) << save_status.ToString();
    }

    // Power back on: recover with a clean filesystem. The directory must
    // describe exactly one complete generation.
    for (size_t i = 0; i < fleet.size(); ++i) {
      recovered.set_state(i, StreamState());
    }
    const Status restore_status = clean_store.Restore(&recovered);
    ASSERT_TRUE(restore_status.ok())
        << "crash after op " << crash_op << ": " << restore_status.ToString();
    const std::vector<std::string> recovered_bytes =
        fleet.FleetBytes(recovered);
    const bool is_a = recovered_bytes == bytes_a;
    const bool is_b = recovered_bytes == bytes_b;
    EXPECT_TRUE(is_a || is_b)
        << "crash after op " << crash_op
        << " recovered a mixed or torn generation";
    if (save_ran_clean) {
      EXPECT_TRUE(is_b) << "completed save must commit the new generation";
    }
  }
}

// --- flipped bytes -----------------------------------------------------------

/// Overwrites `path` with `contents`, bypassing AtomicWriteFile (this is
/// the corruption, not a checkpoint write).
void ClobberFile(const std::string& path, const std::string& contents) {
  FileSystem* fs = GetDefaultFileSystem();
  Result<std::unique_ptr<WritableFile>> file = fs->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append(contents).ok());
  ASSERT_TRUE(file.value()->Close().ok());
}

TEST(CorruptionTest, AnyFlippedManifestByteFailsRestore) {
  FleetHarness fleet(1);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  fleet.IngestDay(&engine, 0);
  engine.Advance();

  const std::string dir = FreshDir("flip_manifest_store");
  const serving::CampaignStore store(dir);
  ASSERT_TRUE(store.Save(engine).ok());
  const std::string manifest_path = dir + "/MANIFEST";
  const Result<std::string> pristine =
      GetDefaultFileSystem()->ReadFileToString(manifest_path);
  ASSERT_TRUE(pristine.ok());

  serving::CampaignEngine target;
  fleet.Register(&target);
  for (size_t byte = 0; byte < pristine.value().size(); ++byte) {
    std::string corrupt = pristine.value();
    corrupt[byte] ^= 0x01;
    ClobberFile(manifest_path, corrupt);
    EXPECT_FALSE(store.Restore(&target).ok()) << "flip at byte " << byte;
  }
  ClobberFile(manifest_path, pristine.value());
  EXPECT_TRUE(store.Restore(&target).ok());
}

TEST(CorruptionTest, FlippedCheckpointBytesFailRestoreWithDiagnostic) {
  FleetHarness fleet(1);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  fleet.IngestDay(&engine, 0);
  engine.Advance();

  const std::string dir = FreshDir("flip_ckpt_store");
  const serving::CampaignStore store(dir);
  ASSERT_TRUE(store.Save(engine).ok());
  const std::string ckpt_path = dir + "/campaign_0.g1.ckpt";
  const Result<std::string> pristine =
      GetDefaultFileSystem()->ReadFileToString(ckpt_path);
  ASSERT_TRUE(pristine.ok());

  serving::CampaignEngine target;
  fleet.Register(&target);
  // Every offset is equivalent for CRC-32 (see Crc32Test single-bit
  // coverage); stride through the checkpoint to keep the test fast while
  // still hitting header, payload, and trailer regions.
  const size_t stride = std::max<size_t>(1, pristine.value().size() / 97);
  for (size_t byte = 0; byte < pristine.value().size(); byte += stride) {
    std::string corrupt = pristine.value();
    corrupt[byte] ^= 0x01;
    ClobberFile(ckpt_path, corrupt);
    const Status status = store.Restore(&target);
    EXPECT_FALSE(status.ok()) << "flip at byte " << byte;
    EXPECT_NE(status.message().find(ckpt_path), std::string::npos)
        << "diagnostic must name the file: " << status.ToString();
  }
  // Truncation (losing the trailer entirely) is also refused: a format-2
  // store never has trailer-less checkpoints.
  ClobberFile(ckpt_path, pristine.value().substr(0, 10));
  EXPECT_FALSE(store.Restore(&target).ok());
}

TEST(CorruptionTest, CheckpointTornInsideLastValueFailsRestore) {
  FleetHarness fleet(1);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  for (size_t day = 0; day < 2; ++day) {
    fleet.IngestDay(&engine, day);
    engine.Advance();
  }

  const std::string dir = FreshDir("torn_ckpt_store");
  const serving::CampaignStore store(dir);
  ASSERT_TRUE(store.Save(engine).ok());
  const std::string ckpt_path = dir + "/campaign_0.g1.ckpt";
  const Result<std::string> saved =
      GetDefaultFileSystem()->ReadFileToString(ckpt_path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  // Tear the file inside its last value: drop the trailer line, the
  // payload's final newline and the last 6 digits. What is left still
  // parses as a stream state, just with a different final value.
  std::string torn = saved.value();
  torn.resize(torn.rfind('\n', torn.size() - 2) - 6);
  {
    std::istringstream in(torn);
    const DenseMatrix& sf0 = engine.solver(0).sf0();
    ASSERT_TRUE(StreamState::Read(&in, sf0.rows(), sf0.cols()).ok());
  }
  ClobberFile(ckpt_path, torn);

  // An engine that already holds a stream keeps it when the restore fails.
  serving::CampaignEngine target;
  fleet.Register(&target);
  fleet.IngestDay(&target, 0);
  target.Advance();
  const std::vector<std::string> before = fleet.FleetBytes(target);

  const Status status = store.Restore(&target);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find(ckpt_path + ": no integrity trailer"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(fleet.FleetBytes(target), before);
  EXPECT_EQ(target.state(0).timestep, 1);
}

// --- partial recovery and quarantine -----------------------------------------

TEST(PartialRecoveryTest, CorruptCampaignIsQuarantinedFleetKeepsServing) {
  FleetHarness fleet(3);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  for (size_t day = 0; day < 2; ++day) {
    fleet.IngestDay(&engine, day);
    engine.Advance();
  }

  const std::string dir = FreshDir("partial_recovery_store");
  const serving::CampaignStore store(dir);
  ASSERT_TRUE(store.Save(engine).ok());

  // Flip one payload byte of campaign 1's checkpoint.
  const std::string victim_path = dir + "/campaign_1.g1.ckpt";
  Result<std::string> contents =
      GetDefaultFileSystem()->ReadFileToString(victim_path);
  ASSERT_TRUE(contents.ok());
  std::string corrupt = contents.value();
  corrupt[corrupt.size() / 2] ^= 0x01;
  ClobberFile(victim_path, corrupt);

  // Strict Restore refuses and leaves the engine untouched...
  serving::CampaignEngine strict;
  fleet.Register(&strict);
  ASSERT_FALSE(store.Restore(&strict).ok());
  for (size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(strict.state(i).timestep, 0);
    EXPECT_EQ(strict.health(i), serving::CampaignHealth::kHealthy);
  }

  // ...partial recovery restores the healthy majority and quarantines
  // exactly the corrupt campaign.
  serving::CampaignEngine partial;
  fleet.Register(&partial);
  serving::RestoreReport report;
  const Status status = store.RestorePartial(&partial, &report);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.generation, 1u);
  ASSERT_EQ(report.campaigns.size(), 3u);
  EXPECT_EQ(report.num_restored(), 2u);
  EXPECT_EQ(report.num_failed(), 1u);
  EXPECT_TRUE(report.campaigns[0].status.ok());
  EXPECT_FALSE(report.campaigns[1].status.ok());
  EXPECT_TRUE(report.campaigns[2].status.ok());
  EXPECT_NE(report.campaigns[1].status.message().find("checksum mismatch"),
            std::string::npos)
      << report.campaigns[1].status.ToString();

  EXPECT_EQ(partial.health(0), serving::CampaignHealth::kHealthy);
  EXPECT_EQ(partial.health(1), serving::CampaignHealth::kQuarantined);
  EXPECT_EQ(partial.health(2), serving::CampaignHealth::kHealthy);
  EXPECT_EQ(partial.state(0).timestep, 2);
  EXPECT_EQ(partial.state(1).timestep, 0);  // skipped, still fresh
  EXPECT_EQ(partial.state(2).timestep, 2);
  EXPECT_EQ(partial.last_error(1).code(), StatusCode::kParseError);

  // The fleet continues: the next day advances the healthy campaigns and
  // skips the quarantined one (its queue keeps accumulating).
  fleet.IngestDay(&partial, 2);
  const auto reports = partial.Advance();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) {
    EXPECT_NE(r.campaign, 1u);
    EXPECT_TRUE(r.fitted);
  }
  EXPECT_GT(partial.num_pending(1), 0u);
  const serving::EngineHealthReport health = partial.HealthReport();
  EXPECT_EQ(health.healthy, 2u);
  EXPECT_EQ(health.quarantined, 1u);
  EXPECT_FALSE(health.AllHealthy());
}

TEST(PartialRecoveryTest, MissingCheckpointDiagnosticNamesGeneration) {
  FleetHarness fleet(2);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  fleet.IngestDay(&engine, 0);
  engine.Advance();

  const std::string dir = FreshDir("missing_ckpt_store");
  const serving::CampaignStore store(dir);
  ASSERT_TRUE(store.Save(engine).ok());
  const std::string missing_path = dir + "/campaign_1.g1.ckpt";
  ASSERT_TRUE(GetDefaultFileSystem()->Remove(missing_path).ok());

  serving::CampaignEngine strict;
  fleet.Register(&strict);
  const Status status = store.Restore(&strict);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(),
            missing_path + ": referenced by manifest (generation 1) but "
                           "absent");

  serving::CampaignEngine partial;
  fleet.Register(&partial);
  serving::RestoreReport report;
  ASSERT_TRUE(store.RestorePartial(&partial, &report).ok());
  EXPECT_EQ(report.num_failed(), 1u);
  EXPECT_EQ(partial.health(1), serving::CampaignHealth::kQuarantined);
  EXPECT_EQ(partial.last_error(1).code(), StatusCode::kNotFound);
}

TEST(PartialRecoveryTest, UnregisteredStoredCampaignFailsEvenPartially) {
  FleetHarness fleet(1);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  fleet.IngestDay(&engine, 0);
  engine.Advance();

  const std::string dir = FreshDir("unregistered_store");
  const serving::CampaignStore store(dir);
  ASSERT_TRUE(store.Save(engine).ok());

  serving::CampaignEngine empty;  // no campaigns registered
  serving::RestoreReport report;
  const Status status = store.RestorePartial(&empty, &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("not registered"), std::string::npos);
}

// --- transient I/O and retry -------------------------------------------------

TEST(StoreRetryTest, SaveSurvivesTransientFailuresViaRetryPolicy) {
  FleetHarness fleet(1);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  fleet.IngestDay(&engine, 0);
  engine.Advance();

  const std::string dir = FreshDir("retry_store");
  FaultInjectionFileSystem fault_fs(GetDefaultFileSystem());
  std::vector<double> slept;
  serving::StoreOptions options;
  options.fs = &fault_fs;
  options.retry.max_attempts = 3;
  options.sleeper = [&slept](double ms) { slept.push_back(ms); };
  const serving::CampaignStore store(dir, options);

  fault_fs.SetTransientFailures(2);
  const Status status = store.Save(engine);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fault_fs.injected_failures(), 2);
  EXPECT_GE(slept.size(), 1u);  // the injected sleeper absorbed the waits

  serving::CampaignEngine restored;
  fleet.Register(&restored);
  ASSERT_TRUE(store.Restore(&restored).ok());
  EXPECT_EQ(restored.state(0).timestep, 1);
}

// --- legacy format-1 stores --------------------------------------------------

TEST(LegacyStoreTest, TrailerlessFormat1StoreIsRefused) {
  FleetHarness fleet(1);
  serving::CampaignEngine engine;
  fleet.Register(&engine);
  fleet.IngestDay(&engine, 0);
  engine.Advance();

  // Hand-write a pre-checksum store: format-1 header, no trailers.
  const std::string dir = FreshDir("legacy_store");
  FileSystem* fs = GetDefaultFileSystem();
  ASSERT_TRUE(fs->CreateDirectories(dir).ok());
  const std::string checkpoint_path = dir + "/campaign_0.g1.ckpt";
  const std::string manifest_path = dir + "/MANIFEST";
  const std::string checkpoint = StateBytes(engine.state(0));
  const std::string manifest =
      "triclust-campaign-store 1\n1 1\ncampaign_0.g1.ckpt " +
      std::to_string(engine.state(0).timestep) + " campaign-0\n";
  ClobberFile(checkpoint_path, checkpoint);
  ClobberFile(manifest_path, manifest);

  serving::CampaignEngine restored;
  fleet.Register(&restored);
  const serving::CampaignStore store(dir);
  serving::RestoreReport report;
  for (const Status& status :
       {store.Restore(&restored), store.RestorePartial(&restored, &report),
        store.Save(engine)}) {
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
    EXPECT_NE(status.message().find(manifest_path), std::string::npos)
        << status.message();
  }
  EXPECT_EQ(restored.state(0).timestep, 0);

  // Nothing was rewritten, added or reclaimed.
  EXPECT_EQ(fs->ReadFileToString(manifest_path).value(), manifest);
  EXPECT_EQ(fs->ReadFileToString(checkpoint_path).value(), checkpoint);
  const Result<std::vector<std::string>> listing = fs->ListDirectory(dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value().size(), 2u);
}

}  // namespace
}  // namespace triclust
