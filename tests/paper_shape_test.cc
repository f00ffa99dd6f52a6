/// The paper's shapes, asserted. The suite computes every table and figure
/// once (bench/reproduction.h, the values `reproduce` renders), asserts each
/// claim that holds and the Table 4/5 accuracy floors, and fails when the
/// rendering differs from the committed docs/REPRODUCTION.md by a byte, so a
/// change that moves any paper number shows the move in its diff.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "bench/reproduction.h"

namespace triclust {
namespace {

using reproduction::Claim;
using reproduction::Reproduction;
using reproduction::Verdict;

// Accuracy floors of the tri-clustering rows of Tables 4 and 5, in percent
// on the Prop30-like corpus. Each is the accuracy measured when the floor
// was set, less 5% of it: 0.95 × 76.2932 and 0.95 × 77.0878 (an offline
// fit of 78 sweeps that converged), rounded down.
constexpr double kTable4TweetAccuracyFloorPct = 72.47;
constexpr double kTable5UserAccuracyFloorPct = 73.23;

// The claims that hold on this reproduction's numbers. The report shows the
// others as "does not hold" or "not decided" next to their numbers; a
// change that makes one hold moves the report, and adds it here.
constexpr const char* kClaimsThatHold[] = {
    "table2.polar_words_aligned",
    "table3.prop37_skewed",
    "table4.above_essa",
    "table5.above_lp",
    "fig4.frequencies_evolve",
    "fig6.heavy_lexicon_inessential",
    "fig8.descent_within_10",
    "fig9.tweet_less_sensitive",
    "fig10.user_peak_at_0_2",
    "fig10.tweet_flat",
    "fig11.online_matches_full_batch",
    "fig11.mini_batch_lowest",
    "fig12.online_matches_full_batch",
    "fig12.mini_batch_lowest",
    "lexicon.above_chance",
};

constexpr char kReportPath[] = TRICLUST_SOURCE_DIR "/docs/REPRODUCTION.md";

class PaperShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reproduction_ =
        std::make_unique<Reproduction>(reproduction::Reproduce());
  }
  static void TearDownTestSuite() { reproduction_.reset(); }

  static const Claim* FindClaim(const std::string& id) {
    for (const auto& section : reproduction_->sections) {
      for (const Claim& claim : section.claims) {
        if (claim.id == id) return &claim;
      }
    }
    return nullptr;
  }

  static std::unique_ptr<Reproduction> reproduction_;
};

std::unique_ptr<Reproduction> PaperShapeTest::reproduction_;

TEST_F(PaperShapeTest, TriClusteringAccuracyOfTables4And5StaysAboveItsFloors) {
  EXPECT_GE(reproduction_->table4_tri_tweet_pct, kTable4TweetAccuracyFloorPct);
  EXPECT_GE(reproduction_->table5_tri_user_pct, kTable5UserAccuracyFloorPct);
}

TEST_F(PaperShapeTest, ClaimsThatHoldAtHeadStillHold) {
  for (const char* id : kClaimsThatHold) {
    const Claim* claim = FindClaim(id);
    ASSERT_NE(claim, nullptr) << "no claim " << id;
    EXPECT_EQ(claim->verdict, Verdict::kHolds)
        << id << ": " << claim->claim << "\n  decided by "
        << claim->decided_by << "\n  " << claim->numbers;
  }
}

TEST_F(PaperShapeTest, ReportMatchesCommittedFile) {
  std::ifstream in(kReportPath, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << kReportPath;
  std::stringstream committed;
  committed << in.rdbuf();
  const std::string rendered = reproduction::Render(*reproduction_);
  if (rendered == committed.str()) return;

  std::istringstream want(rendered);
  std::istringstream have(committed.str());
  std::string want_line;
  std::string have_line;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_have = static_cast<bool>(std::getline(have, have_line));
    if (more_want && more_have && want_line == have_line) continue;
    ADD_FAILURE() << kReportPath << " differs from the computed report at "
                  << "line " << line << "\n  committed: "
                  << (more_have ? have_line : "<end of file>")
                  << "\n  computed:  "
                  << (more_want ? want_line : "<end of file>")
                  << "\nIf the change means to move these numbers, "
                     "regenerate the report from the repository root:\n"
                     "  cmake --build build --target reproduce && "
                     "build/bench/reproduce docs/REPRODUCTION.md";
    return;
  }
}

}  // namespace
}  // namespace triclust
