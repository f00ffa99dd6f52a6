/// Multi-campaign serving demo: several Prop30/Prop37-style campaigns
/// tracked concurrently by one CampaignEngine (src/serving/). Each day the
/// server ingests every campaign's new tweets (incremental, O(new tweets)),
/// advances all campaigns in one sharded Advance() call, and prints a
/// combined dashboard. Mid-stream it checkpoints the whole fleet through a
/// CampaignStore, and at the end it proves the restart path: a fresh engine
/// restored from the store replays the remaining days bit-identically.
/// A final act demonstrates graceful degradation: one campaign's stream is
/// poisoned with NaNs, the engine degrades and quarantines only that
/// campaign (the rest keep serving), and a checkpoint restore plus
/// ReviveCampaign() brings it back — with HealthReport() dashboards at
/// every step. It exits 1 when one of these checks fails. The store lives
/// in a pid-unique directory under /tmp that is removed before exit.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/campaign_server

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "src/data/matrix_builder.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/campaign_store.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

struct CampaignSetup {
  std::string name;
  SyntheticDataset dataset;
  std::vector<Snapshot> days;
  MatrixBuilder builder;  // Fit; cloned into the engine per campaign
  DenseMatrix sf0;
};

CampaignSetup MakeCampaign(const std::string& name, SyntheticConfig config) {
  CampaignSetup c;
  c.name = name;
  config.num_days = 12;
  config.base_tweets_per_day *= 0.6;  // demo-sized volumes
  c.dataset = GenerateSynthetic(config);
  c.days = SplitByDay(c.dataset.corpus);
  c.builder.Fit(c.dataset.corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(c.dataset.true_lexicon, 0.6, 0.05, 99);
  c.sf0 = lexicon.BuildSf0(c.builder.vocabulary(), 3);
  return c;
}

OnlineConfig ServingConfig() {
  OnlineConfig config;
  config.base.max_iterations = 40;
  config.base.track_loss = false;
  return config;
}

size_t Register(serving::CampaignEngine* engine, const CampaignSetup& c) {
  // Registration input is trusted here (names are literals above), so an
  // InvalidArgument/AlreadyExists from AddCampaign would be a demo bug —
  // value() aborts with the status in that case.
  return engine
      ->AddCampaign(c.name, ServingConfig(), c.sf0, c.builder,
                    &c.dataset.corpus)
      .value();
}

/// Prints engine.HealthReport() the way a /health endpoint would render it.
void PrintHealthDashboard(const serving::CampaignEngine& engine,
                          const std::string& title) {
  const serving::EngineHealthReport report = engine.HealthReport();
  TableWriter table(title + "  [" + std::to_string(report.healthy) +
                    " healthy, " + std::to_string(report.degraded) +
                    " degraded, " + std::to_string(report.quarantined) +
                    " quarantined]");
  table.SetHeader({"campaign", "health", "fails", "timestep", "pending",
                   "last error"});
  for (const serving::CampaignHealthStatus& c : report.campaigns) {
    table.AddRow({c.name, serving::CampaignHealthName(c.health),
                  std::to_string(c.consecutive_failures),
                  std::to_string(c.timestep), std::to_string(c.pending),
                  c.last_error.ok() ? "-" : c.last_error.ToString()});
  }
  table.Print(std::cout);
}

/// Runs the tour, checkpointing into `store_dir`; false when one of its own
/// checks fails (the restart replay mismatches, a store save or restore
/// fails, or the fleet does not recover), each of which it reports on
/// stderr or stdout first.
bool Run(const std::string& store_dir) {
  // Three concurrent campaigns with different volume/stance profiles.
  std::vector<CampaignSetup> campaigns;
  campaigns.push_back(MakeCampaign("prop30", Prop30LikeConfig()));
  campaigns.push_back(MakeCampaign("prop37", Prop37LikeConfig()));
  {
    SyntheticConfig burst = Prop30LikeConfig(/*seed=*/77);
    burst.burst_days = {4, 8};
    burst.burst_multiplier = 5.0;
    campaigns.push_back(MakeCampaign("prop30-burst", burst));
  }

  serving::CampaignEngine engine;  // hardware-concurrency sharding
  for (const CampaignSetup& c : campaigns) Register(&engine, c);

  const serving::CampaignStore store(store_dir);
  const int checkpoint_day = 5;
  int max_days = 0;
  for (const CampaignSetup& c : campaigns) {
    max_days = std::max(max_days, static_cast<int>(c.days.size()));
  }

  TableWriter table("Multi-campaign serving dashboard (one row per "
                    "campaign-day; all campaigns advanced by one sharded "
                    "call)");
  table.SetHeader({"day", "campaign", "tweets", "pos%", "neg%", "neu%",
                   "acc%", "fit ms", "note"});

  // Remember the mid-stream results so the restart replay can be verified.
  std::vector<std::vector<TriClusterResult>> tail_results(campaigns.size());

  for (int day = 0; day < max_days; ++day) {
    for (size_t i = 0; i < campaigns.size(); ++i) {
      if (day < static_cast<int>(campaigns[i].days.size())) {
        engine.Ingest(i, campaigns[i].days[day].tweet_ids, day);
      }
    }
    serving::AdvanceOptions advance;
    advance.include_idle = true;  // keep timesteps aligned with days
    const auto reports = engine.Advance(advance);

    for (const auto& report : reports) {
      if (!report.fitted || report.data.num_tweets() == 0) continue;
      const auto tweet_clusters = report.result.TweetClusters();
      const auto mapping =
          MajorityVoteMapping(tweet_clusters, report.data.tweet_labels, 3);
      double share[kNumSentimentClasses] = {0, 0, 0};
      for (int c : tweet_clusters) {
        ++share[SentimentIndex(mapping[static_cast<size_t>(c)])];
      }
      for (double& s : share) s = 100.0 * s / report.data.num_tweets();
      const double acc = 100.0 * ClusteringAccuracy(
                                     tweet_clusters, report.data.tweet_labels);
      std::string note;
      if (day == checkpoint_day) note = "checkpointed";
      table.AddRow({std::to_string(day), engine.name(report.campaign),
                    std::to_string(report.data.num_tweets()),
                    TableWriter::Num(share[0], 1),
                    TableWriter::Num(share[1], 1),
                    TableWriter::Num(share[2], 1), TableWriter::Num(acc, 1),
                    TableWriter::Num(report.solve_ms, 1), note});
      if (day > checkpoint_day) {
        tail_results[report.campaign].push_back(report.result);
      }
    }

    if (day == checkpoint_day) {
      const Status saved = store.Save(engine);
      if (!saved.ok()) {
        std::cerr << "store save failed: " << saved.ToString() << "\n";
        return false;
      }
    }
  }
  table.Print(std::cout);

  // --- restart path: fresh engine, restore, replay the tail ---------------
  serving::CampaignEngine restarted;
  for (const CampaignSetup& c : campaigns) Register(&restarted, c);
  const Status restored = store.Restore(&restarted);
  if (!restored.ok()) {
    std::cerr << "store restore failed: " << restored.ToString() << "\n";
    return false;
  }

  bool identical = true;
  // tail_results holds only fitted non-empty snapshots, in order; walk it
  // with a per-campaign cursor rather than deriving an index from the day
  // (a quiet day produces no entry on either side).
  std::vector<size_t> replay_cursor(campaigns.size(), 0);
  for (int day = checkpoint_day + 1; day < max_days; ++day) {
    for (size_t i = 0; i < campaigns.size(); ++i) {
      if (day < static_cast<int>(campaigns[i].days.size())) {
        restarted.Ingest(i, campaigns[i].days[day].tweet_ids, day);
      }
    }
    serving::AdvanceOptions advance;
    advance.include_idle = true;
    for (const auto& report : restarted.Advance(advance)) {
      if (!report.fitted || report.data.num_tweets() == 0) continue;
      auto& expected = tail_results[report.campaign];
      const size_t cursor = replay_cursor[report.campaign]++;
      if (cursor >= expected.size() ||
          !(report.result.su == expected[cursor].su &&
            report.result.sp == expected[cursor].sp &&
            report.result.sf == expected[cursor].sf)) {
        identical = false;
      }
    }
  }
  for (size_t i = 0; i < campaigns.size(); ++i) {
    if (replay_cursor[i] != tail_results[i].size()) identical = false;
  }
  std::cout << "\ncheckpointed fleet at day " << checkpoint_day << " into "
            << store_dir << "; restored a fresh engine and replayed days "
            << checkpoint_day + 1 << ".." << max_days - 1 << ": "
            << (identical ? "bit-identical to the uninterrupted run"
                          : "MISMATCH (bug!)")
            << "\n";

  // --- graceful degradation: quarantine one campaign, revive it -----------
  // Poison prop37's stream state with NaNs (standing in for any way a
  // stream can go bad in production) and keep the fleet running. Each
  // Advance() rejects the victim's non-finite fit and rolls its state
  // back — degraded, then quarantined after the engine's failure
  // threshold — while the other campaigns keep fitting normally. Recovery
  // is the ordinary ops play: restore the last good checkpoint and revive.
  std::cout << "\n";
  const ptrdiff_t victim_id = restarted.FindCampaign("prop37");
  const size_t victim = static_cast<size_t>(victim_id);
  StreamState poisoned = restarted.state(victim);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (DenseMatrix& sf : poisoned.sf_history) sf.Fill(nan);
  for (auto& [user, rows] : poisoned.user_history) {
    for (std::vector<double>& row : rows) {
      std::fill(row.begin(), row.end(), nan);
    }
  }
  restarted.set_state(victim, std::move(poisoned));
  std::cout << "poisoned '" << restarted.name(victim)
            << "' stream state with NaNs; advancing the fleet...\n";

  const std::vector<size_t>& replay_tweets =
      campaigns[victim].days.back().tweet_ids;
  const int replay_day = static_cast<int>(campaigns[victim].days.size()) - 1;
  for (int round = 0;
       restarted.health(victim) != serving::CampaignHealth::kQuarantined;
       ++round) {
    if (round >= 10) {  // quarantine threshold is 3; 10 means a bug
      std::cerr << "campaign never quarantined (bug!)\n";
      return false;
    }
    restarted.Ingest(victim, replay_tweets, replay_day);
    serving::AdvanceOptions advance;
    advance.include_idle = true;  // the healthy campaigns keep advancing
    restarted.Advance(advance);
    const serving::CampaignHealthStatus row =
        restarted.HealthReport().campaigns[victim];
    std::cout << "  after advance: " << row.name << " is "
              << serving::CampaignHealthName(row.health) << " ("
              << row.consecutive_failures << " consecutive failures)\n";
  }
  PrintHealthDashboard(restarted, "Fleet health with one poisoned campaign "
                                  "(the rest keep serving)");

  // Recovery: restore the whole fleet from the day-5 checkpoint (the
  // victim's clean pre-poison state) and re-admit it to scheduling.
  const Status recovered = store.Restore(&restarted);
  if (!recovered.ok()) {
    std::cerr << "recovery restore failed: " << recovered.ToString() << "\n";
    return false;
  }
  restarted.ReviveCampaign(victim);
  restarted.Ingest(victim, replay_tweets, replay_day);
  serving::AdvanceOptions advance;
  advance.include_idle = true;
  restarted.Advance(advance);
  PrintHealthDashboard(restarted,
                       "Fleet health after checkpoint restore + revival");
  const bool recovered_all = restarted.HealthReport().AllHealthy();
  std::cout << (recovered_all
                    ? "quarantined campaign revived from the checkpoint; "
                      "fleet fully healthy again\n"
                    : "fleet still unhealthy after revival (bug!)\n");
  return identical && recovered_all;
}

}  // namespace
}  // namespace triclust

int main() {
  // Pid-unique so concurrent runs on one host never share a store.
  const std::string store_dir =
      "/tmp/triclust_campaign_store." + std::to_string(getpid());
  const bool ok = triclust::Run(store_dir);
  std::error_code ignored;
  std::filesystem::remove_all(store_dir, ignored);
  return ok ? 0 : 1;
}
