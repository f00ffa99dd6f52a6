/// Serving-layer throughput: N concurrent campaigns advanced day by day
/// through CampaignEngine, swept over campaigns × engine threads. Each
/// sharded fit receives its slice of the pool (threads / ready fits,
/// remainder spilled), so a *few*-campaign fleet keeps the whole machine
/// busy: the budget sweep times that split on ≈1k-row snapshots.
/// Per-campaign results are bit-identical at every setting
/// (width-invariant kernels).
///
/// Also reports the incremental-ingestion path in isolation: Append+Emit
/// versus re-running MatrixBuilder::Build per snapshot.
///
/// Accepts the google-benchmark flag surface (see bench/bench_flags.h):
/// --benchmark_min_time=0.01x scales solver iterations down for CI smoke
/// runs, --benchmark_format=json / --benchmark_out=... emit a JSON report.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/data/snapshots.h"
#include "src/serving/campaign_engine.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

struct CampaignData {
  SyntheticDataset dataset;
  std::vector<Snapshot> days;
  MatrixBuilder builder;
  DenseMatrix sf0;
  size_t total_tweets = 0;
};

CampaignData MakeCampaignData(uint64_t seed) {
  SyntheticConfig config = Prop30LikeConfig(seed);
  config.num_days = 6;
  config.base_tweets_per_day = 150.0;
  config.num_users = 400;
  config.burst_days = {};
  CampaignData c;
  c.dataset = GenerateSynthetic(config);
  c.days = SplitByDay(c.dataset.corpus);
  c.builder.Fit(c.dataset.corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(c.dataset.true_lexicon, 0.6, 0.05, 99);
  c.sf0 = lexicon.BuildSf0(c.builder.vocabulary(), 3);
  c.total_tweets = c.dataset.corpus.num_tweets();
  return c;
}

OnlineConfig ServingConfig(const bench_flags::Flags& flags) {
  OnlineConfig config;
  config.base.max_iterations = flags.ScaledIters(25);
  config.base.tolerance = 0.0;  // fixed work per fit for clean scaling
  config.base.track_loss = false;
  return config;
}

/// Streams every campaign through one engine; returns elapsed seconds.
double RunFleet(std::vector<CampaignData>& campaigns, int num_threads,
                const bench_flags::Flags& flags) {
  serving::CampaignEngine::Options options;
  options.num_threads = num_threads;
  serving::CampaignEngine engine(options);
  for (CampaignData& c : campaigns) {
    engine.AddCampaign("campaign-" + std::to_string(engine.num_campaigns()),
                       ServingConfig(flags), c.sf0, c.builder,
                       &c.dataset.corpus).ValueOrDie();
  }
  size_t max_days = 0;
  for (const CampaignData& c : campaigns) {
    max_days = std::max(max_days, c.days.size());
  }
  const Stopwatch watch;
  for (size_t day = 0; day < max_days; ++day) {
    for (size_t i = 0; i < campaigns.size(); ++i) {
      if (day < campaigns[i].days.size()) {
        engine.Ingest(i, campaigns[i].days[day].tweet_ids,
                      static_cast<int>(day));
      }
    }
    engine.Advance();
  }
  return watch.ElapsedSeconds();
}

/// Higher-volume campaign for the budget sweep: ≈1k-row snapshot matrices
/// give the kernel tier real row ranges to split, so the sweep measures
/// the hierarchical schedule rather than pool dispatch overhead on
/// toy-sized fits.
CampaignData MakeLargeCampaignData(uint64_t seed) {
  SyntheticConfig config = Prop30LikeConfig(seed);
  config.num_days = 4;
  config.base_tweets_per_day = 1000.0;
  config.num_users = 1500;
  config.burst_days = {};
  CampaignData c;
  c.dataset = GenerateSynthetic(config);
  c.days = SplitByDay(c.dataset.corpus);
  c.builder.Fit(c.dataset.corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(c.dataset.true_lexicon, 0.6, 0.05, 99);
  c.sf0 = lexicon.BuildSf0(c.builder.vocabulary(), 3);
  c.total_tweets = c.dataset.corpus.num_tweets();
  return c;
}

std::vector<CampaignData> MakeFleet(size_t num_campaigns, bool large,
                                    size_t* total_tweets) {
  std::vector<CampaignData> campaigns;
  *total_tweets = 0;
  for (size_t i = 0; i < num_campaigns; ++i) {
    campaigns.push_back(large ? MakeLargeCampaignData(/*seed=*/42 + i)
                              : MakeCampaignData(/*seed=*/42 + i));
    *total_tweets += campaigns.back().total_tweets;
  }
  return campaigns;
}

void RunThroughputSweep(const bench_flags::Flags& flags,
                        bench_flags::Reporter* reporter) {
  bench_util::PrintHeader(
      "Serving throughput: campaigns x engine threads (hierarchical "
      "per-fit budgets)");

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(static_cast<int>(hw));

  for (const size_t num_campaigns : {2, 4, 8}) {
    size_t total_tweets = 0;
    std::vector<CampaignData> campaigns =
        MakeFleet(num_campaigns, /*large=*/false, &total_tweets);

    TableWriter table(std::to_string(num_campaigns) +
                      " campaigns, 6 days each, " +
                      std::to_string(flags.ScaledIters(25)) +
                      " iterations/snapshot");
    table.SetHeader(
        {"threads", "time (s)", "tweets/s", "speedup vs 1 thread"});
    double serial_seconds = 0.0;
    for (const int threads : thread_counts) {
      const double seconds = RunFleet(campaigns, threads, flags);
      if (threads == 1) serial_seconds = seconds;
      table.AddRow({std::to_string(threads), TableWriter::Num(seconds, 3),
                    TableWriter::Num(total_tweets / seconds, 0),
                    TableWriter::Num(serial_seconds / seconds, 2)});
      reporter->Add("serving/throughput/campaigns:" +
                        std::to_string(num_campaigns) +
                        "/threads:" + std::to_string(threads),
                    seconds * 1e3,
                    {{"tweets_per_second", total_tweets / seconds},
                     {"speedup_vs_serial", serial_seconds / seconds}});
    }
    table.Print(std::cout);
  }
  std::cout << "Hardware concurrency on this machine: " << hw << "\n";
}

/// The few-campaign case the hierarchical split exists for: with fewer
/// ready campaigns than threads, each fit gets threads/ready of the pool
/// and row-parallelizes its kernels inside that slice.
void RunBudgetSweep(const bench_flags::Flags& flags,
                    bench_flags::Reporter* reporter) {
  bench_util::PrintHeader(
      "Per-fit budget split: Advance() throughput with hierarchical budgets");

  // 4 and 8 always run — even on smaller machines, where the budgets
  // oversubscribe gracefully — so the artifact JSON carries the same
  // configuration points on every host; the full machine is added on top.
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> thread_counts = {4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  for (const size_t num_campaigns : {1, 2, 4}) {
    size_t total_tweets = 0;
    std::vector<CampaignData> campaigns =
        MakeFleet(num_campaigns, /*large=*/true, &total_tweets);

    TableWriter table(
        std::to_string(num_campaigns) + " campaign(s) x ~1k-row snapshots, " +
        std::to_string(flags.ScaledIters(25)) + " iterations/snapshot");
    table.SetHeader({"threads", "time (s)", "tweets/s"});
    for (const int threads : thread_counts) {
      const double seconds = RunFleet(campaigns, threads, flags);
      table.AddRow({std::to_string(threads), TableWriter::Num(seconds, 3),
                    TableWriter::Num(total_tweets / seconds, 0)});
      reporter->Add("serving/budget_split/campaigns:" +
                        std::to_string(num_campaigns) +
                        "/threads:" + std::to_string(threads),
                    seconds * 1e3,
                    {{"tweets_per_second", total_tweets / seconds}});
    }
    table.Print(std::cout);
  }
}

void RunIngestionBench(bench_flags::Reporter* reporter) {
  bench_util::PrintHeader(
      "Incremental ingestion: Append+EmitSnapshot vs per-snapshot Build");
  CampaignData c = MakeCampaignData(/*seed=*/42);

  // What matters for a request deadline is the cost paid *at the snapshot
  // boundary*: Build does everything there, the incremental path only
  // assembles rows vectorized earlier at arrival.
  TableWriter table("Per-day snapshot matrix construction (totals over all "
                    "days)");
  table.SetHeader({"path", "at boundary (ms)", "at arrival (ms)", "note"});
  {
    const Stopwatch watch;
    for (const Snapshot& day : c.days) {
      const DatasetMatrices data =
          c.builder.Build(c.dataset.corpus, day.tweet_ids, day.last_day);
      (void)data;
    }
    const double build_ms = watch.ElapsedMillis();
    table.AddRow({"Build per snapshot", TableWriter::Num(build_ms, 2),
                  "0.00", "full vectorization under the deadline"});
    reporter->Add("serving/ingestion/build_per_snapshot", build_ms);
  }
  {
    double ingest_ms = 0.0;
    double emit_ms = 0.0;
    for (const Snapshot& day : c.days) {
      Stopwatch watch;
      c.builder.Append(c.dataset.corpus, day.tweet_ids);
      ingest_ms += watch.ElapsedMillis();
      watch.Restart();
      const DatasetMatrices data =
          c.builder.EmitSnapshot(c.dataset.corpus, day.last_day);
      (void)data;
      emit_ms += watch.ElapsedMillis();
    }
    table.AddRow({"Append + EmitSnapshot", TableWriter::Num(emit_ms, 2),
                  TableWriter::Num(ingest_ms, 2),
                  "each tweet vectorized once when it arrives"});
    reporter->Add("serving/ingestion/append_emit", emit_ms,
                  {{"arrival_ms", ingest_ms}});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_serving",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::RunThroughputSweep(flags, &reporter);
        triclust::RunBudgetSweep(flags, &reporter);
        triclust::RunIngestionBench(&reporter);
      });
}
