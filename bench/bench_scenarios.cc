/// Adversarial-scenario benchmarks: wall time and throughput of the full
/// multi-method scenario runner (src/eval/method_runner.h) over every
/// catalog entry, plus the cost split between the tri-cluster replay and
/// the pooled baselines, and the streaming-loader overhead of replaying a
/// scenario corpus through TsvStreamReader instead of a whole-file
/// ReadTsv. These are robustness-path numbers: the catalog is the
/// hostile-workload suite CI gates on, so its runtime is the price of
/// every scenario smoke run.
///
/// Accepts the google-benchmark flag surface (see bench/bench_flags.h):
/// --benchmark_min_time=0.01x scales the scenario population and solver
/// iterations down for CI smoke runs, --benchmark_out=<path>
/// writes a JSON report.

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/data/corpus_io.h"
#include "src/data/scenario.h"
#include "src/eval/method_runner.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

bench_flags::Flags g_flags;
bench_flags::Reporter* g_reporter = nullptr;

/// Scenario scale for this run: full catalog size by default, shrunk —
/// but never below the 0.5 floor the expectations are calibrated for —
/// on smoke runs.
double BenchScale() {
  return g_flags.work_scale < 1.0 ? 0.5 : 1.0;
}

MethodRunnerOptions BenchOptions(std::vector<std::string> methods) {
  MethodRunnerOptions options;
  options.methods = std::move(methods);
  options.max_iterations = g_flags.ScaledIters(options.max_iterations);
  return options;
}

/// Full catalog through every method: the cost of one CI scenario gate.
void RunCatalogSweep() {
  bench_util::PrintHeader(
      "Scenario suite: multi-method runner over the hostile catalog");
  TableWriter table("RunScenario, all methods (triclust+lexvote+lp10+"
                    "userreg10)");
  table.SetHeader({"scenario", "tweets", "days", "wall ms", "tweets/s",
                   "tri t-acc", "tri u-acc"});
  for (const Scenario& scenario : AllScenarios(BenchScale())) {
    Stopwatch watch;
    auto run = RunScenario(scenario, BenchOptions(
        {"triclust", "lexvote", "lp10", "userreg10"}));
    const double wall_ms = watch.ElapsedMillis();
    if (!run.ok()) {
      std::cerr << scenario.name << ": " << run.status().ToString() << "\n";
      std::exit(1);
    }
    const double tweets = static_cast<double>(run.value().replay.total_tweets);
    const double rate = wall_ms > 0.0 ? tweets / (wall_ms / 1000.0) : 0.0;
    table.AddRow({scenario.name, std::to_string(run.value().replay.total_tweets),
                  std::to_string(run.value().replay_horizon_days),
                  TableWriter::Num(wall_ms, 1), TableWriter::Num(rate, 0),
                  TableWriter::Num(run.value().triclust_aggregate.tweet_accuracy, 3),
                  TableWriter::Num(run.value().triclust_aggregate.user_accuracy, 3)});
    if (g_reporter != nullptr) {
      g_reporter->Add("scenario_all_methods/" + scenario.name, wall_ms,
                      {{"tweets_per_second", rate},
                       {"tweet_accuracy",
                        run.value().triclust_aggregate.tweet_accuracy}});
    }
  }
  table.Print(std::cout);
}

/// Tri-cluster replay alone vs the baseline pool alone: where the
/// scenario gate's time actually goes.
void RunMethodCostSplit() {
  bench_util::PrintHeader(
      "Scenario suite: tri-cluster replay vs pooled-baseline cost");
  TableWriter table("Per-method-group wall time (spam_botnet workload)");
  table.SetHeader({"methods", "wall ms", "share of all-methods run"});
  auto scenario = GetScenario("spam_botnet", BenchScale());
  if (!scenario.ok()) {
    std::cerr << scenario.status().ToString() << "\n";
    std::exit(1);
  }
  const std::vector<std::pair<std::string, std::vector<std::string>>> groups =
      {{"triclust only", {"triclust"}},
       {"baselines only", {"lexvote", "lp10", "userreg10"}},
       {"all methods", {"triclust", "lexvote", "lp10", "userreg10"}}};
  double all_ms = 0.0;
  std::vector<std::pair<std::string, double>> measured;
  for (const auto& group : groups) {
    Stopwatch watch;
    auto run = RunScenario(scenario.value(), BenchOptions(group.second));
    const double wall_ms = watch.ElapsedMillis();
    if (!run.ok()) {
      std::cerr << group.first << ": " << run.status().ToString() << "\n";
      std::exit(1);
    }
    measured.emplace_back(group.first, wall_ms);
    if (group.first == "all methods") all_ms = wall_ms;
    if (g_reporter != nullptr) {
      g_reporter->Add("scenario_cost_split/" + group.first, wall_ms);
    }
  }
  for (const auto& m : measured) {
    const double share = all_ms > 0.0 ? m.second / all_ms : 0.0;
    table.AddRow({m.first, TableWriter::Num(m.second, 1),
                  TableWriter::Num(100.0 * share, 1) + "%"});
  }
  table.Print(std::cout);
}

/// Whole-file ReadTsv vs the bounded-memory TsvStreamReader walking the
/// same scenario corpus day by day: the load-side price of the O(one
/// day-chunk) replay mode.
void RunStreamingLoaderSweep() {
  bench_util::PrintHeader(
      "Scenario suite: whole-file load vs bounded-memory day streaming");
  TableWriter table("TSV load of the burst_extreme corpus");
  table.SetHeader({"path", "tweets", "wall ms", "peak resident text"});
  auto scenario = GetScenario("burst_extreme", BenchScale());
  if (!scenario.ok()) {
    std::cerr << scenario.status().ToString() << "\n";
    std::exit(1);
  }
  const Corpus corpus = GenerateSynthetic(scenario.value().config).corpus;
  std::ostringstream buffer;
  if (const Status s = WriteTsv(corpus, &buffer); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    std::exit(1);
  }
  const std::string tsv = buffer.str();

  std::istringstream whole_in(tsv);
  Stopwatch watch;
  auto whole = ReadTsv(&whole_in, "<bench>");
  const double whole_ms = watch.ElapsedMillis();
  if (!whole.ok()) {
    std::cerr << whole.status().ToString() << "\n";
    std::exit(1);
  }
  size_t whole_text = 0;
  for (const auto& t : whole.value().tweets()) whole_text += t.text.size();
  table.AddRow({"ReadTsv (whole file)",
                std::to_string(whole.value().num_tweets()),
                TableWriter::Num(whole_ms, 1),
                std::to_string(whole_text) + " B"});

  watch.Restart();
  auto reader_or = TsvStreamReader::Open(
      std::make_unique<std::istringstream>(tsv), "<bench>");
  if (!reader_or.ok()) {
    std::cerr << reader_or.status().ToString() << "\n";
    std::exit(1);
  }
  auto reader = std::move(reader_or).value();
  size_t streamed_tweets = 0;
  size_t peak_day_text = 0;
  TsvDayBatch batch;
  while (true) {
    const Result<bool> more = reader->NextDay(&batch);
    if (!more.ok()) {
      std::cerr << more.status().ToString() << "\n";
      std::exit(1);
    }
    if (!more.value()) break;
    streamed_tweets += batch.tweet_ids.size();
    size_t day_text = 0;
    for (const size_t id : batch.tweet_ids) {
      day_text += reader->corpus().tweet(id).text.size();
    }
    if (day_text > peak_day_text) peak_day_text = day_text;
    reader->ReleaseText(batch);
  }
  const double stream_ms = watch.ElapsedMillis();
  table.AddRow({"ReadTsvStream (one day-chunk)",
                std::to_string(streamed_tweets),
                TableWriter::Num(stream_ms, 1),
                std::to_string(peak_day_text) + " B"});
  table.Print(std::cout);
  if (g_reporter != nullptr) {
    g_reporter->Add("scenario_loader/whole_file", whole_ms);
    g_reporter->Add("scenario_loader/day_stream", stream_ms,
                    {{"peak_day_text_bytes",
                      static_cast<double>(peak_day_text)}});
  }
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_scenarios",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::g_flags = flags;
        triclust::g_reporter = &reporter;

        triclust::RunCatalogSweep();
        triclust::RunMethodCostSplit();
        triclust::RunStreamingLoaderSweep();
      });
}
