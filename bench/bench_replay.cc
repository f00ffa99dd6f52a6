/// Replay-path benchmarks: corpus TSV loader throughput, replay-driver
/// throughput as the corpus is partitioned into more concurrent topic
/// streams, pacing accuracy across speed-ups, the scoring overhead of the
/// replay-driven evaluation harness, and deferral behavior under deadline
/// stress. Complements bench_serving (which feeds the engine from
/// pre-split synthetic snapshots): here every corpus goes through the
/// on-disk TSV round trip first, exactly like an external dataset would.
///
/// Accepts the google-benchmark flag surface (see bench/bench_flags.h):
/// --benchmark_min_time=0.01x scales solver iterations and pacing down for
/// CI smoke runs, --benchmark_out=<path> writes a JSON
/// report.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/data/corpus_io.h"
#include "src/eval/timeline_eval.h"
#include "src/serving/replay.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

/// Flag/report plumbing shared by every sweep (set once in main).
bench_flags::Flags g_flags;
bench_flags::Reporter* g_reporter = nullptr;

OnlineConfig ReplayConfig() {
  OnlineConfig config;
  config.base.max_iterations = g_flags.ScaledIters(25);
  config.base.tolerance = 0.0;  // fixed work per fit for clean scaling
  config.base.track_loss = false;
  return config;
}

struct LoadedCorpus {
  Corpus corpus;
  MatrixBuilder builder;
  DenseMatrix sf0;
};

/// Generates a corpus and pushes it through the WriteTsv/ReadTsv round trip
/// (timing both directions), so later sweeps run on loader-produced data.
LoadedCorpus LoadThroughTsv(TableWriter* io_table) {
  SyntheticConfig config = Prop30LikeConfig();
  config.num_days = 8;
  config.base_tweets_per_day = 220.0;
  config.num_users = 500;
  config.burst_days = {};
  SyntheticDataset dataset = GenerateSynthetic(config);

  std::ostringstream buffer;
  Stopwatch watch;
  const Status written = WriteTsv(dataset.corpus, &buffer);
  const double write_ms = watch.ElapsedMillis();
  if (!written.ok()) {
    std::cerr << "WriteTsv failed: " << written.ToString() << "\n";
    std::exit(1);
  }
  const std::string tsv = buffer.str();

  std::istringstream in(tsv);
  watch.Restart();
  auto loaded = ReadTsv(&in, "<bench>");
  const double read_ms = watch.ElapsedMillis();
  if (!loaded.ok()) {
    std::cerr << "ReadTsv failed: " << loaded.status().ToString() << "\n";
    std::exit(1);
  }

  const double mb = static_cast<double>(tsv.size()) / (1024.0 * 1024.0);
  io_table->AddRow({std::to_string(dataset.corpus.num_tweets()),
                    TableWriter::Num(mb, 2), TableWriter::Num(write_ms, 1),
                    TableWriter::Num(read_ms, 1),
                    TableWriter::Num(mb / (read_ms / 1e3), 1)});
  g_reporter->Add("replay/tsv_write", write_ms, {{"megabytes", mb}});
  g_reporter->Add("replay/tsv_read", read_ms,
                  {{"megabytes_per_second", mb / (read_ms / 1e3)}});

  LoadedCorpus out;
  out.corpus = std::move(loaded).value();
  out.builder.Fit(out.corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(dataset.true_lexicon, 0.6, 0.05, 99);
  out.sf0 = lexicon.BuildSf0(out.builder.vocabulary(), 3);
  return out;
}

serving::ReplayStats RunReplay(const LoadedCorpus& data, size_t num_streams,
                               int threads,
                               const serving::ReplayOptions& options) {
  serving::CampaignEngine::Options engine_options;
  engine_options.num_threads = threads;
  serving::CampaignEngine engine(engine_options);
  const auto streams =
      serving::PartitionIntoStreams(data.corpus, num_streams);
  for (size_t s = 0; s < streams.size(); ++s) {
    engine.AddCampaign("topic-" + std::to_string(s), ReplayConfig(),
                       data.sf0, data.builder, &data.corpus).ValueOrDie();
  }
  serving::ReplayDriver driver(&engine);
  for (size_t s = 0; s < streams.size(); ++s) {
    driver.AddStream(s, streams[s]);
  }
  return driver.Replay(options);
}

void RunPartitionSweep(const LoadedCorpus& data) {
  bench_util::PrintHeader(
      "Replay throughput: one corpus partitioned into N topic streams "
      "(as fast as possible)");
  TableWriter table(
      "Flat-out replay, same total tweet volume at every partition width");
  table.SetHeader({"streams", "threads", "wall ms", "tweets/s",
                   "mean advance ms", "max advance ms"});
  for (const size_t streams : {1, 2, 4}) {
    for (const int threads : {1, 0}) {
      const serving::ReplayStats stats =
          RunReplay(data, streams, threads, serving::ReplayOptions());
      table.AddRow({std::to_string(streams),
                    threads == 0 ? "hw" : std::to_string(threads),
                    TableWriter::Num(stats.wall_ms, 0),
                    TableWriter::Num(stats.TweetsPerSecond(), 0),
                    TableWriter::Num(stats.MeanAdvanceMs(), 1),
                    TableWriter::Num(stats.MaxAdvanceMs(), 1)});
      g_reporter->Add(
          "replay/partition/streams:" + std::to_string(streams) +
              "/threads:" + (threads == 0 ? "hw" : std::to_string(threads)),
          stats.wall_ms,
          {{"tweets_per_second", stats.TweetsPerSecond()},
           {"max_advance_ms", stats.MaxAdvanceMs()}});
    }
  }
  table.Print(std::cout);
}

void RunSpeedupSweep(const LoadedCorpus& data) {
  bench_util::PrintHeader(
      "Paced replay: historical days released at day_interval_ms / speedup");
  const double interval_ms = g_flags.ScaledMs(400.0);
  TableWriter table("8-day stream, 2 topic streams, day interval " +
                    TableWriter::Num(interval_ms, 0) + " ms");
  table.SetHeader({"speedup", "wall ms", "expected ms", "mean wait ms"});
  for (const double speedup : {1.0, 4.0, 16.0}) {
    serving::ReplayOptions options;
    options.day_interval_ms = interval_ms;
    options.speedup = speedup;
    const serving::ReplayStats stats = RunReplay(data, 2, 0, options);
    double wait_ms = 0.0;
    for (const auto& d : stats.days) wait_ms += d.wait_ms;
    // Day d releases at d·interval/speedup: with D days the last release
    // is at (D−1)·interval/speedup, plus the work of the final day.
    const double expected =
        (static_cast<double>(stats.days.size()) - 1.0) * interval_ms /
        speedup;
    table.AddRow({TableWriter::Num(speedup, 0),
                  TableWriter::Num(stats.wall_ms, 0),
                  TableWriter::Num(expected, 0) + "+fit",
                  TableWriter::Num(wait_ms / stats.days.size(), 1)});
    g_reporter->Add("replay/paced/speedup:" + TableWriter::Num(speedup, 0),
                    stats.wall_ms,
                    {{"expected_release_ms", expected},
                     {"mean_wait_ms", wait_ms / stats.days.size()}});
  }
  table.Print(std::cout);
}

void RunEvalSweep(const LoadedCorpus& data) {
  bench_util::PrintHeader(
      "Replay-driven evaluation: per-day accuracy timelines scored while "
      "replaying (src/eval/timeline_eval.h)");
  TableWriter table(
      "Timeline eval riding a flat-out replay; eval ms is the total "
      "scoring overhead added to the run");
  table.SetHeader({"streams", "snapshots", "tweets scored", "tweet acc",
                   "user acc", "tweet NMI", "eval ms", "replay ms"});
  for (const size_t num_streams : {1, 2, 4}) {
    serving::CampaignEngine engine;
    const auto streams =
        serving::PartitionIntoStreams(data.corpus, num_streams);
    for (size_t s = 0; s < streams.size(); ++s) {
      engine.AddCampaign("topic-" + std::to_string(s), ReplayConfig(),
                         data.sf0, data.builder, &data.corpus).ValueOrDie();
    }
    serving::ReplayDriver driver(&engine);
    for (size_t s = 0; s < streams.size(); ++s) {
      driver.AddStream(s, streams[s]);
    }
    TimelineEvaluator evaluator(&engine);
    double eval_ms = 0.0;
    driver.AddObserver(
        [&](int day, const serving::CampaignEngine::SnapshotReport& r) {
          const Stopwatch score_clock;
          evaluator.Observe(day, r);
          eval_ms += score_clock.ElapsedMillis();
        });
    const serving::ReplayStats stats = driver.Replay();
    const TimelineAggregate aggregate = evaluator.RunAggregate();
    table.AddRow({std::to_string(num_streams),
                  std::to_string(aggregate.snapshots),
                  std::to_string(aggregate.tweets_scored),
                  TableWriter::Num(aggregate.tweet_accuracy, 3),
                  TableWriter::Num(aggregate.user_accuracy, 3),
                  TableWriter::Num(aggregate.tweet_nmi, 3),
                  TableWriter::Num(eval_ms, 1),
                  TableWriter::Num(stats.wall_ms, 0)});
    g_reporter->Add("replay/eval/streams:" + std::to_string(num_streams),
                    stats.wall_ms,
                    {{"eval_overhead_ms", eval_ms},
                     {"tweet_accuracy", aggregate.tweet_accuracy},
                     {"user_accuracy", aggregate.user_accuracy},
                     {"tweet_nmi", aggregate.tweet_nmi}});
  }
  table.Print(std::cout);
}

void RunDeadlineSweep(const LoadedCorpus& data) {
  bench_util::PrintHeader(
      "Deadline-stressed replay: deferral rate vs per-Advance deadline");
  TableWriter table(
      "4 topic streams, flat-out; deferred queues fold into later "
      "snapshots and a final drain pass");
  table.SetHeader({"deadline ms", "fits", "deferred", "wall ms",
                   "max advance ms"});
  for (const double deadline_ms : {0.0, 50.0, 5.0, 0.5}) {
    serving::ReplayOptions options;
    options.deadline_ms = deadline_ms;
    const serving::ReplayStats stats = RunReplay(data, 4, 0, options);
    table.AddRow({deadline_ms <= 0.0 ? "none"
                                     : TableWriter::Num(deadline_ms, 1),
                  std::to_string(stats.total_fits),
                  std::to_string(stats.total_deferred),
                  TableWriter::Num(stats.wall_ms, 0),
                  TableWriter::Num(stats.MaxAdvanceMs(), 1)});
    g_reporter->Add(
        "replay/deadline/ms:" +
            (deadline_ms <= 0.0 ? std::string("none")
                                : TableWriter::Num(deadline_ms, 1)),
        stats.wall_ms,
        {{"fits", static_cast<double>(stats.total_fits)},
         {"deferred", static_cast<double>(stats.total_deferred)}});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_replay",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::g_flags = flags;
        triclust::g_reporter = &reporter;

        triclust::bench_util::PrintHeader(
            "Corpus TSV loaders: WriteTsv/ReadTsv round-trip throughput");
        triclust::TableWriter io_table("In-memory TSV serialization");
        io_table.SetHeader(
            {"tweets", "MB", "write ms", "read ms", "read MB/s"});
        const triclust::LoadedCorpus data =
            triclust::LoadThroughTsv(&io_table);
        io_table.Print(std::cout);

        triclust::RunPartitionSweep(data);
        triclust::RunSpeedupSweep(data);
        triclust::RunEvalSweep(data);
        triclust::RunDeadlineSweep(data);
      });
}
