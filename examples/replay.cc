/// Replay driver CLI: load a corpus TSV (docs/FORMATS.md), partition it
/// into topic streams, and stream it through the multi-campaign
/// CampaignEngine in day order at a configurable speed-up — the path by
/// which arbitrary external datasets reach the serving layer.
///
/// Usage:
///   replay [--input corpus.tsv] [--campaigns N] [--iters I] [--threads N]
///          [--day-interval-ms MS] [--speedup X] [--deadline-ms MS]
///          [--max-days D] [--store DIR] [--write-demo path.tsv]
///          [--eval-csv path.csv] [--require-metrics] [--no-verify]
///          [--stream]
///          [--scenario NAME] [--scenario-scale X] [--methods a,b,c]
///          [--methods-csv path.csv] [--check-expectations]
///
/// Without --input a demo corpus is generated, written to a TSV, and read
/// back, so the run always exercises the on-disk loaders end-to-end;
/// --write-demo keeps that TSV (or, with --input, re-exports the loaded
/// corpus in the canonical format).
///
/// --stream replays through the bounded-memory streaming reader
/// (ReadTsvStream / TsvStreamReader, src/data/corpus_io.h): two
/// streaming fit passes plus one replay pass, holding only one day-chunk
/// of tweet text at a time — then replays the whole-file path over the
/// same TSV and verifies the factors and accuracy timelines are
/// bit-identical. Exits non-zero on any mismatch. Pacing/deadline/store
/// knobs are ignored in this mode.
///
/// --scenario runs a named adversarial scenario (src/data/scenario.h;
/// names via --scenario=list) through the multi-method comparison runner
/// (src/eval/method_runner.h): the tri-cluster serving path vs the
/// baseline methods on the same hostile stream. --methods-csv writes the
/// plot-ready comparison timeline; --check-expectations exits non-zero
/// when the scenario's machine-readable expectation record is missed
/// (the CI smoke gate).
///
/// Every run scores the replay with the timeline evaluation harness
/// (src/eval/timeline_eval.h): per-day tweet-level and user-level
/// accuracy timelines are printed, --eval-csv writes them as CSV for
/// plotting, and --require-metrics exits non-zero when the run scored no
/// labeled items or produced non-finite aggregate metrics (the CI smoke
/// test's guard against silently-empty evaluation).
///
/// Unless --no-verify (or a deadline reshapes the snapshots), the replayed
/// per-campaign factors are checked bitwise against a direct
/// MatrixBuilder::Build + SnapshotSolver::Solve loop over the same days,
/// and the replayed accuracy timeline is checked bit-for-bit against
/// scoring that direct solve with the same harness.

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/snapshot_solver.h"
#include "src/data/corpus_io.h"
#include "src/data/matrix_builder.h"
#include "src/data/scenario.h"
#include "src/data/synthetic.h"
#include "src/eval/method_runner.h"
#include "src/eval/timeline_eval.h"
#include "src/serving/campaign_store.h"
#include "src/serving/replay.h"
#include "src/text/lexicon.h"
#include "src/util/string_util.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

struct CliOptions {
  std::string input;
  size_t campaigns = 2;
  int iters = 30;
  int threads = 0;  // engine sharding budget; 0 = hardware concurrency
  double day_interval_ms = 0.0;
  double speedup = 1.0;
  double deadline_ms = 0.0;
  int max_days = 0;
  std::string store_dir;
  std::string write_demo;
  std::string eval_csv;
  bool require_metrics = false;
  bool verify = true;
  bool stream = false;
  std::string scenario;
  double scenario_scale = 1.0;
  std::string methods;
  std::string methods_csv;
  bool check_expectations = false;
};

// A runtime failure: the reason, and exit status 1.
int Fail(const std::string& why) {
  std::cerr << "error: " << why << "\n";
  return 1;
}

// Arguments that do not parse: the usage line too.
int BadArguments() {
  std::cerr << "error: bad arguments\n"
            << "usage: replay [--input corpus.tsv] [--campaigns N] "
               "[--iters I] [--threads N] [--day-interval-ms MS] "
               "[--speedup X] [--deadline-ms MS] [--max-days D] "
               "[--store DIR] [--write-demo path.tsv] "
               "[--eval-csv path.csv] [--require-metrics] [--no-verify] "
               "[--stream] [--scenario NAME] [--scenario-scale X] "
               "[--methods a,b,c] [--methods-csv path.csv] "
               "[--check-expectations]\n";
  return 1;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto parse_size = [&](size_t* out) {
      const char* v = next();
      return v != nullptr && ParseSizeT(v, out);
    };
    // An int flag in [min, INT_MAX]; anything else is a bad argument.
    auto parse_int = [&](int min, int* out) {
      const char* v = next();
      long long value = 0;
      if (v == nullptr || !ParseInt64(v, &value) || value < min ||
          value > INT_MAX) {
        return false;
      }
      *out = static_cast<int>(value);
      return true;
    };
    auto parse_double = [&](double* out) {
      const char* v = next();
      return v != nullptr && ParseDouble(v, out);
    };
    if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      options->input = v;
    } else if (arg == "--campaigns") {
      if (!parse_size(&options->campaigns) || options->campaigns == 0) {
        return false;
      }
    } else if (arg == "--iters") {
      if (!parse_int(1, &options->iters)) return false;
    } else if (arg == "--threads") {
      if (!parse_int(0, &options->threads)) return false;
    } else if (arg == "--day-interval-ms") {
      if (!parse_double(&options->day_interval_ms) ||
          options->day_interval_ms < 0) {
        return false;
      }
    } else if (arg == "--speedup") {
      if (!parse_double(&options->speedup) || options->speedup <= 0) {
        return false;
      }
    } else if (arg == "--deadline-ms") {
      if (!parse_double(&options->deadline_ms)) return false;
    } else if (arg == "--max-days") {
      if (!parse_int(0, &options->max_days)) return false;
    } else if (arg == "--store") {
      const char* v = next();
      if (v == nullptr) return false;
      options->store_dir = v;
    } else if (arg == "--write-demo") {
      const char* v = next();
      if (v == nullptr) return false;
      options->write_demo = v;
    } else if (arg == "--eval-csv") {
      const char* v = next();
      if (v == nullptr) return false;
      options->eval_csv = v;
    } else if (arg == "--require-metrics") {
      options->require_metrics = true;
    } else if (arg == "--no-verify") {
      options->verify = false;
    } else if (arg == "--stream") {
      options->stream = true;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return false;
      options->scenario = v;
    } else if (arg == "--scenario-scale") {
      if (!parse_double(&options->scenario_scale) ||
          options->scenario_scale <= 0) {
        return false;
      }
    } else if (arg == "--methods") {
      const char* v = next();
      if (v == nullptr) return false;
      options->methods = v;
    } else if (arg == "--methods-csv") {
      const char* v = next();
      if (v == nullptr) return false;
      options->methods_csv = v;
    } else if (arg == "--check-expectations") {
      options->check_expectations = true;
    } else {
      return false;
    }
  }
  return true;
}

// Bitwise double comparison where NaN (nothing scored) matches NaN.
bool SameMetric(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

bool SameScore(const SnapshotScore& got, const SnapshotScore& expected) {
  return got.day == expected.day &&
         got.tweets_scored == expected.tweets_scored &&
         got.users_scored == expected.users_scored &&
         SameMetric(got.tweet_accuracy, expected.tweet_accuracy) &&
         SameMetric(got.tweet_permutation_accuracy,
                    expected.tweet_permutation_accuracy) &&
         SameMetric(got.tweet_nmi, expected.tweet_nmi) &&
         SameMetric(got.user_accuracy, expected.user_accuracy) &&
         SameMetric(got.user_permutation_accuracy,
                    expected.user_permutation_accuracy) &&
         SameMetric(got.user_nmi, expected.user_nmi);
}

// Generates the demo corpus (same shape as the default replay demo) and
// writes it to `path`; fills `lexicon` with the corrupted prior.
Status WriteDemoCorpus(const std::string& path, SentimentLexicon* lexicon) {
  SyntheticConfig config = Prop30LikeConfig();
  config.num_days = 8;
  config.base_tweets_per_day = 120.0;
  config.num_users = 300;
  SyntheticDataset dataset = GenerateSynthetic(config);
  *lexicon = CorruptLexicon(dataset.true_lexicon, 0.6, 0.05, 99);
  return WriteTsv(dataset.corpus, path);
}

// --scenario mode: run a named adversarial scenario through the
// multi-method comparison runner and report per-method timelines.
int RunScenarioMode(const CliOptions& options) {
  if (options.scenario == "list") {
    for (const std::string& name : ScenarioNames()) {
      Result<Scenario> s = GetScenario(name);
      std::cout << name << " — " << s.value().description << "\n";
    }
    return 0;
  }
  auto scenario_or = GetScenario(options.scenario, options.scenario_scale);
  if (!scenario_or.ok()) return Fail(scenario_or.status().ToString());
  const Scenario scenario = std::move(scenario_or).value();
  std::cerr << "scenario " << scenario.name << " (scale "
            << TableWriter::Num(options.scenario_scale, 2)
            << "): " << scenario.description << "\n";

  MethodRunnerOptions runner_options;
  if (!options.methods.empty()) {
    runner_options.methods = Split(options.methods, ',');
  }
  runner_options.max_iterations = options.iters;
  runner_options.num_threads = options.threads;
  auto run_or = RunScenario(scenario, runner_options);
  if (!run_or.ok()) return Fail(run_or.status().ToString());
  const ScenarioRun run = std::move(run_or).value();

  // Per-day comparison: one accuracy-pair column per method.
  TableWriter day_table(
      "Method comparison timeline ('-' = nothing scored that day)");
  std::vector<std::string> header = {"day"};
  size_t num_day_rows = 0;
  for (const MethodTimeline& m : run.methods) {
    header.push_back(m.method + " t-acc");
    header.push_back(m.method + " u-acc");
    num_day_rows = std::max(num_day_rows, m.days.size());
  }
  day_table.SetHeader(header);
  for (size_t d = 0; d < num_day_rows; ++d) {
    std::vector<std::string> row;
    for (const MethodTimeline& m : run.methods) {
      if (row.empty()) {
        row.push_back(d < m.days.size() ? std::to_string(m.days[d].day)
                                        : std::to_string(d));
      }
      if (d < m.days.size()) {
        row.push_back(TableWriter::Num(m.days[d].tweet_accuracy, 3));
        row.push_back(TableWriter::Num(m.days[d].user_accuracy, 3));
      } else {
        row.push_back("-");
        row.push_back("-");
      }
    }
    if (row.empty()) row.push_back(std::to_string(d));
    day_table.AddRow(row);
  }
  day_table.Print(std::cout);

  TableWriter aggregate_table("Run aggregates (micro-averaged)");
  aggregate_table.SetHeader(
      {"method", "tweets scored", "tweet acc", "users scored", "user acc"});
  for (const MethodTimeline& m : run.methods) {
    aggregate_table.AddRow({m.method, std::to_string(m.tweets_scored),
                            TableWriter::Num(m.tweet_accuracy, 3),
                            std::to_string(m.users_scored),
                            TableWriter::Num(m.user_accuracy, 3)});
  }
  aggregate_table.Print(std::cout);

  std::cout << "fleet health after " << run.replay_horizon_days
            << " replay days: " << run.final_health.healthy << " healthy, "
            << run.final_health.degraded << " degraded, "
            << run.final_health.quarantined << " quarantined, "
            << run.final_health.retired << " retired\n";

  if (!options.methods_csv.empty()) {
    const Status written =
        WriteMethodComparisonCsvFile(run, options.methods_csv);
    if (!written.ok()) {
      return Fail("methods csv write failed: " + written.ToString());
    }
    std::cout << "wrote method-comparison CSV to " << options.methods_csv
              << "\n";
  }

  if (options.check_expectations) {
    const ExpectationReport report = CheckExpectations(scenario, run);
    if (!report.ok()) {
      for (const std::string& failure : report.failures) {
        std::cerr << "expectation MISSED: " << failure << "\n";
      }
      return 1;
    }
    std::cout << "all scenario expectations met\n";
  }
  return 0;
}

// --stream mode: replay through the bounded-memory streaming reader, then
// verify bit-identity against the whole-file path over the same TSV.
int RunStreamingReplay(const CliOptions& options) {
  // Resolve the TSV path: --input, or generate + write the demo corpus.
  // The file must outlive BOTH replay passes, so the demo temp file is
  // removed only at the end.
  struct TempFileGuard {
    std::string path;
    ~TempFileGuard() {
      if (!path.empty()) std::remove(path.c_str());
    }
  } temp;
  std::string path = options.input;
  SentimentLexicon lexicon;
  if (path.empty()) {
    std::cerr << "demo mode: generating a synthetic campaign corpus\n";
    path = options.write_demo.empty()
               ? "/tmp/triclust_replay_stream." + std::to_string(getpid()) +
                     ".tsv"
               : options.write_demo;
    const Status written = WriteDemoCorpus(path, &lexicon);
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "wrote demo corpus to " << path << "\n";
    if (options.write_demo.empty()) temp.path = path;
  } else {
    lexicon = SentimentLexicon::BuiltinEnglish();
  }

  // --- two streaming passes fit the feature space ---------------------------
  // (document-frequency count, then vocabulary admission — the same
  // feature space MatrixBuilder::Fit learns, without the corpus in RAM).
  MatrixBuilder builder;
  builder.FitStreamBegin();
  int stream_days = 0;
  {
    auto counted = ReadTsvStream(
        path, [&](int /*day*/, const Corpus& c,
                  const std::vector<size_t>& ids) {
          for (size_t id : ids) builder.FitStreamCount(c.tweets()[id].text);
          return Status::OK();
        });
    if (!counted.ok()) return Fail(counted.status().ToString());
    stream_days = counted.value().num_days();
  }
  if (stream_days == 0) return Fail("corpus has no tweets");
  builder.FitStreamAdmitBegin();
  {
    auto admitted = ReadTsvStream(
        path, [&](int /*day*/, const Corpus& c,
                  const std::vector<size_t>& ids) {
          for (size_t id : ids) builder.FitStreamAdmit(c.tweets()[id].text);
          return Status::OK();
        });
    if (!admitted.ok()) return Fail(admitted.status().ToString());
  }
  builder.FitStreamFinish();
  std::cerr << "streaming fit: " << builder.vocabulary().size()
            << " vocabulary terms over " << stream_days << " days\n";

  // --- replay pass: pull-based streams over the live reader -----------------
  auto reader_or = TsvStreamReader::Open(path);
  if (!reader_or.ok()) return Fail(reader_or.status().ToString());
  const std::unique_ptr<TsvStreamReader> reader =
      std::move(reader_or).value();
  const Corpus& corpus = reader->corpus();

  const DenseMatrix sf0 = lexicon.BuildSf0(builder.vocabulary(), 3);
  OnlineConfig config;
  config.base.max_iterations = options.iters;
  config.base.track_loss = false;

  serving::CampaignEngine::Options engine_options;
  engine_options.num_threads = options.threads;
  serving::CampaignEngine engine(engine_options);
  const size_t num_streams = options.campaigns;
  for (size_t s = 0; s < num_streams; ++s) {
    engine.AddCampaign("topic-" + std::to_string(s), config, sf0, builder,
                       &corpus).ValueOrDie();
  }

  serving::ReplayDriver driver(&engine);
  // The day hook pulls day `d`'s chunk before the day's snapshots are
  // ingested, and releases day `d-1`'s text — Ingest tokenizes during the
  // day, so a chunk's text lives for exactly one replay day.
  TsvDayBatch batch;
  size_t max_chunk_tweets = 0;
  std::string stream_error;
  driver.set_day_hook([&](int day) {
    if (!stream_error.empty()) return;
    if (day > 0) reader->ReleaseText(batch);
    TsvDayBatch next;
    auto more = reader->NextDay(&next);
    if (!more.ok()) {
      stream_error = more.status().ToString();
    } else if (!more.value() || next.day != day) {
      stream_error = "stream ended before day " + std::to_string(day);
    }
    if (!stream_error.empty()) {
      batch = TsvDayBatch{};
      return;
    }
    max_chunk_tweets = std::max(max_chunk_tweets, next.tweet_ids.size());
    batch = std::move(next);
  });
  // Author-disjoint slices of the current chunk, matching
  // PartitionIntoStreams' user % num_streams sharding.
  for (size_t s = 0; s < num_streams; ++s) {
    driver.AddStream(s, stream_days, [&, s](int day) {
      Snapshot snap;
      snap.first_day = day;
      snap.last_day = day;
      for (size_t id : batch.tweet_ids) {
        if (corpus.tweets()[id].user % num_streams == s) {
          snap.tweet_ids.push_back(id);
        }
      }
      return snap;
    });
  }

  std::vector<std::vector<TriClusterResult>> streamed(num_streams);
  driver.AddObserver(
      [&](int /*day*/, const serving::CampaignEngine::SnapshotReport& r) {
        if (r.fitted) streamed[r.campaign].push_back(r.result);
      });
  TimelineEvaluator evaluator(&engine);
  evaluator.Attach(&driver);

  // Pacing/deadline/store knobs are ignored: this mode is about memory
  // shape and bit-identity, not wall-clock realism.
  serving::ReplayOptions replay_options;
  replay_options.max_days = options.max_days;
  serving::ReplayStats stats = driver.Replay(replay_options);
  evaluator.Annotate(&stats);
  if (!stream_error.empty()) {
    return Fail("streaming read failed mid-replay: " + stream_error);
  }

  // The memory bound, verified: after the replay only the final chunk may
  // still hold text.
  size_t tweets_with_text = 0;
  for (const Tweet& t : corpus.tweets()) {
    if (!t.text.empty()) ++tweets_with_text;
  }
  std::cout << "streamed " << stats.total_tweets << " tweets over "
            << stats.days.size() << " days holding at most one day-chunk "
            << "of text (largest chunk " << max_chunk_tweets
            << " tweets; " << tweets_with_text
            << " texts still resident)\n";
  if (tweets_with_text > max_chunk_tweets) {
    return Fail("streaming replay retained more than one day-chunk of text");
  }

  // --- whole-file pass over the same TSV, then bitwise comparison -----------
  auto loaded = ReadTsv(path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Corpus whole = std::move(loaded).value();
  MatrixBuilder whole_builder;
  whole_builder.Fit(whole);
  const DenseMatrix whole_sf0 = lexicon.BuildSf0(whole_builder.vocabulary(), 3);

  serving::CampaignEngine whole_engine(engine_options);
  for (size_t s = 0; s < num_streams; ++s) {
    whole_engine.AddCampaign("topic-" + std::to_string(s), config, whole_sf0,
                             whole_builder, &whole).ValueOrDie();
  }
  serving::ReplayDriver whole_driver(&whole_engine);
  const auto whole_streams = serving::PartitionIntoStreams(whole, num_streams);
  for (size_t s = 0; s < num_streams; ++s) {
    whole_driver.AddStream(s, whole_streams[s]);
  }
  std::vector<std::vector<TriClusterResult>> direct(num_streams);
  whole_driver.AddObserver(
      [&](int /*day*/, const serving::CampaignEngine::SnapshotReport& r) {
        if (r.fitted) direct[r.campaign].push_back(r.result);
      });
  TimelineEvaluator whole_evaluator(&whole_engine);
  whole_evaluator.Attach(&whole_driver);
  serving::ReplayOptions whole_options;
  whole_options.max_days = options.max_days;
  whole_driver.Replay(whole_options);

  bool identical = stream_days == whole.num_days();
  if (!identical) {
    std::cerr << "day horizon mismatch: streamed " << stream_days
              << " vs whole-file " << whole.num_days() << "\n";
  }
  for (size_t s = 0; s < num_streams && identical; ++s) {
    identical = streamed[s].size() == direct[s].size();
    for (size_t i = 0; i < streamed[s].size() && identical; ++i) {
      identical = streamed[s][i].su == direct[s][i].su &&
                  streamed[s][i].sp == direct[s][i].sp &&
                  streamed[s][i].sf == direct[s][i].sf;
    }
  }
  bool metrics_identical = true;
  for (size_t s = 0; s < num_streams && metrics_identical; ++s) {
    const auto& got = evaluator.timelines()[s].scores;
    const auto& expected = whole_evaluator.timelines()[s].scores;
    metrics_identical = got.size() == expected.size();
    for (size_t i = 0; i < got.size() && metrics_identical; ++i) {
      metrics_identical = SameScore(got[i], expected[i]);
    }
  }
  std::cout << "streamed replay vs whole-file replay (factors): "
            << (identical ? "bit-identical" : "MISMATCH (bug!)") << "\n";
  std::cout << "streamed accuracy timeline vs whole-file: "
            << (metrics_identical ? "bit-identical" : "MISMATCH (bug!)")
            << "\n";
  return identical && metrics_identical ? 0 : 1;
}

int RunReplay(const CliOptions& options) {
  if (!options.scenario.empty()) return RunScenarioMode(options);
  if (options.stream) return RunStreamingReplay(options);
  // --- load (or generate + round-trip) the corpus ---------------------------
  Corpus corpus;
  SentimentLexicon lexicon;
  if (options.input.empty()) {
    std::cerr << "demo mode: generating a synthetic campaign corpus\n";
    SyntheticConfig config = Prop30LikeConfig();
    config.num_days = 8;
    config.base_tweets_per_day = 120.0;
    config.num_users = 300;
    SyntheticDataset dataset = GenerateSynthetic(config);
    lexicon = CorruptLexicon(dataset.true_lexicon, 0.6, 0.05, 99);
    // Pid-unique default so concurrent demo runs (CI jobs, multiple
    // users on one host) never collide in /tmp.
    const std::string demo_path =
        options.write_demo.empty()
            ? "/tmp/triclust_replay_demo." + std::to_string(getpid()) +
                  ".tsv"
            : options.write_demo;
    const Status written = WriteTsv(dataset.corpus, demo_path);
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "wrote demo corpus to " << demo_path << "\n";
    auto loaded = ReadTsv(demo_path);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    corpus = std::move(loaded).value();
    if (options.write_demo.empty()) std::remove(demo_path.c_str());
  } else {
    auto loaded = ReadTsv(options.input);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    corpus = std::move(loaded).value();
    lexicon = SentimentLexicon::BuiltinEnglish();
    if (!options.write_demo.empty()) {
      // With --input, --write-demo re-exports the loaded corpus in the
      // canonical format: CRLF endings, comments and row order normalized
      // (see docs/FORMATS.md).
      const Status written = WriteTsv(corpus, options.write_demo);
      if (!written.ok()) return Fail(written.ToString());
      std::cerr << "re-exported corpus to " << options.write_demo << "\n";
    }
  }
  std::cerr << "corpus: " << corpus.num_tweets() << " tweets, "
            << corpus.num_users() << " users, " << corpus.num_days()
            << " days\n";
  if (corpus.num_tweets() == 0) return Fail("corpus has no tweets");

  // --- one fitted feature space, shared by every topic stream --------------
  MatrixBuilder builder;
  builder.Fit(corpus);
  const DenseMatrix sf0 = lexicon.BuildSf0(builder.vocabulary(), 3);
  OnlineConfig config;
  config.base.max_iterations = options.iters;
  config.base.track_loss = false;

  const auto streams =
      serving::PartitionIntoStreams(corpus, options.campaigns);

  serving::CampaignEngine::Options engine_options;
  engine_options.num_threads = options.threads;
  serving::CampaignEngine engine(engine_options);
  for (size_t s = 0; s < streams.size(); ++s) {
    engine.AddCampaign("topic-" + std::to_string(s), config, sf0, builder,
                       &corpus).ValueOrDie();
  }

  serving::ReplayDriver driver(&engine);
  for (size_t s = 0; s < streams.size(); ++s) {
    driver.AddStream(s, streams[s]);
  }

  // Capture each campaign's fitted factors for the verification pass.
  std::vector<std::vector<TriClusterResult>> replayed(streams.size());
  std::vector<std::vector<size_t>> replayed_sizes(streams.size());
  driver.AddObserver(
      [&](int /*day*/, const serving::CampaignEngine::SnapshotReport& r) {
        if (!r.fitted) return;
        replayed[r.campaign].push_back(r.result);
        replayed_sizes[r.campaign].push_back(r.data.num_tweets());
      });

  // The evaluation harness rides along as an additional observer and
  // scores every fitted snapshot against the corpus ground truth.
  TimelineEvaluator evaluator(&engine);
  evaluator.Attach(&driver);

  serving::ReplayOptions replay_options;
  replay_options.day_interval_ms = options.day_interval_ms;
  replay_options.speedup = options.speedup;
  replay_options.deadline_ms = options.deadline_ms;
  replay_options.max_days = options.max_days;
  serving::ReplayStats stats = driver.Replay(replay_options);
  evaluator.Annotate(&stats);

  // --- report ---------------------------------------------------------------
  TableWriter day_table("Replay timeline (one row per replayed day)");
  day_table.SetHeader({"day", "tweets", "fits", "deferred", "wait ms",
                       "advance ms", "tweet acc", "user acc"});
  for (const auto& d : stats.days) {
    day_table.AddRow({std::to_string(d.day), std::to_string(d.tweets),
                      std::to_string(d.fits), std::to_string(d.deferred),
                      TableWriter::Num(d.wait_ms, 1),
                      TableWriter::Num(d.advance_ms, 1),
                      TableWriter::Num(d.tweet_accuracy, 3),
                      TableWriter::Num(d.user_accuracy, 3)});
  }
  day_table.Print(std::cout);

  TableWriter campaign_table("Per-campaign replay stats");
  campaign_table.SetHeader({"campaign", "snapshots", "deferred", "tweets",
                            "mean solve ms", "max solve ms", "tweet acc",
                            "user acc"});
  for (const auto& c : stats.campaigns) {
    campaign_table.AddRow(
        {engine.name(c.campaign), std::to_string(c.snapshots),
         std::to_string(c.deferred), std::to_string(c.tweets),
         TableWriter::Num(c.MeanSolveMs(), 1),
         TableWriter::Num(c.solve_ms_max, 1),
         TableWriter::Num(c.tweet_accuracy, 3),
         TableWriter::Num(c.user_accuracy, 3)});
  }
  campaign_table.Print(std::cout);

  // --- accuracy timeline ----------------------------------------------------
  TableWriter eval_table(
      "Accuracy timeline (one row per fitted snapshot; '-' = nothing "
      "scored)");
  eval_table.SetHeader({"day", "campaign", "tweets scored", "tweet acc",
                        "tweet perm", "tweet NMI", "users scored",
                        "user acc", "user perm", "user NMI"});
  for (const auto& timeline : evaluator.timelines()) {
    for (const SnapshotScore& s : timeline.scores) {
      eval_table.AddRow({std::to_string(s.day), timeline.name,
                         std::to_string(s.tweets_scored),
                         TableWriter::Num(s.tweet_accuracy, 3),
                         TableWriter::Num(s.tweet_permutation_accuracy, 3),
                         TableWriter::Num(s.tweet_nmi, 3),
                         std::to_string(s.users_scored),
                         TableWriter::Num(s.user_accuracy, 3),
                         TableWriter::Num(s.user_permutation_accuracy, 3),
                         TableWriter::Num(s.user_nmi, 3)});
    }
  }
  eval_table.Print(std::cout);

  const TimelineAggregate aggregate = evaluator.RunAggregate();
  std::cout << "run accuracy (micro): tweet "
            << TableWriter::Num(aggregate.tweet_accuracy, 3) << " over "
            << aggregate.tweets_scored << " scored tweets, user "
            << TableWriter::Num(aggregate.user_accuracy, 3) << " over "
            << aggregate.users_scored << " scored users ("
            << aggregate.snapshots_scored << "/" << aggregate.snapshots
            << " snapshots scored)\n";

  if (!options.eval_csv.empty()) {
    const Status written = evaluator.WriteCsvFile(options.eval_csv);
    if (!written.ok()) {
      return Fail("eval csv write failed: " + written.ToString());
    }
    std::cout << "wrote accuracy timeline CSV to " << options.eval_csv
              << "\n";
  }

  if (options.require_metrics) {
    const bool scored =
        aggregate.tweets_scored > 0 && aggregate.users_scored > 0 &&
        std::isfinite(aggregate.tweet_accuracy) &&
        std::isfinite(aggregate.user_accuracy) &&
        std::isfinite(aggregate.tweet_nmi) &&
        std::isfinite(aggregate.user_nmi);
    if (!scored) {
      return Fail(
          "--require-metrics: evaluation produced no scored items or "
          "non-finite aggregate metrics");
    }
  }

  std::cout << "replayed " << stats.total_tweets << " tweets over "
            << stats.days.size() << " days in "
            << TableWriter::Num(stats.wall_ms, 0) << " ms ("
            << TableWriter::Num(stats.TweetsPerSecond(), 0)
            << " tweets/s, " << stats.total_deferred
            << " deferred fits)\n";

  // --- persist the fleet ----------------------------------------------------
  if (!options.store_dir.empty()) {
    const serving::CampaignStore store(options.store_dir);
    const Status saved = store.Save(engine);
    if (!saved.ok()) return Fail("store save failed: " + saved.ToString());
    std::cout << "checkpointed " << engine.num_campaigns()
              << " campaigns into " << options.store_dir << "\n";
  }

  // --- verify against a direct per-day solve --------------------------------
  if (options.verify) {
    if (options.deadline_ms > 0.0) {
      std::cout << "verification skipped: a deadline reshapes snapshot "
                   "boundaries, so a direct per-day run is not comparable\n";
      return 0;
    }
    bool identical = true;
    bool metrics_identical = true;
    for (size_t s = 0; s < streams.size(); ++s) {
      const SnapshotSolver solver(config, sf0);
      StreamState state;
      size_t cursor = 0;
      const std::vector<SnapshotScore>& scores =
          evaluator.timelines()[s].scores;
      const int days = options.max_days > 0
                           ? std::min<int>(options.max_days,
                                           static_cast<int>(streams[s].size()))
                           : static_cast<int>(streams[s].size());
      for (int day = 0; day < days; ++day) {
        const Snapshot& snap = streams[s][static_cast<size_t>(day)];
        const DatasetMatrices data =
            builder.Build(corpus, snap.tweet_ids, snap.last_day);
        const TriClusterResult expected = solver.Solve(data, &state);
        if (cursor >= replayed[s].size() ||
            replayed_sizes[s][cursor] != data.num_tweets() ||
            !(replayed[s][cursor].su == expected.su &&
              replayed[s][cursor].sp == expected.sp &&
              replayed[s][cursor].sf == expected.sf)) {
          identical = false;
        }
        // The replayed accuracy timeline must equal scoring the direct
        // solve — same scoring kernel, bit-identical factors in, so every
        // metric double must come out bit-for-bit equal.
        if (cursor >= scores.size() ||
            !SameScore(scores[cursor],
                       ScoreSnapshot(corpus, data, expected, day, s,
                                     snap.last_day))) {
          metrics_identical = false;
        }
        ++cursor;
      }
      if (cursor != replayed[s].size()) identical = false;
      if (cursor != scores.size()) metrics_identical = false;
    }
    std::cout << "replay vs direct per-day solve: "
              << (identical ? "bit-identical" : "MISMATCH (bug!)") << "\n";
    std::cout << "replayed accuracy timeline vs direct scoring: "
              << (metrics_identical ? "bit-identical" : "MISMATCH (bug!)")
              << "\n";
    return identical && metrics_identical ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  triclust::CliOptions options;
  if (!triclust::ParseArgs(argc, argv, &options)) {
    return triclust::BadArguments();
  }
  return triclust::RunReplay(options);
}
