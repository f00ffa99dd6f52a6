// The three workloads of the repository benchmark, driven through the
// library's public entry points: set-up (ReadTsv, MatrixBuilder::Fit, the
// lexicon prior, AddCampaign or BuildAll) and one pass of the measured
// loop. perfbench/README.md says why each workload exists.

#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/offline.h"
#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "src/eval/metrics.h"
#include "src/eval/timeline_eval.h"
#include "src/matrix/ops.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/campaign_store.h"
#include "src/serving/replay.h"
#include "src/text/lexicon.h"
#include "src/util/fs.h"
#include "src/util/logging.h"

namespace perfbench {
namespace {

using triclust::Corpus;
using triclust::DatasetMatrices;
using triclust::DenseMatrix;
using triclust::MatrixBuilder;
using triclust::OnlineConfig;
using triclust::SentimentLexicon;
using triclust::TriClusterConfig;
using triclust::TriClusterResult;
using triclust::serving::CampaignEngine;

constexpr size_t kFleetCampaigns = 16;
// CampaignStore::Save after every 10th interval, as campaign_server
// checkpoints mid-stream.
constexpr int kSaveEvery = 10;
constexpr int kNumClusters = 3;

double MsSince(double start_us) { return (NowUs() - start_us) / 1e3; }

[[noreturn]] void Die(const std::string& what) {
  TRICLUST_LOG(kError) << "perfbench_run: " << what;
  std::exit(1);
}

Corpus ReadCorpus(const Inputs& inputs, int corpus, SetupTimes* times) {
  const double start = NowUs();
  auto loaded = triclust::ReadTsv(inputs.CorpusPath(corpus));
  if (!loaded.ok()) Die(loaded.status().ToString());
  times->read_tsv_ms = MsSince(start);
  return std::move(loaded).value();
}

// The prior: the lexicon file perfbench_gen wrote, turned into Sf0 over
// the fitted vocabulary.
DenseMatrix BuildPrior(const Inputs& inputs, int corpus,
                       const MatrixBuilder& builder, SetupTimes* times) {
  const double start = NowUs();
  const std::string path = inputs.LexiconPath(corpus);
  auto text = triclust::GetDefaultFileSystem()->ReadFileToString(path);
  if (!text.ok()) Die(text.status().ToString());
  SentimentLexicon lexicon;
  std::istringstream lines(text.value());
  std::string line;
  while (std::getline(lines, line)) {
    const size_t tab = line.find('\t');
    triclust::Sentiment polarity;
    if (tab == std::string::npos ||
        !triclust::ParseSentimentLabel(line.substr(tab + 1), &polarity)) {
      Die(path + ": malformed line '" + line + "'");
    }
    lexicon.Add(line.substr(0, tab), polarity);
  }
  DenseMatrix sf0 = lexicon.BuildSf0(builder.vocabulary(), kNumClusters);
  times->prior_ms = MsSince(start);
  return sf0;
}

struct Rusage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long voluntary = 0;
  long involuntary = 0;
};

Rusage ReadRusage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Rusage r;
  r.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6;
  r.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
  r.voluntary = usage.ru_nvcsw;
  r.involuntary = usage.ru_nivcsw;
  return r;
}

void AddRusageDelta(const Rusage& before, PassResult* pass) {
  const Rusage after = ReadRusage();
  pass->user_cpu_s += after.user_s - before.user_s;
  pass->sys_cpu_s += after.sys_s - before.sys_s;
  pass->voluntary_ctx += after.voluntary - before.voluntary;
  pass->involuntary_ctx += after.involuntary - before.involuntary;
}

// The correctness gate on one set of fitted factors.
void CheckFactors(const TriClusterResult& r, const std::string& where,
                  std::vector<std::string>* errors) {
  const std::pair<const char*, const DenseMatrix*> factors[] = {
      {"Sp", &r.sp}, {"Su", &r.su}, {"Sf", &r.sf}, {"Hp", &r.hp},
      {"Hu", &r.hu}};
  for (const auto& [name, m] : factors) {
    if (!triclust::AllFinite(*m)) {
      errors->push_back(where + ": " + name + " is not finite");
    } else if (!triclust::IsNonNegative(*m)) {
      errors->push_back(where + ": " + name + " has a negative entry");
    }
  }
}

double DirectoryKb(const std::string& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / 1024.0;
}

FitProbe MakeProbe(const FitRecord& record,
                   const TriClusterConfig& base) {
  FitProbe probe;
  probe.solve_ms = record.solve_ms;
  probe.iterations = record.result->iterations;
  probe.rows = record.data->num_tweets();
  probe.width = record.width;
  probe.calls = ProbeFit(record, base);
  return probe;
}

// ---------------------------------------------------------------------------
// Online workloads: fleet_replay (16 campaigns) and burst_single (one).

struct OnlineSetup {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<CampaignEngine> engine;
  /// streams[c][interval]: the tweets campaign c ingests in that interval.
  std::vector<std::vector<triclust::Snapshot>> streams;
  /// Traced passes time EmitSnapshot on this copy of the fitted builder.
  std::unique_ptr<MatrixBuilder> shadow;
};

OnlineSetup SetUpOnline(Workload workload, const Inputs& inputs,
                        bool with_shadow, SetupTimes* times) {
  OnlineSetup s;
  s.corpus = std::make_unique<Corpus>(ReadCorpus(inputs, 0, times));

  double start = NowUs();
  MatrixBuilder builder;
  builder.Fit(*s.corpus);
  times->vocab_fit_ms = MsSince(start);

  const DenseMatrix sf0 = BuildPrior(inputs, 0, builder, times);

  // Registration follows the replay CLI: one fitted builder and prior,
  // copied into every topic campaign of the partition. Library defaults
  // throughout: OnlineConfig{} (tolerance 1e-5, at most 100 iterations)
  // and EngineOptions{} (num_threads = 0, the machine's width).
  start = NowUs();
  const size_t campaigns =
      workload == Workload::kFleetReplay ? kFleetCampaigns : 1;
  s.streams = triclust::serving::PartitionIntoStreams(*s.corpus, campaigns);
  s.engine = std::make_unique<CampaignEngine>();
  for (size_t c = 0; c < campaigns; ++c) {
    const double add_start = NowUs();
    s.engine
        ->AddCampaign("topic-" + std::to_string(c), OnlineConfig(), sf0,
                      builder, s.corpus.get())
        .ValueOrDie();
    times->add_campaign_ms.push_back(MsSince(add_start));
  }
  times->register_ms = MsSince(start);
  if (with_shadow) s.shadow = std::make_unique<MatrixBuilder>(builder);
  return s;
}

// Kernel budget each report's fit ran at: Advance() splits the pool over
// its targets after rotating them by the call count (see
// CampaignEngine::Advance); every campaign is a target here because the
// loop passes include_idle and a quarantined campaign fails the gate.
std::vector<int> FitWidths(const CampaignEngine& engine, size_t advance_index) {
  const size_t n = engine.num_campaigns();
  const std::vector<int> budgets =
      CampaignEngine::SplitThreadBudget(engine.effective_num_threads(), n);
  std::vector<int> widths(n);
  const size_t rotation = advance_index % n;
  for (size_t c = 0; c < n; ++c) widths[c] = budgets[(c + n - rotation) % n];
  return widths;
}

// Probes one fitted report's layer calls, and times EmitSnapshot of the
// same ids on the shadow builder (data.emit_ms).
void ProbeOnlineFit(const CampaignEngine::SnapshotReport& report, int width,
                    OnlineSetup* s, PassResult* pass) {
  const OnlineConfig config;
  FitRecord record;
  record.data = &report.data;
  record.result = &report.result;
  record.sf_target = &report.info.sfw;
  record.temporal_weights.assign(report.data.num_users(), 0.0);
  for (size_t j : report.info.partition.evolving_rows) {
    record.temporal_weights[j] = config.gamma;
  }
  record.alpha = config.alpha;
  record.beta = config.base.beta;
  record.width = width;
  record.solve_ms = report.solve_ms;
  FitProbe probe = MakeProbe(record, config.base);

  s->shadow->Append(*s->corpus, report.data.tweet_ids);
  const double start = NowUs();
  const DatasetMatrices emitted =
      s->shadow->EmitSnapshot(*s->corpus, report.label_day);
  probe.emit_ms = MsSince(start);
  pass->emit_ms.push_back(probe.emit_ms);
  if (emitted.num_tweets() != report.data.num_tweets()) {
    pass->errors.push_back("shadow emit disagrees with the engine");
  }
  pass->probes.push_back(probe);
}

PassResult RunOnlinePass(Workload workload, const Inputs& inputs,
                         bool traced) {
  PassResult pass;
  pass.traced = traced;
  pass.setups.emplace_back();
  OnlineSetup s = SetUpOnline(workload, inputs, traced, &pass.setups.back());
  CampaignEngine& engine = *s.engine;
  pass.width = engine.effective_num_threads();

  const std::string store_dir = inputs.work_dir + "/store";
  std::filesystem::remove_all(store_dir);
  const triclust::serving::CampaignStore store(store_dir);
  triclust::TimelineEvaluator evaluator(&engine);
  triclust::serving::AdvanceOptions advance_options;
  advance_options.include_idle = true;

  SpanLog log(traced);
  const int intervals = static_cast<int>(s.streams[0].size());
  for (int day = 0; day < intervals; ++day) {
    // Closed loop: interval day+1 is ingested as soon as interval day's
    // Advance, checkpoint and scoring return.
    const Rusage before = ReadRusage();
    const double interval_start = NowUs();
    const int interval_span = log.Open("interval", -1, day);
    for (size_t c = 0; c < s.streams.size(); ++c) {
      const triclust::Snapshot& snap = s.streams[c][day];
      if (snap.tweet_ids.empty()) continue;
      const int span = log.Open("ingest", interval_span, day);
      engine.Ingest(c, snap.tweet_ids, snap.last_day);
      log.Close(span);
      pass.tweets += snap.tweet_ids.size();
      pass.ingested += snap.tweet_ids.size();
    }

    const int advance_span = log.Open("advance", interval_span, day);
    const double advance_start = NowUs();
    const std::vector<CampaignEngine::SnapshotReport> reports =
        engine.Advance(advance_options);
    pass.advance_ms.push_back(MsSince(advance_start));
    log.Close(advance_span);
    for (const auto& report : reports) {
      log.AddDuration("fit", report.solve_ms * 1e3, advance_span, day);
    }

    if ((day + 1) % kSaveEvery == 0) {
      const int span = log.Open("save", interval_span, day);
      const double save_start = NowUs();
      const triclust::Status saved = store.Save(engine);
      pass.save_ms.push_back(MsSince(save_start));
      log.Close(span);
      if (!saved.ok()) pass.errors.push_back("save: " + saved.ToString());
    }

    const int observe_span = log.Open("observe", interval_span, day);
    for (const auto& report : reports) evaluator.Observe(day, report);
    log.Close(observe_span);
    log.Close(interval_span);
    pass.interval_ms.push_back(MsSince(interval_start));
    AddRusageDelta(before, &pass);

    // Bookkeeping, the correctness gate and the layer probes, outside the
    // interval's time.
    if ((day + 1) % kSaveEvery == 0) {
      pass.checkpoint_kb.push_back(DirectoryKb(store_dir));
    }
    const std::vector<int> widths =
        traced ? FitWidths(engine, static_cast<size_t>(day))
               : std::vector<int>();
    for (const auto& report : reports) {
      if (!report.fitted && report.status.ok()) continue;  // no deadline set
      ++pass.fits_attempted;
      if (!report.status.ok()) {
        ++pass.fits_failed;
        pass.errors.push_back(report.status.ToString());
        continue;
      }
      if (report.data.num_tweets() == 0) continue;  // idle: carried forward
      pass.solve_ms.push_back(report.solve_ms);
      pass.iterations += static_cast<size_t>(report.result.iterations);
      pass.converged += report.result.converged ? 1 : 0;
      CheckFactors(report.result,
                   "interval " + std::to_string(day) + " campaign " +
                       std::to_string(report.campaign),
                   &pass.errors);
      if (traced) ProbeOnlineFit(report, widths[report.campaign], &s, &pass);
    }
  }
  pass.os_threads = CountThreads();

  const triclust::serving::EngineHealthReport health = engine.HealthReport();
  if (!health.AllHealthy()) {
    pass.errors.push_back(std::to_string(health.degraded) + " degraded and " +
                          std::to_string(health.quarantined) +
                          " quarantined campaign(s)");
  }
  const triclust::TimelineAggregate aggregate = evaluator.RunAggregate();
  pass.tweet_accuracy = aggregate.tweet_accuracy;
  pass.user_accuracy = aggregate.user_accuracy;
  pass.spans = log.spans();

  return pass;
}

// ---------------------------------------------------------------------------
// offline_sweep: Algorithm 1 over the Fig. 6/7 grid.

struct OfflineSetup {
  Corpus corpus;
  MatrixBuilder builder;
  DatasetMatrices data;
  DenseMatrix sf0;
};

OfflineSetup SetUpOffline(const Inputs& inputs, int corpus,
                          SetupTimes* times) {
  OfflineSetup s;
  s.corpus = ReadCorpus(inputs, corpus, times);
  double start = NowUs();
  s.builder.Fit(s.corpus);
  times->vocab_fit_ms = MsSince(start);
  s.sf0 = BuildPrior(inputs, corpus, s.builder, times);
  start = NowUs();
  s.data = s.builder.BuildAll(s.corpus);
  times->register_ms = MsSince(start);
  return s;
}

// offline_sweep has no serving tier, so a traced pass measures the
// serving-layer calls on its corpus after the sweep: the corpus registered
// as one campaign, ingested, emitted on a shadow builder, advanced once
// and checkpointed. These calls are outside every "interval" span.
void ProbeServingOnOfflineCorpus(OfflineSetup* s, const Inputs& inputs,
                                 SpanLog* log, PassResult* pass) {
  CampaignEngine engine;
  double start = NowUs();
  engine
      .AddCampaign("offline-corpus", OnlineConfig(), s->sf0, s->builder,
                   &s->corpus)
      .ValueOrDie();
  pass->setups.back().add_campaign_ms.push_back(MsSince(start));

  std::vector<size_t> ids(s->corpus.num_tweets());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const int probe_span = log->Open("serving_probe", -1, -1);
  const int ingest_span = log->Open("ingest", probe_span, -1);
  engine.Ingest(0, ids);
  log->Close(ingest_span);
  pass->ingested += ids.size();

  s->builder.Append(s->corpus, ids);
  start = NowUs();
  const DatasetMatrices emitted = s->builder.EmitSnapshot(s->corpus);
  pass->emit_ms.push_back(MsSince(start));

  const auto reports = engine.Advance();
  if (reports.size() != 1 || !reports[0].fitted ||
      reports[0].data.num_tweets() != emitted.num_tweets()) {
    pass->errors.push_back("serving probe: the one-campaign fit failed");
  }
  const std::string store_dir = inputs.work_dir + "/store";
  std::filesystem::remove_all(store_dir);
  const int save_span = log->Open("save", probe_span, -1);
  start = NowUs();
  const triclust::Status saved =
      triclust::serving::CampaignStore(store_dir).Save(engine);
  pass->save_ms.push_back(MsSince(start));
  log->Close(save_span);
  log->Close(probe_span);
  if (!saved.ok()) pass->errors.push_back("save: " + saved.ToString());
  pass->checkpoint_kb.push_back(DirectoryKb(store_dir));
}

// One (α, β) grid over one corpus, appended to `pass`.
void RunGrid(OfflineSetup* s, int first_cell, SpanLog* log, PassResult* pass,
             double* tweet_accuracy_sum, double* user_accuracy_sum) {
  // The serial default (num_threads = 1) with track_loss off, as the CLI
  // and the figure benches run Algorithm 1.
  TriClusterConfig base;
  base.track_loss = false;
  const double grid[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  int cell = first_cell;
  for (double alpha : grid) {
    for (double beta : grid) {
      TriClusterConfig config = base;
      config.alpha = alpha;
      config.beta = beta;
      const Rusage before = ReadRusage();
      const double cell_start = NowUs();
      const int cell_span = log->Open("interval", -1, cell);
      const int run_span = log->Open("run", cell_span, cell);
      const double run_start = NowUs();
      TriClusterResult result =
          triclust::OfflineTriClusterer(config).Run(s->data, s->sf0);
      const double run_ms = MsSince(run_start);
      log->Close(run_span);
      const int observe_span = log->Open("observe", cell_span, cell);
      *tweet_accuracy_sum += triclust::ClusteringAccuracy(
          result.TweetClusters(), s->data.tweet_labels);
      *user_accuracy_sum += triclust::ClusteringAccuracy(
          result.UserClusters(), s->data.user_labels);
      log->Close(observe_span);
      log->Close(cell_span);
      pass->interval_ms.push_back(MsSince(cell_start));
      AddRusageDelta(before, pass);
      pass->advance_ms.push_back(run_ms);
      pass->solve_ms.push_back(run_ms);
      pass->tweets += s->data.num_tweets();

      ++pass->fits_attempted;
      // A Run that stops early without converging rolled back to its last
      // finite iterate after a divergence.
      if (!result.converged && result.iterations < config.max_iterations) {
        ++pass->fits_failed;
      }
      pass->iterations += static_cast<size_t>(result.iterations);
      pass->converged += result.converged ? 1 : 0;
      CheckFactors(result, "cell " + std::to_string(cell), &pass->errors);
      if (log->enabled()) {
        FitRecord record;
        record.data = &s->data;
        record.result = &result;
        record.sf_target = &s->sf0;
        record.alpha = alpha;
        record.beta = beta;
        record.solve_ms = run_ms;
        pass->probes.push_back(MakeProbe(record, base));
      }
      ++cell;
    }
  }
  pass->os_threads = CountThreads();
}

PassResult RunOfflinePass(const Inputs& inputs, bool traced) {
  PassResult pass;
  pass.traced = traced;
  pass.width = 1;
  SpanLog log(traced);
  double tweet_accuracy_sum = 0.0;
  double user_accuracy_sum = 0.0;
  // One grid per generated corpus: the iteration counts to convergence
  // differ from corpus to corpus, and sweeping several per pass keeps that
  // spread out of the run-to-run numbers.
  const int corpora = NumCorpora(Workload::kOfflineSweep);
  for (int i = 0; i < corpora; ++i) {
    pass.setups.emplace_back();
    OfflineSetup s = SetUpOffline(inputs, i, &pass.setups.back());
    RunGrid(&s, static_cast<int>(pass.interval_ms.size()), &log, &pass,
            &tweet_accuracy_sum, &user_accuracy_sum);
    if (traced && i == corpora - 1) {
      ProbeServingOnOfflineCorpus(&s, inputs, &log, &pass);
    }
  }
  const double cells = static_cast<double>(pass.interval_ms.size());
  pass.tweet_accuracy = tweet_accuracy_sum / cells;
  pass.user_accuracy = user_accuracy_sum / cells;
  pass.spans = log.spans();
  return pass;
}

}  // namespace

double PassResult::timed_s() const {
  double total_ms = 0.0;
  for (double ms : interval_ms) total_ms += ms;
  return total_ms / 1e3;
}

PassResult RunPass(Workload workload, const Inputs& inputs, bool traced) {
  if (workload == Workload::kOfflineSweep) {
    return RunOfflinePass(inputs, traced);
  }
  return RunOnlinePass(workload, inputs, traced);
}

}  // namespace perfbench
