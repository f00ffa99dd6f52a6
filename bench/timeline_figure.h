#ifndef TRICLUST_BENCH_TIMELINE_FIGURE_H_
#define TRICLUST_BENCH_TIMELINE_FIGURE_H_

/// Shared driver of the paper's Figure 11/12 benches: runs the online,
/// mini-batch and full-batch processing modes over a per-day stream and
/// prints the three per-day series (running time, tweet-level accuracy,
/// user-level accuracy) plus a whole-stream summary. Online replays the
/// stream through the serving stack (bench_util::ReplayOnline); the two
/// offline modes are bench_util::RunOfflinePerDay. Every summary accuracy
/// is the scored-weighted aggregate of the day scores. Each mode is
/// reported as one JSON entry `<report_prefix>/mode:<mode>` whose
/// real_time is the whole-stream processing time.

#include <iostream>
#include <string>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace bench_fig {

inline void RunTimelineFigure(const char* title,
                              const bench_util::BenchDataset& b,
                              const std::string& report_prefix,
                              bench_flags::Reporter& reporter,
                              const bench_flags::Flags& flags) {
  bench_util::PrintHeader(title);
  OnlineConfig config;
  config.base.max_iterations = flags.ScaledIters(60);
  config.base.track_loss = false;
  const DenseMatrix sf0 =
      b.lexicon.BuildSf0(b.builder.vocabulary(), config.base.num_clusters);
  const Corpus& corpus = b.dataset.corpus;

  const auto online = bench_util::ReplayOnline(corpus, b.builder, sf0, config);
  const auto mini = bench_util::RunOfflinePerDay(
      corpus, b.builder, sf0, config.base, /*full_batch=*/false);
  const auto full = bench_util::RunOfflinePerDay(
      corpus, b.builder, sf0, config.base, /*full_batch=*/true);

  const auto pct = [](double fraction) {
    return TableWriter::Num(100.0 * fraction, 1);
  };
  TableWriter table("Per-day series (cf. paper Fig. 11/12 a,b,c)");
  table.SetHeader({"day", "n(t)", "t_onl(ms)", "t_mini(ms)", "t_full(ms)",
                   "tw_onl", "tw_mini", "tw_full", "us_onl", "us_mini",
                   "us_full"});
  for (size_t d = 0; d < online.days.size(); ++d) {
    table.AddRow({std::to_string(online.days[d].day),
                  std::to_string(online.days[d].tweets),
                  TableWriter::Num(online.solve_ms[d], 1),
                  TableWriter::Num(mini.solve_ms[d], 1),
                  TableWriter::Num(full.solve_ms[d], 1),
                  pct(online.days[d].tweet_accuracy),
                  pct(mini.days[d].tweet_accuracy),
                  pct(full.days[d].tweet_accuracy),
                  pct(online.days[d].user_accuracy),
                  pct(mini.days[d].user_accuracy),
                  pct(full.days[d].user_accuracy)});
  }
  table.Print(std::cout);

  TableWriter summary("Stream summary (accuracy over every scored item)");
  summary.SetHeader({"mode", "total time (s)", "tweet acc", "user acc"});
  auto add = [&](const char* name, const bench_util::StreamScores& run) {
    const double tweet_pct = 100.0 * run.aggregate.tweet_accuracy;
    const double user_pct = 100.0 * run.aggregate.user_accuracy;
    summary.AddRow({name, TableWriter::Num(run.TotalMs() / 1e3, 3),
                    TableWriter::Num(tweet_pct, 2),
                    TableWriter::Num(user_pct, 2)});
    reporter.Add(report_prefix + "/mode:" + name, run.TotalMs(),
                 {{"days", static_cast<double>(run.days.size())},
                  {"tweet_accuracy_pct", tweet_pct},
                  {"user_accuracy_pct", user_pct}});
  };
  add("online", online);
  add("mini-batch", mini);
  add("full-batch", full);
  summary.Print(std::cout);
  std::cout << "\nPaper shape to check: online ≈ full-batch accuracy at a "
               "fraction of full-batch time; mini-batch cheapest but least "
               "accurate.\n";
}

}  // namespace bench_fig
}  // namespace triclust

#endif  // TRICLUST_BENCH_TIMELINE_FIGURE_H_
