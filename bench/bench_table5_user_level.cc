/// Reproduces paper Table 5: user-level sentiment analysis comparison —
/// supervised (SVM, NB on user–feature rows), semi-supervised (LP on the
/// retweet graph, UserReg-10) and unsupervised (BACG, tri-clustering,
/// online tri-clustering) on both campaign topics.

#include <cmath>
#include <functional>
#include <iostream>

#include "bench/methods.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

using bench_methods::MethodScores;

void Run(bench_flags::Reporter& reporter, const bench_flags::Flags& flags) {
  bench_util::PrintHeader("Table 5: user-level sentiment comparison");

  const bench_util::BenchDataset prop30 = bench_util::MakeProp30();
  const bench_util::BenchDataset prop37 = bench_util::MakeProp37();

  TableWriter table(
      "User-level Accuracy / NMI, percent (cf. paper Table 5)");
  table.SetHeader({"method", "type", "acc-30", "acc-37", "nmi-30",
                   "nmi-37"});

  // Same per-method timing + finite-counters-only convention as Table 4.
  auto add = [&](const std::string& method, const std::string& slug,
                 const std::string& type,
                 const std::function<MethodScores(
                     const bench_util::BenchDataset&)>& fn) {
    const Stopwatch watch;
    const MethodScores s30 = fn(prop30);
    const MethodScores s37 = fn(prop37);
    const double both_ms = watch.ElapsedMillis();
    table.AddRow({method, type, TableWriter::Num(s30.accuracy),
                  TableWriter::Num(s37.accuracy),
                  TableWriter::Num(s30.nmi), TableWriter::Num(s37.nmi)});
    std::vector<std::pair<std::string, double>> counters = {
        {"accuracy_prop30_pct", s30.accuracy},
        {"accuracy_prop37_pct", s37.accuracy}};
    if (std::isfinite(s30.nmi)) counters.push_back({"nmi_prop30_pct", s30.nmi});
    if (std::isfinite(s37.nmi)) counters.push_back({"nmi_prop37_pct", s37.nmi});
    reporter.Add("table5/user_level/" + slug, both_ms, counters);
  };

  add("SVM [28]", "svm", "supervised", bench_methods::UserSvm);
  add("NB [11]", "nb", "supervised", bench_methods::UserNaiveBayes);
  add("LP-5 [30]", "lp5", "semi",
      [](const bench_util::BenchDataset& b) {
        return bench_methods::UserLabelPropagation(b, 0.05);
      });
  add("LP-10 [30]", "lp10", "semi",
      [](const bench_util::BenchDataset& b) {
        return bench_methods::UserLabelPropagation(b, 0.10);
      });
  add("UserReg-10 [7]", "userreg10", "semi", bench_methods::UserUserReg);
  add("BACG [34]", "bacg", "unsup", bench_methods::UserBacg);
  add("Tri-clustering", "triclust", "unsup",
      [&](const bench_util::BenchDataset& b) {
        const TriClusterResult r = bench_methods::RunOfflineTri(b, flags);
        return bench_methods::ScoreClustering(r.UserClusters(),
                                              b.data.user_labels);
      });
  add("Online tri-clustering", "online_triclust", "unsup",
      [&](const bench_util::BenchDataset& b) {
        const TimelineAggregate online =
            bench_methods::ReplayOnlineTri(b, flags);
        return MethodScores{100.0 * online.user_accuracy,
                            100.0 * online.user_nmi};
      });

  table.Print(std::cout);
  std::cout << "\nPaper shape to check: tri-clustering close to the "
               "supervised methods, clearly above BACG and LP; online "
               "variant the best unsupervised row.\n";
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_table5_user_level",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::Run(reporter, flags);
      });
}
