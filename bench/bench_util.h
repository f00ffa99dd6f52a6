#ifndef TRICLUST_BENCH_BENCH_UTIL_H_
#define TRICLUST_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <string>

#include "src/data/matrix_builder.h"
#include "src/data/synthetic.h"
#include "src/text/lexicon.h"

namespace triclust {
namespace bench_util {

/// \file
/// Shared dataset preparation for the bench/ executables.
///
/// Two conventions keep the JSON reports (bench/bench_flags.h) usable by
/// the statistical harness (tools/bench_runner.py):
///
/// - **Preparation is not measurement.** `Prepare` (generation,
///   vectorization, lexicon corruption) runs *outside* any timed section;
///   a reported `real_time` covers only the solve/sweep under study, so
///   repetition statistics measure the kernel, not the generator.
/// - **Determinism.** Every dataset is seeded, so counters derived from
///   the data (accuracy, nnz, label counts) are identical across
///   repetitions and aggregate to zero variance in the harness — a
///   nonzero stddev on such a counter indicates a determinism bug, and
///   the report makes it visible.

/// One fully-prepared experimental dataset: corpus + matrices + the
/// imperfect prior lexicon used as Sf0 (60% coverage, 5% polarity noise —
/// mimicking the automatically-built word lists of Smith et al. [28]).
struct BenchDataset {
  std::string name;
  SyntheticDataset dataset;
  MatrixBuilder builder;
  DatasetMatrices data;
  SentimentLexicon lexicon;
};

inline BenchDataset Prepare(const std::string& name,
                            const SyntheticConfig& config) {
  BenchDataset b;
  b.name = name;
  b.dataset = GenerateSynthetic(config);
  b.builder.Fit(b.dataset.corpus);
  b.data = b.builder.BuildAll(b.dataset.corpus);
  b.lexicon = CorruptLexicon(b.dataset.true_lexicon, /*coverage=*/0.6,
                             /*error_rate=*/0.05, /*seed=*/99);
  return b;
}

/// The Prop-30-like campaign (balanced stances, paper Table 3 row 1).
inline BenchDataset MakeProp30() {
  return Prepare("Prop30-like", Prop30LikeConfig());
}

/// The Prop-37-like campaign (positively skewed, higher volume).
inline BenchDataset MakeProp37() {
  return Prepare("Prop37-like", Prop37LikeConfig());
}

inline void PrintHeader(const std::string& title) {
  std::cout << "\n############################################################\n"
            << "# " << title << "\n"
            << "# (synthetic substitute for the paper's California-ballot\n"
            << "#  Twitter collection; see README.md, Substitutions)\n"
            << "############################################################\n";
}

}  // namespace bench_util
}  // namespace triclust

#endif  // TRICLUST_BENCH_BENCH_UTIL_H_
