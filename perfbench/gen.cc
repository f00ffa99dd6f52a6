// Load generator of the repository benchmark.
//
// Writes one workload's inputs from a seed: the corpus in the canonical
// TSV format (WriteTsv) and the corrupted prior lexicon the campaigns are
// seeded with. It is a separate program so that the measured one reads
// only these files: its set-up time covers parsing, vocabulary fit and
// registration, never generation.
//
//   perfbench_gen --workload <name> --seed <n> --out <dir>
//
// writes <dir>/corpus-<i>.tsv and <dir>/lexicon-<i>.tsv for each of the
// workload's corpora (NumCorpora in workload.h). The same seed always
// gives byte-identical files.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/data/corpus_io.h"
#include "src/data/synthetic.h"
#include "src/util/file_util.h"

namespace {

using triclust::SyntheticConfig;

// Shapes of the three workloads (perfbench/README.md gives the reasons).
SyntheticConfig ConfigFor(perfbench::Workload workload, uint64_t seed) {
  switch (workload) {
    case perfbench::Workload::kFleetReplay: {
      // Prop30-like stances over a fleet-sized population: ~1,600 tweets
      // per interval, later split into 16 author-disjoint topic streams.
      SyntheticConfig config = triclust::Prop30LikeConfig(seed);
      config.num_users = 4800;
      config.num_days = 100;
      config.base_tweets_per_day = 1600.0;
      config.burst_days.clear();
      return config;
    }
    case perfbench::Workload::kBurstSingle: {
      // One Prop37-like campaign, ~500 tweets per interval and a 4x burst
      // on every 5th interval.
      SyntheticConfig config = triclust::Prop37LikeConfig(seed);
      config.num_users = 3000;
      config.num_days = 100;
      config.base_tweets_per_day = 500.0;
      config.burst_days.clear();
      for (int day = 4; day < config.num_days; day += 5) {
        config.burst_days.push_back(day);
      }
      config.burst_multiplier = 4.0;
      return config;
    }
    case perfbench::Workload::kOfflineSweep:
      // The paper-shaped Prop30-like preset (~6,070 tweets) of Fig. 6/7.
      return triclust::Prop30LikeConfig(seed);
  }
  std::abort();
}

int Usage() {
  std::cerr << "usage: perfbench_gen --workload <"
            << perfbench::WorkloadNames() << "> --seed <n> --out <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir;
  std::string seed_text;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload_name = argv[i + 1];
    } else if (flag == "--seed") {
      seed_text = argv[i + 1];
    } else if (flag == "--out") {
      out_dir = argv[i + 1];
    } else {
      return Usage();
    }
  }
  perfbench::Workload workload;
  if (argc != 7 || !perfbench::ParseWorkload(workload_name, &workload) ||
      out_dir.empty() || seed_text.empty()) {
    return Usage();
  }
  char* end = nullptr;
  const uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end == seed_text.c_str() || *end != '\0') return Usage();

  triclust::Status status = triclust::CreateDirectories(out_dir);
  for (int i = 0; status.ok() && i < perfbench::NumCorpora(workload); ++i) {
    const uint64_t corpus_seed = perfbench::CorpusSeed(workload, seed, i);
    const triclust::SyntheticDataset dataset =
        triclust::GenerateSynthetic(ConfigFor(workload, corpus_seed));
    // 60% coverage and 5% flipped polarity, as every bench and CLI demo
    // derives its prior; the corruption is seeded from the corpus seed.
    const triclust::SentimentLexicon lexicon =
        triclust::CorruptLexicon(dataset.true_lexicon, /*coverage=*/0.6,
                                 /*error_rate=*/0.05, corpus_seed + 99);
    status = triclust::WriteTsv(dataset.corpus,
                                out_dir + "/" + perfbench::CorpusFileName(i));
    if (!status.ok()) break;
    // Entries() is unordered; sort so the file is a function of the seed.
    auto entries = lexicon.Entries();
    std::sort(entries.begin(), entries.end());
    status = triclust::AtomicWriteFile(
        out_dir + "/" + perfbench::LexiconFileName(i), [&](std::ostream* os) {
          for (const auto& [word, polarity] : entries) {
            *os << word << '\t' << triclust::SentimentName(polarity) << '\n';
          }
          return os->good() ? triclust::Status::OK()
                            : triclust::Status::IoError("lexicon write");
        });
    std::cerr << "perfbench_gen: " << workload_name << " corpus " << i
              << " (seed " << corpus_seed << "): "
              << dataset.corpus.num_tweets() << " tweets, "
              << dataset.corpus.num_users() << " authors, "
              << dataset.corpus.num_days() << " intervals, " << lexicon.size()
              << " lexicon entries\n";
  }
  if (!status.ok()) {
    std::cerr << "perfbench_gen: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
