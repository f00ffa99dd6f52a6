#ifndef TRICLUST_PERFBENCH_WORKLOAD_H_
#define TRICLUST_PERFBENCH_WORKLOAD_H_

// Workload names shared by the load generator and the measured program.

#include <cstdint>
#include <string>

namespace perfbench {

enum class Workload { kFleetReplay, kBurstSingle, kOfflineSweep };

inline bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "fleet_replay") {
    *out = Workload::kFleetReplay;
  } else if (name == "burst_single") {
    *out = Workload::kBurstSingle;
  } else if (name == "offline_sweep") {
    *out = Workload::kOfflineSweep;
  } else {
    return false;
  }
  return true;
}

/// Corpora the generator writes for a workload. offline_sweep sweeps
/// several per pass (see perfbench/README.md); the online workloads replay
/// one.
inline int NumCorpora(Workload workload) {
  return workload == Workload::kOfflineSweep ? 4 : 1;
}

/// Generator seed of corpus `corpus` of a run seeded with `seed`: distinct
/// for every (seed, corpus) pair.
inline uint64_t CorpusSeed(Workload workload, uint64_t seed, int corpus) {
  return seed * static_cast<uint64_t>(NumCorpora(workload)) +
         static_cast<uint64_t>(corpus);
}

inline std::string CorpusFileName(int corpus) {
  return "corpus-" + std::to_string(corpus) + ".tsv";
}

inline std::string LexiconFileName(int corpus) {
  return "lexicon-" + std::to_string(corpus) + ".tsv";
}

inline const char* WorkloadNames() {
  return "fleet_replay|burst_single|offline_sweep";
}

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_WORKLOAD_H_
