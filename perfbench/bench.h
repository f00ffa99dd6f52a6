#ifndef TRICLUST_PERFBENCH_BENCH_H_
#define TRICLUST_PERFBENCH_BENCH_H_

// Shared types of the measured benchmark program (perfbench_run): the span
// log of the traced run, the per-fit records the layer probes time, and
// the raw results that run.py summarizes.

#include <cstddef>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/core/config.h"
#include "src/core/result.h"
#include "src/data/matrix_builder.h"
#include "src/matrix/dense_matrix.h"

namespace perfbench {

/// Microseconds on the steady clock since the first call in the process.
double NowUs();

/// One traced call. Spans the benchmark wraps itself carry start and end;
/// a fit span carries only the duration the engine reports for it
/// (SnapshotReport::solve_ms), because the fit runs on a pool thread
/// inside Advance() where the benchmark cannot put a clock.
struct Span {
  const char* name = "";
  double start_us = -1.0;
  double end_us = -1.0;
  double dur_us = 0.0;
  /// Index of the enclosing span in the log, -1 for a root.
  int parent = -1;
  /// Interval (online) or grid cell (offline) the span belongs to.
  int interval = -1;
};

/// In-memory span log. Disabled logs record nothing and return -1 ids, so
/// the untraced run pays one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int Open(const char* name, int parent, int interval);
  void Close(int id);
  void AddDuration(const char* name, double dur_us, int parent, int interval);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// One fitted snapshot (online) or one Run (offline) as the layer probes
/// see it: its matrices and final factors, borrowed for the probe, and
/// the settings the fit ran under.
struct FitRecord {
  const triclust::DatasetMatrices* data = nullptr;
  const triclust::TriClusterResult* result = nullptr;
  /// The Sf target: Sfw(t) online, the prior Sf0 offline.
  const triclust::DenseMatrix* sf_target = nullptr;
  /// Per-row temporal weights of the online Su rule (γ on evolving users,
  /// 0 on new ones); empty offline.
  std::vector<double> temporal_weights;
  double alpha = 0.0;
  double beta = 0.0;
  /// Kernel budget the fit ran at.
  int width = 1;
  double solve_ms = 0.0;
};

/// Per-call times (ms) of the layer functions, measured on one record.
struct CallTimes {
  double update_sp = 0.0;
  double update_hp = 0.0;
  double update_su = 0.0;
  double update_hu = 0.0;
  double update_sf = 0.0;
  double objective = 0.0;
  double spmm = 0.0;
  double trifactor_loss = 0.0;
  double parallel_for_us = 0.0;
};

/// A traced fit: what the engine or Run reported, plus the probe times.
struct FitProbe {
  double solve_ms = 0.0;
  int iterations = 0;
  size_t rows = 0;
  int width = 1;
  /// Shadow-builder EmitSnapshot time of the same ids (online only).
  double emit_ms = 0.0;
  CallTimes calls;
};

/// Times one call of each layer function on `record`'s matrices and
/// factors (updating copies), at the record's width (trace.cc).
CallTimes ProbeFit(const FitRecord& record,
                   const triclust::TriClusterConfig& base);

/// Wall time of each set-up phase of one pass (ms).
struct SetupTimes {
  double read_tsv_ms = 0.0;
  double vocab_fit_ms = 0.0;
  double prior_ms = 0.0;
  /// AddCampaign calls (online) or BuildAll (offline), plus the stream
  /// partition of the fleet.
  double register_ms = 0.0;
  std::vector<double> add_campaign_ms;
  double total_s() const {
    return (read_tsv_ms + vocab_fit_ms + prior_ms + register_ms) / 1e3;
  }
};

/// Everything one pass measured. A pass is one full replay of the online
/// stream (every interval) or one (α, β) grid over each offline corpus.
struct PassResult {
  bool traced = false;
  /// One set-up per corpus the pass read.
  std::vector<SetupTimes> setups;
  /// Wall time of each interval (online: ingest + advance + save +
  /// observe; offline: one grid cell's Run + scoring), ms.
  std::vector<double> interval_ms;
  /// CampaignEngine::Advance latency per interval (online) or Run latency
  /// per grid cell (offline), ms.
  std::vector<double> advance_ms;
  std::vector<double> solve_ms;
  std::vector<double> save_ms;
  std::vector<double> checkpoint_kb;
  /// Tweets fitted in the timed intervals.
  size_t tweets = 0;
  /// Tweets handed to CampaignEngine::Ingest inside "ingest" spans.
  size_t ingested = 0;
  /// EmitSnapshot times on a shadow builder (traced passes only).
  std::vector<double> emit_ms;
  size_t fits_attempted = 0;
  size_t fits_failed = 0;
  size_t iterations = 0;
  size_t converged = 0;
  double tweet_accuracy = 0.0;
  double user_accuracy = 0.0;
  /// getrusage deltas summed over the intervals of the pass.
  double user_cpu_s = 0.0;
  double sys_cpu_s = 0.0;
  long voluntary_ctx = 0;
  long involuntary_ctx = 0;
  int width = 1;
  /// /proc/self/task entries right after the timed intervals.
  int os_threads = 0;
  std::vector<Span> spans;
  /// One entry per fitted snapshot or Run (traced passes only), probed
  /// right after its interval so that the probe and the fit see the
  /// machine in the same state.
  std::vector<FitProbe> probes;
  /// Correctness-gate failures seen in this pass.
  std::vector<std::string> errors;
  double timed_s() const;
};

/// Input files written by perfbench_gen, and a scratch directory.
struct Inputs {
  std::string dir;
  /// Checkpoints go here.
  std::string work_dir;
  std::string CorpusPath(int corpus) const {
    return dir + "/" + CorpusFileName(corpus);
  }
  std::string LexiconPath(int corpus) const {
    return dir + "/" + LexiconFileName(corpus);
  }
};

/// Threads of this process (/proc/self/task entries).
int CountThreads();

/// Runs one pass of `workload` (workloads.cc). A traced pass records spans
/// and probes every fit's layer calls.
PassResult RunPass(Workload workload, const Inputs& inputs, bool traced);

}  // namespace perfbench

#endif  // TRICLUST_PERFBENCH_BENCH_H_
