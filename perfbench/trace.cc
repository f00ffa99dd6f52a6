// Tracing support of the measured program: the clock, the span log, the
// thread count, and the layer probes — per-call timings of the solver's
// layer functions on copies of one fit's matrices and final factors. The probes call the same public functions the solvers call
// (src/core/updates.h, src/core/objective.h, src/matrix/ops.h,
// src/util/parallel.h), under the budget and kernel mode the fit ran at.

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/objective.h"
#include "src/core/updates.h"
#include "src/matrix/kernel_dispatch.h"
#include "src/matrix/ops.h"
#include "src/util/parallel.h"

namespace perfbench {

int CountThreads() {
  int threads = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++threads;
    }
    closedir(dir);
  }
  return threads;
}

double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

int SpanLog::Open(const char* name, int parent, int interval) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.interval = interval;
  span.start_us = NowUs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_us = NowUs();
  span.dur_us = span.end_us - span.start_us;
}

void SpanLog::AddDuration(const char* name, double dur_us, int parent,
                          int interval) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.dur_us = dur_us;
  span.parent = parent;
  span.interval = interval;
  spans_.push_back(span);
}

namespace {

// One untimed warm-up call (builds the workspace's cached transposes and
// sizes its scratch, as the fit's first iteration does), then the median
// of kReps timed calls. `reset` restores the operand a call updates in
// place and is not timed.
constexpr int kReps = 3;

double MedianCallMs(const std::function<void()>& reset,
                    const std::function<void()>& call) {
  reset();
  call();
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    reset();
    const double start = NowUs();
    call();
    ms.push_back((NowUs() - start) / 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

CallTimes ProbeFit(const FitRecord& record,
                   const triclust::TriClusterConfig& base) {
  namespace update = triclust::update;
  using triclust::DenseMatrix;
  const triclust::DatasetMatrices& d = *record.data;
  const triclust::TriClusterResult& r = *record.result;
  const DenseMatrix& sf_target = *record.sf_target;
  const double eps = base.epsilon;
  // The online Su rule and objective carry the temporal term; its target
  // only has to have the right shape for timing, so the fit's own Su
  // stands in for the decayed history Suw.
  const bool online = !record.temporal_weights.empty();
  const std::vector<double>* temporal_weights =
      online ? &record.temporal_weights : nullptr;
  const DenseMatrix* temporal_target = online ? &r.su : nullptr;

  triclust::ScopedThreadBudget budget{triclust::ThreadBudget(record.width)};
  triclust::ScopedKernelMode kernels(base.kernel_mode);
  update::UpdateWorkspace workspace;
  DenseMatrix m;
  CallTimes t;
  t.update_sp = MedianCallMs([&] { m = r.sp; }, [&] {
    update::UpdateSp(d.xp, d.xr, r.sf, r.hp, r.su, &m, eps, base.sparsity,
                     nullptr, nullptr, &workspace);
  });
  t.update_hp = MedianCallMs([&] { m = r.hp; }, [&] {
    update::UpdateHp(d.xp, r.sp, r.sf, &m, eps, &workspace);
  });
  t.update_su = MedianCallMs([&] { m = r.su; }, [&] {
    update::UpdateSu(d.xu, d.xr, d.gu, r.sf, r.hu, r.sp, record.beta,
                     temporal_weights, temporal_target, &m, eps,
                     base.sparsity, &workspace);
  });
  t.update_hu = MedianCallMs([&] { m = r.hu; }, [&] {
    update::UpdateHu(d.xu, r.su, r.sf, &m, eps, &workspace);
  });
  t.update_sf = MedianCallMs([&] { m = r.sf; }, [&] {
    update::UpdateSf(d.xp, d.xu, r.sp, r.su, r.hp, r.hu, record.alpha,
                     sf_target, &m, eps, base.sparsity, &workspace);
  });
  // The library functions are opaque calls into another translation
  // unit, so discarding their results cannot elide them.
  t.objective = MedianCallMs([] {}, [&] {
    triclust::ComputeObjective(d.xp, d.xu, d.xr, d.gu, r.sp, r.su, r.sf, r.hp,
                               r.hu, record.alpha, sf_target, record.beta,
                               temporal_weights, temporal_target);
  });
  t.spmm = MedianCallMs([] {}, [&] { m = triclust::SpMM(d.xp, r.sf); });
  t.trifactor_loss = MedianCallMs([] {}, [&] {
    triclust::TriFactorizationLossSquared(d.xp, r.sp, r.hp, r.sf);
  });

  // An empty ParallelFor at the fit's width: the pool's dispatch and
  // wake-up cost with no work behind it. Averaged over many calls because
  // one call is a few microseconds.
  constexpr int kEmptyCalls = 64;
  const size_t width = static_cast<size_t>(record.width);
  triclust::ParallelFor(0, width, 1, [](size_t, size_t) {});
  const double start = NowUs();
  for (int i = 0; i < kEmptyCalls; ++i) {
    triclust::ParallelFor(0, width, 1, [](size_t, size_t) {});
  }
  t.parallel_for_us = (NowUs() - start) / kEmptyCalls;
  return t;
}

}  // namespace perfbench
