#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace triclust {
namespace {

/// The calling thread's installed budget; kNoBudget when none is.
constexpr int kNoBudget = -1;
thread_local int t_budget = kNoBudget;

int ResolveWidth(int raw) {
  if (raw > 0) return raw;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Persistent work-sharing pool with concurrent jobs — the backbone of the
/// two-level schedule. Any thread (including a pool worker running a
/// campaign-tier chunk) may submit a job; the submitter always participates
/// in its own job, so every job makes progress even when all workers are
/// busy elsewhere, which makes the nested submit-and-wait pattern
/// deadlock-free: waits only ever point down the nesting tree, and the
/// leaves never block. Workers are added lazily (never removed, capped) and
/// the singleton is intentionally leaked to avoid static-destruction races
/// with user code running at exit.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool;
    return *pool;
  }

  /// Executes chunk_fn(i) for every i in [0, num_chunks) using at most
  /// `width` concurrent threads (including the caller). Returns after all
  /// chunks completed. Helpers are best-effort: if none are free the
  /// caller simply runs every chunk itself.
  void Run(int width, size_t num_chunks,
           const std::function<void(size_t)>& chunk_fn) {
    if (width <= 1 || num_chunks <= 1) {
      for (size_t i = 0; i < num_chunks; ++i) chunk_fn(i);
      return;
    }
    Job job;
    job.chunk_fn = &chunk_fn;
    job.num_chunks = num_chunks;
    job.helper_slots =
        static_cast<int>(std::min<size_t>(width - 1, num_chunks - 1));
    {
      MutexLock lock(&mutex_);
      GrowWorkersLocked(job.helper_slots);
      job.next = jobs_;
      jobs_ = &job;
    }
    wake_cv_.SignalAll();
    try {
      RunChunks(job);
    } catch (...) {
      // The job (and the std::function behind chunk_fn) lives in this
      // frame: helpers must drain before the exception unwinds it. A body
      // throwing on a *worker* thread still terminates the process
      // (std::thread semantics) — see the contract in parallel.h.
      Retire(&job);
      throw;
    }
    Retire(&job);
  }

 private:
  /// One in-flight parallel region, linked into the pool's job list while
  /// helpers may still join. Chunks are claimed dynamically through
  /// next_chunk; the fixed chunk *layout* is the caller's, so claiming
  /// order never affects results.
  ///
  /// helper_slots, active_helpers, and next are guarded by the pool's
  /// mutex_ (inexpressible as TRICLUST_GUARDED_BY — the analysis cannot
  /// name a member of the *enclosing* object from a nested struct);
  /// next_chunk is a lock-free claim counter.
  struct Job {
    const std::function<void(size_t)>* chunk_fn = nullptr;
    size_t num_chunks = 0;
    std::atomic<size_t> next_chunk{0};
    /// Helper join slots remaining (beyond the submitting thread).
    int helper_slots = 0;
    /// Helpers currently executing chunks; the submitter waits for 0.
    int active_helpers = 0;
    Job* next = nullptr;
  };

  ThreadPool() = default;

  /// Caps lazy worker growth. Generous on purpose: oversubscribed budget
  /// schedules (tested explicitly) should degrade by OS time-slicing, not
  /// by silently reshaping the schedule.
  static int WorkerCap() {
    static const int cap = std::max(4 * ResolveWidth(0), 8);
    return cap;
  }

  void GrowWorkersLocked(int helpers_wanted) TRICLUST_REQUIRES(mutex_) {
    const int deficit = helpers_wanted - idle_workers_;
    const int room = WorkerCap() - static_cast<int>(workers_.size());
    const int spawn = std::min(deficit, room);
    for (int i = 0; i < spawn; ++i) {
      workers_.emplace_back([this] { WorkerMain(); });
    }
  }

  Job* ClaimableJobLocked() TRICLUST_REQUIRES(mutex_) {
    for (Job* job = jobs_; job != nullptr; job = job->next) {
      if (job->helper_slots > 0 &&
          job->next_chunk.load(std::memory_order_relaxed) < job->num_chunks) {
        return job;
      }
    }
    return nullptr;
  }

  /// Executes chunks of `job` until the claim counter is exhausted. Chunk
  /// bodies run with no installed budget, so a plain kernel chunk stays
  /// serial while a campaign-tier chunk can install its own per-fit budget
  /// and fan out again (two-level schedule). RAII so a throwing body cannot
  /// leave the thread's budget cleared.
  static void RunChunks(Job& job) {
    struct BudgetGuard {
      int saved = std::exchange(t_budget, kNoBudget);
      ~BudgetGuard() { t_budget = saved; }
    } guard;
    for (;;) {
      const size_t i = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.num_chunks) break;
      (*job.chunk_fn)(i);
    }
  }

  /// Unlinks `job` once no helper can touch it again. Helpers only claim
  /// linked jobs under the mutex, so after this returns the job frame is
  /// safe to unwind.
  void Retire(Job* job) TRICLUST_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    job->helper_slots = 0;  // no new joiners
    while (job->active_helpers != 0) done_cv_.Wait(&mutex_);
    Job** link = &jobs_;
    while (*link != job) link = &(*link)->next;
    *link = job->next;
  }

  void WorkerMain() {
    for (;;) WorkerStep();
  }

  /// One claim-run-report cycle of a pool worker: wait for a claimable
  /// job (returning on a wakeup with none, so WorkerMain re-enters), run
  /// its chunks unlocked, and report completion. Split out of WorkerMain
  /// so every lock acquisition is a scoped region the thread-safety
  /// analysis can follow — an infinite loop holding the lock across
  /// iterations is beyond it.
  void WorkerStep() TRICLUST_EXCLUDES(mutex_) {
    Job* job = nullptr;
    {
      MutexLock lock(&mutex_);
      job = ClaimableJobLocked();
      if (job == nullptr) {
        ++idle_workers_;
        wake_cv_.Wait(&mutex_);
        --idle_workers_;
        return;
      }
      --job->helper_slots;
      ++job->active_helpers;
    }
    RunChunks(*job);
    MutexLock lock(&mutex_);
    if (--job->active_helpers == 0) done_cv_.SignalAll();
  }

  Mutex mutex_;
  CondVar wake_cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_ TRICLUST_GUARDED_BY(mutex_);
  int idle_workers_ TRICLUST_GUARDED_BY(mutex_) = 0;
  /// Intrusive list of in-flight jobs (stack frames of their submitters).
  Job* jobs_ TRICLUST_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace

int CurrentParallelWidth() {
  return t_budget == kNoBudget ? 1 : ResolveWidth(t_budget);
}

ThreadBudget::ThreadBudget(int threads) : threads_(threads) {
  TRICLUST_CHECK_GE(threads, 0);
}

int ThreadBudget::resolved() const { return ResolveWidth(threads_); }

ScopedThreadBudget::ScopedThreadBudget(ThreadBudget budget)
    : previous_(std::exchange(t_budget, budget.threads())) {}

ScopedThreadBudget::~ScopedThreadBudget() { t_budget = previous_; }

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const int width = CurrentParallelWidth();
  if (width <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
  // Oversplit (~4 chunks per thread) so dynamic claiming balances uneven
  // rows, e.g. skewed sparse row lengths.
  const size_t target_chunks = static_cast<size_t>(width) * 4;
  const size_t chunk =
      std::max(grain, std::max<size_t>(1, (n + target_chunks - 1) /
                                              target_chunks));
  const size_t num_chunks = (n + chunk - 1) / chunk;
  ThreadPool::Instance().Run(width, num_chunks, [&](size_t i) {
    const size_t lo = begin + i * chunk;
    const size_t hi = std::min(end, lo + chunk);
    body(lo, hi);
  });
}

double ParallelReduce(size_t begin, size_t end, size_t grain,
                      const std::function<double(size_t, size_t)>& chunk_sum) {
  if (begin >= end) return 0.0;
  TRICLUST_CHECK_GT(grain, 0u);
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) return chunk_sum(begin, end);
  const int width = CurrentParallelWidth();
  if (width <= 1) {
    // Same fixed chunks, same combine order as the parallel path below —
    // this is what makes the reduction bit-identical at EVERY width, so a
    // fit under any thread budget reproduces a serial fit exactly.
    double total = 0.0;
    for (size_t i = 0; i < num_chunks; ++i) {
      const size_t lo = begin + i * grain;
      const size_t hi = std::min(end, lo + grain);
      total += chunk_sum(lo, hi);
    }
    return total;
  }
  // Fixed-size chunks: the partition depends only on (n, grain), never on
  // the width, and partials are combined in chunk order — see the
  // determinism contract in parallel.h.
  std::vector<double> partials(num_chunks, 0.0);
  ThreadPool::Instance().Run(width, num_chunks, [&](size_t i) {
    const size_t lo = begin + i * grain;
    const size_t hi = std::min(end, lo + grain);
    partials[i] = chunk_sum(lo, hi);
  });
  double total = 0.0;
  for (const double p : partials) total += p;
  return total;
}

}  // namespace triclust
