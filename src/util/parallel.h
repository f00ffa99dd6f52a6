#ifndef TRICLUST_SRC_UTIL_PARALLEL_H_
#define TRICLUST_SRC_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace triclust {

/// Hierarchical compute parallelism for the solver kernels.
///
/// The hot kernels of Algorithm 1/2 (SpMM, the dense k×k algebra, the loss
/// reductions) are row-partitionable, so they all funnel through the two
/// primitives below, backed by one persistent process-wide worker pool.
/// Workers are spawned lazily on the first parallel call and reused for the
/// lifetime of the process; a solver iteration therefore never pays thread
/// creation cost.
///
/// The scheduler is TWO-LEVEL. The pool accepts any number of concurrent
/// jobs: a campaign-tier ParallelFor can fan a batch of solver fits out
/// across the fleet while each fit's kernel-tier ParallelFor/ParallelReduce
/// calls run row-parallel *inside* their campaign task, all sharing one set
/// of workers. What keeps the tiers from oversubscribing each other is the
/// per-fit ThreadBudget, so a serving layer can hand each of R concurrent
/// fits roughly threads/R of the machine and still use all of it when R is
/// small.
///
/// Width rule: a ParallelFor/ParallelReduce call runs at the width of the
/// ThreadBudget installed on the calling thread (ScopedThreadBudget), and
/// serially when none is installed. A chunk body starts with no budget, so
/// a nested call stays serial unless the body installs its own — which is
/// exactly what CampaignEngine does per sharded fit.
///
/// Determinism contract — results are bit-identical at EVERY width:
///  - ParallelFor: each index is processed by exactly one thread with the
///    same per-index code as the serial loop, so kernels that write
///    disjoint output rows are bit-identical for every width.
///  - ParallelReduce: the range is cut into fixed-size chunks (independent
///    of the width), chunk partial sums are combined in chunk order, and
///    the 1-width path walks the *same* chunks in the same combine order
///    serially. Results are therefore bit-identical across all widths,
///    including 1 — which is what lets a fit running under any budget split
///    reproduce a standalone serial fit exactly.
///
/// An oversubscribed schedule (budgets summing past the pool) degrades
/// gracefully: helpers are a scheduling hint, each job always makes
/// progress on its submitting thread, and results never depend on how many
/// helpers actually joined.

/// The width the *next* ParallelFor/ParallelReduce on this thread would
/// use: the installed budget, resolved, or 1 when none is installed.
int CurrentParallelWidth();

/// How many concurrent threads one solver fit may occupy (the calling
/// thread counts as one): 0 = hardware concurrency, 1 = strict serial (no
/// pool involvement), n = at most n. A plain value that takes effect only
/// while installed on a thread via ScopedThreadBudget.
class ThreadBudget {
 public:
  /// A budget of `threads` (≥ 0).
  explicit ThreadBudget(int threads);

  /// The raw setting (0 = auto).
  int threads() const { return threads_; }
  /// The resolved concurrent-thread width, always ≥ 1.
  int resolved() const;

 private:
  int threads_;
};

/// RAII: installs `budget` as the calling thread's budget for the scope's
/// lifetime, restoring the previous one on destruction. Scopes nest
/// (innermost wins) and are THREAD-LOCAL, so concurrent fits with different
/// budgets never stomp each other. Construct it with braces when the
/// argument is a named variable: `ScopedThreadBudget s(ThreadBudget(n));`
/// declares a function and installs nothing.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(ThreadBudget budget);
  ~ScopedThreadBudget();
  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  int previous_;
};

/// Runs body(chunk_begin, chunk_end) over disjoint sub-ranges covering
/// [begin, end). `grain` is the minimum chunk size (load-balancing hint;
/// does not affect results for disjoint-output bodies). At a width of 1
/// (see the width rule above) runs body(begin, end) inline.
///
/// Thread safety: callable from any thread, including pool workers. Calls
/// from distinct threads run as concurrent pool jobs sharing the worker
/// set; a chunk body that installs a ThreadBudget may itself call
/// ParallelFor (the two-level schedule). The caller must ensure bodies on
/// different sub-ranges touch disjoint data.
///
/// Bodies should not throw: an exception on the calling thread is
/// propagated only after all pool workers drained the job, and an
/// exception on a worker thread terminates the process (std::thread
/// semantics). The solver kernels satisfy this — they only fail via
/// TRICLUST_CHECK, which aborts.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// Sum of chunk_sum(chunk_begin, chunk_end) over fixed-size chunks of
/// [begin, end), combined in chunk order. `grain` is the fixed chunk size
/// and must not depend on the width. Bit-identical at every width,
/// including 1 (see the determinism contract above). Thread safety: as
/// ParallelFor; chunk_sum must be a pure function of its range (it may run
/// on any thread, in any order).
double ParallelReduce(size_t begin, size_t end, size_t grain,
                      const std::function<double(size_t, size_t)>& chunk_sum);

/// Default fixed chunk sizes for the reductions (rows of a factor matrix /
/// flat element ranges). Exposed so tests can mirror the chunking.
inline constexpr size_t kReduceRowGrain = 1024;
inline constexpr size_t kReduceFlatGrain = 8192;

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_PARALLEL_H_
