/// Kernel microbenchmarks (google-benchmark): the sparse–dense products and
/// multiplicative update rules that dominate Algorithm 1/2 runtime, plus
/// one full offline iteration. These back the paper's complexity claim
/// (§3.2): per-iteration cost O(k·(nl + ml + nm + m²)) dominated by the
/// O(nnz·k) sparse products.

#include <benchmark/benchmark.h>

#include "src/core/updates.h"
#include "src/data/synthetic.h"
#include "src/matrix/kernel_dispatch.h"
#include "src/matrix/ops.h"
#include "src/text/tokenizer.h"
#include "src/text/vectorizer.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace triclust {
namespace {

/// Thread budgets for the parallel-kernel sweeps: serial baseline, 2, 4, and
/// whatever the machine offers (0 = hardware concurrency). Benches outside
/// the sweeps install no budget, so they run serially.
void ThreadSweep(benchmark::internal::Benchmark* b,
                 std::initializer_list<int64_t> sizes) {
  for (const int64_t size : sizes) {
    for (const int64_t threads : {1, 2, 4, 0}) {
      b->Args({size, threads});
    }
  }
}

SparseMatrix MakeSparse(size_t rows, size_t cols, size_t nnz_per_row,
                        uint64_t seed) {
  Rng rng(seed);
  SparseMatrix::Builder builder(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t p = 0; p < nnz_per_row; ++p) {
      builder.Add(i, rng.NextUint64Below(cols), rng.Uniform(0.1, 1.0));
    }
  }
  return builder.Build();
}

void BM_SpMM(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ScopedThreadBudget threads{
      ThreadBudget(static_cast<int>(state.range(1)))};
  const SparseMatrix x = MakeSparse(n, 5000, 12, 1);
  Rng rng(2);
  const DenseMatrix d = DenseMatrix::Random(5000, 3, &rng, 0.0, 1.0);
  DenseMatrix c;
  for (auto _ : state) {
    SpMMInto(x, d, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.nnz()));
}
BENCHMARK(BM_SpMM)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadSweep(b, {1000, 10000, 50000});
});

/// Xᵀ·D as the solver computes it: parallel SpMM over a transpose the
/// update workspace caches once per fit (the transpose cost is excluded,
/// as it is amortized over all iterations).
void BM_SpTMMViaCachedTranspose(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ScopedThreadBudget threads{
      ThreadBudget(static_cast<int>(state.range(1)))};
  const SparseMatrix x = MakeSparse(n, 5000, 12, 3);
  const SparseMatrix xt = x.Transposed();
  Rng rng(4);
  const DenseMatrix d = DenseMatrix::Random(n, 3, &rng, 0.0, 1.0);
  DenseMatrix c;
  for (auto _ : state) {
    SpMMInto(xt, d, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.nnz()));
}
BENCHMARK(BM_SpTMMViaCachedTranspose)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadSweep(b, {1000, 10000, 50000});
    });

/// The k×k reduction workhorse (SᵀS and friends) over a tall factor.
void BM_MatMulAtB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ScopedThreadBudget threads{
      ThreadBudget(static_cast<int>(state.range(1)))};
  Rng rng(5);
  const DenseMatrix s = DenseMatrix::Random(n, 3, &rng, 0.0, 1.0);
  DenseMatrix c;
  for (auto _ : state) {
    MatMulAtBInto(s, s, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MatMulAtB)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadSweep(b, {10000, 100000, 1000000});
});

void BM_FactorizationLoss(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ScopedThreadBudget threads{
      ThreadBudget(static_cast<int>(state.range(1)))};
  const SparseMatrix x = MakeSparse(n, n / 2, 10, 5);
  Rng rng(6);
  const DenseMatrix u = DenseMatrix::Random(n, 3, &rng, 0.0, 1.0);
  const DenseMatrix v = DenseMatrix::Random(n / 2, 3, &rng, 0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FactorizationLossSquared(x, u, v));
  }
}
BENCHMARK(BM_FactorizationLoss)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadSweep(b, {2000, 20000});
});

/// One full offline sweep (all five update rules) on a synthetic problem of
/// n tweets, n/4 users, 5000 features, k = 3, with the workspace-cached
/// transposes and scratch the production solvers use.
void BM_OfflineIteration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ScopedThreadBudget threads{
      ThreadBudget(static_cast<int>(state.range(1)))};
  const size_t m = n / 4;
  const size_t l = 5000;
  const size_t k = 3;
  const SparseMatrix xp = MakeSparse(n, l, 12, 7);
  const SparseMatrix xu = MakeSparse(m, l, 40, 8);
  const SparseMatrix xr = MakeSparse(m, n, 5, 9);
  const UserGraph gu = [&] {
    Rng rng(10);
    std::vector<UserGraph::Edge> edges;
    for (size_t i = 0; i < m; ++i) {
      edges.push_back({i, rng.NextUint64Below(m), 1.0});
    }
    return UserGraph::FromEdges(m, edges);
  }();
  Rng rng(11);
  DenseMatrix sp = DenseMatrix::Random(n, k, &rng, 0.1, 1.0);
  DenseMatrix su = DenseMatrix::Random(m, k, &rng, 0.1, 1.0);
  DenseMatrix sf = DenseMatrix::Random(l, k, &rng, 0.1, 1.0);
  DenseMatrix hp = DenseMatrix::Random(k, k, &rng, 0.1, 1.0);
  DenseMatrix hu = DenseMatrix::Random(k, k, &rng, 0.1, 1.0);
  const DenseMatrix sf0 = DenseMatrix::Random(l, k, &rng, 0.1, 1.0);

  update::UpdateWorkspace workspace;
  for (auto _ : state) {
    update::UpdateSp(xp, xr, sf, hp, su, &sp, 1e-12, 0.0, nullptr, nullptr,
                     &workspace);
    update::UpdateHp(xp, sp, sf, &hp, 1e-12, &workspace);
    update::UpdateSu(xu, xr, gu, sf, hu, sp, 0.8, nullptr, nullptr, &su,
                     1e-12, 0.0, &workspace);
    update::UpdateHu(xu, su, sf, &hu, 1e-12, &workspace);
    update::UpdateSf(xp, xu, sp, su, hp, hu, 0.05, sf0, &sf, 1e-12, 0.0,
                     &workspace);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(xp.nnz() + xu.nnz() + xr.nnz()));
}
BENCHMARK(BM_OfflineIteration)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadSweep(b, {2000, 10000, 40000});
});

/// --- kernel-dispatch A/B sweeps -------------------------------------------
///
/// Paper-shape single-core benchmarks over the hot kernels at the two
/// cluster counts a program runs, which are the only ones with fixed-k
/// bodies: k = 3 (the paper's pos/neg/neutral split) and k = 2 (polarity
/// only). Their names carry no dispatch mode on purpose: the A/B protocol
/// is to run the binary twice through tools/bench_runner.py, once under
/// TRICLUST_FORCE_SCALAR=1 and once dispatched, and compare the two
/// reports with tools/bench_gate.py (names must line up across the runs).
/// nnz/element counters are emitted so the JSON is self-describing.

void BM_SpMMPaperShape(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  // Prop 30 scale: ~50k tweets × 5k vocabulary, ~12 terms per tweet.
  const SparseMatrix x = MakeSparse(50000, 5000, 12, 21);
  Rng rng(22);
  const DenseMatrix d = DenseMatrix::Random(5000, k, &rng, 0.0, 1.0);
  DenseMatrix c;
  for (auto _ : state) {
    SpMMInto(x, d, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["nnz"] = static_cast<double>(x.nnz());
  state.counters["k"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.nnz()));
}
BENCHMARK(BM_SpMMPaperShape)->Arg(2)->Arg(3);

void BM_MatMulAtBPaperShape(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(23);
  const DenseMatrix s = DenseMatrix::Random(100000, k, &rng, 0.0, 1.0);
  DenseMatrix c;
  for (auto _ : state) {
    MatMulAtBInto(s, s, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["rows"] = static_cast<double>(s.rows());
  state.counters["k"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.rows()));
}
BENCHMARK(BM_MatMulAtBPaperShape)->Arg(2)->Arg(3);

void BM_MulUpdatePaperShape(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(24);
  DenseMatrix m = DenseMatrix::Random(100000, k, &rng, 0.1, 1.0);
  const DenseMatrix numer = DenseMatrix::Random(100000, k, &rng, 0.0, 1.0);
  const DenseMatrix denom = DenseMatrix::Random(100000, k, &rng, 0.0, 1.0);
  for (auto _ : state) {
    MultiplicativeUpdateInPlace(&m, numer, denom, 1e-12);
    benchmark::DoNotOptimize(m.data());
  }
  state.counters["elements"] = static_cast<double>(m.size());
  state.counters["k"] = static_cast<double>(k);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_MulUpdatePaperShape)->Arg(2)->Arg(3);

void BM_FactorizationLossPaperShape(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const SparseMatrix x = MakeSparse(50000, 5000, 12, 25);
  Rng rng(26);
  const DenseMatrix u = DenseMatrix::Random(50000, k, &rng, 0.0, 1.0);
  const DenseMatrix v = DenseMatrix::Random(5000, k, &rng, 0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FactorizationLossSquared(x, u, v));
  }
  state.counters["nnz"] = static_cast<double>(x.nnz());
  state.counters["k"] = static_cast<double>(k);
}
BENCHMARK(BM_FactorizationLossPaperShape)->Arg(2)->Arg(3);

/// In-process dispatch-variant sweep (no env round-trips): arg0 = k,
/// arg1 = KernelMode (0 auto, 1 scalar), installed thread-local for the
/// run. Under TRICLUST_FORCE_SCALAR=1 both variants collapse to scalar —
/// use the env-based A/B above for gating numbers.
void BM_SpMMDispatchSweep(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const ScopedKernelMode mode(static_cast<KernelMode>(state.range(1)));
  const SparseMatrix x = MakeSparse(50000, 5000, 12, 27);
  Rng rng(28);
  const DenseMatrix d = DenseMatrix::Random(5000, k, &rng, 0.0, 1.0);
  DenseMatrix c;
  for (auto _ : state) {
    SpMMInto(x, d, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.nnz()));
}
BENCHMARK(BM_SpMMDispatchSweep)->Apply([](benchmark::internal::Benchmark* b) {
  for (const int64_t k : {2, 3}) {
    for (const int64_t mode : {0, 1}) {
      b->Args({k, mode});
    }
  }
});

void BM_Tokenize(benchmark::State& state) {
  const SyntheticDataset d = GenerateSynthetic(Prop30LikeConfig());
  const Tokenizer tokenizer;
  size_t tweets = 0;
  for (auto _ : state) {
    for (const Tweet& t : d.corpus.tweets()) {
      benchmark::DoNotOptimize(tokenizer.Tokenize(t.text));
      ++tweets;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(tweets));
}
BENCHMARK(BM_Tokenize);

void BM_VectorizerFitTransform(benchmark::State& state) {
  const SyntheticDataset d = GenerateSynthetic(Prop30LikeConfig());
  const Tokenizer tokenizer;
  std::vector<std::vector<std::string>> docs;
  docs.reserve(d.corpus.num_tweets());
  for (const Tweet& t : d.corpus.tweets()) {
    docs.push_back(tokenizer.Tokenize(t.text));
  }
  for (auto _ : state) {
    DocumentVectorizer vectorizer;
    benchmark::DoNotOptimize(vectorizer.FitTransform(docs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
}
BENCHMARK(BM_VectorizerFitTransform);

void BM_SparseTranspose(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SparseMatrix x = MakeSparse(n, 5000, 12, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.Transposed());
  }
}
BENCHMARK(BM_SparseTranspose)->Arg(10000)->Arg(50000);

}  // namespace
}  // namespace triclust

BENCHMARK_MAIN();
