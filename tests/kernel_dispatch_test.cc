/// Equivalence suite for the kernel-dispatch layer (src/matrix/kernels.h):
/// every public kernel is run under every KernelMode across a sweep of
/// cluster counts k ∈ {1, 2, 3, 4, 7} (k = 2 and 3 select the fixed-k and
/// AVX2 bodies; k = 1, 4 and 7 the generic fallback) and ragged shapes,
/// and compared against the kScalar reference loops. The kAuto tier must
/// match BITWISE — that is the contract that lets it be the default
/// without perturbing any historical result.

#include "src/matrix/kernel_dispatch.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/config.h"
#include "src/core/offline.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/kernels.h"
#include "src/matrix/ops.h"
#include "src/matrix/sparse_matrix.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::RandomSparse;

/// Bitwise equality that treats NaN payloads as bytes (operator== on the
/// data would reject NaN == NaN).
void ExpectBitEqual(const DenseMatrix& got, const DenseMatrix& want,
                    const char* label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << label;
}

/// Dense matrix with mixed signs and a sprinkling of exact zeros, so the
/// a(i,p) == 0 skip of the generic loops (which the specialized bodies must
/// reproduce) actually triggers.
DenseMatrix MixedDense(size_t rows, size_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    const double u = rng->Uniform(0.0, 1.0);
    m.data()[i] = u < 0.15 ? 0.0 : (u - 0.5) * 4.0;
  }
  return m;
}

struct ModeCase {
  KernelMode mode;
  const char* name;
};

const ModeCase kModes[] = {
    {KernelMode::kScalar, "scalar"},
    {KernelMode::kAuto, "auto"},
};

const size_t kKSweep[] = {1, 2, 3, 4, 7};

class KernelEquivalenceTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(KernelEquivalenceTest, SpMMMatchesReference) {
  const ModeCase mode = GetParam();
  Rng rng(11);
  for (const size_t k : kKSweep) {
    // Ragged row population (density sweep) including empty rows.
    const SparseMatrix x = RandomSparse(97, 53, 0.11, &rng);
    const DenseMatrix d = MixedDense(53, k, &rng);
    DenseMatrix want;
    {
      ScopedKernelMode scalar(KernelMode::kScalar);
      SpMMInto(x, d, &want);
    }
    ScopedKernelMode scope(mode.mode);
    DenseMatrix got;
    SpMMInto(x, d, &got);
    ExpectBitEqual(got, want, "SpMM");
  }
}

TEST_P(KernelEquivalenceTest, MatMulAtBMatchesReferenceBothPaths) {
  const ModeCase mode = GetParam();
  Rng rng(12);
  // rows ≤ kReduceRowGrain takes the direct path; rows > kReduceRowGrain
  // the chunked-partials reduction. Both must agree with the reference.
  for (const size_t rows : {37u, static_cast<unsigned>(kReduceRowGrain) + 77u}) {
    for (const size_t k : kKSweep) {
      const DenseMatrix a = MixedDense(rows, k, &rng);
      const DenseMatrix b = MixedDense(rows, k, &rng);
      DenseMatrix want;
      {
        ScopedKernelMode scalar(KernelMode::kScalar);
        MatMulAtBInto(a, b, &want);
      }
      ScopedKernelMode scope(mode.mode);
      DenseMatrix got;
      MatMulAtBInto(a, b, &got);
      ExpectBitEqual(got, want, "MatMulAtB");
    }
  }
  // Rectangular ka≠kb falls back generically in every mode.
  const DenseMatrix a = MixedDense(64, 3, &rng);
  const DenseMatrix b = MixedDense(64, 7, &rng);
  DenseMatrix want;
  {
    ScopedKernelMode scalar(KernelMode::kScalar);
    MatMulAtBInto(a, b, &want);
  }
  ScopedKernelMode scope(mode.mode);
  DenseMatrix got;
  MatMulAtBInto(a, b, &got);
  ExpectBitEqual(got, want, "MatMulAtB ragged");
}

TEST_P(KernelEquivalenceTest, MatMulMatchesReference) {
  const ModeCase mode = GetParam();
  Rng rng(13);
  for (const size_t k : kKSweep) {
    const DenseMatrix a = MixedDense(41, k, &rng);
    const DenseMatrix b = MixedDense(k, k, &rng);
    DenseMatrix want;
    {
      ScopedKernelMode scalar(KernelMode::kScalar);
      MatMulInto(a, b, &want);
    }
    ScopedKernelMode scope(mode.mode);
    DenseMatrix got;
    MatMulInto(a, b, &got);
    ExpectBitEqual(got, want, "MatMul fixed-k");
  }
  // Large non-k×k panel: the generic body in every mode.
  const DenseMatrix a = MixedDense(80, 300, &rng);
  const DenseMatrix b = MixedDense(300, 70, &rng);
  DenseMatrix want;
  {
    ScopedKernelMode scalar(KernelMode::kScalar);
    MatMulInto(a, b, &want);
  }
  ScopedKernelMode scope(mode.mode);
  DenseMatrix got;
  MatMulInto(a, b, &got);
  ExpectBitEqual(got, want, "MatMul large panel");
}

TEST_P(KernelEquivalenceTest, MatMulABtMatchesReference) {
  const ModeCase mode = GetParam();
  Rng rng(14);
  for (const size_t k : kKSweep) {
    const DenseMatrix a = MixedDense(33, k, &rng);
    const DenseMatrix b = MixedDense(29, k, &rng);
    DenseMatrix want;
    {
      ScopedKernelMode scalar(KernelMode::kScalar);
      MatMulABtInto(a, b, &want);
    }
    ScopedKernelMode scope(mode.mode);
    DenseMatrix got;
    MatMulABtInto(a, b, &got);
    ExpectBitEqual(got, want, "MatMulABt");
  }
}

TEST_P(KernelEquivalenceTest, ReductionsMatchReference) {
  const ModeCase mode = GetParam();
  Rng rng(15);
  const DenseMatrix a = MixedDense(201, 7, &rng);
  const DenseMatrix b = MixedDense(201, 7, &rng);
  double want_norm, want_dist, want_trace;
  {
    ScopedKernelMode scalar(KernelMode::kScalar);
    want_norm = FrobeniusNormSquared(a);
    want_dist = FrobeniusDistanceSquared(a, b);
    want_trace = TraceAtB(a, b);
  }
  ScopedKernelMode scope(mode.mode);
  EXPECT_EQ(FrobeniusNormSquared(a), want_norm);
  EXPECT_EQ(FrobeniusDistanceSquared(a, b), want_dist);
  EXPECT_EQ(TraceAtB(a, b), want_trace);
}

TEST_P(KernelEquivalenceTest, SparseLossesMatchReference) {
  const ModeCase mode = GetParam();
  Rng rng(16);
  for (const size_t k : kKSweep) {
    const SparseMatrix x = RandomSparse(120, 90, 0.07, &rng);
    const DenseMatrix u = testing_util::RandomPositive(120, k, &rng);
    const DenseMatrix v = testing_util::RandomPositive(90, k, &rng);
    const SparseMatrix g = RandomSparse(60, 60, 0.1, &rng);
    std::vector<double> degrees(60);
    for (double& deg : degrees) deg = rng.Uniform(0.0, 5.0);
    const DenseMatrix s = testing_util::RandomPositive(60, k, &rng);
    double want_loss, want_quad;
    {
      ScopedKernelMode scalar(KernelMode::kScalar);
      want_loss = FactorizationLossSquared(x, u, v);
      want_quad = GraphLaplacianQuadraticForm(g, degrees, s);
    }
    ScopedKernelMode scope(mode.mode);
    EXPECT_EQ(FactorizationLossSquared(x, u, v), want_loss) << "k=" << k;
    EXPECT_EQ(GraphLaplacianQuadraticForm(g, degrees, s), want_quad)
        << "k=" << k;
  }
}

TEST_P(KernelEquivalenceTest, MultiplicativeUpdateMatchesReference) {
  const ModeCase mode = GetParam();
  Rng rng(17);
  for (const size_t cols : kKSweep) {
    const DenseMatrix m0 = testing_util::RandomPositive(83, cols, &rng);
    const DenseMatrix numer = MixedDense(83, cols, &rng);
    const DenseMatrix denom = MixedDense(83, cols, &rng);
    for (const double eps : {0.0, 1e-12, 1e-9}) {
      DenseMatrix want = m0;
      {
        ScopedKernelMode scalar(KernelMode::kScalar);
        MultiplicativeUpdateInPlace(&want, numer, denom, eps);
      }
      ScopedKernelMode scope(mode.mode);
      DenseMatrix got = m0;
      MultiplicativeUpdateInPlace(&got, numer, denom, eps);
      // Per-lane IEEE max/add/div/sqrt: the AVX2 body matches bit for bit.
      ExpectBitEqual(got, want, "MultiplicativeUpdate");
    }
  }
}

/// Denormal / signed-zero / NaN edge cases of the guarded multiplicative
/// step, checked bitwise across all modes.
TEST_P(KernelEquivalenceTest, MultiplicativeUpdateEdgeCases) {
  const ModeCase mode = GetParam();
  const double kDenormMin = std::numeric_limits<double>::denorm_min();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  // 8 elements so the AVX2 body runs two full vector lanes; plus a ragged
  // 5th column variant exercises the scalar tail.
  for (const size_t cols : {8u, 5u}) {
    DenseMatrix m0(3, cols), numer(3, cols), denom(3, cols);
    const double numer_vals[] = {0.0,  -0.0, kDenormMin, 1e-310,
                                 -1.0, kNan, 1e300,      4.9e-324};
    const double denom_vals[] = {0.0,    kDenormMin, -0.0, -1e-310,
                                 -301.0, 2.0,        kNan, 0.5};
    for (size_t i = 0; i < m0.size(); ++i) {
      m0.data()[i] = 0.75 + 0.5 * static_cast<double>(i % 7);
      numer.data()[i] = numer_vals[i % 8];
      denom.data()[i] = denom_vals[i % 8];
    }
    for (const double eps : {0.0, 1e-12}) {
      DenseMatrix want = m0;
      {
        ScopedKernelMode scalar(KernelMode::kScalar);
        MultiplicativeUpdateInPlace(&want, numer, denom, eps);
      }
      ScopedKernelMode scope(mode.mode);
      DenseMatrix got = m0;
      MultiplicativeUpdateInPlace(&got, numer, denom, eps);
      ExpectBitEqual(got, want, "MultiplicativeUpdate edge cases");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, KernelEquivalenceTest,
                         ::testing::ValuesIn(kModes),
                         [](const ::testing::TestParamInfo<ModeCase>& param) {
                           return std::string(param.param.name);
                         });

/// The end-to-end contract: a full offline fit under the default kAuto
/// dispatch reproduces the kScalar factors bit-for-bit.
TEST(KernelDispatchSolverTest, OfflineFitBitwiseEqualAcrossAutoAndScalar) {
  testing_util::SmallProblem p = testing_util::MakeSmallProblem();
  TriClusterConfig config;
  config.max_iterations = 8;
  config.track_loss = false;

  config.kernel_mode = KernelMode::kScalar;
  const TriClusterResult scalar = OfflineTriClusterer(config).Run(p.data, p.sf0);
  config.kernel_mode = KernelMode::kAuto;
  const TriClusterResult autod = OfflineTriClusterer(config).Run(p.data, p.sf0);

  EXPECT_TRUE(autod.sp == scalar.sp);
  EXPECT_TRUE(autod.su == scalar.su);
  EXPECT_TRUE(autod.sf == scalar.sf);
  EXPECT_TRUE(autod.hp == scalar.hp);
  EXPECT_TRUE(autod.hu == scalar.hu);
}

TEST(KernelDispatchTest, ScalarModeDisablesEverything) {
  ScopedKernelMode scope(KernelMode::kScalar);
  const KernelDispatch d = ActiveDispatch();
  EXPECT_FALSE(d.fixed_k);
  EXPECT_FALSE(d.avx2);
}

/// Clears TRICLUST_FORCE_SCALAR for one test body (the CI force-scalar leg
/// exports it suite-wide, which would pin ActiveKernelMode to kScalar and
/// vacuously break the mode-introspection expectations below).
class ScopedClearForceScalar {
 public:
  ScopedClearForceScalar() {
    const char* value = std::getenv("TRICLUST_FORCE_SCALAR");
    if (value != nullptr) saved_ = value;
    had_value_ = value != nullptr;
    unsetenv("TRICLUST_FORCE_SCALAR");
    internal::ReprobeKernelEnvForTesting();
  }
  ~ScopedClearForceScalar() {
    if (had_value_) setenv("TRICLUST_FORCE_SCALAR", saved_.c_str(), 1);
    internal::ReprobeKernelEnvForTesting();
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST(KernelDispatchTest, AutoEnablesFixedKAndProbedAvx2) {
  ScopedClearForceScalar no_env;
  ScopedKernelMode scope(KernelMode::kAuto);
  const KernelDispatch d = ActiveDispatch();
  EXPECT_TRUE(d.fixed_k);
  // avx2 depends on host + compiler; just check consistency.
  EXPECT_EQ(d.avx2, CpuSupportsAvx2() && Avx2KernelsCompiled());
}

TEST(KernelDispatchTest, ScopedModeNestsAndRestores) {
  ScopedClearForceScalar no_env;
  const KernelMode ambient = ActiveKernelMode();
  {
    ScopedKernelMode outer(KernelMode::kScalar);
    EXPECT_EQ(ActiveKernelMode(), KernelMode::kScalar);
    {
      ScopedKernelMode inner(KernelMode::kAuto);
      EXPECT_EQ(ActiveKernelMode(), KernelMode::kAuto);
    }
    EXPECT_EQ(ActiveKernelMode(), KernelMode::kScalar);
  }
  EXPECT_EQ(ActiveKernelMode(), ambient);
}

TEST(KernelDispatchTest, ForceScalarEnvOverridesEverything) {
  ScopedClearForceScalar restore_after;
  ASSERT_EQ(setenv("TRICLUST_FORCE_SCALAR", "1", 1), 0);
  internal::ReprobeKernelEnvForTesting();
  {
    ScopedKernelMode scope(KernelMode::kAuto);
    EXPECT_EQ(ActiveKernelMode(), KernelMode::kScalar);
    const KernelDispatch d = ActiveDispatch();
    EXPECT_FALSE(d.fixed_k);
    EXPECT_FALSE(d.avx2);
  }
  // "0" and empty mean off.
  ASSERT_EQ(setenv("TRICLUST_FORCE_SCALAR", "0", 1), 0);
  internal::ReprobeKernelEnvForTesting();
  {
    ScopedKernelMode scope(KernelMode::kAuto);
    EXPECT_EQ(ActiveKernelMode(), KernelMode::kAuto);
  }
  ASSERT_EQ(unsetenv("TRICLUST_FORCE_SCALAR"), 0);
  internal::ReprobeKernelEnvForTesting();
}

// --- dispatch-table coverage -------------------------------------------------
// Pins the Select* tables body by body: every kernel declared in
// src/matrix/kernels.h must be the selection for some (mode, shape) here.
// tools/lint_invariants.py enforces the converse textually (a body added
// to kernels.h without an expectation below fails the kernel-coverage
// rule), so the two files cannot drift apart silently.

TEST(KernelDispatchTableTest, SelectorsCoverEveryDeclaredBody) {
  using namespace kernels;  // NOLINT(build/namespaces) — table readability
  ScopedClearForceScalar no_env;
  const bool avx2 = CpuSupportsAvx2() && kernels::Avx2KernelsCompiled();

  {
    // kScalar: every selector returns its generic reference loop.
    ScopedKernelMode scalar(KernelMode::kScalar);
    EXPECT_EQ(SelectSpMMRows(3), &GenericSpMMRows);
    EXPECT_EQ(SelectAtBAccumulate(3, 3), &GenericAtBAccumulate);
    EXPECT_EQ(SelectMatMulRows(3, 3), &GenericMatMulRows);
    EXPECT_EQ(SelectABtRows(3), &GenericABtRows);
    EXPECT_EQ(SelectMulUpdateRange(), &GenericMulUpdateRange);
    EXPECT_EQ(SelectSpCrossRows(3), &GenericSpCrossRows);
  }
  {
    // kAuto: fixed-k unrolls at k = 2 and 3, upgraded to the AVX2 bodies
    // when the CPU and the kernel TU both have them.
    ScopedKernelMode auto_mode(KernelMode::kAuto);
    EXPECT_EQ(SelectSpMMRows(2), avx2 ? &Avx2SpMMRowsK2 : &SpMMRowsK2);
    EXPECT_EQ(SelectSpMMRows(3), avx2 ? &Avx2SpMMRowsK3 : &SpMMRowsK3);
    EXPECT_EQ(SelectAtBAccumulate(2, 2),
              avx2 ? &Avx2AtBAccumulateK2 : &AtBAccumulateK2);
    EXPECT_EQ(SelectAtBAccumulate(3, 3),
              avx2 ? &Avx2AtBAccumulateK3 : &AtBAccumulateK3);
    EXPECT_EQ(SelectMatMulRows(2, 2), &MatMulRowsK2);
    EXPECT_EQ(SelectMatMulRows(3, 3), &MatMulRowsK3);
    EXPECT_EQ(SelectABtRows(2), &ABtRowsK2);
    EXPECT_EQ(SelectABtRows(3), &ABtRowsK3);
    EXPECT_EQ(SelectMulUpdateRange(),
              avx2 ? &Avx2MulUpdateRange : &GenericMulUpdateRange);
    EXPECT_EQ(SelectSpCrossRows(2), &SpCrossRowsK2);
    EXPECT_EQ(SelectSpCrossRows(3), &SpCrossRowsK3);

    // Every other shape runs the generic body: k ∉ {2, 3}, a large dense
    // panel, and a non-square AtB or MatMul.
    for (const size_t k : {1u, 4u, 7u}) {
      EXPECT_EQ(SelectSpMMRows(k), &GenericSpMMRows) << "k=" << k;
      EXPECT_EQ(SelectAtBAccumulate(k, k), &GenericAtBAccumulate)
          << "k=" << k;
      EXPECT_EQ(SelectMatMulRows(k, k), &GenericMatMulRows) << "k=" << k;
      EXPECT_EQ(SelectABtRows(k), &GenericABtRows) << "k=" << k;
      EXPECT_EQ(SelectSpCrossRows(k), &GenericSpCrossRows) << "k=" << k;
    }
    EXPECT_EQ(SelectMatMulRows(64, 64), &GenericMatMulRows);
    EXPECT_EQ(SelectAtBAccumulate(3, 7), &GenericAtBAccumulate);
    EXPECT_EQ(SelectMatMulRows(3, 7), &GenericMatMulRows);
  }
}

}  // namespace
}  // namespace triclust
