/// Equivalence suite for the kernel-dispatch layer (src/matrix/kernels.h):
/// every public kernel is run under every KernelMode across a sweep of
/// cluster counts k ∈ {1, 2, 3, 4, 7} (k = 2 and 3 select the fixed-k and
/// AVX2 bodies; k = 1, 4 and 7 the generic fallback) and ragged shapes,
/// and compared against the kScalar reference loops. The kAuto tier must
/// match BITWISE — that is the contract that lets it be the default
/// without perturbing any historical result.

#include "src/matrix/kernel_dispatch.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
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

/// The k = 3 AVX2 MatMul and AtB bodies select a term whose a-entry is ±0
/// to +0.0 instead of skipping it; these are the inputs where the two could
/// differ. Each output element meets at most one NaN payload, so the bits do
/// not depend on which operand of an add the compiler puts first.
const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();
const double kDenormMin = std::numeric_limits<double>::denorm_min();

TEST_P(KernelEquivalenceTest, MatMulK3ZeroTermEdgeCases) {
  const ModeCase mode = GetParam();
  const DenseMatrix b = {{-0.0, -0.5, -0.0},
                         {kInf, -kInf, -0.0},
                         {1e-310, 2.5, -0.0}};
  const DenseMatrix a = {
      {0.0, 0.0, 0.0},          // every term skipped, 0·∞ included
      {-0.0, -0.0, 0.0},        // −0.0 a-entries are skipped too
      {1.0, 0.0, 2.0},          // −0.0 first product, skip against ±∞
      {kDenormMin, 3.0, 4.0},   // denormal a; its −0.0 first product
      {kNan, 0.0, 1.0},         // NaN is kept, not skipped
      {0.0, 1e-310, 0.0},       // a denormal times ±∞
      {1e-300, 0.0, 1e-10},     // products underflowing to denormals
  };
  DenseMatrix want;
  {
    ScopedKernelMode scalar(KernelMode::kScalar);
    MatMulInto(a, b, &want);
  }
  ScopedKernelMode scope(mode.mode);
  DenseMatrix got;
  MatMulInto(a, b, &got);
  ExpectBitEqual(got, want, "MatMul k=3 zero terms");
  for (const size_t i : {0u, 1u}) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(got(i, j), 0.0) << i << "," << j;
      EXPECT_FALSE(std::signbit(got(i, j))) << i << "," << j;
    }
  }
  // Column 2 sums only −0.0 products, which the +0.0 start absorbs.
  EXPECT_FALSE(std::signbit(got(2, 2)));
  EXPECT_FALSE(std::signbit(got(3, 2)));
  EXPECT_TRUE(std::isnan(got(4, 0)));
}

TEST_P(KernelEquivalenceTest, MatMulAtBK3ZeroTermEdgeCases) {
  const ModeCase mode = GetParam();
  // Column 2 of a is all ±0.0, against ±∞ and NaN in b.
  const DenseMatrix a_rows = {{1.0, 0.0, 0.0},
                              {0.0, 2.0, -0.0},
                              {-0.0, kDenormMin, 0.0},
                              {kNan, 0.0, 0.0},
                              {1e-310, 1e300, -0.0}};
  const DenseMatrix b_rows = {{-0.0, kInf, 2.0},
                              {kInf, -0.0, -1.0},
                              {-0.5, 3.0, -0.0},
                              {1.0, -kInf, 4.0},
                              {1e-10, 1e10, kNan}};
  // The rows once (the direct path) and tiled past kReduceRowGrain (the
  // chunked reduction).
  for (const size_t tiles : {1u, 220u}) {
    DenseMatrix a(tiles * a_rows.rows(), 3);
    DenseMatrix b(tiles * b_rows.rows(), 3);
    for (size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = a_rows.data()[i % a_rows.size()];
      b.data()[i] = b_rows.data()[i % b_rows.size()];
    }
    DenseMatrix want;
    {
      ScopedKernelMode scalar(KernelMode::kScalar);
      MatMulAtBInto(a, b, &want);
    }
    ScopedKernelMode scope(mode.mode);
    DenseMatrix got;
    MatMulAtBInto(a, b, &got);
    ExpectBitEqual(got, want, "MatMulAtB k=3 zero terms");
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(got(2, j), 0.0) << "tiles=" << tiles << " j=" << j;
      EXPECT_FALSE(std::signbit(got(2, j))) << "tiles=" << tiles;
    }
    EXPECT_TRUE(std::isnan(got(0, 0))) << "tiles=" << tiles;
  }
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

/// Compressed rows handed straight to the cross bodies, so that they can
/// hold what SparseMatrix's builder drops: stored ±0 values.
struct RawCsr {
  std::vector<size_t> row_ptr{0};
  std::vector<uint32_t> col_idx;
  std::vector<double> values;

  size_t rows() const { return row_ptr.size() - 1; }
  void EndRow() { row_ptr.push_back(values.size()); }
};

/// What a cross-body case adds to its finite base instance. Each kind
/// brings at most one NaN payload: the quiet NaN of an input, or the one
/// the CPU makes for ∞ − ∞ and 0·∞, never both.
enum class CrossSpecial { kNone, kNanValue, kNanU, kNanV, kInfValue, kInfU,
                          kInfV };

struct CrossCase {
  RawCsr x;
  DenseMatrix u, v;
};

/// 11 rows over 6 columns: rows 0, 4 and 10 empty, the rest ragged with 1–5
/// entries, stored +0.0 and −0.0 among mixed-sign values, and denormals,
/// −0.0 and exact zeros in u and v, so that −0.0 first products and
/// underflowing products occur; then the special.
CrossCase MakeCrossCase(CrossSpecial special, size_t k, Rng* rng) {
  constexpr size_t kRows = 11;
  constexpr size_t kCols = 6;
  CrossCase c;
  for (size_t i = 0; i < kRows; ++i) {
    if (i != 0 && i != 4 && i != 10) {
      const size_t count = 1 + rng->NextUint64Below(5);
      for (size_t e = 0; e < count; ++e) {
        c.x.col_idx.push_back(
            static_cast<uint32_t>(rng->NextUint64Below(kCols)));
        const double r = rng->Uniform(0.0, 1.0);
        c.x.values.push_back(r < 0.1   ? 0.0
                             : r < 0.2 ? -0.0
                             : r < 0.3 ? kDenormMin * 3.0
                                       : (r - 0.6) * 5.0);
      }
    }
    c.x.EndRow();
  }
  c.u = MixedDense(kRows, k, rng);
  c.v = MixedDense(kCols, k, rng);
  c.u(1, 0) = -0.0;
  c.u(2, k - 1) = 1e-310;
  c.v(0, 0) = -0.0;
  c.v(1, k - 1) = kDenormMin;
  // Row 3's first stored entry, and a later row's, for the value specials.
  const size_t p3 = c.x.row_ptr[3];
  const size_t p8 = c.x.row_ptr[8];
  switch (special) {
    case CrossSpecial::kNone:
      break;
    case CrossSpecial::kNanValue:
      c.x.values[p3] = kNan;
      break;
    case CrossSpecial::kNanU:
      c.u(5, 0) = kNan;
      break;
    case CrossSpecial::kNanV:
      c.v(c.x.col_idx[p8], k - 1) = kNan;
      break;
    case CrossSpecial::kInfValue:
      c.x.values[p3] = kInf;
      c.x.values[p8] = -kInf;
      break;
    case CrossSpecial::kInfU:
      c.u(5, 0) = kInf;
      c.u(7, k - 1) = -kInf;
      break;
    case CrossSpecial::kInfV:
      c.v(c.x.col_idx[p3], 0) = -kInf;
      break;
  }
  return c;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every body of the cross family that can form X·V, called directly over
/// whole and partial row ranges: its sum must have GenericSpCrossRows' bits
/// with or without the product, its product rows GenericSpMMRows' bits,
/// and the rows outside the range must be left alone.
TEST(CrossBodiesTest, ProductFormingBodiesMatchGenericSpMMAndCross) {
  using namespace kernels;  // NOLINT(build/namespaces) — body names
  struct Body {
    const char* name;
    SpCrossRowsFn fn;
    size_t k;  // 0: any k
  };
  const Body bodies[] = {{"generic", &GenericSpCrossRows, 0},
                         {"fixed k=2", &SpCrossRowsK2, 2},
                         {"fixed k=3", &SpCrossRowsK3, 3}};
  const double kSentinel = 12345.0;
  Rng rng(18);
  for (const size_t k : kKSweep) {
    for (const CrossSpecial special :
         {CrossSpecial::kNone, CrossSpecial::kNanValue, CrossSpecial::kNanU,
          CrossSpecial::kNanV, CrossSpecial::kInfValue, CrossSpecial::kInfU,
          CrossSpecial::kInfV}) {
      const CrossCase c = MakeCrossCase(special, k, &rng);
      const size_t rows = c.x.rows();
      const size_t* row_ptr = c.x.row_ptr.data();
      const uint32_t* col_idx = c.x.col_idx.data();
      const double* values = c.x.values.data();
      const std::pair<size_t, size_t> ranges[] = {{0, rows}, {3, 9}, {4, 5}};
      for (const auto& [begin, end] : ranges) {
        const double want_sum = GenericSpCrossRows(
            row_ptr, col_idx, values, c.u.data(), c.v.data(), k, nullptr,
            begin, end);
        DenseMatrix want_xv(rows, k, kSentinel);
        GenericSpMMRows(row_ptr, col_idx, values, c.v.data(), k,
                        want_xv.data(), begin, end);
        for (const Body& body : bodies) {
          if (body.k != 0 && body.k != k) continue;
          const std::string label =
              std::string(body.name) + " k=" + std::to_string(k) +
              " special=" + std::to_string(static_cast<int>(special)) +
              " rows=[" + std::to_string(begin) + "," + std::to_string(end) +
              ")";
          EXPECT_TRUE(BitEqual(body.fn(row_ptr, col_idx, values, c.u.data(),
                                       c.v.data(), k, nullptr, begin, end),
                               want_sum))
              << label << " without the product";
          DenseMatrix got_xv(rows, k, kSentinel);
          EXPECT_TRUE(BitEqual(body.fn(row_ptr, col_idx, values, c.u.data(),
                                       c.v.data(), k, got_xv.data(), begin,
                                       end),
                               want_sum))
              << label << " with the product";
          ExpectBitEqual(got_xv, want_xv, label.c_str());
        }
      }
    }
  }
}

/// Ragged compressed rows: every 7th row empty, the others with 1–6
/// entries of either sign, some denormal.
SparseMatrix RaggedSparse(size_t rows, size_t cols, Rng* rng) {
  SparseMatrix::Builder builder(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    if (i % 7 == 3) continue;
    const size_t count = 1 + rng->NextUint64Below(6);
    for (size_t e = 0; e < count; ++e) {
      const double r = rng->Uniform(0.0, 1.0);
      builder.Add(i, rng->NextUint64Below(cols),
                  r < 0.1 ? -kDenormMin * 7.0 : (r - 0.4) * 3.0);
    }
  }
  return builder.Build();
}

/// The public losses with the product: under every mode and at widths 1
/// and 3, over row counts on both sides of the 1,024-row reduction chunk,
/// the loss keeps the reference bits and the product is the reference
/// SpMMInto's.
TEST_P(KernelEquivalenceTest, FactorizationLossFormsTheProduct) {
  const ModeCase mode = GetParam();
  Rng rng(19);
  const size_t chunk = kReduceRowGrain;
  for (const size_t rows : {size_t{37}, chunk + 77}) {
    for (const size_t k : kKSweep) {
      const SparseMatrix x = RaggedSparse(rows, 50, &rng);
      DenseMatrix u = MixedDense(rows, k, &rng);
      DenseMatrix v = MixedDense(50, k, &rng);
      u(1, 0) = 1e-310;
      v(2, k - 1) = -kDenormMin;
      const DenseMatrix h = MixedDense(k, k, &rng);
      double want_loss, want_tri;
      DenseMatrix want_xv;
      {
        ScopedKernelMode scalar(KernelMode::kScalar);
        want_loss = FactorizationLossSquared(x, u, v);
        want_tri = TriFactorizationLossSquared(x, u, h, v);
        SpMMInto(x, v, &want_xv);
      }
      ScopedKernelMode scope(mode.mode);
      for (const int width : {1, 3}) {
        const ScopedThreadBudget budget{ThreadBudget(width)};
        const std::string label = "rows=" + std::to_string(rows) +
                                  " k=" + std::to_string(k) +
                                  " width=" + std::to_string(width);
        DenseMatrix xv(2, 2, 12345.0);  // resized by the call
        EXPECT_TRUE(BitEqual(FactorizationLossSquared(x, u, v, &xv),
                             want_loss))
            << label;
        ExpectBitEqual(xv, want_xv, label.c_str());
        DenseMatrix xf;
        EXPECT_TRUE(BitEqual(TriFactorizationLossSquared(x, u, h, v, &xf),
                             want_tri))
            << label;
        ExpectBitEqual(xf, want_xv, (label + " tri").c_str());
      }
    }
  }
}

/// Everything one S-rule step reads: M, its n×k and k×k terms and the pull
/// weights, all filled so that each case can switch terms on and off.
struct StepInputs {
  DenseMatrix m, p, q, r, s, target, k1, k2, delta_pos, delta_neg;
  std::vector<double> weights;
  double c = 0.7;
};

/// How a case supplies the c-terms: absent, with S its own matrix, or with
/// S = M (UpdateSf's α·Sf).
enum class CTerms { kAbsent, kSeparate, kOnM };

struct StepConfig {
  CTerms c_terms;
  bool pull;
  double lambda;
};

/// Every combination of the c-terms, the pull and λ; λ = −0.5 must be
/// dropped like λ = 0.
std::vector<StepConfig> AllStepConfigs() {
  std::vector<StepConfig> configs;
  for (const CTerms c_terms :
       {CTerms::kAbsent, CTerms::kSeparate, CTerms::kOnM}) {
    for (const bool pull : {false, true}) {
      for (const double lambda : {0.0, -0.5, 0.25}) {
        configs.push_back({c_terms, pull, lambda});
      }
    }
  }
  return configs;
}

std::string ConfigLabel(const StepConfig& config, double eps) {
  return "c=" + std::to_string(static_cast<int>(config.c_terms)) +
         " pull=" + std::to_string(config.pull) +
         " lambda=" + std::to_string(config.lambda) +
         " eps=" + std::to_string(eps) + (std::signbit(eps) ? "(-)" : "");
}

/// The fused step under the active kernel mode.
DenseMatrix FusedStep(const StepInputs& in, const StepConfig& config,
                      double eps) {
  DenseMatrix m = in.m;
  MultiplicativeStepTerms terms{in.p, in.q, in.k1, in.k2,
                                in.delta_pos, in.delta_neg};
  if (config.c_terms != CTerms::kAbsent) {
    terms.c = in.c;
    terms.r = &in.r;
    terms.s = config.c_terms == CTerms::kOnM ? &m : &in.s;
  }
  if (config.pull) {
    terms.pull_weights = &in.weights;
    terms.pull_target = &in.target;
  }
  terms.lambda = config.lambda;
  MultiplicativeStepInPlace(&m, terms, eps);
  return m;
}

/// The same step as the S-rules formed it before the fused kernel: one
/// whole-matrix pass per term, in the same order, then
/// MultiplicativeUpdateInPlace. Run in kScalar mode, it is the oracle.
DenseMatrix UnfusedStep(const StepInputs& in, const StepConfig& config,
                        double eps) {
  ScopedKernelMode scalar(KernelMode::kScalar);
  DenseMatrix m = in.m;
  const DenseMatrix& s = config.c_terms == CTerms::kOnM ? m : in.s;
  DenseMatrix term;
  DenseMatrix numer = in.p;
  numer.AddInPlace(in.q);
  if (config.c_terms != CTerms::kAbsent) numer.Axpy(in.c, in.r);
  MatMulInto(m, in.delta_neg, &term);
  numer.AddInPlace(term);
  if (config.pull) {
    DiagScaleRowsInto(in.weights, in.target, &term);
    numer.AddInPlace(term);
  }
  DenseMatrix denom;
  MatMulInto(m, in.k1, &denom);
  MatMulInto(m, in.k2, &term);
  denom.AddInPlace(term);
  if (config.c_terms != CTerms::kAbsent) denom.Axpy(in.c, s);
  MatMulInto(m, in.delta_pos, &term);
  denom.AddInPlace(term);
  if (config.pull) {
    DiagScaleRowsInto(in.weights, m, &term);
    denom.AddInPlace(term);
  }
  if (config.lambda > 0.0) {
    for (size_t i = 0; i < denom.size(); ++i) denom.data()[i] += config.lambda;
  }
  MultiplicativeUpdateInPlace(&m, numer, denom, eps);
  return m;
}

TEST_P(KernelEquivalenceTest, MultiplicativeStepMatchesUnfusedTail) {
  const ModeCase mode = GetParam();
  Rng rng(17);
  // Ragged row counts on both sides of the 32-row parallel threshold.
  for (const size_t rows : {1u, 7u, 33u, 130u}) {
    for (const size_t k : kKSweep) {
      StepInputs in;
      // Mixed signs and exact zeros everywhere: the ±0 skip triggers, and
      // numerators and denominators go negative so the clamp does.
      in.m = MixedDense(rows, k, &rng);
      in.p = MixedDense(rows, k, &rng);
      in.q = MixedDense(rows, k, &rng);
      in.r = MixedDense(rows, k, &rng);
      in.s = MixedDense(rows, k, &rng);
      in.target = MixedDense(rows, k, &rng);
      in.k1 = MixedDense(k, k, &rng);
      in.k2 = MixedDense(k, k, &rng);
      in.delta_pos = MixedDense(k, k, &rng);
      in.delta_neg = MixedDense(k, k, &rng);
      for (size_t i = 0; i < rows; ++i) {
        in.weights.push_back(i % 3 == 0 ? 0.0 : rng.Uniform(0.0, 2.0));
      }
      for (const StepConfig& config : AllStepConfigs()) {
        for (const double eps : {1e-12, 0.0}) {
          const std::string label = "rows=" + std::to_string(rows) +
                                    " k=" + std::to_string(k) + " " +
                                    ConfigLabel(config, eps);
          const DenseMatrix want = UnfusedStep(in, config, eps);
          ScopedKernelMode scope(mode.mode);
          ExpectBitEqual(FusedStep(in, config, eps), want, label.c_str());
          const ScopedThreadBudget width{ThreadBudget(3)};
          ExpectBitEqual(FusedStep(in, config, eps), want,
                         (label + " width=3").c_str());
        }
      }
    }
  }
}

/// The first `k` columns of `full` (and, for a square `full`, its top-left
/// k×k block): the edge cases below are written once for k = 3 and cut down
/// for the k = 2 body.
DenseMatrix LeadingBlock(const DenseMatrix& full, size_t rows, size_t k) {
  DenseMatrix out(rows, k);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < k; ++j) out(i, j) = full(i, j);
  }
  return out;
}

/// ±0, −0.0 first products, NaN, ±∞, denormals and negative numerators and
/// denominators for the fused step, against the unfused tail bitwise and
/// with the signs the generic sequence gives checked explicitly. Each
/// output element meets at most one NaN payload, so the bits do not depend
/// on which operand of an add the compiler puts first.
TEST_P(KernelEquivalenceTest, MultiplicativeStepEdgeCases) {
  const ModeCase mode = GetParam();
  const DenseMatrix m = {
      {0.0, 0.0, 0.0},              // 0: every m·K term skipped
      {-0.0, -0.0, 0.0},            // 1: −0.0 entries are skipped too
      {1.0, 0.0, 0.0},              // 2: −0.0 first products (Δ⁻ row 0)
      {0.0, 1.0, 0.0},              // 3: K1, K2, Δ⁺ row 1 all −0.0
      {0.0, 0.0, 1.0},              // 4: ∞ in K1, NaN in K2, −∞ in Δ⁻
      {kDenormMin, 0.0, 0.0},       // 5: denormal m; its −0.0 product
      {kNan, 0.0, 1.0},             // 6: NaN is kept, not skipped
      {kInf, 0.0, 0.0},             // 7: ∞ in m
      {2.0, 1e-310, 3.0},           // 8: denormal m against ±∞ in K
      {1.0, 2.0, 0.0},              // 9: NaN and ±∞ in P and Q
      {0.5, 1.0, 0.0},              // 10: NaN and ±∞ in R and S
      {1.0, 0.5, 0.0},              // 11: NaN and ∞ in the pull target
      {1.0, 0.0, 0.0},              // 12: an infinite pull weight
      {1.0, 1.0, 0.0},              // 13: a NaN pull weight
      {1.0, 0.0, 0.0},              // 14: negative numerators
      {1.0, 0.0, 0.0},              // 15: negative denominators (via S)
      {1e-310, 0.5, 0.0},           // 16: denormal terms
  };
  const DenseMatrix p = {
      {1.0, 2.0, 0.5},   {1.0, 1.0, 1.0},        {-0.0, -0.0, -0.0},
      {1.0, 1.0, 1.0},   {1.0, 1.0, 1.0},        {1.0, 2.0, 3.0},
      {1.0, 1.0, 1.0},   {1.0, 1.0, 1.0},        {1.0, 1.0, 1.0},
      {kNan, 1.0, 1.0},  {1.0, 1.0, 1.0},        {1.0, 1.0, 1.0},
      {1.0, 1.0, 1.0},   {1.0, 1.0, 1.0},        {-5.0, -5.0, -5.0},
      {1.0, 1.0, 1.0},   {1e-310, kDenormMin, 0.0},
  };
  const DenseMatrix q = {
      {0.5, 0.5, 0.5},   {0.5, 0.5, 0.5},        {-0.0, -0.0, -0.0},
      {0.5, 0.5, 0.5},   {0.5, 0.5, 0.5},        {0.5, 0.5, 0.5},
      {0.5, 0.5, 0.5},   {0.5, 0.5, 0.5},        {0.5, 0.5, 0.5},
      {1.0, kInf, -kInf}, {0.5, 0.5, 0.5},       {0.5, 0.5, 0.5},
      {0.5, 0.5, 0.5},   {0.5, 0.5, 0.5},        {-1.0, -1.0, -1.0},
      {0.5, 0.5, 0.5},   {kDenormMin, 0.0, 1e-310},
  };
  DenseMatrix r(m.rows(), 3, 0.25);
  DenseMatrix s(m.rows(), 3, 0.5);
  DenseMatrix target(m.rows(), 3, 0.3);
  for (size_t j = 0; j < 3; ++j) {
    r(14, j) = 0.0;  // the c- and pull terms keep row 14 negative
    target(14, j) = 0.0;
    s(15, j) = -100.0;
  }
  r(10, 0) = kInf;
  r(10, 1) = kNan;
  r(10, 2) = -kInf;
  s(10, 0) = -kInf;
  s(10, 2) = kInf;
  target(11, 0) = kNan;
  target(11, 1) = kInf;
  r(16, 0) = kDenormMin;
  s(16, 1) = 1e-310;
  const DenseMatrix k1 = {{1.0, 0.5, 0.25}, {-0.0, -0.0, -0.0},
                          {kInf, 1.0, 0.5}};
  const DenseMatrix k2 = {{0.5, 1.0, 0.5}, {-0.0, -0.0, -0.0},
                          {0.25, kNan, 1.0}};
  const DenseMatrix delta_pos = {{0.25, 0.5, 1.0}, {-0.0, -0.0, -0.0},
                                 {1.0, 1.0, kInf}};
  const DenseMatrix delta_neg = {{-0.0, -0.0, -0.0}, {0.5, 0.25, 1.0},
                                 {1.0, 0.5, -kInf}};
  std::vector<double> weights(m.rows(), 0.5);
  weights[12] = kInf;
  weights[13] = kNan;

  for (const size_t k : {2u, 3u}) {
    const size_t n = m.rows();
    StepInputs in;
    in.m = LeadingBlock(m, n, k);
    in.p = LeadingBlock(p, n, k);
    in.q = LeadingBlock(q, n, k);
    in.r = LeadingBlock(r, n, k);
    in.s = LeadingBlock(s, n, k);
    in.target = LeadingBlock(target, n, k);
    in.k1 = LeadingBlock(k1, k, k);
    in.k2 = LeadingBlock(k2, k, k);
    in.delta_pos = LeadingBlock(delta_pos, k, k);
    in.delta_neg = LeadingBlock(delta_neg, k, k);
    in.weights = weights;
    for (const StepConfig& config : AllStepConfigs()) {
      for (const double eps : {1e-12, 0.0, -0.0}) {
        const std::string label =
            "k=" + std::to_string(k) + " " + ConfigLabel(config, eps);
        const DenseMatrix want = UnfusedStep(in, config, eps);
        ScopedKernelMode scope(mode.mode);
        const DenseMatrix got = FusedStep(in, config, eps);
        ExpectBitEqual(got, want, label.c_str());
        for (size_t j = 0; j < k; ++j) {
          EXPECT_TRUE(std::isnan(got(6, j))) << label << " j=" << j;
        }
        if (eps > 0.0) {
          // A zero row stays +0.0; a −0.0 entry times a finite step stays
          // −0.0.
          for (size_t j = 0; j < k; ++j) {
            EXPECT_EQ(got(0, j), 0.0) << label << " j=" << j;
            EXPECT_FALSE(std::signbit(got(0, j))) << label << " j=" << j;
          }
          EXPECT_TRUE(std::signbit(got(1, 0))) << label;
          EXPECT_TRUE(std::signbit(got(1, 1))) << label;
        }
        if (eps == 0.0) {
          // A negative numerator clamps to +0.0, so the step is +0.0;
          // unclamped, sqrt of a negative ratio would be NaN.
          for (size_t j = 0; j < k; ++j) {
            EXPECT_EQ(got(14, j), 0.0) << label << " j=" << j;
            EXPECT_FALSE(std::signbit(got(14, j))) << label << " j=" << j;
          }
          if (config.c_terms == CTerms::kSeparate) {
            // A negative denominator clamps to +0.0, and a positive
            // numerator over +0.0 is +∞.
            EXPECT_EQ(got(15, 0), kInf) << label;
          }
        }
      }
    }
  }
}

/// Sums of −0.0 products, where every m entry is non-zero so no term is
/// skipped or selected out. Each m·K starts from +0.0, so it is +0.0 and
/// not −0.0; with eps = −0.0 that sign reaches the result, which the
/// clamp and a positive eps otherwise hide.
TEST_P(KernelEquivalenceTest, MultiplicativeStepSignedZeroSums) {
  const ModeCase mode = GetParam();
  const StepConfig plain{CTerms::kAbsent, false, 0.0};
  const double eps = -0.0;
  for (const size_t k : kKSweep) {
    StepInputs in;
    in.m = DenseMatrix(3, k, 2.0);
    in.m(1, 0) = kDenormMin;  // its −0.0 products count too
    in.m(2, k - 1) = 0.5;
    in.weights.assign(3, 0.0);
    const DenseMatrix positive(k, k, 1.0);
    const DenseMatrix negative_zero(k, k, -0.0);

    // Numerators: −0.0 + −0.0 + m·Δ⁻ with every product −0.0 is +0.0, so
    // each step and entry is +0.0. Starting m·Δ⁻ from its first product
    // instead would make them −0.0.
    in.p = DenseMatrix(3, k, -0.0);
    in.q = DenseMatrix(3, k, -0.0);
    in.k1 = positive;
    in.k2 = positive;
    in.delta_pos = positive;
    in.delta_neg = negative_zero;
    {
      const DenseMatrix want = UnfusedStep(in, plain, eps);
      ScopedKernelMode scope(mode.mode);
      const DenseMatrix got = FusedStep(in, plain, eps);
      ExpectBitEqual(got, want, ("numerators k=" + std::to_string(k)).c_str());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got.data()[i], 0.0) << "k=" << k << " i=" << i;
        EXPECT_FALSE(std::signbit(got.data()[i])) << "k=" << k << " i=" << i;
      }
    }

    // Denominators: (m·K1) + (m·K2) + (m·Δ⁺) with every product −0.0 is
    // +0.0, so each step is sqrt(1.5/+0.0) = +∞; a −0.0 denominator would
    // give sqrt(−∞) = NaN.
    in.p = DenseMatrix(3, k, 1.0);
    in.q = DenseMatrix(3, k, 0.5);
    in.k1 = negative_zero;
    in.k2 = negative_zero;
    in.delta_pos = negative_zero;
    in.delta_neg = negative_zero;
    {
      const DenseMatrix want = UnfusedStep(in, plain, eps);
      ScopedKernelMode scope(mode.mode);
      const DenseMatrix got = FusedStep(in, plain, eps);
      ExpectBitEqual(got, want,
                     ("denominators k=" + std::to_string(k)).c_str());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got.data()[i], kInf) << "k=" << k << " i=" << i;
      }
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
    EXPECT_EQ(SelectMulStepRows(3), &GenericMulStepRows);
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
    EXPECT_EQ(SelectMatMulRows(3, 3),
              avx2 ? &Avx2MatMulRowsK3 : &MatMulRowsK3);
    EXPECT_EQ(SelectABtRows(2), &ABtRowsK2);
    EXPECT_EQ(SelectABtRows(3), &ABtRowsK3);
    // The fused step has AVX2 bodies only: without them, the generic one.
    EXPECT_EQ(SelectMulStepRows(2),
              avx2 ? &Avx2MulStepRowsK2 : &GenericMulStepRows);
    EXPECT_EQ(SelectMulStepRows(3),
              avx2 ? &Avx2MulStepRowsK3 : &GenericMulStepRows);
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
      EXPECT_EQ(SelectMulStepRows(k), &GenericMulStepRows) << "k=" << k;
    }
    EXPECT_EQ(SelectMatMulRows(64, 64), &GenericMatMulRows);
    EXPECT_EQ(SelectAtBAccumulate(3, 7), &GenericAtBAccumulate);
    EXPECT_EQ(SelectMatMulRows(3, 7), &GenericMatMulRows);
  }
}

}  // namespace
}  // namespace triclust
