#include "src/core/updates.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/core/objective.h"
#include "src/matrix/ops.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::RandomPositive;
using testing_util::RandomSparse;

/// A random instance of the full offline problem.
struct Instance {
  SparseMatrix xp, xu, xr;
  UserGraph gu;
  DenseMatrix sp, su, sf, hp, hu;
  DenseMatrix sf0;
  double alpha = 0.1;
  double beta = 0.5;
};

Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 12 + rng.NextUint64Below(20);  // tweets
  const size_t m = 6 + rng.NextUint64Below(10);   // users
  const size_t l = 15 + rng.NextUint64Below(25);  // features
  const size_t k = 3;

  Instance inst;
  inst.xp = RandomSparse(n, l, 0.25, &rng);
  inst.xu = RandomSparse(m, l, 0.3, &rng);
  inst.xr = RandomSparse(m, n, 0.2, &rng);
  std::vector<UserGraph::Edge> edges;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (rng.Bernoulli(0.3)) edges.push_back({i, j, rng.Uniform(0.5, 2.0)});
    }
  }
  inst.gu = UserGraph::FromEdges(m, edges);
  inst.sp = RandomPositive(n, k, &rng);
  inst.su = RandomPositive(m, k, &rng);
  inst.sf = RandomPositive(l, k, &rng);
  inst.hp = RandomPositive(k, k, &rng);
  inst.hu = RandomPositive(k, k, &rng);
  inst.sf0 = RandomPositive(l, k, &rng);
  return inst;
}

double Objective(const Instance& inst) {
  return ComputeObjective(inst.xp, inst.xu, inst.xr, inst.gu, inst.sp,
                          inst.su, inst.sf, inst.hp, inst.hu, inst.alpha,
                          inst.sf0, inst.beta)
      .Total();
}

constexpr double kEps = 1e-12;
// One multiplicative step may overshoot within floating-point noise of the
// theory; allow a relative slack.
constexpr double kSlack = 1e-7;

class UpdateRuleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateRuleTest, HpStepNonIncreasingAndNonNegative) {
  Instance inst = MakeInstance(GetParam());
  const double before = Objective(inst);
  update::UpdateWorkspace ws;
  update::UpdateHp(inst.xp, inst.sp, inst.sf, &inst.hp, kEps, &ws);
  EXPECT_TRUE(IsNonNegative(inst.hp));
  EXPECT_TRUE(AllFinite(inst.hp));
  EXPECT_LE(Objective(inst), before * (1.0 + kSlack));
}

TEST_P(UpdateRuleTest, HuStepNonIncreasingAndNonNegative) {
  Instance inst = MakeInstance(GetParam() + 100);
  const double before = Objective(inst);
  update::UpdateWorkspace ws;
  update::UpdateHu(inst.xu, inst.su, inst.sf, &inst.hu, kEps, &ws);
  EXPECT_TRUE(IsNonNegative(inst.hu));
  EXPECT_TRUE(AllFinite(inst.hu));
  EXPECT_LE(Objective(inst), before * (1.0 + kSlack));
}

TEST_P(UpdateRuleTest, SpStepKeepsInvariants) {
  Instance inst = MakeInstance(GetParam() + 200);
  update::UpdateWorkspace ws;
  update::UpdateSp(inst.xp, inst.xr, inst.sf, inst.hp, inst.su, &inst.sp,
                   kEps, 0.0, nullptr, nullptr, &ws);
  EXPECT_TRUE(IsNonNegative(inst.sp));
  EXPECT_TRUE(AllFinite(inst.sp));
}

TEST_P(UpdateRuleTest, SuStepKeepsInvariants) {
  Instance inst = MakeInstance(GetParam() + 300);
  update::UpdateWorkspace ws;
  update::UpdateSu(inst.xu, inst.xr, inst.gu, inst.sf, inst.hu, inst.sp,
                   inst.beta, nullptr, nullptr, &inst.su, kEps, 0.0, &ws);
  EXPECT_TRUE(IsNonNegative(inst.su));
  EXPECT_TRUE(AllFinite(inst.su));
}

TEST_P(UpdateRuleTest, SfStepKeepsInvariants) {
  Instance inst = MakeInstance(GetParam() + 400);
  update::UpdateWorkspace ws;
  update::UpdateSf(inst.xp, inst.xu, inst.sp, inst.su, inst.hp, inst.hu,
                   inst.alpha, inst.sf0, &inst.sf, kEps, 0.0, &ws);
  EXPECT_TRUE(IsNonNegative(inst.sf));
  EXPECT_TRUE(AllFinite(inst.sf));
}

TEST_P(UpdateRuleTest, FullSweepNonIncreasingAfterWarmup) {
  // The paper (§3.2) states that each rule is non-increasing at fixed
  // other factors. This suite checks that per step only for Hp and Hu and
  // for the temporal Su step; on the Prop30-like bench corpus the Sf and Su
  // steps raise the objective in 285 and 143 of 300 sweeps. This test
  // checks less: after 30 composed sweeps (the Algorithm 1 body) the total
  // objective is below its starting value.
  Instance inst = MakeInstance(GetParam() + 500);
  double previous = Objective(inst);
  double first = previous;
  update::UpdateWorkspace ws;
  for (int iter = 0; iter < 30; ++iter) {
    update::UpdateSp(inst.xp, inst.xr, inst.sf, inst.hp, inst.su, &inst.sp,
                     kEps, 0.0, nullptr, nullptr, &ws);
    update::UpdateHp(inst.xp, inst.sp, inst.sf, &inst.hp, kEps, &ws);
    update::UpdateSu(inst.xu, inst.xr, inst.gu, inst.sf, inst.hu, inst.sp,
                     inst.beta, nullptr, nullptr, &inst.su, kEps, 0.0, &ws);
    update::UpdateHu(inst.xu, inst.su, inst.sf, &inst.hu, kEps, &ws);
    update::UpdateSf(inst.xp, inst.xu, inst.sp, inst.su, inst.hp, inst.hu,
                     inst.alpha, inst.sf0, &inst.sf, kEps, 0.0, &ws);
    previous = Objective(inst);
  }
  EXPECT_LT(previous, first);
}

TEST_P(UpdateRuleTest, TemporalSuStepKeepsInvariants) {
  Instance inst = MakeInstance(GetParam() + 600);
  Rng rng(GetParam() + 601);
  DenseMatrix suw = RandomPositive(inst.su.rows(), inst.su.cols(), &rng);
  std::vector<double> weights(inst.su.rows(), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (rng.Bernoulli(0.5)) weights[i] = 0.2;  // evolving user rows
  }
  update::UpdateWorkspace ws;
  update::UpdateSu(inst.xu, inst.xr, inst.gu, inst.sf, inst.hu, inst.sp,
                   inst.beta, &weights, &suw, &inst.su, kEps, 0.0, &ws);
  EXPECT_TRUE(IsNonNegative(inst.su));
  EXPECT_TRUE(AllFinite(inst.su));
}

TEST_P(UpdateRuleTest, TemporalSuUpdateNonIncreasingObjective) {
  // Paper Lemma 3: the online objective (including γ·||Su − Suw||² over
  // evolving users) is non-increasing under the Eq. (26) update, holding
  // the other factors fixed.
  Instance inst = MakeInstance(GetParam() + 700);
  Rng rng(GetParam() + 701);
  const DenseMatrix suw =
      RandomPositive(inst.su.rows(), inst.su.cols(), &rng);
  std::vector<double> weights(inst.su.rows(), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (rng.Bernoulli(0.6)) weights[i] = 0.4;  // evolving rows
  }
  auto objective = [&]() {
    return ComputeObjective(inst.xp, inst.xu, inst.xr, inst.gu, inst.sp,
                            inst.su, inst.sf, inst.hp, inst.hu, inst.alpha,
                            inst.sf0, inst.beta, &weights, &suw)
        .Total();
  };
  double previous = objective();
  update::UpdateWorkspace ws;
  for (int i = 0; i < 5; ++i) {
    update::UpdateSu(inst.xu, inst.xr, inst.gu, inst.sf, inst.hu, inst.sp,
                     inst.beta, &weights, &suw, &inst.su, kEps, 0.0, &ws);
    const double now = objective();
    EXPECT_LE(now, previous * (1.0 + kSlack)) << "step " << i;
    previous = now;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, UpdateRuleTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST(UpdateRuleEdgeTest, EmptyUserSideIsHarmless) {
  // The ESSA reduction: zero users must not break Sp/Sf/Hp updates.
  Rng rng(77);
  const size_t n = 10;
  const size_t l = 12;
  const size_t k = 3;
  const SparseMatrix xp = RandomSparse(n, l, 0.3, &rng);
  SparseMatrix::Builder xu_builder(0, l);
  const SparseMatrix xu = xu_builder.Build();
  SparseMatrix::Builder xr_builder(0, n);
  const SparseMatrix xr = xr_builder.Build();
  const UserGraph gu(0);
  DenseMatrix sp = RandomPositive(n, k, &rng);
  DenseMatrix su(0, k);
  DenseMatrix sf = RandomPositive(l, k, &rng);
  DenseMatrix hp = RandomPositive(k, k, &rng);
  DenseMatrix hu = DenseMatrix::Identity(k);
  const DenseMatrix sf0 = RandomPositive(l, k, &rng);

  const double before = TriFactorizationLossSquared(xp, sp, hp, sf);
  update::UpdateWorkspace ws;
  for (int i = 0; i < 10; ++i) {
    update::UpdateSp(xp, xr, sf, hp, su, &sp, kEps, 0.0, nullptr, nullptr,
                     &ws);
    update::UpdateHp(xp, sp, sf, &hp, kEps, &ws);
    update::UpdateSf(xp, xu, sp, su, hp, hu, 0.1, sf0, &sf, kEps, 0.0, &ws);
  }
  EXPECT_LT(TriFactorizationLossSquared(xp, sp, hp, sf), before);
}

TEST(UpdateRuleEdgeTest, ZeroRegularizationWeightsAccepted) {
  Instance inst = MakeInstance(42);
  inst.alpha = 0.0;
  inst.beta = 0.0;
  const double before = Objective(inst);
  update::UpdateWorkspace ws;
  for (int i = 0; i < 10; ++i) {
    update::UpdateSp(inst.xp, inst.xr, inst.sf, inst.hp, inst.su, &inst.sp,
                     kEps, 0.0, nullptr, nullptr, &ws);
    update::UpdateSu(inst.xu, inst.xr, inst.gu, inst.sf, inst.hu, inst.sp,
                     0.0, nullptr, nullptr, &inst.su, kEps, 0.0, &ws);
    update::UpdateSf(inst.xp, inst.xu, inst.sp, inst.su, inst.hp, inst.hu,
                     0.0, inst.sf0, &inst.sf, kEps, 0.0, &ws);
  }
  EXPECT_LT(Objective(inst), before);
}

TEST(UpdateWorkspaceDeathTest, EveryRuleRequiresAWorkspace) {
  Instance inst = MakeInstance(77);
  EXPECT_DEATH(update::UpdateSp(inst.xp, inst.xr, inst.sf, inst.hp, inst.su,
                                &inst.sp, kEps, 0.0, nullptr, nullptr,
                                nullptr),
               "workspace != nullptr");
  EXPECT_DEATH(update::UpdateHp(inst.xp, inst.sp, inst.sf, &inst.hp, kEps,
                                nullptr),
               "workspace != nullptr");
  EXPECT_DEATH(update::UpdateSu(inst.xu, inst.xr, inst.gu, inst.sf, inst.hu,
                                inst.sp, inst.beta, nullptr, nullptr,
                                &inst.su, kEps, 0.0, nullptr),
               "workspace != nullptr");
  EXPECT_DEATH(update::UpdateHu(inst.xu, inst.su, inst.sf, &inst.hu, kEps,
                                nullptr),
               "workspace != nullptr");
  EXPECT_DEATH(update::UpdateSf(inst.xp, inst.xu, inst.sp, inst.su, inst.hp,
                                inst.hu, inst.alpha, inst.sf0, &inst.sf, kEps,
                                0.0, nullptr),
               "workspace != nullptr");
}

/// What happens between an S-rule, which keeps X·Sf in the workspace, and
/// the H-rule that may reuse it.
enum class Between {
  kNothing,      // (a) Sf unchanged since the S-rule: the product is reused
  kSfEntryEdit,  // (b) one Sf entry edited in place: same address, new bytes
  kOtherX,       // (c) the H-rule is handed a different X
  kCacheReset,   // (d) ResetTransposeCache(), then new data at X's address
};

/// A column that both Xp and Xu use, so one Sf entry feeds both products.
size_t SharedFeature(const SparseMatrix& xp, const SparseMatrix& xu) {
  const std::vector<double> xp_sums = xp.ColumnSums();
  const std::vector<double> xu_sums = xu.ColumnSums();
  for (size_t j = 0; j < xp_sums.size(); ++j) {
    if (xp_sums[j] > 0.0 && xu_sums[j] > 0.0) return j;
  }
  ADD_FAILURE() << "Xp and Xu share no feature";
  return 0;
}

class KeptProductTest : public ::testing::TestWithParam<Between> {};

TEST_P(KeptProductTest, HRulesMatchTheRulesOnAFreshWorkspace) {
  const Instance inst = MakeInstance(91);
  Rng rng(92);
  const SparseMatrix other_xp =
      RandomSparse(inst.xp.rows(), inst.xp.cols(), 0.25, &rng);
  const SparseMatrix other_xu =
      RandomSparse(inst.xu.rows(), inst.xu.cols(), 0.3, &rng);

  // Working copies, so case (d) can bind new data to the same addresses.
  SparseMatrix xp = inst.xp;
  SparseMatrix xu = inst.xu;
  DenseMatrix sf = inst.sf;
  DenseMatrix sp = inst.sp;
  DenseMatrix su = inst.su;
  update::UpdateWorkspace ws;
  update::UpdateSp(xp, inst.xr, sf, inst.hp, su, &sp, kEps, 0.0, nullptr,
                   nullptr, &ws);
  update::UpdateSu(xu, inst.xr, inst.gu, sf, inst.hu, sp, inst.beta, nullptr,
                   nullptr, &su, kEps, 0.0, &ws);

  const SparseMatrix* hp_x = &xp;
  const SparseMatrix* hu_x = &xu;
  switch (GetParam()) {
    case Between::kNothing:
      break;
    case Between::kSfEntryEdit:
      sf(SharedFeature(xp, xu), 0) *= 3.0;
      break;
    case Between::kOtherX:
      hp_x = &other_xp;
      hu_x = &other_xu;
      break;
    case Between::kCacheReset:
      ws.ResetTransposeCache();
      xp = other_xp;
      xu = other_xu;
      break;
  }

  // A fresh workspace holds no transpose and no kept product, so the
  // rules run on one form every product anew: the reference bits.
  DenseMatrix hp_ws = inst.hp;
  DenseMatrix hp_fresh = inst.hp;
  update::UpdateHp(*hp_x, sp, sf, &hp_ws, kEps, &ws);
  update::UpdateHp(*hp_x, sp, sf, &hp_fresh, kEps,
                   std::make_unique<update::UpdateWorkspace>().get());
  EXPECT_EQ(hp_ws, hp_fresh);
  DenseMatrix hu_ws = inst.hu;
  DenseMatrix hu_fresh = inst.hu;
  update::UpdateHu(*hu_x, su, sf, &hu_ws, kEps, &ws);
  update::UpdateHu(*hu_x, su, sf, &hu_fresh, kEps,
                   std::make_unique<update::UpdateWorkspace>().get());
  EXPECT_EQ(hu_ws, hu_fresh);

  // Apart from case (a), the product the S-rules kept would give other
  // bits, so each case tells a right key from a wrong one.
  const bool reuse_is_right = GetParam() == Between::kNothing;
  DenseMatrix hp_stale = inst.hp;
  update::UpdateHp(inst.xp, sp, inst.sf, &hp_stale, kEps,
                   std::make_unique<update::UpdateWorkspace>().get());
  EXPECT_EQ(hp_stale == hp_fresh, reuse_is_right);
  DenseMatrix hu_stale = inst.hu;
  update::UpdateHu(inst.xu, su, inst.sf, &hu_stale, kEps,
                   std::make_unique<update::UpdateWorkspace>().get());
  EXPECT_EQ(hu_stale == hu_fresh, reuse_is_right);
}

INSTANTIATE_TEST_SUITE_P(Cases, KeptProductTest,
                         ::testing::Values(Between::kNothing,
                                           Between::kSfEntryEdit,
                                           Between::kOtherX,
                                           Between::kCacheReset));

}  // namespace
}  // namespace triclust
