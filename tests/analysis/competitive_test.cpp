#include "analysis/competitive.h"

#include <gtest/gtest.h>

#include "policies/priority_policies.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair::analysis {
namespace {

TEST(MeasureRatio, BracketIsOrdered) {
  workload::Rng rng(3);
  const Instance inst = workload::detail::poisson_load(
      30, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RatioOptions opt;
  opt.k = 2.0;
  const RatioMeasurement m = measure_ratio(inst, rr, opt);
  EXPECT_GT(m.cost_power, 0.0);
  EXPECT_GT(m.ratio_vs_proxy, 0.0);
  EXPECT_GE(m.ratio_vs_lb, m.ratio_vs_proxy);  // lb <= proxy
}

TEST(MeasureRatio, SrptAtSpeedOneHasProxyRatioAtMostOne) {
  // SRPT is one of the proxy candidates, so its ratio vs proxy is >= 1 only
  // when SJF beats it; in all cases cost >= proxy means ratio >= 1... the
  // proxy is the min, so SRPT's cost / proxy >= 1, with equality when SRPT
  // is the better of the two.
  workload::Rng rng(5);
  const Instance inst = workload::detail::poisson_load(
      30, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  Srpt srpt;
  RatioOptions opt;
  opt.k = 2.0;
  opt.with_lp = false;
  const RatioMeasurement m = measure_ratio(inst, srpt, opt);
  EXPECT_GE(m.ratio_vs_proxy, 1.0 - 1e-9);
}

TEST(MeasureRatio, SpeedReducesRatio) {
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.95, workload::ExponentialSize{1.0}, rng);
  lpsolve::OptBoundsOptions bo;
  bo.k = 2.0;
  bo.with_lp = false;
  const auto bounds = lpsolve::opt_bounds(inst, bo);
  double prev = std::numeric_limits<double>::infinity();
  for (double speed : {1.0, 2.0, 4.0}) {
    RoundRobin rr;
    RatioOptions opt;
    opt.k = 2.0;
    opt.speed = speed;
    const RatioMeasurement m = measure_ratio(inst, rr, opt, bounds);
    EXPECT_LE(m.ratio_vs_proxy, prev + 1e-9);
    prev = m.ratio_vs_proxy;
  }
}

TEST(MeasureRatio, ReusedBoundsMatchFreshOnes) {
  workload::Rng rng(11);
  const Instance inst = workload::detail::poisson_load(
      25, 1, 0.85, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr1, rr2;
  RatioOptions opt;
  opt.k = 2.0;
  opt.with_lp = false;
  const RatioMeasurement fresh = measure_ratio(inst, rr1, opt);
  const RatioMeasurement reused = measure_ratio(inst, rr2, opt, fresh.bounds);
  EXPECT_DOUBLE_EQ(fresh.ratio_vs_lb, reused.ratio_vs_lb);
  EXPECT_DOUBLE_EQ(fresh.cost_power, reused.cost_power);
}

TEST(MeasureRatio, LbCertifiedPropagatesFromBounds) {
  workload::Rng rng(17);
  const Instance inst = workload::detail::poisson_load(
      25, 1, 0.85, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RatioOptions opt;
  opt.k = 2.0;
  const RatioMeasurement m = measure_ratio(inst, rr, opt);
  EXPECT_EQ(m.lb_certified, m.bounds.lb_certified);
  EXPECT_TRUE(m.lb_certified);  // integer k with LP: both certificates apply
  EXPECT_GT(m.ratio_vs_lb, 0.0);
}

TEST(MeasureRatio, DenormalLowerBoundFlagsDegenerate) {
  // Sizes so small that sum p^k underflows: cost / lb would round to inf and
  // masquerade as an unboundedly bad instance.  The measurement must flag
  // the degenerate denominator and leave ratio_vs_lb unset instead.
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 4; ++i) pairs.emplace_back(0.0, 1e-170);
  const Instance inst = Instance::from_pairs(pairs);
  RoundRobin rr;
  RatioOptions opt;
  opt.k = 2.0;
  opt.with_lp = false;
  const RatioMeasurement m = measure_ratio(inst, rr, opt);
  EXPECT_TRUE(m.lb_degenerate);
  EXPECT_DOUBLE_EQ(m.ratio_vs_lb, 0.0);
  EXPECT_FALSE(m.lb_certified);
}

TEST(MeasureRatio, HealthyLowerBoundIsNotFlagged) {
  workload::Rng rng(19);
  const Instance inst = workload::detail::poisson_load(
      20, 1, 0.8, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RatioOptions opt;
  opt.k = 2.0;
  opt.with_lp = false;
  const RatioMeasurement m = measure_ratio(inst, rr, opt);
  EXPECT_FALSE(m.lb_degenerate);
  EXPECT_GT(m.ratio_vs_lb, 0.0);
}

TEST(MeasureRatio, RecordsConfiguration) {
  workload::Rng rng(13);
  const Instance inst = workload::detail::poisson_load(
      20, 2, 0.8, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RatioOptions opt;
  opt.k = 3.0;
  opt.machines = 2;
  opt.speed = 1.5;
  opt.with_lp = false;
  const RatioMeasurement m = measure_ratio(inst, rr, opt);
  EXPECT_EQ(m.policy, "rr");
  EXPECT_DOUBLE_EQ(m.k, 3.0);
  EXPECT_EQ(m.machines, 2);
  EXPECT_DOUBLE_EQ(m.speed, 1.5);
}

}  // namespace
}  // namespace tempofair::analysis
