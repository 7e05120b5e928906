#include "core/fractional.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "lpsolve/flowtime_lp.h"
#include "policies/priority_policies.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(FractionalFlow, RequiresTraceAndValidK) {
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule s = run(Instance::batch(std::vector<Work>{1.0}), rr, req).schedule;
  EXPECT_THROW((void)fractional_flow_power(s), std::invalid_argument);
  const Schedule t = run(Instance::batch(std::vector<Work>{1.0}), rr).schedule;
  EXPECT_THROW((void)fractional_flow_power(t, 0.5), std::invalid_argument);
}

TEST(FractionalFlow, SingleJobClosedForm) {
  // One job size p at full speed: remaining(t) = p - t, fractional flow
  // = int_0^p (p - t)/p dt = p/2.
  const Instance inst = Instance::batch(std::vector<Work>{4.0});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  const auto f = fractional_flow_power(s, 1.0);
  EXPECT_NEAR(f.per_job[0], 2.0, 1e-9);
  EXPECT_NEAR(f.total, 2.0, 1e-9);
}

TEST(FractionalFlow, SingleJobQuadraticCase) {
  // k = 2: int_0^p 2t (p-t)/p dt = p^2 - 2p^2/3 = p^2/3.
  const Instance inst = Instance::batch(std::vector<Work>{3.0});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  const auto f = fractional_flow_power(s, 2.0);
  EXPECT_NEAR(f.per_job[0], 3.0, 1e-9);  // 9/3
}

TEST(FractionalFlow, AtMostIntegralFlowPower) {
  workload::Rng rng(3);
  const Instance inst = workload::detail::poisson_load(
      50, 1, 0.9, workload::ExponentialSize{1.5}, rng);
  RoundRobin rr;
  Srpt srpt;
  for (double k : {1.0, 2.0, 3.0}) {
    const Schedule a = run(inst, rr).schedule;
    const auto f = fractional_flow_power(a, k);
    EXPECT_LE(f.total, flow_lk_power(a, k) * (1.0 + 1e-9)) << "rr k=" << k;
    const Schedule b = run(inst, srpt).schedule;
    const auto g = fractional_flow_power(b, k);
    EXPECT_LE(g.total, flow_lk_power(b, k) * (1.0 + 1e-9)) << "srpt k=" << k;
    for (double v : f.per_job) EXPECT_GE(v, -1e-9);
  }
}

TEST(FractionalFlow, SpeedReducesFractionalCost) {
  workload::Rng rng(5);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (double speed : {1.0, 2.0, 4.0}) {
    RoundRobin rr;
    RunRequest req;
    req.speed = speed;
    const auto f = fractional_flow_power(run(inst, rr, req).schedule, 2.0);
    EXPECT_LT(f.total, prev);
    prev = f.total;
  }
}

TEST(FractionalFlow, LpLowerBoundsFractionalCostDirectly) {
  // The Section 3.1 LP (without the /2) lower-bounds the *fractional*
  // k-power cost of any feasible schedule, since the LP charges each unit of
  // work its processing age plus p^k normalization.  Concretely:
  //   LP* <= fractional_cost + sum_j p_j^k  (the LP's +p_j^k term).
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      25, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
  lpsolve::FlowtimeLpOptions opt;
  opt.k = 2.0;
  opt.slot = 0.25;
  const double lp = lpsolve::solve_flowtime_lp(inst, opt).lp_value;

  Srpt srpt;
  const Schedule s = run(inst, srpt).schedule;
  const auto frac = fractional_flow_power(s, 2.0);
  double size_power = 0.0;
  for (const Job& j : inst.jobs()) size_power += j.size * j.size;
  EXPECT_LE(lp, frac.total * 2.0 + size_power * 2.0 + 1e-6);
}

}  // namespace
}  // namespace tempofair
