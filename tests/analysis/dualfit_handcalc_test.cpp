// Hand-calculated values for the dual-fitting construction on tiny
// instances -- pinning down the exact semantics of alpha (the rank-averaged
// overloaded sum vs. the plain underloaded integral) and beta.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/dualfit.h"
#include "core/engine.h"
#include "policies/round_robin.h"

namespace tempofair::analysis {
namespace {

Schedule run_rr(const Instance& inst, double speed, int machines) {
  RoundRobin rr;
  RunRequest req;
  req.speed = speed;
  req.machines = machines;
  return run(inst, rr, req).schedule;
}

TEST(DualFitHandCalc, TwoUnitJobsOverloadedAlphas) {
  // Two unit jobs at t=0 on one machine at speed eta: both finish at
  // C = 2/eta, flows F = C, every instant overloaded (n_t = 2 >= m = 1).
  // k = 2.  Ranks: job0 = 1, job1 = 2 (ties by id).
  //   alpha_0 = int_0^C [2t]/2 dt            = C^2/2      - eps F^2
  //   alpha_1 = int_0^C [2t + 2t]/2 dt       = C^2        - eps F^2
  //   sum     = 1.5 C^2 - 2 eps C^2.
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0, 1.0}), eta, 1);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  const double C = 2.0 / eta;
  EXPECT_NEAR(r.rr_power, 2.0 * C * C, 1e-12);
  EXPECT_NEAR(r.alpha_sum, (1.5 - 2.0 * eps) * C * C, 1e-9);
  // beta identity: m * int beta = (1+eps)(1/2-3eps) * RR^k.
  EXPECT_NEAR(r.beta_term, (1.0 + eps) * (0.5 - 3.0 * eps) * r.rr_power, 1e-9);
  EXPECT_TRUE(r.certificate_valid());
}

TEST(DualFitHandCalc, UnderloadedUsesFullAgeIntegral) {
  // Two unit jobs on three machines: n_t = 2 < m = 3, always underloaded.
  // alpha_j = int_0^{C} k t^{k-1} dt - eps F^k = F^k (1 - eps), each.
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0, 1.0}), eta, 3);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  const double F = 1.0 / eta;  // each job alone on its machine
  EXPECT_NEAR(r.rr_power, 2.0 * F * F, 1e-12);
  EXPECT_NEAR(r.alpha_sum, 2.0 * F * F * (1.0 - eps), 1e-9);
  EXPECT_TRUE(r.certificate_valid());
}

TEST(DualFitHandCalc, BoundaryNtEqualsMIsOverloaded) {
  // n_t == m counts as overloaded (all machines busy): two jobs on two
  // machines must use the rank-averaged alpha, not the underloaded one.
  //   alpha_0 = C^2/2 - eps F^2,  alpha_1 = C^2 - eps F^2  with C = 1/eta
  //   (each job still runs at full machine rate: min(1, m/n) = 1).
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0, 1.0}), eta, 2);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  const double C = 1.0 / eta;
  EXPECT_NEAR(r.alpha_sum, 1.5 * C * C - 2.0 * eps * C * C, 1e-9);
}

TEST(DualFitHandCalc, RankTieBreaksById) {
  // Same release, different sizes: job0 (size 2) outlives job1 (size 1).
  // While both alive, job0's rank is 1 and job1's is 2 by the (release, id)
  // order; after job1 completes, job0 is alone with rank 1.
  const double k = 1.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);  // = 2(1+10eps)
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{2.0, 1.0}), eta, 1);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  // Shared phase [0, T1], T1 = 2/eta (job1 done, each got 1 unit).  Then
  // job0 alone for 1/eta more: C0 = 3/eta.  k=1:
  //   alpha_0 = int_0^{T1} 1/2 + int_{T1}^{C0} 1  = T1/2 + 1/eta - eps F0
  //   alpha_1 = int_0^{T1} (1 + 1)/2              = T1      - eps F1
  const double T1 = 2.0 / eta, C0 = 3.0 / eta;
  const double expected =
      (T1 / 2.0 + 1.0 / eta - eps * C0) + (T1 - eps * T1);
  EXPECT_NEAR(r.alpha_sum, expected, 1e-9);
  EXPECT_TRUE(r.certificate_valid());
}

TEST(DualFitHandCalc, IdleGapSplitsBetaPieces) {
  // Two far-apart jobs: beta is two disjoint bumps; the certificate still
  // validates and the beta identity holds across the gap.
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {100.0, 1.0}});
  const Schedule s = run_rr(inst, eta, 1);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_NEAR(r.beta_term, (1.0 + eps) * (0.5 - 3.0 * eps) * r.rr_power, 1e-9);
  EXPECT_TRUE(r.certificate_valid());
}

}  // namespace
}  // namespace tempofair::analysis
