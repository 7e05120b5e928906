// Miniature versions of the experiment suite, asserting the qualitative
// shapes the paper predicts (full-size runs live in bench/).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/competitive.h"
#include "analysis/dualfit.h"
#include "core/engine.h"
#include "core/fairness.h"
#include "core/metrics.h"
#include "policies/registry.h"
#include "policies/round_robin.h"
#include "workload/adversarial.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

// T1 in miniature: RR at speed 4.4 is O(1)-competitive for l2 -- the
// LP-bracketed ratio stays below a modest constant on random + adversarial
// inputs.
TEST(EndToEnd, Theorem1MiniL2) {
  workload::Rng rng(2025);
  std::vector<Instance> instances;
  instances.push_back(
      workload::detail::poisson_load(
          40, 1, 0.9, workload::ExponentialSize{1.0}, rng));
  instances.push_back(workload::rr_l2_hard(20));
  for (const Instance& inst : instances) {
    RoundRobin rr;
    analysis::RatioOptions opt;
    opt.k = 2.0;
    opt.speed = 4.4;
    const auto m = analysis::measure_ratio(inst, rr, opt);
    // ratio vs the LOWER bound over-estimates the true ratio; even so it
    // must be a small constant at speed 4.4.
    EXPECT_LT(m.ratio_vs_lb, 4.0) << inst.summary();
  }
}

// F1 in miniature: at speed 1 the geometric family's RR-vs-proxy ratio
// grows monotonically with depth (the cited lower bound's shape; the
// published exponent 2 eps_p is tiny, so the growth is slow but steady);
// at speed 4.4 it stays far below 1.
TEST(EndToEnd, LowerBoundGrowthShape) {
  auto ratio_at = [](int levels, double speed) {
    const Instance inst = workload::geometric_levels(levels);
    RoundRobin rr;
    analysis::RatioOptions opt;
    opt.k = 2.0;
    opt.speed = speed;
    opt.with_lp = false;  // proxy is enough for the growth shape
    return analysis::measure_ratio(inst, rr, opt).ratio_vs_proxy;
  };
  const double slow_small = ratio_at(4, 1.0);
  const double slow_large = ratio_at(10, 1.0);
  EXPECT_GT(slow_large, slow_small + 0.1);  // grows with depth at speed 1
  EXPECT_GT(slow_large, 1.4);

  const double fast_large = ratio_at(10, 4.4);
  EXPECT_LT(fast_large, 1.0);  // extra speed erases the gap entirely
}

// T4 in miniature: the dual-fitting certificate validates on a batch of
// random instances at the theorem speed.
TEST(EndToEnd, DualCertificateBatch) {
  const double k = 2.0, eps = 0.05;
  const double eta = analysis::theorem1_speed(k, eps);
  workload::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const Instance inst = workload::detail::poisson_load(
        40, 1, 0.95, workload::UniformSize{0.2, 3.0}, rng);
    RoundRobin rr;
    RunRequest req;
    req.speed = eta;
    const Schedule s = run(inst, rr, req).schedule;
    analysis::DualFitOptions opt;
    opt.k = k;
    opt.eps = eps;
    const auto cert = analysis::dual_fit_certificate(s, opt);
    EXPECT_TRUE(cert.certificate_valid()) << "trial " << trial;
    EXPECT_GE(cert.objective_ratio, eps - 1e-9);
  }
}

// F2/F3 in miniature: RR pareto-trades mean flow for fairness against SRPT.
TEST(EndToEnd, FairnessLatencyTradeoff) {
  const Instance inst = workload::srpt_starvation(60, 2.0);
  const auto rr = make_policy("rr");
  const auto srpt = make_policy("srpt");
  const Schedule s_rr = run(inst, *rr, RunRequest{}).schedule;
  const Schedule s_srpt = run(inst, *srpt, RunRequest{}).schedule;

  // SRPT wins on l1 (mean)...
  EXPECT_LT(flow_lk_norm(s_srpt, 1.0), flow_lk_norm(s_rr, 1.0));
  // ...but RR wins on max flow (no starvation) and instantaneous fairness.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_LT(flow_lk_norm(s_rr, kInf), flow_lk_norm(s_srpt, kInf));
  EXPECT_GT(fairness_report(s_rr).jain_time_avg,
            fairness_report(s_srpt).jain_time_avg);
}

// T5 in miniature: the certificate (hence the theorem) holds across m.
TEST(EndToEnd, MultiMachineCertificates) {
  const double k = 2.0, eps = 0.05;
  const double eta = analysis::theorem1_speed(k, eps);
  workload::Rng rng(11);
  for (int m : {1, 2, 4, 8}) {
    const Instance inst = workload::detail::poisson_load(
        50, m, 0.95, workload::ExponentialSize{1.0}, rng);
    RoundRobin rr;
    RunRequest req;
    req.speed = eta;
    req.machines = m;
    const Schedule s = run(inst, rr, req).schedule;
    analysis::DualFitOptions opt;
    opt.k = k;
    opt.eps = eps;
    EXPECT_TRUE(analysis::dual_fit_certificate(s, opt).certificate_valid())
        << "m=" << m;
  }
}

// T6 in miniature: quantum RR converges to ideal RR.
TEST(EndToEnd, QuantumConvergence) {
  workload::Rng rng(13);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
  RoundRobin ideal;
  RunRequest req;
  req.record_trace = false;
  const double ideal_l2 = run(inst, ideal, req).stats.l2;
  const auto qrr = make_policy("qrr:0.02");
  const double q_l2 = run(inst, *qrr, req).stats.l2;
  EXPECT_NEAR(q_l2 / ideal_l2, 1.0, 0.03);
}

// The l1 result the paper cites: RR is O(1)-speed O(1)-competitive for
// total flow as well -- same schedule, both norms bounded.
TEST(EndToEnd, SimultaneousL1AndL2Guarantees) {
  workload::Rng rng(17);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.95, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  analysis::RatioOptions l1;
  l1.k = 1.0;
  l1.speed = 4.4;
  analysis::RatioOptions l2;
  l2.k = 2.0;
  l2.speed = 4.4;
  RoundRobin rr2;
  EXPECT_LT(analysis::measure_ratio(inst, rr, l1).ratio_vs_lb, 4.0);
  EXPECT_LT(analysis::measure_ratio(inst, rr2, l2).ratio_vs_lb, 4.0);
}

}  // namespace
}  // namespace tempofair
