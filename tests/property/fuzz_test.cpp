// Randomized stress tests: extreme instances through every policy, checking
// the full-schedule consistency contract (validate()) plus cross-policy
// relations that must hold regardless of the input:
//   * SRPT's total (l1) flow is minimal on one machine;
//   * the OPT-bound bracket stays ordered;
//   * the dual-fitting certificate never crashes and its Lemma-1/2 algebra
//     holds at any speed (they are schedule-independent identities);
//   * time-scaling invariance: scaling releases and sizes by c scales every
//     completion by c.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/dualfit.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "lpsolve/lower_bounds.h"
#include "policies/registry.h"
#include "workload/rng.h"

namespace tempofair {
namespace {

/// Random instance with nasty features: huge size spread, tied releases,
/// bursts, occasional near-zero gaps.
Instance fuzz_instance(workload::Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 60));
  std::vector<Job> jobs;
  jobs.reserve(n);
  Time t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: break;                              // simultaneous arrival
      case 1: t += rng.uniform(1e-9, 1e-3); break; // near-tie
      case 2: t += rng.uniform(0.01, 2.0); break;  // normal gap
      default: t += rng.uniform(2.0, 50.0); break; // long idle gap
    }
    const double magnitude = rng.uniform(-4.0, 4.0);  // sizes 1e-4 .. 1e4
    const double size = std::pow(10.0, magnitude);
    const double weight = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 10.0);
    jobs.push_back(Job{static_cast<JobId>(i), t, size, weight});
  }
  return Instance::from_jobs(std::move(jobs));
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, EveryPolicyProducesConsistentSchedules) {
  workload::Rng rng(GetParam());
  const Instance inst = fuzz_instance(rng);
  const int machines = static_cast<int>(rng.uniform_int(1, 4));
  const double speed = rng.uniform(0.5, 5.0);
  for (const std::string& spec : builtin_policy_specs()) {
    auto policy = make_policy(spec);
    RunRequest req;
    req.machines = machines;
    req.speed = speed;
    req.max_steps = 5'000'000;
    const Schedule s = run(inst, *policy, req).schedule;
    ASSERT_NO_THROW(s.validate()) << spec << " on " << inst.summary();
  }
}

TEST_P(FuzzSweep, SrptMinimizesTotalFlowOnOneMachine) {
  workload::Rng rng(GetParam() + 1'000'000);
  const Instance inst = fuzz_instance(rng);
  RunRequest req;
  req.record_trace = false;
  auto srpt = make_policy("srpt");
  const double best = flow_lk_power(run(inst, *srpt, req).schedule, 1.0);
  for (const std::string& spec : builtin_policy_specs()) {
    auto policy = make_policy(spec);
    const double cost = flow_lk_power(run(inst, *policy, req).schedule, 1.0);
    EXPECT_GE(cost, best * (1.0 - 1e-7)) << spec;
  }
}

TEST_P(FuzzSweep, DualFitAlgebraHoldsAtArbitrarySpeed) {
  workload::Rng rng(GetParam() + 2'000'000);
  const Instance inst = fuzz_instance(rng);
  const double speed = rng.uniform(0.5, 8.0);
  const int machines = static_cast<int>(rng.uniform_int(1, 4));
  auto rr = make_policy("rr");
  RunRequest req;
  req.machines = machines;
  req.speed = speed;
  const Schedule s = run(inst, *rr, req).schedule;
  analysis::DualFitOptions opt;
  opt.k = static_cast<double>(rng.uniform_int(1, 3));
  opt.eps = 0.05;
  const auto cert = analysis::dual_fit_certificate(s, opt);
  // Lemmas 1-2 and the objective bound are identities of the construction,
  // independent of speed (see dualfit.h); feasibility is NOT asserted here.
  EXPECT_TRUE(cert.lemma1_ok) << inst.summary() << " speed=" << speed;
  EXPECT_TRUE(cert.lemma2_ok);
  EXPECT_TRUE(cert.objective_ok);
}

TEST_P(FuzzSweep, TimeScalingInvariance) {
  workload::Rng rng(GetParam() + 3'000'000);
  const Instance inst = fuzz_instance(rng);
  const double c = std::pow(10.0, rng.uniform(-2.0, 2.0));
  std::vector<Job> scaled(inst.jobs().begin(), inst.jobs().end());
  for (Job& j : scaled) {
    j.release *= c;
    j.size *= c;
  }
  const Instance scaled_inst = Instance::from_jobs(std::move(scaled));
  for (const char* spec : {"rr", "srpt", "fcfs", "laps:0.5"}) {
    auto p1 = make_policy(spec);
    auto p2 = make_policy(spec);
    RunRequest req;
    req.record_trace = false;
    const Schedule a = run(inst, *p1, req).schedule;
    const Schedule b = run(scaled_inst, *p2, req).schedule;
    for (JobId j = 0; j < inst.n(); ++j) {
      EXPECT_NEAR(b.completion(j), c * a.completion(j),
                  1e-6 * std::max(1.0, c * a.completion(j)))
          << spec << " job " << j;
    }
  }
}

TEST_P(FuzzSweep, BoundBracketStaysOrdered) {
  workload::Rng rng(GetParam() + 4'000'000);
  const Instance inst = fuzz_instance(rng);
  lpsolve::OptBoundsOptions bo;
  bo.k = static_cast<double>(rng.uniform_int(1, 3));
  bo.with_lp = inst.n() <= 30;  // keep the fuzz suite fast
  const auto b = lpsolve::opt_bounds(inst, bo);
  EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-7)) << inst.summary();
  EXPECT_GE(b.best_lb, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tempofair
