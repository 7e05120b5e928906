#include "policies/weighted_policies.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/priority_policies.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

Instance weighted_batch(std::vector<std::pair<Work, double>> size_weight) {
  std::vector<Job> jobs;
  JobId id = 0;
  for (const auto& [size, weight] : size_weight) {
    jobs.push_back(Job{id++, 0.0, size, weight});
  }
  return Instance::from_jobs(std::move(jobs));
}

TEST(Hdf, RunsHighestDensityFirst) {
  // densities: 1/4, 3/3=1, 1/2 -> order: job1, job2, job0.
  const Instance inst =
      weighted_batch({{4.0, 1.0}, {3.0, 3.0}, {2.0, 1.0}});
  Hdf hdf;
  const Schedule s = run(inst, hdf).schedule;
  EXPECT_DOUBLE_EQ(s.completion(1), 3.0);
  EXPECT_DOUBLE_EQ(s.completion(2), 5.0);
  EXPECT_DOUBLE_EQ(s.completion(0), 9.0);
}

TEST(Hdf, EqualWeightsReduceToSjf) {
  // With unit weights density = 1/p: highest density = smallest size = SJF.
  workload::Rng rng(5);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::UniformSize{0.5, 2.0}, rng);
  Hdf hdf;
  Sjf sjf;
  RunRequest req;
  req.record_trace = false;
  const Schedule a = run(inst, hdf, req).schedule;
  const Schedule b = run(inst, sjf, req).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.completion(j), b.completion(j), 1e-9);
  }
}

TEST(Hdf, MinimizesWeightedL1AmongTestedPolicies) {
  workload::Rng rng(7);
  Instance inst = workload::detail::poisson_load(
      50, 1, 0.9, workload::ExponentialSize{1.5}, rng);
  inst = workload::with_weights(inst, workload::WeightScheme::kRandom, rng);
  RunRequest req;
  req.record_trace = false;
  Hdf hdf;
  Hrdf hrdf;
  RoundRobin rr;
  WeightProportionalRoundRobin wprr;
  const double hdf_cost = weighted_flow_lk_power(run(inst, hdf, req).schedule, 1.0);
  const double hrdf_cost = weighted_flow_lk_power(run(inst, hrdf, req).schedule, 1.0);
  const double rr_cost = weighted_flow_lk_power(run(inst, rr, req).schedule, 1.0);
  const double wprr_cost = weighted_flow_lk_power(run(inst, wprr, req).schedule, 1.0);
  const double best = std::min(hdf_cost, hrdf_cost);
  EXPECT_LE(best, rr_cost * (1.0 + 1e-9));
  EXPECT_LE(best, wprr_cost * (1.0 + 1e-9));
}

TEST(Hrdf, PreemptsByResidualDensity) {
  // Job 0: w=1, p=4.  At t=3 remaining 1 -> density 1.  Job 1 arrives with
  // w=1.5, p=2 -> density 0.75 < 1: job 0 keeps the machine (HDF by
  // *original* density 0.25 would yield it).
  std::vector<Job> jobs{Job{0, 0.0, 4.0, 1.0}, Job{1, 3.0, 2.0, 1.5}};
  const Instance inst = Instance::from_jobs(std::move(jobs));
  Hrdf hrdf;
  const Schedule s = run(inst, hrdf).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 4.0);
  Hdf hdf;
  const Schedule h = run(inst, hdf).schedule;
  EXPECT_DOUBLE_EQ(h.completion(1), 5.0);  // HDF runs job 1 first at t=3
  EXPECT_DOUBLE_EQ(h.completion(0), 6.0);
}

TEST(Wprr, SharesProportionallyToWeights) {
  WeightProportionalRoundRobin wprr;
  std::vector<AliveJob> alive(2);
  alive[0] = AliveJob{0, 0.0, 0.0, 10.0, 10.0, 3.0};
  alive[1] = AliveJob{1, 0.0, 0.0, 10.0, 10.0, 1.0};
  SchedulerContext ctx{0.0, 1, 1.0, alive, true};
  const RateDecision d = wprr.rates(ctx);
  EXPECT_NEAR(d.rates[0], 0.75, 1e-12);
  EXPECT_NEAR(d.rates[1], 0.25, 1e-12);
}

TEST(Wprr, UnitWeightsEqualRoundRobin) {
  workload::Rng rng(11);
  const Instance inst = workload::detail::poisson_load(
      40, 2, 0.9, workload::ExponentialSize{1.0}, rng);
  WeightProportionalRoundRobin wprr;
  RoundRobin rr;
  RunRequest req;
  req.machines = 2;
  req.record_trace = false;
  const Schedule a = run(inst, wprr, req).schedule;
  const Schedule b = run(inst, rr, req).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.completion(j), b.completion(j), 1e-7);
  }
}

TEST(Wprr, RespectsPerJobCap) {
  // Weight 100 vs 1 on 2 machines: the heavy job is capped at one machine.
  WeightProportionalRoundRobin wprr;
  std::vector<AliveJob> alive(2);
  alive[0] = AliveJob{0, 0.0, 0.0, 10.0, 10.0, 100.0};
  alive[1] = AliveJob{1, 0.0, 0.0, 10.0, 10.0, 1.0};
  SchedulerContext ctx{0.0, 2, 1.0, alive, true};
  const RateDecision d = wprr.rates(ctx);
  EXPECT_DOUBLE_EQ(d.rates[0], 1.0);
  EXPECT_DOUBLE_EQ(d.rates[1], 1.0);  // leftover machine goes to the light job
}

TEST(Wprr, IsNonClairvoyant) {
  WeightProportionalRoundRobin wprr;
  EXPECT_FALSE(wprr.clairvoyant());
  workload::Rng rng(13);
  Instance inst = workload::detail::poisson_load(
      30, 1, 0.8, workload::UniformSize{0.5, 2.0}, rng);
  inst = workload::with_weights(inst, workload::WeightScheme::kRandom, rng);
  WeightProportionalRoundRobin open, blind;
  RunRequest hidden;
  hidden.hide_sizes = true;
  // The fast path never reads sizes; the generic loop is where the
  // policy's own rates() sees the hidden (NaN) sizes.
  hidden.use_fast_path = false;
  const Schedule a = run(inst, open).schedule;
  const Schedule b = run(inst, blind, hidden).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.completion(j), b.completion(j), 1e-7);
  }
}

TEST(WithWeights, SchemesAssignAsDocumented) {
  workload::Rng rng(17);
  const Instance base = Instance::batch(std::vector<Work>{2.0, 4.0});
  const Instance inv =
      workload::with_weights(base, workload::WeightScheme::kInverseSize, rng);
  EXPECT_DOUBLE_EQ(inv.job(0).weight, 0.5);
  EXPECT_DOUBLE_EQ(inv.job(1).weight, 0.25);
  const Instance prop = workload::with_weights(
      base, workload::WeightScheme::kProportionalSize, rng);
  EXPECT_DOUBLE_EQ(prop.job(0).weight, 2.0);
  const Instance uni =
      workload::with_weights(prop, workload::WeightScheme::kUniform, rng);
  EXPECT_DOUBLE_EQ(uni.job(0).weight, 1.0);
  const Instance rnd =
      workload::with_weights(base, workload::WeightScheme::kRandom, rng);
  EXPECT_GE(rnd.job(0).weight, 1.0);
  EXPECT_LE(rnd.job(0).weight, 10.0);
}

TEST(Instance, RejectsBadWeights) {
  EXPECT_THROW((void)Instance::from_jobs({Job{0, 0.0, 1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)Instance::from_jobs({Job{0, 0.0, 1.0, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Instance::from_jobs(
          {Job{0, 0.0, 1.0, std::numeric_limits<double>::infinity()}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace tempofair
