#include "relsim/relsim.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair::relsim {
namespace {

TEST(RatesFeasible, MajorizationChecks) {
  const std::vector<double> speeds{4.0, 2.0, 1.0};
  EXPECT_TRUE(rates_feasible(std::vector<double>{4.0, 2.0, 1.0}, speeds));
  EXPECT_TRUE(rates_feasible(std::vector<double>{3.0, 3.0, 1.0}, speeds));
  EXPECT_FALSE(rates_feasible(std::vector<double>{5.0, 1.0, 1.0}, speeds));
  EXPECT_FALSE(rates_feasible(std::vector<double>{3.5, 3.5, 0.5}, speeds));
  // More jobs than machines: total bounded by total speed.
  EXPECT_TRUE(rates_feasible(std::vector<double>{2.0, 2.0, 2.0, 1.0}, speeds));
  EXPECT_FALSE(rates_feasible(std::vector<double>{2.0, 2.0, 2.0, 1.5}, speeds));
}

TEST(RelatedRoundRobin, EqualRateFormula) {
  RelatedRoundRobin rr;
  const std::vector<double> speeds{4.0, 2.0, 1.0};
  std::vector<RelAliveJob> alive(2);
  for (JobId i = 0; i < 2; ++i) alive[i] = RelAliveJob{i, 0.0, 5.0, 0.0};
  RelContext ctx{0.0, speeds, alive};
  const RelDecision d = rr.allocate(ctx);
  // n=2 <= m: r = (4+2)/2 = 3.
  EXPECT_DOUBLE_EQ(d.rates[0], 3.0);
  EXPECT_DOUBLE_EQ(d.rates[1], 3.0);
  EXPECT_TRUE(rates_feasible(d.rates, speeds));
}

TEST(RelatedRoundRobin, OverloadedUsesAllCapacity) {
  RelatedRoundRobin rr;
  const std::vector<double> speeds{4.0, 2.0};
  std::vector<RelAliveJob> alive(4);
  for (JobId i = 0; i < 4; ++i) alive[i] = RelAliveJob{i, 0.0, 5.0, 0.0};
  RelContext ctx{0.0, speeds, alive};
  const RelDecision d = rr.allocate(ctx);
  for (double r : d.rates) EXPECT_DOUBLE_EQ(r, 1.5);  // 6 / 4
}

TEST(RelatedRoundRobin, IdenticalSpeedsMatchCoreRr) {
  workload::Rng rng(3);
  const Instance inst = workload::detail::poisson_load(
      40, 3, 0.9, workload::ExponentialSize{1.0}, rng);
  RelatedRoundRobin rel;
  RelSimOptions ro;
  ro.speeds = {1.0, 1.0, 1.0};
  const RelSchedule a = simulate_related(inst, rel, ro);

  RoundRobin core;
  RunRequest req;
  req.machines = 3;
  req.record_trace = false;
  const Schedule b = run(inst, core, req).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.completion[j], b.completion(j), 1e-7) << "job " << j;
  }
}

TEST(RelatedSrpt, FastestMachineGetsShortestJob) {
  // Jobs 3 and 6 on speeds {2, 1}: SRPT puts 3 on the speed-2 machine
  // (done at 1.5) and 6 on speed 1; after the first completes, the shorter
  // remaining moves to the fastest.
  const Instance inst = Instance::batch(std::vector<Work>{3.0, 6.0});
  RelatedSrpt srpt;
  RelSimOptions ro;
  ro.speeds = {2.0, 1.0};
  const RelSchedule s = simulate_related(inst, srpt, ro);
  EXPECT_DOUBLE_EQ(s.completion[0], 1.5);
  // Job 1: 1.5 done at t=1.5 (speed 1), remaining 4.5 at speed 2 -> 3.75.
  EXPECT_DOUBLE_EQ(s.completion[1], 3.75);
}

TEST(RelatedFcfs, EarliestOnFastest) {
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 4.0}, {0.5, 4.0}});
  RelatedFcfs fcfs;
  RelSimOptions ro;
  ro.speeds = {2.0, 1.0};
  const RelSchedule s = simulate_related(inst, fcfs, ro);
  EXPECT_DOUBLE_EQ(s.completion[0], 2.0);  // speed 2
  // Job 1 runs on speed 1 during [0.5, 2.0] (1.5 done), then inherits the
  // fast machine: remaining 2.5 at speed 2 -> done at 3.25.
  EXPECT_DOUBLE_EQ(s.completion[1], 3.25);
}

TEST(SimulateRelated, AugmentScalesSpeeds) {
  const Instance inst = Instance::batch(std::vector<Work>{4.0});
  RelatedRoundRobin rr;
  RelSimOptions ro;
  ro.speeds = {1.0};
  ro.augment = 4.0;
  const RelSchedule s = simulate_related(inst, rr, ro);
  EXPECT_DOUBLE_EQ(s.completion[0], 1.0);
}

TEST(SimulateRelated, RejectsBadOptions) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  RelatedRoundRobin rr;
  RelSimOptions none;
  none.speeds = {};
  EXPECT_THROW((void)simulate_related(inst, rr, none), std::invalid_argument);
  RelSimOptions bad;
  bad.speeds = {0.0};
  EXPECT_THROW((void)simulate_related(inst, rr, bad), std::invalid_argument);
  RelSimOptions aug;
  aug.augment = 0.0;
  EXPECT_THROW((void)simulate_related(inst, rr, aug), std::invalid_argument);
}

TEST(SimulateRelated, SrptBeatsRrOnTotalFlowHeterogeneous) {
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      50, 3, 0.9, workload::ExponentialSize{1.5}, rng);
  RelatedSrpt srpt;
  RelatedRoundRobin rr;
  RelSimOptions ro;
  ro.speeds = {4.0, 2.0, 1.0};
  const double srpt_l1 = lk_power_sum(simulate_related(inst, srpt, ro).flows(), 1.0);
  const double rr_l1 = lk_power_sum(simulate_related(inst, rr, ro).flows(), 1.0);
  EXPECT_LE(srpt_l1, rr_l1 * (1.0 + 1e-9));
}

TEST(SimulateRelated, EveryJobCompletes) {
  workload::Rng rng(11);
  const Instance inst = workload::detail::poisson_load(
      60, 2, 1.1, workload::ParetoSize{1.8, 0.5, 30.0}, rng);
  for (auto make : {+[]() -> std::unique_ptr<RelPolicy> {
                      return std::make_unique<RelatedRoundRobin>();
                    },
                    +[]() -> std::unique_ptr<RelPolicy> {
                      return std::make_unique<RelatedSrpt>();
                    },
                    +[]() -> std::unique_ptr<RelPolicy> {
                      return std::make_unique<RelatedFcfs>();
                    }}) {
    auto policy = make();
    RelSimOptions ro;
    ro.speeds = {3.0, 1.0};
    const RelSchedule s = simulate_related(inst, *policy, ro);
    for (JobId j = 0; j < inst.n(); ++j) {
      EXPECT_TRUE(std::isfinite(s.completion[j]))
          << policy->name() << " job " << j;
    }
  }
}

}  // namespace
}  // namespace tempofair::relsim
