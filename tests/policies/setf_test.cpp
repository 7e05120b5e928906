#include "policies/setf.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(Setf, IsNonClairvoyant) {
  Setf setf;
  EXPECT_FALSE(setf.clairvoyant());
}

TEST(Setf, RejectsNegativeTolerance) {
  EXPECT_THROW(Setf(-1.0), std::invalid_argument);
}

TEST(Setf, EqualBatchBehavesLikeRoundRobin) {
  // All jobs tied at attained 0 forever: SETF == RR on an equal batch.
  std::vector<Work> sizes(6, 3.0);
  const Instance inst = Instance::batch(sizes);
  Setf setf;
  RoundRobin rr;
  const Schedule a = run(inst, setf).schedule;
  const Schedule b = run(inst, rr).schedule;
  for (JobId j = 0; j < 6; ++j) EXPECT_NEAR(a.completion(j), b.completion(j), 1e-6);
}

TEST(Setf, NewArrivalGetsExclusiveServiceUntilCatchUp) {
  // Job 0 runs alone [0,2] (attained 2).  Job 1 arrives at 2 with attained
  // 0: SETF serves ONLY job 1 until it catches up at attained 2 (t=4),
  // then they share.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 4.0}, {2.0, 3.0}});
  Setf setf;
  const Schedule s = run(inst, setf).schedule;
  // Catch-up at t=4 (both attained 2).  Then share at 1/2: job 1 needs 1
  // more -> done at t=6; job 0 needs 2 more: shares until 6 (attained 3),
  // then alone until attained 4 at t=7.
  EXPECT_NEAR(s.completion(1), 6.0, 1e-6);
  EXPECT_NEAR(s.completion(0), 7.0, 1e-6);
}

TEST(Setf, ShortJobCompletesBeforeCatchingUp) {
  // Long job attains 10 alone; a size-1 arrival is served exclusively and
  // finishes before reaching the long job's level.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 20.0}, {10.0, 1.0}});
  Setf setf;
  const Schedule s = run(inst, setf).schedule;
  EXPECT_NEAR(s.completion(1), 11.0, 1e-6);
  EXPECT_NEAR(s.completion(0), 21.0, 1e-6);
}

TEST(Setf, FavorsSmallJobsLikeSrptDoesForL1) {
  // SETF approximates SRPT for total flow without clairvoyance.  On one big
  // job plus a steady stream of unit jobs, SETF serves each fresh unit job
  // exclusively (attained 0 < big job's attained), so unit flows stay ~1
  // while under RR every unit job shares with the big one.
  std::vector<std::pair<Time, Work>> pairs{{0.0, 30.0}};
  for (int i = 0; i < 40; ++i) pairs.emplace_back(1.25 * i, 1.0);
  const Instance inst = Instance::from_pairs(pairs);
  Setf setf;
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const double setf_l1 = flow_lk_norm(run(inst, setf, req).schedule, 1.0);
  const double rr_l1 = flow_lk_norm(run(inst, rr, req).schedule, 1.0);
  EXPECT_LT(setf_l1, rr_l1);
}

TEST(Setf, MultiMachineGrantsIdleCapacityDownTheLevels) {
  // 3 machines, 2 jobs at level 0 and 2 at level > 0 -- the two low jobs
  // get a machine each and the third machine is shared by the next level.
  Setf setf;
  std::vector<AliveJob> alive(4);
  alive[0] = AliveJob{0, 0.0, 0.0, 10.0, 10.0};
  alive[1] = AliveJob{1, 0.0, 0.0, 10.0, 10.0};
  alive[2] = AliveJob{2, 0.0, 5.0, 10.0, 5.0};
  alive[3] = AliveJob{3, 0.0, 5.0, 10.0, 5.0};
  SchedulerContext ctx{6.0, 3, 1.0, alive, true};
  const RateDecision d = setf.rates(ctx);
  EXPECT_DOUBLE_EQ(d.rates[0], 1.0);
  EXPECT_DOUBLE_EQ(d.rates[1], 1.0);
  EXPECT_DOUBLE_EQ(d.rates[2], 0.5);
  EXPECT_DOUBLE_EQ(d.rates[3], 0.5);
}

TEST(Setf, BreakpointStopsAtLevelCatchUp) {
  Setf setf;
  std::vector<AliveJob> alive(2);
  alive[0] = AliveJob{0, 0.0, 1.0, 10.0, 9.0};
  alive[1] = AliveJob{1, 0.0, 4.0, 10.0, 6.0};
  SchedulerContext ctx{5.0, 1, 1.0, alive, true};
  const RateDecision d = setf.rates(ctx);
  EXPECT_DOUBLE_EQ(d.rates[0], 1.0);  // least attained runs
  EXPECT_DOUBLE_EQ(d.rates[1], 0.0);
  EXPECT_DOUBLE_EQ(d.max_duration, 3.0);  // catches level 4 after 3 units
}

TEST(Setf, WorksNonClairvoyantly) {
  workload::Rng rng(43);
  const Instance inst = workload::detail::poisson_load(
      40, 2, 0.9, workload::ExponentialSize{1.5}, rng);
  Setf open, blind;
  RunRequest visible;
  visible.machines = 2;
  RunRequest hidden;
  hidden.machines = 2;
  hidden.hide_sizes = true;
  // The fast path never reads sizes; the generic loop is where the
  // policy's own rates() sees the hidden (NaN) sizes.
  hidden.use_fast_path = false;
  const Schedule a = run(inst, open, visible).schedule;
  const Schedule b = run(inst, blind, hidden).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.completion(j), b.completion(j), 1e-7);
  }
}

TEST(Setf, HandlesManyTiedGroupsWithoutStepExplosion) {
  // Jobs arriving in quick succession create many distinct attained levels;
  // the chained grouping must keep the event count manageable.
  workload::Rng rng(47);
  const Instance inst = workload::detail::poisson_load(
      120, 1, 0.95, workload::UniformSize{0.5, 1.5}, rng);
  Setf setf;
  RunRequest req;
  req.record_trace = false;
  req.max_steps = 2'000'000;
  const Schedule s = run(inst, setf, req).schedule;
  s.validate();
  EXPECT_GT(s.makespan(), 0.0);
}

}  // namespace
}  // namespace tempofair
