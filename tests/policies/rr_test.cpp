#include "policies/round_robin.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(RoundRobin, NameAndClairvoyance) {
  RoundRobin rr;
  EXPECT_EQ(rr.name(), "rr");
  EXPECT_FALSE(rr.clairvoyant());
}

TEST(RoundRobin, EqualSharesSingleMachine) {
  RoundRobin rr;
  std::vector<AliveJob> alive(4);
  for (JobId i = 0; i < 4; ++i) alive[i] = AliveJob{i, 0.0, 0.0, 1.0, 1.0};
  SchedulerContext ctx{0.0, 1, 1.0, alive, true};
  const RateDecision d = rr.rates(ctx);
  ASSERT_EQ(d.rates.size(), 4u);
  for (double r : d.rates) EXPECT_DOUBLE_EQ(r, 0.25);
}

TEST(RoundRobin, UnderloadedGivesFullMachines) {
  RoundRobin rr;
  std::vector<AliveJob> alive(2);
  for (JobId i = 0; i < 2; ++i) alive[i] = AliveJob{i, 0.0, 0.0, 1.0, 1.0};
  SchedulerContext ctx{0.0, 4, 1.0, alive, true};
  const RateDecision d = rr.rates(ctx);
  for (double r : d.rates) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(RoundRobin, OverloadedSplitsMachinesEvenly) {
  RoundRobin rr;
  std::vector<AliveJob> alive(8);
  for (JobId i = 0; i < 8; ++i) alive[i] = AliveJob{i, 0.0, 0.0, 1.0, 1.0};
  SchedulerContext ctx{0.0, 2, 3.0, alive, true};
  const RateDecision d = rr.rates(ctx);
  for (double r : d.rates) EXPECT_DOUBLE_EQ(r, 3.0 * 2.0 / 8.0);
}

TEST(RoundRobin, SpeedScalesShares) {
  RoundRobin rr;
  std::vector<AliveJob> alive(2);
  for (JobId i = 0; i < 2; ++i) alive[i] = AliveJob{i, 0.0, 0.0, 1.0, 1.0};
  SchedulerContext ctx{0.0, 1, 4.0, alive, true};
  const RateDecision d = rr.rates(ctx);
  for (double r : d.rates) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(RoundRobin, EqualBatchFinishesTogether) {
  // n equal jobs at time 0 under RR all complete at n * size.
  for (std::size_t n : {2u, 5u, 17u}) {
    std::vector<Work> sizes(n, 2.0);
    RoundRobin rr;
    const Schedule s = run(Instance::batch(sizes), rr).schedule;
    for (JobId j = 0; j < n; ++j) {
      EXPECT_NEAR(s.completion(j), 2.0 * static_cast<double>(n), 1e-7);
    }
  }
}

TEST(RoundRobin, SmallerJobFinishesFirstInSharedRun) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 3.0});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  // Shared until job 0 done at t=2 (each got 1); job 1 has 2 left -> C=4.
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 4.0);
}

TEST(RoundRobin, WorksNonClairvoyantly) {
  workload::Rng rng(3);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.8, workload::UniformSize{0.5, 2.0}, rng);
  RoundRobin rr_open, rr_blind;
  RunRequest open;
  RunRequest blind;
  blind.hide_sizes = true;
  // The fast path never reads sizes; the generic loop is where the
  // policy's own rates() sees the hidden (NaN) sizes.
  blind.use_fast_path = false;
  const Schedule a = run(inst, rr_open, open).schedule;
  const Schedule b = run(inst, rr_blind, blind).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_DOUBLE_EQ(a.completion(j), b.completion(j));
  }
}

TEST(RoundRobin, MatchesPaperRateFormula) {
  // m_j(t) = speed * min(1, m / n_t) in every trace interval.
  workload::Rng rng(11);
  const Instance inst = workload::detail::poisson_load(
      30, 3, 1.1, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RunRequest req;
  req.machines = 3;
  req.speed = 2.0;
  const Schedule s = run(inst, rr, req).schedule;
  for (const TraceIntervalView iv : s.trace()) {
    const double expect =
        2.0 * std::min(1.0, 3.0 / static_cast<double>(iv.alive_count()));
    for (const RateShare share : iv.shares()) {
      EXPECT_NEAR(share.rate, expect, 1e-12);
    }
  }
}

TEST(RoundRobin, FlowTimesWeaklyDecreaseWithSpeed) {
  workload::Rng rng(5);
  const Instance inst = workload::detail::poisson_load(
      60, 1, 0.9, workload::ExponentialSize{1.5}, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (double speed : {1.0, 1.5, 2.0, 3.0, 4.0}) {
    RoundRobin rr;
    RunRequest req;
    req.speed = speed;
    req.record_trace = false;
    const double l2 = flow_lk_norm(run(inst, rr, req).schedule, 2.0);
    EXPECT_LE(l2, prev + 1e-9);
    prev = l2;
  }
}

TEST(RoundRobin, MoreMachinesNeverHurt) {
  workload::Rng rng(6);
  const Instance inst = workload::detail::poisson_load(
      60, 1, 1.2, workload::ExponentialSize{1.5}, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (int m : {1, 2, 4, 8}) {
    RoundRobin rr;
    RunRequest req;
    req.machines = m;
    req.record_trace = false;
    const double l2 = flow_lk_norm(run(inst, rr, req).schedule, 2.0);
    EXPECT_LE(l2, prev + 1e-9);
    prev = l2;
  }
}

}  // namespace
}  // namespace tempofair
