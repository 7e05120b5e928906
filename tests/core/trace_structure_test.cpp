// Structural tests of the recorded trace: the piecewise-constant intervals
// must partition busy time, list exactly the alive set, and agree with
// hand-computed rate staircases.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(TraceStructure, RrStaircaseHandComputed) {
  // Jobs: (0, 2), (1, 2).  RR trace: [0,1) job0 alone at 1; [1,3) both at
  // 1/2; [3,4) job1 alone at 1.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {1.0, 2.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  ASSERT_EQ(s.trace().size(), 3u);

  const TraceIntervalView a = s.trace()[0];
  EXPECT_DOUBLE_EQ(a.begin(), 0.0);
  EXPECT_DOUBLE_EQ(a.end(), 1.0);
  ASSERT_EQ(a.alive_count(), 1u);
  EXPECT_EQ(a.job(0), 0u);
  EXPECT_DOUBLE_EQ(a.rate(0), 1.0);

  const TraceIntervalView b = s.trace()[1];
  EXPECT_DOUBLE_EQ(b.begin(), 1.0);
  EXPECT_DOUBLE_EQ(b.end(), 3.0);
  ASSERT_EQ(b.alive_count(), 2u);
  EXPECT_DOUBLE_EQ(b.rate(0), 0.5);
  EXPECT_DOUBLE_EQ(b.rate(1), 0.5);

  const TraceIntervalView c = s.trace()[2];
  EXPECT_DOUBLE_EQ(c.begin(), 3.0);
  EXPECT_DOUBLE_EQ(c.end(), 4.0);
  ASSERT_EQ(c.alive_count(), 1u);
  EXPECT_EQ(c.job(0), 1u);
}

TEST(TraceStructure, IntervalsTileWithoutOverlap) {
  workload::Rng rng(13);
  const Instance inst = workload::detail::poisson_load(
      60, 2, 0.9, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RunRequest req;
  req.machines = 2;
  const Schedule s = run(inst, rr, req).schedule;
  Time prev_end = -1.0;
  for (const TraceIntervalView iv : s.trace()) {
    EXPECT_LT(iv.begin(), iv.end());
    EXPECT_GE(iv.begin(), prev_end - 1e-12);  // non-overlapping, ordered
    prev_end = iv.end();
  }
  EXPECT_NEAR(prev_end, s.makespan(), 1e-9);
}

TEST(TraceStructure, AliveSetMatchesLifespans) {
  workload::Rng rng(17);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::UniformSize{0.5, 2.0}, rng);
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  for (const TraceIntervalView iv : s.trace()) {
    for (const RateShare share : iv.shares()) {
      EXPECT_GE(iv.begin(), s.release(share.job) - 1e-9);
      EXPECT_LE(iv.end(), s.completion(share.job) + 1e-9);
    }
    // Conversely: every job whose lifespan covers the interval must appear.
    for (JobId j = 0; j < inst.n(); ++j) {
      if (s.release(j) <= iv.begin() + 1e-12 &&
          s.completion(j) >= iv.end() - 1e-12) {
        bool found = false;
        for (const RateShare share : iv.shares()) found = found || share.job == j;
        EXPECT_TRUE(found) << "job " << j << " missing from interval at "
                           << iv.begin();
      }
    }
  }
}

TEST(TraceStructure, AttainedServiceReconstructsFlows) {
  // Integrating each job's rate over the trace up to any prefix never
  // exceeds its size, and the final integral equals the size exactly.
  workload::Rng rng(19);
  const Instance inst = workload::detail::poisson_load(
      30, 1, 0.85, workload::ExponentialSize{2.0}, rng);
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  std::vector<double> attained(inst.n(), 0.0);
  for (const TraceIntervalView iv : s.trace()) {
    for (const RateShare share : iv.shares()) {
      attained[share.job] += share.rate * iv.length();
      EXPECT_LE(attained[share.job], inst.job(share.job).size + 1e-6);
    }
  }
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(attained[j], inst.job(j).size, 1e-6);
  }
}

}  // namespace
}  // namespace tempofair
