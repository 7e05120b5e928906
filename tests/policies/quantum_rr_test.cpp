#include "policies/quantum_rr.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(QuantumRr, RejectsBadParameters) {
  EXPECT_THROW(QuantumRoundRobin(0.0), std::invalid_argument);
  EXPECT_THROW(QuantumRoundRobin(-1.0), std::invalid_argument);
  EXPECT_THROW(QuantumRoundRobin(1.0, -0.1), std::invalid_argument);
}

TEST(QuantumRr, IsNonClairvoyant) {
  QuantumRoundRobin qrr(1.0);
  EXPECT_FALSE(qrr.clairvoyant());
}

TEST(QuantumRr, AlternatesBetweenTwoJobs) {
  // Two size-2 jobs, quantum 1: A runs [0,1], B [1,2], A [2,3], B [3,4].
  const Instance inst = Instance::batch(std::vector<Work>{2.0, 2.0});
  QuantumRoundRobin qrr(1.0);
  const Schedule s = run(inst, qrr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 3.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 4.0);
  s.validate();
}

TEST(QuantumRr, NoRotationWhenJobsFitOnMachines) {
  const Instance inst = Instance::batch(std::vector<Work>{5.0, 5.0});
  QuantumRoundRobin qrr(0.5);
  RunRequest req;
  req.machines = 2;
  const Schedule s = run(inst, qrr, req).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 5.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 5.0);
}

TEST(QuantumRr, TinyQuantumApproachesIdealRoundRobin) {
  workload::Rng rng(29);
  const Instance inst = workload::detail::poisson_load(
      30, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
  RoundRobin ideal;
  RunRequest req;
  req.record_trace = false;
  const double ideal_l2 = flow_lk_norm(run(inst, ideal, req).schedule, 2.0);

  double prev_gap = std::numeric_limits<double>::infinity();
  for (double q : {1.0, 0.25, 0.05}) {
    QuantumRoundRobin qrr(q);
    const double l2 = flow_lk_norm(run(inst, qrr, req).schedule, 2.0);
    const double gap = std::fabs(l2 - ideal_l2) / ideal_l2;
    EXPECT_LE(gap, prev_gap + 0.05);  // gap shrinks (allow small noise)
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.05);  // within 5% at quantum 0.05
}

TEST(QuantumRr, HugeQuantumActsLikeFcfsOnBatch) {
  // Quantum larger than any job: each job runs to completion in queue order.
  const Instance inst = Instance::batch(std::vector<Work>{2.0, 3.0, 1.0});
  QuantumRoundRobin qrr(100.0);
  const Schedule s = run(inst, qrr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 5.0);
  EXPECT_DOUBLE_EQ(s.completion(2), 6.0);
}

TEST(QuantumRr, SwitchCostDelaysCompletions) {
  const Instance inst = Instance::batch(std::vector<Work>{2.0, 2.0});
  QuantumRoundRobin no_cost(1.0, 0.0);
  QuantumRoundRobin with_cost(1.0, 0.25);
  const Schedule a = run(inst, no_cost).schedule;
  const Schedule b = run(inst, with_cost).schedule;
  EXPECT_GT(b.completion(0) + b.completion(1), a.completion(0) + a.completion(1));
}

TEST(QuantumRr, MidQuantumCompletionFreesMachine) {
  // Job 0 (size 0.5) completes mid-quantum; job 1 takes over.
  const Instance inst = Instance::batch(std::vector<Work>{0.5, 1.0});
  QuantumRoundRobin qrr(1.0);
  const Schedule s = run(inst, qrr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 0.5);
  EXPECT_DOUBLE_EQ(s.completion(1), 1.5);
}

TEST(QuantumRr, ArrivalsJoinTheBackOfTheQueue) {
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {0.25, 1.0}});
  QuantumRoundRobin qrr(1.0);
  const Schedule s = run(inst, qrr).schedule;
  // Job 0 first runs without slicing (it is alone); slicing begins when
  // job 1 arrives at 0.25, so job 0's first quantum spans [0.25, 1.25].
  // Job 1 (queued behind) runs [1.25, 2.25]; job 0 finishes its remaining
  // 0.75 alone afterwards.
  EXPECT_DOUBLE_EQ(s.completion(1), 2.25);
  EXPECT_DOUBLE_EQ(s.completion(0), 3.0);
}

TEST(QuantumRr, CompletesRandomWorkload) {
  workload::Rng rng(37);
  const Instance inst = workload::detail::poisson_load(
      60, 2, 0.9, workload::ExponentialSize{1.0}, rng);
  QuantumRoundRobin qrr(0.5, 0.01);
  RunRequest req;
  req.machines = 2;
  const Schedule s = run(inst, qrr, req).schedule;
  s.validate();
}

}  // namespace
}  // namespace tempofair
