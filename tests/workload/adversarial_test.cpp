#include "workload/adversarial.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/priority_policies.h"
#include "policies/round_robin.h"

namespace tempofair::workload {
namespace {

TEST(BatchPlusStream, Structure) {
  const Instance inst = batch_plus_stream(3, 2, 1.5, 2.0);
  ASSERT_EQ(inst.n(), 5u);
  for (JobId j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(inst.job(j).release, 0.0);
  EXPECT_DOUBLE_EQ(inst.job(3).release, 1.5);
  EXPECT_DOUBLE_EQ(inst.job(4).release, 3.0);
  for (const Job& j : inst.jobs()) EXPECT_DOUBLE_EQ(j.size, 2.0);
}

TEST(BatchPlusStream, RejectsBadParameters) {
  EXPECT_THROW((void)batch_plus_stream(1, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)batch_plus_stream(1, 1, 1.0, -1.0), std::invalid_argument);
}

TEST(RrL2Hard, SizesAndCounts) {
  const Instance inst = rr_l2_hard(10);
  EXPECT_EQ(inst.n(), 50u);  // batch 10 + stream 40
  EXPECT_DOUBLE_EQ(inst.max_size(), 1.0);
}

TEST(RrL2Hard, RejectsZero) {
  EXPECT_THROW((void)rr_l2_hard(0), std::invalid_argument);
}

TEST(RrL2Hard, RrIsMuchWorseThanSrptForL2AtSpeedOne) {
  const Instance inst = rr_l2_hard(30);
  RoundRobin rr;
  Srpt srpt;
  RunRequest req;
  req.record_trace = false;
  const double rr_l2 = flow_lk_norm(run(inst, rr, req).schedule, 2.0);
  const double srpt_l2 = flow_lk_norm(run(inst, srpt, req).schedule, 2.0);
  EXPECT_GT(rr_l2, 1.7 * srpt_l2);  // the family separates RR from OPT
}

TEST(GeometricLevels, Structure) {
  const Instance inst = geometric_levels(4, 1.0);
  ASSERT_EQ(inst.n(), 15u);  // 1 + 2 + 4 + 8
  EXPECT_DOUBLE_EQ(inst.job(0).size, 1.0);
  EXPECT_DOUBLE_EQ(inst.job(0).release, 0.0);
  EXPECT_DOUBLE_EQ(inst.job(14).size, 0.125);
  EXPECT_DOUBLE_EQ(inst.job(14).release, 3.0);
  EXPECT_NEAR(inst.total_work(), 4.0, 1e-12);  // unit work per level
}

TEST(GeometricLevels, RejectsBadParameters) {
  EXPECT_THROW((void)geometric_levels(0), std::invalid_argument);
  EXPECT_THROW((void)geometric_levels(30), std::invalid_argument);
  EXPECT_THROW((void)geometric_levels(3, 0.0), std::invalid_argument);
}

TEST(GeometricLevels, RrRatioGrowsWithDepthAtSpeedOne) {
  auto ratio = [](int levels) {
    const Instance inst = geometric_levels(levels);
    RoundRobin rr;
    Srpt srpt;
    RunRequest req;
    req.record_trace = false;
    return flow_lk_norm(run(inst, rr, req).schedule, 2.0) /
           flow_lk_norm(run(inst, srpt, req).schedule, 2.0);
  };
  const double r4 = ratio(4), r8 = ratio(8), r11 = ratio(11);
  EXPECT_GT(r8, r4);
  EXPECT_GT(r11, r8);
  EXPECT_GT(r11, 1.4);
}

TEST(SrptStarvation, StructureAndBehaviour) {
  const Instance inst = srpt_starvation(50, 2.0);
  ASSERT_EQ(inst.n(), 51u);
  EXPECT_DOUBLE_EQ(inst.job(0).size, 2.0);

  // SRPT starves the size-2 job until the zero-slack unit stream drains
  // (F_big = 52); RR finishes it within a few time units and only mildly
  // delays the stream, so RR's max flow is several times smaller.
  RoundRobin rr;
  Srpt srpt;
  RunRequest req;
  req.record_trace = false;
  const double rr_max = flow_lk_norm(run(inst, rr, req).schedule,
                                     std::numeric_limits<double>::infinity());
  const double srpt_max = flow_lk_norm(run(inst, srpt, req).schedule,
                                       std::numeric_limits<double>::infinity());
  EXPECT_GT(srpt_max, 2.0 * rr_max);
  EXPECT_NEAR(srpt_max, 52.0, 1e-6);
}

TEST(SrptStarvation, HugeBigJobAbsorbsSlackUnderEveryPolicy) {
  // The pitfall the header documents: with a big job large enough to absorb
  // all slack, work conservation forces the SAME max flow under SRPT and RR.
  const Instance inst = srpt_starvation(50, 20.0, 1.0);
  RoundRobin rr;
  Srpt srpt;
  RunRequest req;
  req.record_trace = false;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(flow_lk_norm(run(inst, rr, req).schedule, kInf),
              flow_lk_norm(run(inst, srpt, req).schedule, kInf), 1e-6);
}

TEST(SrptStarvation, RejectsBadParameters) {
  EXPECT_THROW((void)srpt_starvation(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)srpt_starvation(10, 5.0, 0.0), std::invalid_argument);
}

TEST(OverloadPulse, AlternatesLoadAndIdle) {
  const Instance inst = overload_pulse(3, 4, 2);
  ASSERT_EQ(inst.n(), 12u);
  // Pulses are spaced 2 * ceil(4/2) = 4 apart.
  EXPECT_DOUBLE_EQ(inst.job(0).release, 0.0);
  EXPECT_DOUBLE_EQ(inst.job(4).release, 4.0);
  EXPECT_DOUBLE_EQ(inst.job(8).release, 8.0);

  // On 2 machines each pulse drains before the next arrives.
  RoundRobin rr;
  RunRequest req;
  req.machines = 2;
  const Schedule s = run(inst, rr, req).schedule;
  EXPECT_LE(s.completion(3), 4.0 + 1e-9);
}

TEST(OverloadPulse, RejectsBadParameters) {
  EXPECT_THROW((void)overload_pulse(1, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)overload_pulse(1, 1, 0), std::invalid_argument);
}

TEST(Staircase, GeometricSizes) {
  const Instance inst = staircase(8);
  ASSERT_EQ(inst.n(), 8u);
  EXPECT_DOUBLE_EQ(inst.job(0).size, 8.0);
  EXPECT_DOUBLE_EQ(inst.job(1).size, 4.0);
  EXPECT_DOUBLE_EQ(inst.job(2).size, 2.0);
  EXPECT_DOUBLE_EQ(inst.job(3).size, 1.0);
  EXPECT_DOUBLE_EQ(inst.job(7).size, 1.0);  // floored at 1
  for (JobId j = 0; j < 8; ++j) EXPECT_DOUBLE_EQ(inst.job(j).release, j);
}

TEST(Staircase, RejectsZero) {
  EXPECT_THROW((void)staircase(0), std::invalid_argument);
}

}  // namespace
}  // namespace tempofair::workload
