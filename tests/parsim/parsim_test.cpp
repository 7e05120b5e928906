#include "parsim/parsim.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"

namespace tempofair::parsim {
namespace {

TEST(ParSim, SingleParallelJobUsesFullCapacity) {
  const auto jobs = all_parallel(std::vector<double>{8.0}, std::vector<Time>{0.0});
  Equi equi;
  ParSimOptions opt;
  opt.machines = 4;
  const ParSchedule s = simulate_par(jobs, equi, opt);
  EXPECT_DOUBLE_EQ(s.completion[0], 2.0);  // 8 work / 4 processors
}

TEST(ParSim, SequentialPhaseIgnoresAllocation) {
  // One job: sequential phase of length 5.  Even with 4 machines it takes 5.
  ParJob j;
  j.id = 0;
  j.phases = {Phase{PhaseKind::kSequential, 5.0}};
  Equi equi;
  ParSimOptions opt;
  opt.machines = 4;
  const ParSchedule s = simulate_par(std::vector<ParJob>{j}, equi, opt);
  EXPECT_DOUBLE_EQ(s.completion[0], 5.0);
}

TEST(ParSim, SpeedScalesSequentialPhases) {
  ParJob j;
  j.id = 0;
  j.phases = {Phase{PhaseKind::kSequential, 6.0}};
  Equi equi;
  ParSimOptions opt;
  opt.speed = 2.0;
  const ParSchedule s = simulate_par(std::vector<ParJob>{j}, equi, opt);
  EXPECT_DOUBLE_EQ(s.completion[0], 3.0);
}

TEST(ParSim, PhaseTransitionsChainCorrectly) {
  // parallel 2 then sequential 3 then parallel 1, alone on 1 machine:
  // 2 + 3 + 1 = 6.
  ParJob j;
  j.id = 0;
  j.phases = {Phase{PhaseKind::kParallel, 2.0},
              Phase{PhaseKind::kSequential, 3.0},
              Phase{PhaseKind::kParallel, 1.0}};
  Equi equi;
  const ParSchedule s = simulate_par(std::vector<ParJob>{j}, equi, {});
  EXPECT_DOUBLE_EQ(s.completion[0], 6.0);
}

TEST(ParSim, EquiMatchesCoreRoundRobinOnAllParallelJobs) {
  // With fully parallel jobs and capacity 1, EQUI == RR on one machine.
  const std::vector<double> works{2.0, 1.0, 3.0};
  const std::vector<Time> releases{0.0, 0.5, 1.0};
  const auto jobs = all_parallel(works, releases);
  Equi equi;
  const ParSchedule ps = simulate_par(jobs, equi, {});

  std::vector<Job> core_jobs;
  for (std::size_t i = 0; i < works.size(); ++i) {
    core_jobs.push_back(Job{static_cast<JobId>(i), releases[i], works[i]});
  }
  RoundRobin rr;
  const Schedule cs = run(Instance::from_jobs(std::move(core_jobs)), rr).schedule;
  for (JobId j = 0; j < 3; ++j) {
    EXPECT_NEAR(ps.completion[j], cs.completion(j), 1e-9) << "job " << j;
  }
}

TEST(ParSim, ParOptProxySkipsSequentialPhases) {
  // Job 0 sequential(4); job 1 parallel(2).  Proxy gives everything to job 1
  // (done at 2) while job 0 progresses for free (done at 4).
  ParJob a;
  a.id = 0;
  a.phases = {Phase{PhaseKind::kSequential, 4.0}};
  ParJob b;
  b.id = 1;
  b.phases = {Phase{PhaseKind::kParallel, 2.0}};
  ParOptProxy proxy;
  const ParSchedule s = simulate_par(std::vector<ParJob>{a, b}, proxy, {});
  EXPECT_DOUBLE_EQ(s.completion[1], 2.0);
  EXPECT_DOUBLE_EQ(s.completion[0], 4.0);
}

TEST(ParSim, EquiWastesProcessorsOnSequentialPhases) {
  // The EQUI pathology: under EQUI the sequential-phase job hogs half the
  // machine for nothing; the proxy finishes the parallel job twice as fast.
  ParJob a;
  a.id = 0;
  a.phases = {Phase{PhaseKind::kSequential, 10.0}};
  ParJob b;
  b.id = 1;
  b.phases = {Phase{PhaseKind::kParallel, 2.0}};
  Equi equi;
  const ParSchedule s = simulate_par(std::vector<ParJob>{a, b}, equi, {});
  EXPECT_DOUBLE_EQ(s.completion[1], 4.0);  // got 1/2 share -> 2/0.5
}

TEST(ParSim, WequiFavorsOlderJobs) {
  Wequi wequi;
  const auto jobs = par_seq_stream(10, 1.0, 1.0, 1.0);
  const ParSchedule s = simulate_par(jobs, wequi, {});
  for (JobId j = 0; j < 10; ++j) {
    EXPECT_TRUE(std::isfinite(s.completion[j]));
  }
}

TEST(ParSim, LapsParServesLatestArrivals) {
  LapsPar laps(0.3);
  // 3 parallel jobs at 0, 1, 2: ceil(0.3 n) = 1 alive share throughout, so
  // only the single latest arrival is ever served.
  const auto jobs = all_parallel(std::vector<double>{5.0, 5.0, 1.0},
                                 std::vector<Time>{0.0, 1.0, 2.0});
  const ParSchedule s = simulate_par(jobs, laps, {});
  EXPECT_DOUBLE_EQ(s.completion[2], 3.0);  // exclusive service on arrival
}

TEST(ParSim, LapsRejectsBadBeta) {
  EXPECT_THROW(LapsPar(0.0), std::invalid_argument);
  EXPECT_THROW(LapsPar(1.5), std::invalid_argument);
}

TEST(ParSim, WequiRejectsBadParameters) {
  EXPECT_THROW(Wequi(0.0), std::invalid_argument);
  EXPECT_THROW(Wequi(1.0, 0.0), std::invalid_argument);
}

TEST(ParSim, RejectsMalformedInput) {
  Equi equi;
  ParJob no_phases;
  no_phases.id = 0;
  EXPECT_THROW((void)simulate_par(std::vector<ParJob>{no_phases}, equi, {}),
               std::invalid_argument);
  ParJob bad_work;
  bad_work.id = 0;
  bad_work.phases = {Phase{PhaseKind::kParallel, 0.0}};
  EXPECT_THROW((void)simulate_par(std::vector<ParJob>{bad_work}, equi, {}),
               std::invalid_argument);
  ParSimOptions bad;
  bad.machines = 0;
  const auto ok = all_parallel(std::vector<double>{1.0}, std::vector<Time>{0.0});
  EXPECT_THROW((void)simulate_par(ok, equi, bad), std::invalid_argument);
}

TEST(ParSim, StreamSeparatesEquiFromLapsFamilyOnL2) {
  // The [15]/[12] phenomenon: on the parallel+sequential stream EQUI's l2
  // ratio vs the clairvoyant proxy GROWS with n (it keeps feeding
  // sequential-phase jobs), while the LAPS family -- including WLAPS, the
  // weighted RR the paper's Section 1.2 recalls -- stays bounded.
  auto ratios = [](std::size_t n) {
    const auto jobs = par_seq_stream(n, 1.0, 3.0, 1.3);
    Equi equi;
    LapsPar laps(0.5);
    WlapsPar wlaps(0.5);
    ParOptProxy proxy;
    ParSimOptions opt;
    const double proxy_l2 = lk_norm(simulate_par(jobs, proxy, opt).flows(), 2.0);
    return std::array<double, 3>{
        lk_norm(simulate_par(jobs, equi, opt).flows(), 2.0) / proxy_l2,
        lk_norm(simulate_par(jobs, laps, opt).flows(), 2.0) / proxy_l2,
        lk_norm(simulate_par(jobs, wlaps, opt).flows(), 2.0) / proxy_l2};
  };
  const auto small = ratios(20);
  const auto large = ratios(80);
  EXPECT_GT(large[0], small[0] + 0.3);       // EQUI ratio grows
  EXPECT_LT(large[1], small[1] + 0.3);       // LAPS flat
  EXPECT_LT(large[2], large[0]);             // WLAPS beats EQUI outright
}

TEST(ParSim, WlapsRejectsBadParameters) {
  EXPECT_THROW(WlapsPar(0.0), std::invalid_argument);
  EXPECT_THROW(WlapsPar(1.5), std::invalid_argument);
  EXPECT_THROW(WlapsPar(0.5, 0.0), std::invalid_argument);
}

TEST(ParSim, FlowsVectorMatchesCompletions) {
  const auto jobs = all_parallel(std::vector<double>{1.0, 2.0},
                                 std::vector<Time>{0.0, 1.0});
  Equi equi;
  const ParSchedule s = simulate_par(jobs, equi, {});
  const auto flows = s.flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0], s.completion[0] - 0.0);
  EXPECT_DOUBLE_EQ(flows[1], s.completion[1] - 1.0);
}

}  // namespace
}  // namespace tempofair::parsim
