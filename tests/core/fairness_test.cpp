#include "core/fairness.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/engine.h"
#include "policies/priority_policies.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(JainIndex, EqualRatesAreperfectlyFair) {
  const std::vector<double> r{0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(jain_index(r), 1.0);
}

TEST(JainIndex, SingleHogIsOneOverN) {
  const std::vector<double> r{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(r), 0.25);
}

TEST(JainIndex, EmptyAndAllZeroAreFairByConvention) {
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{0.0, 0.0}), 1.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(jain_index(a), jain_index(b));
}

TEST(FairnessReport, RequiresTrace) {
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule s = run(Instance::batch(std::vector<Work>{1.0}), rr, req).schedule;
  EXPECT_THROW((void)fairness_report(s), std::invalid_argument);
}

TEST(FairnessReport, RoundRobinIsPerfectlyFair) {
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      50, 1, 0.9, workload::ExponentialSize{2.0}, rng);
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  const FairnessReport rep = fairness_report(s);
  EXPECT_NEAR(rep.jain_time_avg, 1.0, 1e-9);
  EXPECT_NEAR(rep.jain_min, 1.0, 1e-9);
  EXPECT_NEAR(rep.min_share_time_avg, 1.0, 1e-9);
  EXPECT_NEAR(rep.max_service_lag, 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(rep.starved_time_fraction, 0.0);
}

TEST(FairnessReport, SrptStarvesUnderContention) {
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      50, 1, 0.95, workload::ExponentialSize{2.0}, rng);
  Srpt srpt;
  const Schedule s = run(inst, srpt).schedule;
  const FairnessReport rep = fairness_report(s);
  EXPECT_LT(rep.jain_time_avg, 1.0);
  EXPECT_GT(rep.max_service_lag, 0.0);
  EXPECT_GT(rep.starved_time_fraction, 0.0);
}

TEST(FairnessReport, SingleJobIsTriviallyFair) {
  RoundRobin rr;
  const Schedule s = run(Instance::batch(std::vector<Work>{3.0}), rr).schedule;
  const FairnessReport rep = fairness_report(s);
  EXPECT_DOUBLE_EQ(rep.jain_time_avg, 1.0);
  EXPECT_DOUBLE_EQ(rep.busy_time, 3.0);
}

TEST(FairnessReport, BusyTimeExcludesIdleGaps) {
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {10.0, 1.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  const FairnessReport rep = fairness_report(s);
  EXPECT_DOUBLE_EQ(rep.busy_time, 2.0);
}

TEST(AliveCountCurve, TracksPopulation) {
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {1.0, 2.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  const auto curve = alive_count_curve(s);
  ASSERT_GE(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
  EXPECT_EQ(curve.front().second, 1u);
  EXPECT_EQ(curve[1].second, 2u);       // after the second arrival
  EXPECT_EQ(curve.back().second, 0u);   // ends idle
}

TEST(AliveCountCurve, MarksIdleGaps) {
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {5.0, 1.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  const auto curve = alive_count_curve(s);
  // 1 alive, 0 (gap), 1 alive, 0 (end).
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_EQ(curve[0].second, 1u);
  EXPECT_EQ(curve[1].second, 0u);
  EXPECT_EQ(curve[2].second, 1u);
  EXPECT_EQ(curve[3].second, 0u);
}

TEST(FairnessReport, RequiresTraceForCurve) {
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule s = run(Instance::batch(std::vector<Work>{1.0}), rr, req).schedule;
  EXPECT_THROW((void)alive_count_curve(s), std::invalid_argument);
}

}  // namespace
}  // namespace tempofair
