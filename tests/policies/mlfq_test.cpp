#include "policies/mlfq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/engine.h"
#include "core/share_rules.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

TEST(Mlfq, RejectsBadParameters) {
  EXPECT_THROW(Mlfq(0.0), std::invalid_argument);
  EXPECT_THROW(Mlfq(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Mlfq(1.0, 0.5), std::invalid_argument);
}

TEST(Mlfq, LevelThresholdsAreGeometric) {
  const Mlfq mlfq(1.0, 2.0);
  EXPECT_DOUBLE_EQ(mlfq.threshold(0), 1.0);
  EXPECT_DOUBLE_EQ(mlfq.threshold(1), 2.0);
  EXPECT_DOUBLE_EQ(mlfq.threshold(3), 8.0);
}

TEST(Mlfq, LevelOfAttainedService) {
  const Mlfq mlfq(1.0, 2.0);
  EXPECT_EQ(mlfq.level_of(0.0), 0);
  EXPECT_EQ(mlfq.level_of(0.99), 0);
  EXPECT_EQ(mlfq.level_of(1.0), 1);  // exactly at threshold -> next level
  EXPECT_EQ(mlfq.level_of(1.5), 1);
  EXPECT_EQ(mlfq.level_of(2.0), 2);
  EXPECT_EQ(mlfq.level_of(7.9), 3);
}

/// The level formula MLFQ used before its threshold table: a log guess of
/// the level, then a walk up the thresholds.  Kept as the reference the
/// table lookup must match wherever it is defined: when attained / base
/// overflows, its cast of an infinite guess to int is undefined.
int log_formula_level(double base, double growth, double attained) {
  if (attained < base) return 0;
  const int lvl =
      static_cast<int>(std::floor(std::log(attained / base) /
                                  std::log(growth))) + 1;
  int l = std::max(lvl - 1, 0);
  while (attained >= share_rules::mlfq_threshold(base, growth, l)) ++l;
  return l;
}

/// The definition: the smallest L with attained < T_L, by binary search
/// over every int level (T grows to infinity well before INT_MAX here).
int defined_level(double base, double growth, double attained) {
  int lo = 0;
  int hi = std::numeric_limits<int>::max();
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (attained < share_rules::mlfq_threshold(base, growth, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(Mlfq, LevelOfMatchesLogFormula) {
  // Every tabulated threshold +-4 ULP plus values below, far above and
  // past the table (the log fallback), over 56 (base, growth) pairs.
  std::size_t checked = 0;
  for (const double growth : {1.0001, 1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0}) {
    for (const double base : {1e-6, 1e-3, 0.1, 0.5, 1.0, 7.0, 100.0}) {
      const Mlfq mlfq(base, growth);
      std::vector<double> probes = {0.0, base * 0.999, 1e300, DBL_MAX / 2};
      for (int l = 0; l < 64; ++l) {
        const double t = share_rules::mlfq_threshold(base, growth, l);
        if (!std::isfinite(t)) break;
        double up = t, down = t;
        probes.push_back(t);
        for (int ulp = 0; ulp < 4; ++ulp) {
          up = std::nextafter(up, DBL_MAX);
          down = std::nextafter(down, 0.0);
          probes.push_back(up);
          probes.push_back(down);
        }
      }
      for (int l = 0; l < 70; ++l) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(mlfq.threshold(l)),
                  std::bit_cast<std::uint64_t>(
                      share_rules::mlfq_threshold(base, growth, l)))
            << "base=" << base << " growth=" << growth << " level " << l;
      }
      for (const double a : probes) {
        const int level = mlfq.level_of(a);
        ASSERT_EQ(level, defined_level(base, growth, a))
            << "base=" << base << " growth=" << growth << " attained=" << a;
        if (std::isfinite(a / base)) {
          ASSERT_EQ(level, log_formula_level(base, growth, a))
              << "base=" << base << " growth=" << growth << " attained=" << a;
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 56u * (4u + 64u * 9u));  // every threshold is finite
}

TEST(Mlfq, NewArrivalPreemptsDemotedJob) {
  // Big job passes level 0 (1 unit); small arrival at t=2 is level 0 and
  // preempts it.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 10.0}, {2.0, 0.5}});
  Mlfq mlfq(1.0, 2.0);
  const Schedule s = run(inst, mlfq).schedule;
  EXPECT_DOUBLE_EQ(s.completion(1), 2.5);
  EXPECT_DOUBLE_EQ(s.completion(0), 10.5);
}

TEST(Mlfq, IsNonClairvoyantAndDeterministic) {
  Mlfq policy(1.0, 2.0);
  EXPECT_FALSE(policy.clairvoyant());
  workload::Rng rng(53);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::ExponentialSize{2.0}, rng);
  Mlfq a(1.0, 2.0), b(1.0, 2.0);
  RunRequest open;
  RunRequest hidden;
  hidden.hide_sizes = true;
  // The fast path never reads sizes; the generic loop is where the
  // policy's own rates() sees the hidden (NaN) sizes.
  hidden.use_fast_path = false;
  const Schedule sa = run(inst, a, open).schedule;
  const Schedule sb = run(inst, b, hidden).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(sa.completion(j), sb.completion(j), 1e-9);
  }
}

TEST(Mlfq, BeatsRoundRobinOnBigJobPlusStreamL1) {
  // MLFQ approximates SETF: the big job is demoted past level 0 after one
  // base quantum, so fresh unit jobs preempt it and keep their flows ~1,
  // while RR makes every unit job share with the big one.
  std::vector<std::pair<Time, Work>> pairs{{0.0, 30.0}};
  for (int i = 0; i < 40; ++i) pairs.emplace_back(1.25 * i, 1.0);
  const Instance inst = Instance::from_pairs(pairs);
  Mlfq mlfq(1.0, 2.0);
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  EXPECT_LT(flow_lk_norm(run(inst, mlfq, req).schedule, 1.0),
            flow_lk_norm(run(inst, rr, req).schedule, 1.0));
}

TEST(Mlfq, CompletesOnMultipleMachines) {
  workload::Rng rng(61);
  const Instance inst = workload::detail::poisson_load(
      50, 4, 0.9, workload::ExponentialSize{1.0}, rng);
  Mlfq mlfq(0.5, 2.0);
  RunRequest req;
  req.machines = 4;
  const Schedule s = run(inst, mlfq, req).schedule;
  s.validate();
}

}  // namespace
}  // namespace tempofair
