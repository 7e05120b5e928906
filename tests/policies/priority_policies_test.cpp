#include "policies/priority_policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "core/share_rules.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

// ---------- SRPT -------------------------------------------------------------

TEST(Srpt, RunsShortestRemainingFirst) {
  const Instance inst = Instance::batch(std::vector<Work>{3.0, 1.0, 2.0});
  Srpt srpt;
  const Schedule s = run(inst, srpt).schedule;
  EXPECT_DOUBLE_EQ(s.completion(1), 1.0);
  EXPECT_DOUBLE_EQ(s.completion(2), 3.0);
  EXPECT_DOUBLE_EQ(s.completion(0), 6.0);
}

TEST(Srpt, PreemptsOnShorterArrival) {
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 4.0}, {1.0, 1.0}});
  Srpt srpt;
  const Schedule s = run(inst, srpt).schedule;
  EXPECT_DOUBLE_EQ(s.completion(1), 2.0);  // preempts job 0 (3 remaining)
  EXPECT_DOUBLE_EQ(s.completion(0), 5.0);
}

TEST(Srpt, DoesNotPreemptWhenRemainingIsSmaller) {
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 4.0}, {3.5, 1.0}});
  Srpt srpt;
  const Schedule s = run(inst, srpt).schedule;
  // Job 0 has 0.5 remaining when job 1 (size 1) arrives: job 0 keeps running.
  EXPECT_DOUBLE_EQ(s.completion(0), 4.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 5.0);
}

TEST(Srpt, IsOptimalForTotalFlowOnSingleMachine) {
  // Folklore: SRPT minimizes total (l1) flow on one machine; every other
  // policy must be >= it.
  workload::Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = workload::detail::poisson_load(
        40, 1, 0.9, workload::ExponentialSize{2.0}, rng);
    RunRequest req;
    req.record_trace = false;
    Srpt srpt;
    const double srpt_l1 = flow_lk_norm(run(inst, srpt, req).schedule, 1.0);
    RoundRobin rr;
    Sjf sjf;
    Fcfs fcfs;
    EXPECT_GE(flow_lk_norm(run(inst, rr, req).schedule, 1.0), srpt_l1 - 1e-6);
    EXPECT_GE(flow_lk_norm(run(inst, sjf, req).schedule, 1.0), srpt_l1 - 1e-6);
    EXPECT_GE(flow_lk_norm(run(inst, fcfs, req).schedule, 1.0), srpt_l1 - 1e-6);
  }
}

TEST(Srpt, UsesAllMachines) {
  const Instance inst = Instance::batch(std::vector<Work>{2.0, 2.0, 2.0, 2.0});
  Srpt srpt;
  RunRequest req;
  req.machines = 2;
  const Schedule s = run(inst, srpt, req).schedule;
  // 2 jobs at a time: first two done at 2, next two at 4.
  std::vector<double> cs;
  for (JobId j = 0; j < 4; ++j) cs.push_back(s.completion(j));
  std::sort(cs.begin(), cs.end());
  EXPECT_DOUBLE_EQ(cs[0], 2.0);
  EXPECT_DOUBLE_EQ(cs[1], 2.0);
  EXPECT_DOUBLE_EQ(cs[2], 4.0);
  EXPECT_DOUBLE_EQ(cs[3], 4.0);
}

TEST(Srpt, IsClairvoyant) {
  Srpt srpt;
  EXPECT_TRUE(srpt.clairvoyant());
}

// ---------- SJF --------------------------------------------------------------

TEST(Sjf, OrdersByOriginalSizeNotRemaining) {
  // Job 0: size 3; when job 1 (size 2.5) arrives, job 0 has 0.5 remaining.
  // PSJF compares ORIGINAL sizes: 2.5 < 3 -> job 1 preempts job 0 anyway.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 3.0}, {2.5, 2.5}});
  Sjf sjf;
  const Schedule s = run(inst, sjf).schedule;
  EXPECT_DOUBLE_EQ(s.completion(1), 5.0);   // runs 2.5 .. 5.0
  EXPECT_DOUBLE_EQ(s.completion(0), 5.5);   // resumes after
}

TEST(Sjf, SrptAndSjfAgreeOnBatch) {
  // With all jobs released together and distinct sizes, SRPT == SJF.
  const Instance inst = Instance::batch(std::vector<Work>{5.0, 1.0, 3.0});
  Sjf sjf;
  Srpt srpt;
  const Schedule a = run(inst, sjf).schedule;
  const Schedule b = run(inst, srpt).schedule;
  for (JobId j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a.completion(j), b.completion(j));
}

// ---------- FCFS -------------------------------------------------------------

TEST(Fcfs, ServesInArrivalOrder) {
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {0.5, 1.0}, {0.7, 1.0}});
  Fcfs fcfs;
  const Schedule s = run(inst, fcfs).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 3.0);
  EXPECT_DOUBLE_EQ(s.completion(2), 4.0);
}

TEST(Fcfs, IsNonClairvoyant) {
  Fcfs fcfs;
  EXPECT_FALSE(fcfs.clairvoyant());
  workload::Rng rng(23);
  const Instance inst = workload::detail::poisson_load(
      30, 1, 0.8, workload::UniformSize{0.5, 2.0}, rng);
  Fcfs open, blind;
  RunRequest hidden;
  hidden.hide_sizes = true;
  // The fast path never reads sizes; the generic loop is where the
  // policy's own rates() sees the hidden (NaN) sizes.
  hidden.use_fast_path = false;
  const Schedule a = run(inst, open).schedule;
  const Schedule b = run(inst, blind, hidden).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_DOUBLE_EQ(a.completion(j), b.completion(j));
  }
}

TEST(Fcfs, HeadOfLineBlockingHurtsFlow) {
  // A huge job followed by many small ones: FCFS must be much worse than
  // SRPT for total flow.
  std::vector<std::pair<Time, Work>> pairs{{0.0, 100.0}};
  for (int i = 1; i <= 20; ++i) pairs.emplace_back(0.1 * i, 1.0);
  const Instance inst = Instance::from_pairs(pairs);
  Fcfs fcfs;
  Srpt srpt;
  RunRequest req;
  req.record_trace = false;
  const double f = flow_lk_norm(run(inst, fcfs, req).schedule, 1.0);
  const double s = flow_lk_norm(run(inst, srpt, req).schedule, 1.0);
  EXPECT_GT(f, 5.0 * s);
}

// ---------- LAPS -------------------------------------------------------------

TEST(Laps, RejectsBadBeta) {
  EXPECT_THROW(Laps(0.0), std::invalid_argument);
  EXPECT_THROW(Laps(1.5), std::invalid_argument);
  EXPECT_THROW(Laps(-0.1), std::invalid_argument);
}

TEST(Laps, BetaOneIsRoundRobin) {
  workload::Rng rng(31);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  Laps laps(1.0);
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule a = run(inst, laps, req).schedule;
  const Schedule b = run(inst, rr, req).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.completion(j), b.completion(j), 1e-7);
  }
}

TEST(Laps, SmallBetaFavorsLatestArrival) {
  // Two long jobs at 0, one short job at 1: with beta ~ 0, only the latest
  // arrival is served, so the short job finishes as if alone.
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 10.0}, {0.0, 10.0}, {1.0, 1.0}});
  Laps laps(0.3);  // ceil(0.3 * 3) = 1 job served
  const Schedule s = run(inst, laps).schedule;
  EXPECT_DOUBLE_EQ(s.completion(2), 2.0);
}

TEST(Laps, ShareCountUsesCeil) {
  Laps laps(0.5);
  std::vector<AliveJob> alive(3);
  for (JobId i = 0; i < 3; ++i) alive[i] = AliveJob{i, static_cast<double>(i), 0.0, 1.0, 1.0};
  SchedulerContext ctx{5.0, 1, 1.0, alive, true};
  const RateDecision d = laps.rates(ctx);
  // ceil(0.5*3) = 2 latest jobs (ids 1,2) share the machine.
  EXPECT_DOUBLE_EQ(d.rates[0], 0.0);
  EXPECT_DOUBLE_EQ(d.rates[1], 0.5);
  EXPECT_DOUBLE_EQ(d.rates[2], 0.5);
}

TEST(ShareRules, LapsOutOfOrderReleasesUseFullRule) {
  // laps_rates skips its sort when releases are nondecreasing in index.
  // Unordered, tied and decreasing releases must still get the top
  // ceil(beta*n) under (release desc, index desc), found here by brute
  // force.
  std::mt19937_64 rng(15);
  std::uniform_int_distribution<int> release_slot(0, 5);
  std::vector<double> rates;
  std::vector<std::size_t> idx;
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<std::vector<double>> shapes(4, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      shapes[0][i] = release_slot(rng);           // unordered, ties
      shapes[1][i] = 2.5;                         // all tied
      shapes[2][i] = static_cast<double>(n - i);  // decreasing
      shapes[3][i] = static_cast<double>(i / 3);  // ordered, ties
    }
    for (const std::vector<double>& release : shapes) {
      for (const double beta : {0.1, 0.5, 0.9, 1.0}) {
        share_rules::laps_rates(
            n, 2, 1.5, beta, [&](std::size_t i) { return release[i]; },
            rates, idx);
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    return std::pair(release[a], a) > std::pair(release[b], b);
                  });
        const std::size_t k = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::ceil(beta * static_cast<double>(n))));
        std::vector<double> expected(n, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
          expected[order[i]] = 1.5 * std::min(1.0, 2.0 / static_cast<double>(k));
        }
        ASSERT_EQ(rates, expected) << "n=" << n << " beta=" << beta;
      }
    }
  }

  // On the engine: ids in decreasing release order, both engine cores,
  // exhaustive invariants.  With distinct releases LAPS depends on the
  // releases alone, so each job must complete when its copy in an
  // instance with ids in arrival order does.
  std::vector<std::pair<Time, Work>> pairs;
  std::exponential_distribution<double> size(1.0);
  for (int i = 0; i < 60; ++i) pairs.emplace_back(0.37 * (59 - i), size(rng));
  std::vector<std::pair<Time, Work>> in_order(pairs.rbegin(), pairs.rend());
  const Instance reversed = Instance::from_pairs(pairs);
  const Instance ordered = Instance::from_pairs(in_order);
  for (const int machines : {1, 3}) {
    for (const bool fast_path : {false, true}) {
      RunRequest req;
      req.policy = "laps:0.5";
      req.machines = machines;
      req.use_fast_path = fast_path;
      req.invariants = InvariantMode::kExhaustive;
      const RunResult a = run(reversed, req);
      const RunResult b = run(ordered, req);
      EXPECT_TRUE(a.invariants.ok()) << summarize(a.invariants);
      for (JobId j = 0; j < reversed.n(); ++j) {
        EXPECT_NEAR(a.schedule.completion(j),
                    b.schedule.completion(
                        static_cast<JobId>(reversed.n() - 1 - j)),
                    1e-9)
            << "m=" << machines << " fast=" << fast_path << " job " << j;
      }
    }
  }
}

TEST(Laps, IsNonClairvoyant) {
  Laps laps(0.5);
  EXPECT_FALSE(laps.clairvoyant());
}

}  // namespace
}  // namespace tempofair
