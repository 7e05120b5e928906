// Cross-policy property sweeps plus the invariant layer's own teeth.
//
// Part 1 runs every (policy, machines, speed, workload) combination through
// the RunRequest facade with EXHAUSTIVE invariant checking -- a violation
// throws, so every sweep case doubles as an end-to-end invariant test --
// and then replays the recorded trace through the offline battery
// (check_schedule).
//
// Part 2 is the negative suite: hand-built corrupted schedules, each
// violating exactly one structural property, must trip exactly the targeted
// checker and no other.  This pins down both the detection power and the
// tolerance calibration of every built-in checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/invariants.h"
#include "core/metrics.h"
#include "netsim/link_sim.h"
#include "netsim/schedulers.h"
#include "policies/registry.h"
#include "workload/adversarial.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

struct SweepCase {
  std::string policy;
  int machines;
  double speed;
  std::string workload;  // "poisson" | "bimodal" | "burst" | "adversarial"
  std::uint64_t seed;
};

std::string case_name(const SweepCase& c) {
  std::string p = c.policy;
  for (char& ch : p) {
    if (ch == ':' || ch == '.' || ch == ',') ch = '_';
  }
  return p + "_m" + std::to_string(c.machines) + "_s" +
         std::to_string(static_cast<int>(c.speed * 10)) + "_" + c.workload;
}

Instance make_workload(const SweepCase& c) {
  workload::Rng rng(c.seed);
  if (c.workload == "poisson") {
    return workload::detail::poisson_load(50, c.machines, 0.9,
                                  workload::ExponentialSize{1.5}, rng);
  }
  if (c.workload == "bimodal") {
    return workload::detail::poisson_load(50, c.machines, 0.85,
                                  workload::BimodalSize{0.9, 1.0, 25.0}, rng);
  }
  if (c.workload == "burst") {
    return workload::detail::bursty_stream(
        5, 12, 8.0, workload::UniformSize{0.5, 1.5}, rng);
  }
  return workload::rr_l2_hard(15);
}

[[nodiscard]] InvariantRunProfile profile_for(const std::string& spec,
                                              int machines, double speed) {
  const std::unique_ptr<Policy> policy = make_policy(spec);
  InvariantRunProfile profile;
  profile.machines = machines;
  profile.speed = speed;
  profile.policy = std::string(policy->name());
  profile.traits = policy->invariant_traits();
  return profile;
}

class PolicyInvariants : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PolicyInvariants, ScheduleIsConsistent) {
  const SweepCase& c = GetParam();
  const Instance inst = make_workload(c);
  RunRequest request;
  request.policy = c.policy;
  request.machines = c.machines;
  request.speed = c.speed;
  // Exhaustive: every epoch is checked and a violation throws, so this
  // sweep is the acceptance gate "exhaustive mode passes on all policies".
  request.invariants = InvariantMode::kExhaustive;
  const RunResult result = run(inst, request);
  const Schedule& s = result.schedule;
  EXPECT_TRUE(result.invariants.ok()) << summarize(result.invariants);
  EXPECT_GT(result.invariants.epochs_checked, 0u);

  // (1) Full consistency: completions sane, trace within capacity, work
  // conserved per job.
  ASSERT_NO_THROW(s.validate());

  // (1b) The offline battery must agree with the inline checkers.
  const InvariantStats offline =
      check_schedule(s, profile_for(c.policy, c.machines, c.speed));
  EXPECT_TRUE(offline.ok()) << "offline battery: " << summarize(offline);

  // (2) Every completion at or after release + size/speed.
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_GE(s.completion(j),
              inst.job(j).release + inst.job(j).size / c.speed - 1e-6);
  }

  // (3) Makespan at least the last release.
  EXPECT_GE(s.makespan(), inst.max_release() - 1e-9);

  // (4) Work conservation: no idle machine while more jobs than running.
  //     (Weak form -- total traced work equals total size -- is already in
  //     validate(); here check the busy time lower bound.)
  const double total_busy = [&] {
    double t = 0.0;
    for (const TraceIntervalView iv : s.trace()) t += iv.length();
    return t;
  }();
  EXPECT_GE(total_busy, inst.total_work() / (c.speed * c.machines) - 1e-6);
}

TEST_P(PolicyInvariants, DeterministicAcrossRuns) {
  const SweepCase& c = GetParam();
  const Instance inst = make_workload(c);
  RunRequest request;
  request.policy = c.policy;
  request.machines = c.machines;
  request.speed = c.speed;
  request.record_trace = false;
  const RunResult a = run(inst, request);
  const RunResult b = run(inst, request);
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_DOUBLE_EQ(a.schedule.completion(j), b.schedule.completion(j))
        << "job " << j;
  }
}

TEST_P(PolicyInvariants, NonClairvoyantPoliciesIgnoreSizes) {
  const SweepCase& c = GetParam();
  const auto probe = make_policy(c.policy);
  if (probe->clairvoyant()) GTEST_SKIP() << "clairvoyant policy";
  const Instance inst = make_workload(c);
  RunRequest request;
  request.policy = c.policy;
  request.machines = c.machines;
  request.speed = c.speed;
  request.record_trace = false;
  RunRequest hidden = request;
  hidden.hide_sizes = true;
  const RunResult a = run(inst, request);
  const RunResult b = run(inst, hidden);
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(a.schedule.completion(j), b.schedule.completion(j), 1e-7)
        << "job " << j;
  }
}

std::vector<SweepCase> all_cases() {
  std::vector<SweepCase> cases;
  std::uint64_t seed = 1000;
  for (const char* policy :
       {"rr", "srpt", "sjf", "fcfs", "setf", "wrr", "mlfq", "laps:0.5",
        "qrr:0.5,0.01", "hdf", "hrdf", "wprr"}) {
    for (int machines : {1, 3}) {
      for (double speed : {1.0, 2.5}) {
        for (const char* wl : {"poisson", "bimodal"}) {
          cases.push_back(SweepCase{policy, machines, speed, wl, seed++});
        }
      }
    }
    cases.push_back(SweepCase{policy, 1, 1.0, "adversarial", seed++});
    cases.push_back(SweepCase{policy, 2, 1.0, "burst", seed++});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariants,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& param_info) { return case_name(param_info.param); });

// --- negative suite ---------------------------------------------------------
// Each corrupted schedule violates exactly one structural property; the
// offline battery must flag exactly the targeted checker.

/// Asserts the battery finds at least one violation and every report names
/// `check` -- the corruption trips its target and nothing else.
void expect_trips_exactly(const Schedule& schedule,
                          const InvariantRunProfile& profile,
                          std::string_view check) {
  const InvariantStats stats = check_schedule(schedule, profile);
  ASSERT_FALSE(stats.ok()) << "corruption went undetected";
  ASSERT_FALSE(stats.reports.empty());
  for (const InvariantViolation& v : stats.reports) {
    EXPECT_EQ(v.check, check) << v.detail;
  }
}

[[nodiscard]] InvariantRunProfile plain_profile(int machines, double speed) {
  InvariantRunProfile profile;
  profile.machines = machines;
  profile.speed = speed;
  profile.policy = "corrupted";
  return profile;
}

TEST(InvariantNegative, RateAboveSpeedTripsRateBounds) {
  // Two jobs trade a rate of 1.5 on speed-1 machines.  With two machines
  // the capacity sum stays legal, the trade keeps every epoch fully busy,
  // and each job still receives exactly its size by its (physically
  // feasible) completion time -- only the per-rate bound can fire.
  Schedule s(2, /*machines=*/2, /*speed=*/1.0);
  s.admit_job(0, 0.0, 2.0, 1.0);
  s.admit_job(1, 0.0, 2.0, 1.0);
  s.push_interval(0.0, 1.0, {RateShare{0, 1.5}, RateShare{1, 0.5}});
  s.push_interval(1.0, 2.0, {RateShare{0, 0.5}, RateShare{1, 1.5}});
  s.set_completion(0, 2.0);
  s.set_completion(1, 2.0);
  s.set_trace_recorded(true);
  expect_trips_exactly(s, plain_profile(2, 1.0), "rate_bounds");
}

TEST(InvariantNegative, OversubscribedLinkTripsCapacity) {
  // Two jobs at 0.75 each on ONE speed-1 machine: every individual rate is
  // legal, the sum is not.
  Schedule s(2, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 0.0, 1.5, 1.0);
  s.admit_job(1, 0.0, 1.5, 1.0);
  s.push_interval(0.0, 2.0, {RateShare{0, 0.75}, RateShare{1, 0.75}});
  s.set_completion(0, 2.0);
  s.set_completion(1, 2.0);
  s.set_trace_recorded(true);
  expect_trips_exactly(s, plain_profile(1, 1.0), "capacity");
}

TEST(InvariantNegative, IdledCapacityTripsWorkConservation) {
  // The machine sits idle for [1, 2] while the job is alive.  The profile
  // declares the policy work conserving, so that idling is the violation;
  // total served work still matches the size, so nothing else fires.
  Schedule s(1, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 0.0, 2.0, 1.0);
  s.push_interval(0.0, 1.0, {RateShare{0, 1.0}});
  s.push_interval(1.0, 2.0, {RateShare{0, 0.0}});
  s.push_interval(2.0, 3.0, {RateShare{0, 1.0}});
  s.set_completion(0, 3.0);
  s.set_trace_recorded(true);
  InvariantRunProfile profile = plain_profile(1, 1.0);
  ASSERT_TRUE(profile.traits.work_conserving);
  expect_trips_exactly(s, profile, "work_conservation");
}

TEST(InvariantNegative, LostWorkTripsCompletionConsistency) {
  // The job "completes" at t=3 with only half its work served.  The rate-0
  // tail is excused by work_conserving=false; the end-of-run accounting is
  // what must catch the missing work.
  Schedule s(1, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 0.0, 2.0, 1.0);
  s.push_interval(0.0, 1.0, {RateShare{0, 1.0}});
  s.push_interval(1.0, 3.0, {RateShare{0, 0.0}});
  s.set_completion(0, 3.0);
  s.set_trace_recorded(true);
  InvariantRunProfile profile = plain_profile(1, 1.0);
  profile.traits.work_conserving = false;
  expect_trips_exactly(s, profile, "completion_consistency");
}

TEST(InvariantNegative, CompletionBeforeServiceBoundTripsCompletionConsistency) {
  // No trace at all (so no epoch or accounting checks): the completion time
  // alone is impossible -- the job finishes before release + size/speed.
  Schedule s(1, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 1.0, 2.0, 1.0);
  s.set_completion(0, 2.5);  // earliest possible is 3.0
  s.set_trace_recorded(false);
  expect_trips_exactly(s, plain_profile(1, 1.0), "completion_consistency");
}

TEST(InvariantNegative, OverservedJobTripsMonotoneRemaining) {
  // One unit of work served for two units of time at rate 1: remaining
  // goes negative inside the epoch.
  Schedule s(1, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 0.0, 1.0, 1.0);
  s.push_interval(0.0, 2.0, {RateShare{0, 1.0}});
  s.set_completion(0, 1.0);
  s.set_trace_recorded(true);
  expect_trips_exactly(s, plain_profile(1, 1.0), "monotone_remaining");
}

TEST(InvariantNegative, StarvedJobTripsNoStarvation) {
  // Three alive jobs, one pinned at rate 0 -- legal for a priority policy,
  // a violation for any policy that promises to share with every alive job
  // (the RR-family no-starvation witness).
  Schedule s(3, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 0.0, 1.0, 1.0);
  s.admit_job(1, 0.0, 1.0, 1.0);
  s.admit_job(2, 0.0, 1.0, 1.0);
  s.push_interval(0.0, 2.0, {RateShare{0, 0.5}, RateShare{1, 0.5},
                             RateShare{2, 0.0}});
  s.push_interval(2.0, 3.0, {RateShare{2, 1.0}});
  s.set_completion(0, 2.0);
  s.set_completion(1, 2.0);
  s.set_completion(2, 3.0);
  s.set_trace_recorded(true);
  InvariantRunProfile profile = plain_profile(1, 1.0);
  profile.traits.shares_all_alive = true;
  expect_trips_exactly(s, profile, "no_starvation");
}

TEST(InvariantNegative, UnequalSharesTripTemporalFairness) {
  // Both jobs get positive rates summing to capacity, but not the equal
  // speed * min(1, m/n) share plain RR guarantees.
  Schedule s(2, /*machines=*/1, /*speed=*/1.0);
  s.admit_job(0, 0.0, 1.5, 1.0);
  s.admit_job(1, 0.0, 0.5, 1.0);
  s.push_interval(0.0, 2.0, {RateShare{0, 0.75}, RateShare{1, 0.25}});
  s.set_completion(0, 2.0);
  s.set_completion(1, 2.0);
  s.set_trace_recorded(true);
  InvariantRunProfile profile = plain_profile(1, 1.0);
  profile.traits.equal_share = true;
  expect_trips_exactly(s, profile, "temporal_fairness");
}

TEST(InvariantNegative, CleanRrRunPassesEverything) {
  // Positive control: a real engine run with the full RR trait set (work
  // conserving, shares all alive, equal share) survives the whole battery.
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      60, 2, 0.9, workload::ExponentialSize{1.2}, rng);
  RunRequest request;
  request.policy = "rr";
  request.machines = 2;
  request.invariants = InvariantMode::kExhaustive;
  const RunResult result = run(inst, request);
  EXPECT_TRUE(result.invariants.ok()) << summarize(result.invariants);
  const InvariantStats offline =
      check_schedule(result.schedule, profile_for("rr", 2, 1.0));
  EXPECT_TRUE(offline.ok()) << summarize(offline);
  EXPECT_GT(offline.epochs_checked, 0u);
}

TEST(InvariantNegative, NetsimLostBytesTripFlowByteConservation) {
  // Offer two flows, then drop one transmitted record: the departed bytes
  // no longer cover what flow 1 offered.
  std::vector<netsim::Packet> offered = {
      {0, 1.0, 0.0}, {1, 1.0, 0.0}, {1, 1.0, 0.5}};
  netsim::FifoScheduler fifo;
  netsim::LinkSimResult result =
      netsim::simulate_link(offered, fifo, /*link_rate=*/1.0);
  ASSERT_EQ(result.records.size(), 3u);
  result.records.pop_back();
  const InvariantStats stats =
      netsim::check_link_invariants(offered, result, 1.0);
  ASSERT_FALSE(stats.ok());
  for (const InvariantViolation& v : stats.reports) {
    EXPECT_EQ(v.check, "flow_byte_conservation") << v.detail;
  }
}

TEST(InvariantStatsApi, SummarizeAndModeRoundTrip) {
  EXPECT_EQ(parse_invariant_mode("off"), InvariantMode::kOff);
  EXPECT_EQ(parse_invariant_mode("sampled"), InvariantMode::kSampled);
  EXPECT_EQ(parse_invariant_mode("exhaustive"), InvariantMode::kExhaustive);
  EXPECT_THROW((void)parse_invariant_mode("bogus"), std::invalid_argument);
  for (const InvariantMode m : {InvariantMode::kOff, InvariantMode::kSampled,
                                InvariantMode::kExhaustive}) {
    EXPECT_EQ(parse_invariant_mode(to_string(m)), m);
  }
  InvariantStats stats;
  EXPECT_TRUE(stats.ok());
  EXPECT_NE(summarize(stats).find("ok"), std::string::npos);
  stats.violations = 2;
  EXPECT_NE(summarize(stats).find("2 violation"), std::string::npos);
}

TEST(InvariantStatsApi, RegistryListsBuiltinBattery) {
  const std::span<const std::string_view> names = InvariantSet::check_names();
  const std::vector<std::string_view> expected{
      "rate_bounds",        "capacity",
      "work_conservation",  "monotone_remaining",
      "completion_consistency",
      "no_starvation",      "attained_accounting",
      "temporal_fairness"};
  EXPECT_EQ(std::vector<std::string_view>(names.begin(), names.end()),
            expected);
}

TEST(InvariantStatsApi, SampledModeChecksEveryNthEpoch) {
  workload::Rng rng(11);
  const Instance inst = workload::detail::poisson_load(
      200, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  RunRequest request;
  request.policy = "rr";
  request.invariants = InvariantMode::kSampled;
  request.invariant_sample_period = 8;
  const RunResult result = run(inst, request);
  EXPECT_TRUE(result.invariants.ok()) << summarize(result.invariants);
  EXPECT_GT(result.invariants.epochs_seen, result.invariants.epochs_checked);
  // Every 8th epoch: the checked count sits within one of seen / 8.
  EXPECT_NEAR(static_cast<double>(result.invariants.epochs_checked),
              static_cast<double>(result.invariants.epochs_seen) / 8.0, 1.0);
  RunRequest off = request;
  off.invariants = InvariantMode::kOff;
  const RunResult none = run(inst, off);
  EXPECT_EQ(none.invariants.epochs_seen, 0u);
  EXPECT_EQ(none.invariants.epochs_checked, 0u);
}

}  // namespace
}  // namespace tempofair
