#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/stream.h"

namespace tempofair {
namespace {

Instance two_unit_jobs() { return Instance::batch(std::vector<Work>{1.0, 1.0}); }

// A policy that always allocates zero rate: must be detected as a deadlock.
class DeadlockPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "deadlock"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    RateDecision d;
    d.rates.assign(ctx.n_alive(), 0.0);
    return d;
  }
};

// A policy returning the wrong number of rates.
class WrongCountPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "wrongcount"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    RateDecision d;
    d.rates.assign(ctx.n_alive() + 1, 0.1);
    return d;
  }
};

// A policy oversubscribing the machines.
class OversubscribePolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "oversub"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    RateDecision d;
    d.rates.assign(ctx.n_alive(), ctx.speed);  // n * speed > m * speed when n > m
    return d;
  }
};

// A policy exceeding the per-job speed cap.
class TooFastPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "toofast"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    RateDecision d;
    d.rates.assign(ctx.n_alive(), 2.0 * ctx.speed);
    return d;
  }
};

// Records whether sizes were visible.
class SizeProbePolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "probe"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    for (const AliveJob& j : ctx.alive) {
      saw_nan_size = saw_nan_size || std::isnan(j.size);
      saw_real_size = saw_real_size || !std::isnan(j.size);
    }
    sizes_visible_flag = ctx.sizes_visible;
    RateDecision d;
    d.rates.assign(ctx.n_alive(), ctx.speed / static_cast<double>(ctx.n_alive()));
    return d;
  }
  bool saw_nan_size = false;
  bool saw_real_size = false;
  bool sizes_visible_flag = true;
};

TEST(Engine, EmptyInstanceProducesEmptySchedule) {
  RoundRobin rr;
  const Schedule s = run(Instance{}, rr).schedule;
  EXPECT_EQ(s.n(), 0u);
  EXPECT_EQ(s.makespan(), 0.0);
}

TEST(Engine, SingleJobRunsAtFullSpeed) {
  const Instance inst = Instance::batch(std::vector<Work>{4.0});
  RoundRobin rr;
  RunRequest req;
  req.speed = 2.0;
  const Schedule s = run(inst, rr, req).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.flow(0), 2.0);
}

TEST(Engine, TwoEqualJobsUnderRrFinishTogether) {
  RoundRobin rr;
  const Schedule s = run(two_unit_jobs(), rr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 2.0);
}

TEST(Engine, LateArrivalCreatesIdleGap) {
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {5.0, 1.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 1.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 6.0);
  // Trace must contain two disjoint busy intervals.
  ASSERT_TRUE(s.has_trace());
  EXPECT_DOUBLE_EQ(s.trace().front().begin(), 0.0);
  EXPECT_DOUBLE_EQ(s.trace().back().end(), 6.0);
}

TEST(Engine, ArrivalSplitsInterval) {
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {1.0, 2.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  // Job 0 runs alone for 1 unit (1 done), then shares: each gets 0.5.
  // Job 0 needs 1 more -> 2 additional units -> C0 = 3, during which job 1
  // also got 1 done.  Job 1 then runs alone with 1 left -> C1 = 4.
  EXPECT_DOUBLE_EQ(s.completion(0), 3.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 4.0);
}

TEST(Engine, SpeedAugmentationScalesCompletions) {
  RoundRobin rr;
  RunRequest req;
  req.speed = 4.0;
  const Schedule s = run(two_unit_jobs(), rr, req).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 0.5);
}

TEST(Engine, MultipleMachinesRunJobsInParallel) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 1.0, 1.0});
  RoundRobin rr;
  RunRequest req;
  req.machines = 3;
  const Schedule s = run(inst, rr, req).schedule;
  for (JobId j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(s.completion(j), 1.0);
}

TEST(Engine, RrOnMoreJobsThanMachines) {
  // 4 unit jobs, 2 machines: each gets rate 1/2 -> all finish at 2.
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 1.0, 1.0, 1.0});
  RoundRobin rr;
  RunRequest req;
  req.machines = 2;
  const Schedule s = run(inst, rr, req).schedule;
  for (JobId j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(s.completion(j), 2.0);
}

TEST(Engine, SimultaneousArrivalsAndCompletions) {
  // Jobs 0,1 complete exactly when job 2 arrives.
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {0.0, 1.0}, {2.0, 1.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 2.0);
  EXPECT_DOUBLE_EQ(s.completion(2), 3.0);
  s.validate();
}

TEST(Engine, ManySimultaneousArrivals) {
  std::vector<Work> sizes(100, 1.0);
  const Instance inst = Instance::batch(sizes);
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  for (JobId j = 0; j < 100; ++j) EXPECT_NEAR(s.completion(j), 100.0, 1e-6);
  s.validate();
}

TEST(Engine, TinyAndHugeSizesCoexist) {
  const Instance inst = Instance::batch(std::vector<Work>{1e-7, 1e7});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  EXPECT_NEAR(s.completion(0), 2e-7, 1e-12);
  EXPECT_NEAR(s.completion(1), 1e7 + 1e-7, 1.0);
  s.validate();
}

TEST(Engine, TraceConservesWork) {
  const Instance inst = Instance::from_pairs(std::vector<std::pair<Time, Work>>{
      {0.0, 3.0}, {1.0, 2.0}, {1.5, 0.5}, {4.0, 1.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  EXPECT_NEAR(s.traced_work(), inst.total_work(), 1e-9);
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_NEAR(s.traced_work(j), inst.job(j).size, 1e-9);
  }
}

TEST(Engine, RecordTraceOffLeavesNoTrace) {
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule s = run(two_unit_jobs(), rr, req).schedule;
  EXPECT_FALSE(s.has_trace());
  EXPECT_TRUE(s.trace().empty());
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);  // completions still exact
}

/// Runs `request` on two unit jobs through every route -- Instance and
/// JobStream, fast path and generic loop -- and expects each to refuse it
/// with an invalid_argument whose message contains `reason`.
void expect_refused_on_every_route(RunRequest request,
                                   const std::string& reason) {
  const Instance inst = two_unit_jobs();
  for (const bool fast : {true, false}) {
    request.use_fast_path = fast;
    const auto expect_refused = [&](auto&& run_once, const char* route) {
      SCOPED_TRACE(std::string(route) + (fast ? " fast" : " generic"));
      try {
        run_once();
        ADD_FAILURE() << "expected invalid_argument: " << reason;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
            << e.what();
      }
    };
    expect_refused([&] { (void)run(inst, request); }, "instance");
    workload::detail::InstanceRefStream stream(inst);
    expect_refused([&] { (void)run(stream, request); }, "stream");
  }
}

TEST(Engine, RejectsBadOptions) {
  RunRequest req;
  req.machines = 0;
  expect_refused_on_every_route(req, "machines must be >= 1");
  req.machines = 1;
  for (const double speed : {0.0, -1.0, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(speed);
    req.speed = speed;
    expect_refused_on_every_route(req, "speed must be positive and finite");
  }
}

TEST(Engine, RefusesHiddenSizesForClairvoyantPolicy) {
  RunRequest req;
  req.policy = "srpt";
  req.hide_sizes = true;
  expect_refused_on_every_route(req, "cannot hide sizes");
}

TEST(Engine, HiddenSizesAreNaNToThePolicy) {
  SizeProbePolicy probe;
  RunRequest req;
  req.hide_sizes = true;
  (void)run(two_unit_jobs(), probe, req);
  EXPECT_TRUE(probe.saw_nan_size);
  EXPECT_FALSE(probe.saw_real_size);
  EXPECT_FALSE(probe.sizes_visible_flag);
}

TEST(Engine, VisibleSizesAreRealToThePolicy) {
  SizeProbePolicy probe;
  (void)run(two_unit_jobs(), probe);
  EXPECT_FALSE(probe.saw_nan_size);
  EXPECT_TRUE(probe.saw_real_size);
  EXPECT_TRUE(probe.sizes_visible_flag);
}

TEST(Engine, DetectsDeadlock) {
  DeadlockPolicy dead;
  EXPECT_THROW((void)run(two_unit_jobs(), dead), std::runtime_error);
}

// A policy whose breakpoint is so small that `now + dt == now` in floating
// point once the clock is away from zero: the simulation would spin forever
// without the zero-progress guard.
class DenormalBreakpointPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "denormal"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    RateDecision d;
    d.rates.assign(ctx.n_alive(), ctx.speed / static_cast<double>(ctx.n_alive()));
    d.max_duration = 5e-324;  // denormal: 1.0 + 5e-324 == 1.0
    return d;
  }
};

TEST(Engine, DetectsLivelockFromVanishingBreakpoints) {
  // Release at t=1.0 so the clock sits at 1.0 when the denormal steps start;
  // 1.0 + 5e-324 == 1.0, so no step ever advances time, completes a job, or
  // admits an arrival.
  const Instance inst =
      Instance::from_pairs(std::vector<std::pair<Time, Work>>{{1.0, 1.0}});
  DenormalBreakpointPolicy policy;
  try {
    (void)run(inst, policy);
    FAIL() << "expected livelock diagnostic";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("livelock: " + std::to_string(kMaxZeroProgressSteps) +
                        " consecutive"),
              std::string::npos)
        << what;
    // The diagnostic names the culprit and the stuck breakpoint value, so
    // the failure is actionable without a debugger.
    EXPECT_NE(what.find("denormal"), std::string::npos) << what;
    EXPECT_NE(what.find("max_duration="), std::string::npos) << what;
  }
}

TEST(Engine, DetectsWrongRateCount) {
  WrongCountPolicy wrong;
  EXPECT_THROW((void)run(two_unit_jobs(), wrong), std::runtime_error);
}

TEST(Engine, DetectsOversubscription) {
  OversubscribePolicy over;
  EXPECT_THROW((void)run(two_unit_jobs(), over), std::runtime_error);
}

TEST(Engine, DetectsPerJobSpeedViolation) {
  TooFastPolicy fast;
  const Instance one = Instance::batch(std::vector<Work>{1.0});
  EXPECT_THROW((void)run(one, fast), std::runtime_error);
}

TEST(Engine, MaxTimeGuardFires) {
  RoundRobin rr;
  RunRequest req;
  req.max_time = 0.5;  // jobs need 2.0
  EXPECT_THROW((void)run(two_unit_jobs(), rr, req), std::runtime_error);
}

TEST(Engine, MaxStepsGuardFires) {
  RoundRobin rr;
  RunRequest req;
  req.max_steps = 1;
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {0.5, 1.0}, {0.7, 1.0}});
  EXPECT_THROW((void)run(inst, rr, req), std::runtime_error);
}

TEST(Engine, DeterministicAcrossRuns) {
  const Instance inst = Instance::from_pairs(std::vector<std::pair<Time, Work>>{
      {0.0, 2.5}, {0.3, 1.7}, {0.9, 4.2}, {2.0, 0.1}});
  RoundRobin rr1, rr2;
  const Schedule a = run(inst, rr1).schedule;
  const Schedule b = run(inst, rr2).schedule;
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_DOUBLE_EQ(a.completion(j), b.completion(j));
  }
}

TEST(Engine, ZeroReleaseGapHandled) {
  // Two jobs released at the same instant mid-run.
  const Instance inst = Instance::from_pairs(std::vector<std::pair<Time, Work>>{
      {0.0, 3.0}, {1.0, 1.0}, {1.0, 1.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  s.validate();
  EXPECT_DOUBLE_EQ(s.completion(1), s.completion(2));
}

}  // namespace
}  // namespace tempofair
