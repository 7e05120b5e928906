// The engine's breakpoint contract: a policy that returns max_duration must
// be re-queried no later than that, and zero-rate intervals (e.g. context
// switches) must advance the clock without processing work.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "policies/quantum_rr.h"

namespace tempofair {
namespace {

/// Allocates everything to the first alive job but asks to be re-queried
/// every `step`; records the query times.
class ProbePolicy final : public Policy {
 public:
  explicit ProbePolicy(double step) : step_(step) {}
  std::string_view name() const noexcept override { return "probe"; }
  bool clairvoyant() const noexcept override { return false; }
  RateDecision rates(const SchedulerContext& ctx) override {
    query_times.push_back(ctx.now);
    RateDecision d;
    d.rates.assign(ctx.n_alive(), 0.0);
    d.rates[0] = ctx.speed;
    d.max_duration = step_;
    return d;
  }
  std::vector<Time> query_times;

 private:
  double step_;
};

/// Idles for `idle` time, then serves everything at full speed.
class SlowStartPolicy final : public Policy {
 public:
  explicit SlowStartPolicy(double idle) : idle_(idle) {}
  std::string_view name() const noexcept override { return "slowstart"; }
  bool clairvoyant() const noexcept override { return false; }
  PolicyInvariantTraits invariant_traits() const noexcept override {
    PolicyInvariantTraits t;
    t.work_conserving = false;  // the whole point is the idle prefix
    return t;
  }
  RateDecision rates(const SchedulerContext& ctx) override {
    RateDecision d;
    if (ctx.now < idle_ - kAbsEps) {
      d.rates.assign(ctx.n_alive(), 0.0);
      d.max_duration = idle_ - ctx.now;  // wake up exactly at `idle_`
    } else {
      d.rates.assign(ctx.n_alive(),
                     ctx.speed * std::min(1.0, static_cast<double>(ctx.machines) /
                                                   static_cast<double>(ctx.n_alive())));
    }
    return d;
  }

 private:
  double idle_;
};

TEST(Breakpoints, PolicyIsRequeriedAtItsOwnCadence) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  ProbePolicy probe(0.25);
  const Schedule s = run(inst, probe).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 1.0);
  // Queries at 0, 0.25, 0.5, 0.75 (completion lands exactly on the last step).
  ASSERT_GE(probe.query_times.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(probe.query_times[i], 0.25 * static_cast<double>(i), 1e-9);
  }
}

TEST(Breakpoints, ZeroRateIntervalsAdvanceTimeWithoutWork) {
  const Instance inst = Instance::batch(std::vector<Work>{2.0});
  SlowStartPolicy slow(3.0);
  const Schedule s = run(inst, slow).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 5.0);  // 3 idle + 2 work
  s.validate();                            // trace stays consistent
}

TEST(Breakpoints, NoSwitchCostWhenContentionEnds) {
  // Two size-1 jobs, quantum 1, switch cost 0.5: job0 completes exactly at
  // its quantum boundary, leaving one job -- no rotation happens, so no
  // dead time is charged and job1 runs immediately.
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 1.0});
  QuantumRoundRobin qrr(1.0, 0.5);
  const Schedule s = run(inst, qrr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 1.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 2.0);
}

TEST(Breakpoints, ContextSwitchDeadTimeIsExact) {
  // Two size-2 jobs, quantum 1, switch cost 0.5: rotations at t=1 and
  // t=2.5 each cost exactly 0.5 of dead time:
  //   job0 [0,1], switch [1,1.5], job1 [1.5,2.5], switch [2.5,3],
  //   job0 [3,4] (completes), job1 [4,5] (alone, no further switches).
  const Instance inst = Instance::batch(std::vector<Work>{2.0, 2.0});
  QuantumRoundRobin qrr(1.0, 0.5);
  const Schedule s = run(inst, qrr).schedule;
  EXPECT_DOUBLE_EQ(s.completion(0), 4.0);
  EXPECT_DOUBLE_EQ(s.completion(1), 5.0);
}

}  // namespace
}  // namespace tempofair
