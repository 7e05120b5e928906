// The RunRequest/RunResult facade: equivalence with the deprecated
// EngineCore().run() shims and JobStream edge cases driven through run()
// (empty stream, simultaneous arrivals, out-of-order rejection).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/registry.h"
#include "policies/round_robin.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace tempofair {
namespace {

Instance small_instance() {
  workload::Rng rng(99);
  return workload::detail::poisson_load(
      30, 1, 0.9, workload::ExponentialSize{1.2},
                                rng);
}

TEST(RunFacade, MatchesSimulateShimBitwise) {
  const Instance inst = small_instance();
  RunRequest req;
  req.policy = "rr";
  req.speed = 2.0;
  const RunResult result = run(inst, req);

  RoundRobin rr;
  const Schedule legacy = EngineCore().run(inst, rr, req.engine_options());
  ASSERT_EQ(result.schedule.n(), legacy.n());
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(result.schedule.completion(j), legacy.completion(j)) << j;
  }
}

TEST(RunFacade, ResolvesPolicyNameAndStats) {
  const Instance inst = small_instance();
  RunRequest req;
  req.policy = "srpt";
  const RunResult result = run(inst, req);
  EXPECT_EQ(result.policy, "srpt");
  EXPECT_GE(result.wall_seconds, 0.0);
  const FlowStats direct = flow_stats(result.schedule);
  EXPECT_EQ(result.stats.n, direct.n);
  EXPECT_EQ(result.stats.l1, direct.l1);
  EXPECT_EQ(result.stats.l2, direct.l2);
  EXPECT_EQ(result.stats.linf, direct.linf);
}

TEST(RunFacade, RejectsUnknownPolicySpec) {
  RunRequest req;
  req.policy = "no-such-policy";
  EXPECT_THROW((void)run(small_instance(), req), std::invalid_argument);
}

TEST(RunFacade, EngineOptionsMirrorRequest) {
  RunRequest req;
  req.machines = 3;
  req.speed = 1.5;
  req.record_trace = false;
  req.hide_sizes = true;
  req.max_time = 40.0;
  req.max_steps = 123;
  req.max_zero_progress_steps = 7;
  req.use_fast_path = false;
  req.invariants = InvariantMode::kExhaustive;
  req.invariant_sample_period = 5;
  const EngineOptions eo = req.engine_options();
  EXPECT_EQ(eo.machines, req.machines);
  EXPECT_EQ(eo.speed, req.speed);
  EXPECT_EQ(eo.record_trace, req.record_trace);
  EXPECT_EQ(eo.hide_sizes, req.hide_sizes);
  EXPECT_EQ(eo.max_time, req.max_time);
  EXPECT_EQ(eo.max_steps, req.max_steps);
  EXPECT_EQ(eo.max_zero_progress_steps, req.max_zero_progress_steps);
  EXPECT_EQ(eo.use_fast_path, req.use_fast_path);
  EXPECT_EQ(eo.invariants, req.invariants);
  EXPECT_EQ(eo.invariant_sample_period, req.invariant_sample_period);
  EXPECT_EQ(eo.invariant_stats, nullptr);
}

// --- JobStream edge cases through the facade --------------------------------

TEST(RunFacade, EmptyStreamProducesEmptySchedule) {
  const Instance empty;
  workload::detail::InstanceRefStream stream(empty);
  RunRequest req;
  req.policy = "rr";
  const RunResult result = run(stream, req);
  EXPECT_EQ(result.schedule.n(), 0u);
  EXPECT_EQ(result.stats.n, 0u);
  EXPECT_EQ(result.stats.l1, 0.0);
}

TEST(RunFacade, SimultaneousArrivalsMatchInstanceRun) {
  // Three batches of simultaneous releases, including t=0.
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 4; ++i) pairs.emplace_back(0.0, 1.0 + 0.25 * i);
  for (int i = 0; i < 3; ++i) pairs.emplace_back(1.5, 2.0);
  for (int i = 0; i < 3; ++i) pairs.emplace_back(4.0, 0.5);
  const Instance inst = Instance::from_pairs(pairs);

  RunRequest req;
  req.policy = "rr";
  const RunResult offline = run(inst, req);

  workload::detail::InstanceRefStream stream(inst);
  const RunResult streamed = run(stream, req);
  ASSERT_EQ(streamed.schedule.n(), offline.schedule.n());
  for (JobId j = 0; j < inst.n(); ++j) {
    EXPECT_EQ(streamed.schedule.completion(j), offline.schedule.completion(j))
        << j;
  }
}

/// A stream violating contract S2 in a configurable way.
class BrokenStream final : public JobStream {
 public:
  explicit BrokenStream(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  [[nodiscard]] std::size_t n() const noexcept override { return jobs_.size(); }
  [[nodiscard]] Job next() override { return jobs_.at(pos_++); }

 private:
  std::vector<Job> jobs_;
  std::size_t pos_ = 0;
};

TEST(RunFacade, RejectsOutOfOrderArrivals) {
  BrokenStream stream({{0, 2.0, 1.0, 1.0}, {1, 1.0, 1.0, 1.0}});
  RunRequest req;
  req.policy = "rr";
  EXPECT_THROW((void)run(stream, req), std::invalid_argument);
}

TEST(RunFacade, RejectsNonSequentialIds) {
  BrokenStream stream({{0, 0.0, 1.0, 1.0}, {5, 1.0, 1.0, 1.0}});
  RunRequest req;
  req.policy = "rr";
  EXPECT_THROW((void)run(stream, req), std::invalid_argument);
}

TEST(RunFacade, StreamingRequiresFastPathCapablePolicy) {
  const Instance inst = small_instance();
  workload::detail::InstanceRefStream stream(inst);
  RunRequest req;
  // hdf's age-dependent weights keep it off the fast path (kNone); mlfq
  // and friends grew descriptors, so they stream fine now.
  req.policy = "hdf";
  EXPECT_THROW((void)run(stream, req), std::invalid_argument);
}

}  // namespace
}  // namespace tempofair
