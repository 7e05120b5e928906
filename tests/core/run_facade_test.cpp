// The RunRequest/RunResult facade: spec-string and policy-object runs agree
// bit for bit, every RunRequest field reaches the engine, the per-thread
// core reuse is invisible, and JobStream edge cases driven through run()
// (empty stream, simultaneous arrivals, out-of-order rejection) hold.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "obs/obs.h"
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

/// Bit-for-bit equality of two run results: completions, the trace, the
/// flow statistics and what the invariant layer saw.
void expect_same_run(const RunResult& got, const RunResult& want,
                     const std::string& label) {
  SCOPED_TRACE(label);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(got.policy, want.policy);
  ASSERT_EQ(got.schedule.n(), want.schedule.n());
  for (JobId j = 0; j < got.schedule.n(); ++j) {
    ASSERT_EQ(bits(got.schedule.completion(j)), bits(want.schedule.completion(j)))
        << "job " << j;
  }
  ASSERT_EQ(got.schedule.has_trace(), want.schedule.has_trace());
  const TraceArena& gt = got.schedule.trace();
  const TraceArena& wt = want.schedule.trace();
  ASSERT_EQ(gt.size(), wt.size());
  EXPECT_EQ(got.schedule.trace_memory_bytes(), want.schedule.trace_memory_bytes());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    const TraceIntervalView a = gt[i];
    const TraceIntervalView b = wt[i];
    ASSERT_EQ(bits(a.begin()), bits(b.begin())) << "interval " << i;
    ASSERT_EQ(bits(a.end()), bits(b.end())) << "interval " << i;
    ASSERT_EQ(a.alive_count(), b.alive_count()) << "interval " << i;
    for (std::size_t k = 0; k < a.alive_count(); ++k) {
      ASSERT_EQ(a.job(k), b.job(k)) << "interval " << i;
      ASSERT_EQ(bits(a.rate(k)), bits(b.rate(k))) << "interval " << i;
    }
  }
  const FlowStats& gs = got.stats;
  const FlowStats& ws = want.stats;
  EXPECT_EQ(gs.n, ws.n);
  for (const auto& [g, w] :
       {std::pair{gs.l1, ws.l1}, {gs.l2, ws.l2}, {gs.l3, ws.l3},
        {gs.linf, ws.linf}, {gs.mean, ws.mean}, {gs.variance, ws.variance},
        {gs.stddev, ws.stddev}, {gs.p50, ws.p50}, {gs.p95, ws.p95},
        {gs.p99, ws.p99}}) {
    EXPECT_EQ(bits(g), bits(w));
  }
  const InvariantStats& gi = got.invariants;
  const InvariantStats& wi = want.invariants;
  EXPECT_EQ(gi.mode, wi.mode);
  EXPECT_EQ(gi.epochs_seen, wi.epochs_seen);
  EXPECT_EQ(gi.epochs_checked, wi.epochs_checked);
  EXPECT_EQ(gi.checks_run, wi.checks_run);
  EXPECT_EQ(gi.violations, wi.violations);
  EXPECT_EQ(gi.reports.size(), wi.reports.size());
}

TEST(RunFacade, MatchesSimulateShimBitwise) {
  // A policy named by spec string and the same policy passed as an object
  // run the same engine: same schedule and trace, bit for bit.
  const Instance inst = small_instance();
  RunRequest req;
  req.policy = "rr";
  req.speed = 2.0;
  const RunResult by_spec = run(inst, req);
  RoundRobin rr;
  expect_same_run(run(inst, rr, req), by_spec, "rr object vs spec");
}

TEST(RunFacade, ResolvesPolicyNameAndStats) {
  const Instance inst = small_instance();
  RunRequest req;
  req.policy = "srpt";
  const RunResult result = run(inst, req);
  EXPECT_EQ(result.policy, "srpt");
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
  // Every RunRequest field reaches the engine: each one set on its own
  // changes what the run does or reports -- except `workload`, which only
  // names a workload for workload::run_spec and which the engine ignores.
  const Instance two = Instance::batch(std::vector<Work>{1.0, 1.0});
  const Instance inst = small_instance();
  const RunResult base = run(two, RunRequest{});
  EXPECT_EQ(base.schedule.completion(0), 2.0);
  ASSERT_TRUE(base.schedule.has_trace());

  RunRequest req;
  req.policy = "srpt";  // SRPT finishes one unit job first; RR shares
  EXPECT_EQ(run(two, req).policy, "srpt");
  EXPECT_EQ(run(two, req).schedule.completion(0), 1.0);

  req = {};
  req.workload = "poisson:n=5";  // names a workload; the engine ignores it
  expect_same_run(run(two, req), base, "workload");

  req = {};
  req.machines = 2;
  EXPECT_EQ(run(two, req).schedule.completion(0), 1.0);

  req = {};
  req.speed = 4.0;
  EXPECT_EQ(run(two, req).schedule.completion(0), 0.5);

  req = {};
  req.record_trace = false;
  EXPECT_FALSE(run(two, req).schedule.has_trace());

  req = {};
  req.hide_sizes = true;  // fine for RR, refused for a clairvoyant policy
  expect_same_run(run(two, req), base, "hide_sizes rr");
  req.policy = "srpt";
  EXPECT_THROW((void)run(two, req), std::invalid_argument);

  req = {};
  req.max_time = 0.5;  // the jobs need 2.0
  EXPECT_THROW((void)run(two, req), std::runtime_error);

  req = {};
  req.max_steps = 1;
  EXPECT_THROW((void)run(inst, req), std::runtime_error);

  req = {};
  req.use_fast_path = false;
  obs::Sink sink;
  {
    const obs::ScopedSink scope(&sink);
    expect_same_run(run(inst, req), run(inst, RunRequest{}), "use_fast_path");
  }
  EXPECT_EQ(sink.value("engine.runs"), 2u);
  EXPECT_EQ(sink.value(obs_counters::kFastForwardRuns), 1u);

  req = {};
  req.invariants = InvariantMode::kOff;
  EXPECT_EQ(run(inst, req).invariants.mode, InvariantMode::kOff);
  EXPECT_EQ(run(inst, req).invariants.checks_run, 0u);
  req.invariants = InvariantMode::kExhaustive;
  const InvariantStats all = run(inst, req).invariants;
  EXPECT_EQ(all.mode, InvariantMode::kExhaustive);
  EXPECT_GT(all.epochs_seen, 10u);
  EXPECT_EQ(all.epochs_checked, all.epochs_seen);
  req.invariants = InvariantMode::kSampled;
  req.invariant_sample_period = 5;
  const InvariantStats sampled = run(inst, req).invariants;
  EXPECT_EQ(sampled.mode, InvariantMode::kSampled);
  EXPECT_EQ(sampled.epochs_seen, all.epochs_seen);
  EXPECT_EQ(sampled.epochs_checked, all.epochs_seen / 5);
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

// --- the run() facades reuse one EngineCore per thread ----------------------

TEST(RunFacade, BackToBackRunsMatchAFreshCore) {
  // One thread, many run() calls: every result must equal what a fresh
  // EngineCore produces, whatever ran on the thread's core before it --
  // other policies, sizes and machine counts, trace on and off, sampled
  // and exhaustive invariants, runs past the size the core keeps, and a
  // run that throws halfway.
  const std::vector<std::string> policies{"rr",  "srpt", "sjf",  "fcfs",
                                          "setf", "mlfq", "laps:0.5", "hdf"};
  const std::vector<std::size_t> sizes{6, 40, 1500, 3};
  int cell = 0;
  for (const std::size_t n : sizes) {
    for (const int machines : {1, 3}) {
      workload::Rng rng(1000 + n + static_cast<std::size_t>(machines));
      const Instance inst = workload::detail::poisson_load(
          n, machines, 0.95, workload::ExponentialSize{1.0}, rng);
      for (const std::string& policy : policies) {
        ++cell;
        RunRequest req;
        req.policy = policy;
        req.machines = machines;
        req.speed = cell % 2 == 0 ? 1.0 : 1.5;
        req.record_trace = cell % 3 != 0;
        req.invariants =
            cell % 4 == 0 ? InvariantMode::kExhaustive : InvariantMode::kSampled;
        req.invariant_sample_period = 3;
        if (cell % 5 == 0) {
          // A run aborted by the step valve leaves no state behind.
          RunRequest doomed = req;
          doomed.max_steps = 2;
          EXPECT_THROW((void)run(inst, doomed), std::runtime_error);
        }
        const RunResult reused = run(inst, req);
        const RunResult fresh = EngineCore().run(inst, req);
        expect_same_run(reused, fresh,
                        policy + " n=" + std::to_string(n) +
                            " m=" + std::to_string(machines));
      }
      // The streaming facade shares the thread's core with the others.
      workload::detail::InstanceRefStream stream(inst);
      RunRequest req;
      req.policy = "rr";
      req.machines = machines;
      const RunResult streamed = run(stream, req);
      workload::detail::InstanceRefStream again(inst);
      expect_same_run(streamed, EngineCore().run(again, req),
                      "stream n=" + std::to_string(n));
    }
  }
}

/// Round Robin on the generic loop that starts a nested facade run from
/// every arrival callback.
class NestingPolicy final : public Policy {
 public:
  explicit NestingPolicy(const Instance& inner) : inner_(&inner) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "nesting_rr";
  }
  [[nodiscard]] bool clairvoyant() const noexcept override { return false; }
  void on_arrival(const AliveJob& job, Time now) override {
    rr_.on_arrival(job, now);
    RunRequest req;
    req.policy = "srpt";
    nested.push_back(run(*inner_, req));
  }
  [[nodiscard]] RateDecision rates(const SchedulerContext& ctx) override {
    return rr_.rates(ctx);
  }

  std::vector<RunResult> nested;

 private:
  const Instance* inner_;
  RoundRobin rr_;
};

TEST(RunFacade, ReentrantRunGetsACoreOfItsOwn) {
  const Instance outer = small_instance();
  const Instance inner = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {0.5, 1.0}, {1.0, 3.0}});
  NestingPolicy policy(inner);
  RunRequest req;
  req.use_fast_path = false;
  const RunResult result = run(outer, policy, req);
  ASSERT_EQ(policy.nested.size(), outer.n());

  RoundRobin rr;
  const RunResult outer_want = EngineCore().run(outer, rr, req);
  ASSERT_EQ(result.schedule.n(), outer.n());
  for (JobId j = 0; j < outer.n(); ++j) {
    EXPECT_EQ(result.schedule.completion(j), outer_want.schedule.completion(j));
  }
  RunRequest inner_req;
  inner_req.policy = "srpt";
  const RunResult want = EngineCore().run(inner, inner_req);
  for (const RunResult& nested : policy.nested) {
    EXPECT_EQ(nested.schedule.n(), inner.n());
    for (JobId j = 0; j < inner.n(); ++j) {
      EXPECT_EQ(nested.schedule.completion(j), want.schedule.completion(j));
    }
  }
}

}  // namespace
}  // namespace tempofair
