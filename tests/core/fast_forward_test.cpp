// Fast-path / generic-loop equivalence: the whole contract of the
// epoch-coalescing kernel (core/fast_forward.cpp) is that its output is
// BYTE-identical to the generic event loop -- completion times, derived
// l_k norms, and every recorded trace interval.  These tests run both
// paths on the same instances and compare bitwise, not within tolerance:
// any relaxation here would let the two paths drift and silently change
// experiment results depending on which path a run takes.
//
// Every comparison additionally runs under exhaustive invariant checking
// (core/invariants.h) and replays the recorded trace through the offline
// battery, so a kernel bug that keeps both paths in agreement but breaks a
// structural property (capacity, work conservation, monotone remaining)
// still fails here.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/invariants.h"
#include "core/metrics.h"
#include "core/schedule.h"
#include "policies/mlfq.h"
#include "policies/priority_policies.h"
#include "policies/registry.h"
#include "policies/setf.h"
#include "workload/adversarial.h"
#include "workload/generators.h"
#include "workload/rng.h"
#include "workload/stream.h"

namespace tempofair {
namespace {

constexpr std::uint64_t kSeed = 20260806;

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

// Bitwise comparison of two schedules: completions, l_k norms, and the
// full trace (interval bounds, alive sets, per-job rates).  The arena's
// uniform-rate compression flag is representation, not content, so rates
// are compared through the logical rate(i) accessor.
void expect_identical(const Schedule& fast, const Schedule& slow) {
  ASSERT_EQ(fast.n(), slow.n());
  for (JobId id = 0; id < static_cast<JobId>(fast.n()); ++id) {
    ASSERT_EQ(bits(fast.completion(id)), bits(slow.completion(id)))
        << "job " << id << ": fast C=" << fast.completion(id)
        << " slow C=" << slow.completion(id);
    ASSERT_EQ(bits(fast.release(id)), bits(slow.release(id))) << "job " << id;
    ASSERT_EQ(bits(fast.size(id)), bits(slow.size(id))) << "job " << id;
  }
  for (const double k : {1.0, 2.0, 3.0}) {
    EXPECT_EQ(bits(flow_lk_norm(fast, k)), bits(flow_lk_norm(slow, k)))
        << "l_" << k << " norm differs";
  }
  ASSERT_EQ(fast.has_trace(), slow.has_trace());
  if (!fast.has_trace()) return;
  const TraceArena& ft = fast.trace();
  const TraceArena& st = slow.trace();
  ASSERT_EQ(ft.size(), st.size()) << "interval counts differ";
  for (std::size_t i = 0; i < ft.size(); ++i) {
    const TraceIntervalView a = ft[i];
    const TraceIntervalView b = st[i];
    ASSERT_EQ(bits(a.begin()), bits(b.begin())) << "interval " << i;
    ASSERT_EQ(bits(a.end()), bits(b.end())) << "interval " << i;
    ASSERT_EQ(a.alive_count(), b.alive_count()) << "interval " << i;
    for (std::size_t j = 0; j < a.alive_count(); ++j) {
      ASSERT_EQ(a.job(j), b.job(j)) << "interval " << i << " slot " << j;
      ASSERT_EQ(bits(a.rate(j)), bits(b.rate(j)))
          << "interval " << i << " job " << a.job(j);
    }
  }
}

/// Replays a recorded schedule through the offline exhaustive battery under
/// the profile of `policy`; an engine-produced schedule must be clean.
void expect_invariants_clean(const Schedule& schedule, const Policy& policy,
                             int machines, double speed) {
  InvariantRunProfile profile;
  profile.machines = machines;
  profile.speed = speed;
  profile.policy = std::string(policy.name());
  profile.traits = policy.invariant_traits();
  const InvariantStats offline = check_schedule(schedule, profile);
  EXPECT_TRUE(offline.ok()) << "offline battery: " << summarize(offline);
}

void run_both_and_compare(const Instance& instance, const std::string& policy,
                          int machines, bool record_trace, double speed = 1.0) {
  SCOPED_TRACE("policy=" + policy + " m=" + std::to_string(machines) +
               " trace=" + std::to_string(record_trace));
  RunRequest fast_req;
  fast_req.policy = policy;
  fast_req.machines = machines;
  fast_req.speed = speed;
  fast_req.record_trace = record_trace;
  fast_req.use_fast_path = true;
  fast_req.invariants = InvariantMode::kExhaustive;  // a violation throws
  RunRequest slow_req = fast_req;
  slow_req.use_fast_path = false;

  const RunResult fast = run(instance, fast_req);
  const RunResult slow = run(instance, slow_req);
  EXPECT_TRUE(fast.invariants.ok()) << summarize(fast.invariants);
  EXPECT_TRUE(slow.invariants.ok()) << summarize(slow.invariants);
  expect_identical(fast.schedule, slow.schedule);
  if (record_trace) {
    expect_invariants_clean(fast.schedule, *make_policy(policy), machines,
                            speed);
  }
}

/// run_both_and_compare through the Policy-object overload, for parameters
/// no registry spec reaches.  `policy` serves both runs: its rates() carry
/// no state between queries (contract C2).
void run_both_and_compare(const Instance& instance, Policy& policy,
                          int machines, bool record_trace) {
  SCOPED_TRACE("policy object " + std::string(policy.name()) + " m=" +
               std::to_string(machines) +
               " trace=" + std::to_string(record_trace));
  RunRequest fast_req;
  fast_req.machines = machines;
  fast_req.record_trace = record_trace;
  fast_req.invariants = InvariantMode::kExhaustive;  // a violation throws
  RunRequest slow_req = fast_req;
  slow_req.use_fast_path = false;

  const RunResult fast = run(instance, policy, fast_req);
  const RunResult slow = run(instance, policy, slow_req);
  EXPECT_TRUE(fast.invariants.ok()) << summarize(fast.invariants);
  EXPECT_TRUE(slow.invariants.ok()) << summarize(slow.invariants);
  expect_identical(fast.schedule, slow.schedule);
  if (record_trace) {
    expect_invariants_clean(fast.schedule, policy, machines, 1.0);
  }
}

/// The attained-service kernels' policies off their registry defaults:
/// SETF with exact ties only and with a wide tie band; MLFQ with a short
/// base and fast growth, and with thresholds so fine (1e-9 * 1.1^l) that
/// every job outgrows the 64-entry table and takes the log walk past it.
std::vector<std::unique_ptr<Policy>> attained_policies() {
  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(std::make_unique<Setf>(0.0));
  policies.push_back(std::make_unique<Setf>(1e-3));
  policies.push_back(std::make_unique<Mlfq>(0.5, 3.0));
  policies.push_back(std::make_unique<Mlfq>(1e-9, 1.1));
  return policies;
}

const std::vector<std::string> kFastPolicies = {
    "rr",      "fcfs",   "sjf",           "srpt", "wprr",
    "qrr:0.7", "qrr:0.5,0.03", "setf",    "laps:0.5", "mlfq"};

TEST(FastForwardEquivalence, PoissonInstances) {
  for (const int machines : {1, 4}) {
    workload::Rng rng(kSeed + static_cast<std::uint64_t>(machines));
    const Instance instance = workload::detail::poisson_load(
        500, machines, 0.9, workload::ExponentialSize{1.5}, rng);
    for (const std::string& policy : kFastPolicies) {
      run_both_and_compare(instance, policy, machines, /*record_trace=*/true);
    }
  }
}

TEST(FastForwardEquivalence, PoissonTraceOff) {
  // Trace-off exercises a different kUniformShare code path (the id-sorted
  // alive list is not maintained at all), so it gets its own sweep.
  for (const int machines : {1, 4}) {
    workload::Rng rng(kSeed + 17 + static_cast<std::uint64_t>(machines));
    const Instance instance = workload::detail::poisson_load(
        500, machines, 0.95, workload::ExponentialSize{2.0}, rng);
    for (const std::string& policy : kFastPolicies) {
      run_both_and_compare(instance, policy, machines, /*record_trace=*/false);
    }
  }
}

TEST(FastForwardEquivalence, AdversarialInstances) {
  const std::vector<Instance> families = {
      workload::rr_l2_hard(120),
      workload::srpt_starvation(150),
      workload::staircase(64),
      workload::overload_pulse(4, 30, 2),
  };
  for (std::size_t f = 0; f < families.size(); ++f) {
    SCOPED_TRACE("family " + std::to_string(f));
    for (const int machines : {1, 4}) {
      for (const std::string& policy : kFastPolicies) {
        run_both_and_compare(families[f], policy, machines,
                             /*record_trace=*/true);
      }
    }
  }
}

TEST(FastForwardEquivalence, RandomWeightsExerciseWeightedShare) {
  workload::Rng rng(kSeed + 99);
  workload::Rng wrng(kSeed + 100);
  const Instance base = workload::detail::poisson_load(
      300, 2, 0.9, workload::ExponentialSize{1.0}, rng);
  const Instance weighted =
      workload::with_weights(base, workload::WeightScheme::kRandom, wrng);
  run_both_and_compare(weighted, "wprr", 2, /*record_trace=*/true);
  run_both_and_compare(weighted, "wprr", 2, /*record_trace=*/false);
}

TEST(FastForwardEquivalence, SpeedAugmentationAndBursts) {
  workload::Rng rng(kSeed + 7);
  const Instance instance = workload::detail::bursty_stream(
      8, 25, 15.0, workload::ExponentialSize{1.2}, rng);
  for (const double speed : {1.0, 2.5}) {
    for (const std::string& policy : kFastPolicies) {
      SCOPED_TRACE("speed=" + std::to_string(speed));
      run_both_and_compare(instance, policy, 2, /*record_trace=*/true, speed);
    }
  }
}

TEST(FastForwardEquivalence, StreamingMatchesMaterialized) {
  // The streaming arrival path must admit bitwise-identical jobs and
  // produce the same schedule as the materialized fast path, which in turn
  // equals the generic loop (transitively checked above).
  for (const int machines : {1, 4}) {
    SCOPED_TRACE("m=" + std::to_string(machines));
    const workload::SizeDist dist{workload::ExponentialSize{1.5}};
    workload::Rng inst_rng(kSeed + 31);
    const Instance instance =
        workload::detail::poisson_load(2000, machines, 0.9, dist, inst_rng);

    workload::Rng stream_rng(kSeed + 31);
    workload::detail::PoissonStream stream =
        workload::detail::poisson_load_stream(
            2000, machines, 0.9, dist, stream_rng);

    RunRequest request;
    request.policy = "rr";
    request.machines = machines;
    request.record_trace = true;
    request.invariants = InvariantMode::kExhaustive;
    const RunResult from_instance = run(instance, request);
    const RunResult from_stream = run(stream, request);
    EXPECT_TRUE(from_stream.invariants.ok())
        << summarize(from_stream.invariants);
    expect_identical(from_stream.schedule, from_instance.schedule);
  }
}

TEST(FastForwardEquivalence, MillionJobStreamMatchesEventLoop) {
  // The headline acceptance case: a million-job single-machine RR run
  // through the streaming fast path must be byte-identical to the generic
  // event loop on the materialized instance.  Trace off keeps the run at
  // ~1 s and the comparison to the part that matters here (completions;
  // trace equality at scale is covered above at smaller n).
  const std::size_t n = 1'000'000;
  const workload::SizeDist dist{workload::ExponentialSize{1.5}};
  workload::Rng inst_rng(kSeed + 63);
  const Instance instance = workload::detail::poisson_load(
      n, 1, 0.9, dist, inst_rng);

  workload::Rng stream_rng(kSeed + 63);
  workload::detail::PoissonStream stream =
      workload::detail::poisson_load_stream(n, 1, 0.9, dist, stream_rng);

  RunRequest fast_req;
  fast_req.policy = "rr";
  fast_req.record_trace = false;
  fast_req.invariants = InvariantMode::kExhaustive;
  RunRequest slow_req = fast_req;
  slow_req.use_fast_path = false;

  const RunResult fast = run(stream, fast_req);
  const RunResult slow = run(instance, slow_req);
  EXPECT_TRUE(fast.invariants.ok()) << summarize(fast.invariants);
  ASSERT_EQ(fast.schedule.n(), n);
  expect_identical(fast.schedule, slow.schedule);
}

TEST(FastForwardEquivalence, DegenerateSizesStillMatch) {
  // Jobs already under the completion threshold at admission force the
  // kernel's degenerate (full-scan) branch; the generic loop handles them
  // through its zero-rate candidate logic.  Both must agree.
  const std::vector<std::pair<Time, Work>> pairs = {
      {0.0, 1e-13},  // below kAbsEps: complete on admission
      {0.0, 1.0},
      {0.5, 1e-13},
      {0.5, 2.0},
      {1.0, 0.5},
  };
  const Instance instance = Instance::from_pairs(pairs);
  for (const std::string& policy : kFastPolicies) {
    run_both_and_compare(instance, policy, 1, /*record_trace=*/true);
    run_both_and_compare(instance, policy, 1, /*record_trace=*/false);
  }
}

TEST(FastForwardEquivalence, AttainedKernelsNonDefaultParameters) {
  for (const int machines : {1, 4}) {
    workload::Rng rng(kSeed + 41 + static_cast<std::uint64_t>(machines));
    const Instance instance = workload::detail::poisson_load(
        400, machines, 0.9, workload::ExponentialSize{1.5}, rng);
    for (const auto& policy : attained_policies()) {
      for (const bool trace : {true, false}) {
        run_both_and_compare(instance, *policy, machines, trace);
      }
    }
  }
}

TEST(FastForwardEquivalence, IdsOutOfReleaseOrder) {
  // Instance::from_pairs keeps the caller's order as ids, so releases are
  // shuffled against ids: arrivals insert mid-array in the id-sorted trace
  // rows, and equal attained service or level ties break on ids that do
  // not follow arrival order.  Five jobs share each release and sizes
  // repeat, so exact ties occur and several running jobs cross a level or
  // a group boundary in the same event.
  workload::Rng rng(kSeed + 53);
  std::vector<std::pair<Time, Work>> pairs;
  for (int i = 0; i < 160; ++i) {
    const double release = 1.5 * static_cast<double>((i * 37) % 32);
    const double size = 0.25 * static_cast<double>(1 + rng.uniform_int(0, 4));
    pairs.emplace_back(release, size);
  }
  const Instance instance = Instance::from_pairs(pairs);
  std::vector<std::unique_ptr<Policy>> policies = attained_policies();
  policies.push_back(std::make_unique<Setf>());
  policies.push_back(std::make_unique<Mlfq>());
  policies.push_back(std::make_unique<Laps>(0.5));
  for (const int machines : {1, 4}) {
    for (const auto& policy : policies) {
      for (const bool trace : {true, false}) {
        run_both_and_compare(instance, *policy, machines, trace);
      }
    }
  }
}

TEST(FastForwardEquivalence, DeepAliveSetsTraceOff) {
  // Load 0.95 at 20k jobs keeps long queues alive: SETF re-places its
  // running groups past many waiters, MLFQ demotes past deep levels.
  for (const int machines : {1, 4}) {
    workload::Rng rng(kSeed + 71 + static_cast<std::uint64_t>(machines));
    const Instance instance = workload::detail::poisson_load(
        20000, machines, 0.95, workload::ExponentialSize{1.0}, rng);
    Setf setf;
    Mlfq mlfq;
    run_both_and_compare(instance, setf, machines, /*record_trace=*/false);
    run_both_and_compare(instance, mlfq, machines, /*record_trace=*/false);
  }
}

}  // namespace
}  // namespace tempofair
