#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_fail.h"
#include "obs/obs.h"
#include "policies/registry.h"

namespace tempofair {

namespace detail {

void engine_fail(const std::string& msg) {
  throw std::runtime_error("tempofair::simulate: " + msg);
}

}  // namespace detail

namespace {

using detail::engine_fail;

/// The request checks every run takes, whichever route (instance or
/// stream) and loop (fast path or generic) it ends up on.
void validate_run(const RunRequest& request, const Policy& policy) {
  if (request.machines < 1) {
    throw std::invalid_argument("simulate: machines must be >= 1");
  }
  if (!(request.speed > 0.0) || !std::isfinite(request.speed)) {
    throw std::invalid_argument("simulate: speed must be positive and finite");
  }
  if (request.hide_sizes && policy.clairvoyant()) {
    throw std::invalid_argument(
        "simulate: cannot hide sizes from clairvoyant policy " +
        std::string(policy.name()));
  }
}

[[nodiscard]] bool takes_fast_path(const Policy& policy,
                                   const RunRequest& request) {
  return request.use_fast_path && policy.fast_forward().enabled();
}

/// Completes a RunResult whose schedule and invariants a loop filled (stats
/// computed once here, where every run converges).
[[nodiscard]] RunResult finish_run(RunResult result, std::string_view policy) {
  {
    const obs::ScopedTimer timer("metrics.flow_stats");
    result.stats = flow_stats(result.schedule);
  }
  result.policy = std::string(policy);
  return result;
}

}  // namespace

RunResult EngineCore::run(const Instance& instance, const RunRequest& request) {
  const std::unique_ptr<Policy> policy = make_policy(request.policy);
  return run(instance, *policy, request);
}

RunResult EngineCore::run(JobStream& stream, const RunRequest& request) {
  const std::unique_ptr<Policy> policy = make_policy(request.policy);
  return run(stream, *policy, request);
}

RunResult EngineCore::run(const Instance& instance, Policy& policy,
                          const RunRequest& request) {
  validate_run(request, policy);
  policy.reset();
  RunResult result;
  if (takes_fast_path(policy, request)) {
    result.schedule =
        fast_.run(instance, policy.fast_forward(), request, policy.name(),
                  policy.invariant_traits(), result.invariants);
  } else {
    result.schedule = run_generic(instance, policy, request, result.invariants);
  }
  return finish_run(std::move(result), policy.name());
}

RunResult EngineCore::run(JobStream& stream, Policy& policy,
                          const RunRequest& request) {
  validate_run(request, policy);
  if (!takes_fast_path(policy, request)) {
    throw std::invalid_argument(
        "simulate: streaming runs require a FastForward-capable policy and "
        "request.use_fast_path; materialize an Instance to run policy " +
        std::string(policy.name()) + " on the generic loop");
  }
  policy.reset();
  RunResult result;
  result.schedule = fast_.run(stream, policy.fast_forward(), request,
                              policy.name(), policy.invariant_traits(),
                              result.invariants);
  return finish_run(std::move(result), policy.name());
}

Schedule EngineCore::run_generic(const Instance& instance, Policy& policy,
                                 const RunRequest& request,
                                 InvariantStats& invariants) {
  obs::ScopedTimer run_timer("engine.run");

  Schedule schedule(instance, request.machines, request.speed);
  schedule.set_trace_recorded(request.record_trace);

  inv_.begin_run(
      InvariantRunProfile{request.machines, request.speed,
                          std::string(policy.name()),
                          policy.invariant_traits()},
      request.invariants, request.invariant_sample_period, &schedule);
  // End-of-run checks + stats hand-off; an exhaustive-mode violation throws
  // with its diagnostics in the message.
  auto finish_invariants = [&] {
    inv_.finish();
    if (request.invariants == InvariantMode::kExhaustive) {
      throw_if_violated(inv_.stats(), policy.name());
    }
    invariants = inv_.stats();
  };

  if (instance.empty()) {
    finish_invariants();
    obs::add("engine.runs", 1);
    return schedule;
  }

  // Pending arrivals, consumed in (release, id) order.
  std::span<const JobId> order = instance.release_order();
  std::size_t next_arrival = 0;

  alive_.clear();
  views_.clear();
  ids_.clear();
  alive_.reserve(instance.n());
  views_.reserve(instance.n());
  ids_.reserve(instance.n());

  Time now = instance.job(order[0]).release;

  const double cap = request.speed * request.machines;
  const double rate_tol = 1e-7 * std::max(1.0, cap);
  const bool hide = request.hide_sizes;
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Inserts all arrivals due at time t into the alive set (and its
  // policy-facing views), keeping all three parallel arrays sorted by id.
  auto admit_arrivals = [&](Time t) -> std::size_t {
    std::size_t admitted = 0;
    while (next_arrival < order.size() &&
           instance.job(order[next_arrival]).release <= t + kAbsEps) {
      const Job& j = instance.job(order[next_arrival]);
      const auto pos = static_cast<std::ptrdiff_t>(
          std::lower_bound(ids_.begin(), ids_.end(), j.id) - ids_.begin());
      ids_.insert(ids_.begin() + pos, j.id);
      alive_.insert(alive_.begin() + pos,
                    LiveJob{j.id, j.release, j.size, j.size, 0.0, j.weight});
      const AliveJob view{j.id, j.release, 0.0, hide ? nan : j.size,
                          hide ? nan : j.size, j.weight};
      views_.insert(views_.begin() + pos, view);
      policy.on_arrival(view, t);
      ++next_arrival;
      ++admitted;
    }
    return admitted;
  };

  admit_arrivals(now);

  std::size_t steps = 0;
  std::size_t zero_progress_streak = 0;
  std::size_t intervals_emitted = 0;

  while (!alive_.empty() || next_arrival < order.size()) {
    if (++steps > request.max_steps) {
      engine_fail("exceeded max_steps=" + std::to_string(request.max_steps) +
                  " with policy " + std::string(policy.name()));
    }

    if (alive_.empty()) {
      // Idle gap: jump to the next arrival.
      now = instance.job(order[next_arrival]).release;
      admit_arrivals(now);
      continue;
    }

    SchedulerContext ctx{now, request.machines, request.speed, views_,
                         !hide};
    RateDecision decision = policy.rates(ctx);

    if (decision.rates.size() != alive_.size()) {
      engine_fail("policy " + std::string(policy.name()) + " returned " +
                  std::to_string(decision.rates.size()) + " rates for " +
                  std::to_string(alive_.size()) + " alive jobs");
    }

    // Single pass over the alive set: validate + clamp rates, find the
    // earliest predicted completion, and collect the near-minimum
    // candidates so completion detection after the advance does not need
    // another full scan.
    double rate_sum = 0.0;
    Time completion_dt = kInfiniteTime;
    candidates_.clear();
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      double& r = decision.rates[i];
      r = clamp_nonneg(r, rate_tol);
      if (r < 0.0 || !std::isfinite(r)) engine_fail("policy returned negative/non-finite rate");
      if (r > request.speed + rate_tol) {
        engine_fail("policy rate " + std::to_string(r) + " exceeds per-machine speed " +
                    std::to_string(request.speed));
      }
      r = std::min(r, request.speed);
      rate_sum += r;

      const double done_thr = kRelEps * alive_[i].size + kAbsEps;
      if (r > 0.0) {
        const Time cdt = alive_[i].remaining / r;
        if (cdt < completion_dt) completion_dt = cdt;
        // Candidate iff this job could be (numerically) exhausted by a step
        // of the current minimum length.  Stale entries collected against an
        // earlier, larger minimum are filtered by the exact remaining-work
        // test after the advance.
        if (cdt <= completion_dt + done_thr / r) candidates_.push_back(i);
      } else if (alive_[i].remaining <= done_thr) {
        // Zero rate but already numerically exhausted: completes as soon as
        // the clock moves (or immediately on a zero-length step).
        candidates_.push_back(i);
      }
    }
    if (rate_sum > cap + rate_tol) {
      engine_fail("policy rates sum " + std::to_string(rate_sum) +
                  " exceeds capacity " + std::to_string(cap));
    }
    if (!(decision.max_duration > 0.0)) {
      engine_fail("policy returned non-positive max_duration");
    }

    // Next event: arrival, earliest completion, or policy breakpoint.
    Time dt = decision.max_duration;
    if (next_arrival < order.size()) {
      dt = std::min(dt, instance.job(order[next_arrival]).release - now);
    }
    dt = std::min(dt, completion_dt);
    if (std::isfinite(request.max_time)) {
      if (now >= request.max_time) {
        engine_fail("simulated clock passed max_time");
      }
      dt = std::min(dt, request.max_time - now);
    }
    if (!std::isfinite(dt)) {
      engine_fail("deadlock: policy " + std::string(policy.name()) +
                  " allocates zero rate to all " + std::to_string(alive_.size()) +
                  " alive jobs with no arrival or breakpoint pending");
    }
    dt = std::max(dt, 0.0);

    const Time step_start = now;

    // Advance all jobs analytically, emitting the trace row straight into
    // the schedule's columnar arena (no per-interval allocation).
    if (dt > 0.0) {
      if (inv_.epoch_due()) {
        auto& inv_rem = inv_.scratch_remaining();
        auto& inv_size = inv_.scratch_sizes();
        auto& inv_att = inv_.scratch_attained();
        inv_rem.resize(alive_.size());
        inv_size.resize(alive_.size());
        inv_att.resize(alive_.size());
        for (std::size_t i = 0; i < alive_.size(); ++i) {
          inv_rem[i] = alive_[i].remaining;
          inv_size[i] = alive_[i].size;
          inv_att[i] = alive_[i].attained;
        }
        InvariantEpoch epoch;
        epoch.begin = now;
        epoch.end = now + dt;
        epoch.jobs = ids_;
        epoch.rates = decision.rates;
        epoch.remaining = inv_rem;
        epoch.sizes = inv_size;
        epoch.attained = inv_att;
        inv_.check_epoch(epoch);
      }
      if (request.record_trace) {
        schedule.push_interval(now, now + dt, ids_, decision.rates);
        ++intervals_emitted;
      }
      for (std::size_t i = 0; i < alive_.size(); ++i) {
        const Work delta = decision.rates[i] * dt;
        alive_[i].attained += delta;
        alive_[i].remaining -= delta;
        views_[i].attained += delta;
        if (!hide) views_[i].remaining -= delta;
      }
      now += dt;
    }

    // Completions: only the candidates can be (numerically) exhausted.
    completing_.clear();
    for (const std::size_t i : candidates_) {
      if (alive_[i].remaining <= kRelEps * alive_[i].size + kAbsEps) {
        completing_.push_back(i);
      }
    }
    // Remove completed jobs (iterate in reverse to keep indices valid).
    for (auto it = completing_.rbegin(); it != completing_.rend(); ++it) {
      const std::size_t i = *it;
      schedule.set_completion(alive_[i].id, now);
      policy.on_completion(alive_[i].id, now);
      const auto p = static_cast<std::ptrdiff_t>(i);
      alive_.erase(alive_.begin() + p);
      views_.erase(views_.begin() + p);
      ids_.erase(ids_.begin() + p);
    }

    const std::size_t admitted = admit_arrivals(now);

    // Livelock guard: a step makes progress if the clock moved, a job
    // completed, or an arrival was admitted.  A policy can legally take the
    // occasional zero-progress step (e.g. a breakpoint that fires exactly at
    // an event boundary while rotating internal state), but an unbounded run
    // of them means the simulation is stuck -- most commonly a breakpoint so
    // small that `now + dt == now` in floating point.  Fail fast with a
    // diagnostic instead of silently burning max_steps.
    if (now > step_start || !completing_.empty() || admitted > 0) {
      zero_progress_streak = 0;
    } else if (++zero_progress_streak >= kMaxZeroProgressSteps) {
      engine_fail(
          "livelock: " + std::to_string(zero_progress_streak) +
          " consecutive zero-progress steps (no clock advance, completion, "
          "or arrival) at t=" + std::to_string(now) + " with " +
          std::to_string(alive_.size()) + " alive jobs; policy " +
          std::string(policy.name()) +
          " keeps returning a breakpoint (max_duration=" +
          std::to_string(decision.max_duration) +
          ") too small to advance the simulated clock");
    }
  }

  if (request.record_trace) schedule.finalize_trace();
  finish_invariants();

  obs::add("engine.runs", 1);
  obs::add("engine.events", steps);
  obs::add("engine.jobs", instance.n());
  obs::add("engine.trace_intervals", intervals_emitted);
  return schedule;
}

namespace {

/// A run of more jobs than this drops the thread's EngineCore afterwards, so
/// the buffers a large run grew are not kept for the small runs after it.
constexpr std::size_t kRetainedCoreJobs = 1024;

/// The calling thread's EngineCore, reused by the run() facades so that a
/// stream of small runs does not rebuild the core's buffers every call.
struct ThreadCore {
  std::optional<EngineCore> core;
  /// Set while a facade run is on this thread's core; a run() re-entered
  /// from inside it (a policy or stream callback) gets a core of its own.
  bool busy = false;
};

thread_local ThreadCore tl_core;

template <typename RunOn>
RunResult run_on_thread_core(RunOn&& run_on) {
  if (tl_core.busy) {
    EngineCore core;
    return run_on(core);
  }
  if (!tl_core.core) tl_core.core.emplace();
  tl_core.busy = true;
  // Clears the flag however the run ends; a run that throws leaves no state
  // behind, since its core is dropped with it.
  struct Release {
    bool keep = false;
    ~Release() {
      tl_core.busy = false;
      if (!keep) tl_core.core.reset();
    }
  } release;
  RunResult result = run_on(*tl_core.core);
  release.keep = result.schedule.n() <= kRetainedCoreJobs;
  return result;
}

}  // namespace

RunResult run(const Instance& instance, const RunRequest& request) {
  return run_on_thread_core(
      [&](EngineCore& core) { return core.run(instance, request); });
}

RunResult run(JobStream& stream, const RunRequest& request) {
  return run_on_thread_core(
      [&](EngineCore& core) { return core.run(stream, request); });
}

RunResult run(const Instance& instance, Policy& policy,
              const RunRequest& request) {
  return run_on_thread_core(
      [&](EngineCore& core) { return core.run(instance, policy, request); });
}

RunResult run(JobStream& stream, Policy& policy, const RunRequest& request) {
  return run_on_thread_core(
      [&](EngineCore& core) { return core.run(stream, policy, request); });
}

}  // namespace tempofair
