// Policy interface: an online scheduling algorithm expressed as a *rate
// allocator* over the alive set, exactly matching the feasible-schedule
// characterization of Section 2 of the paper: at each time the policy picks
// machine shares m_j(t) in [0,1] with sum <= m (scaled here by the speed
// augmentation s, so rates lie in [0, s] and sum to <= s*m).
//
// The engine queries rates() whenever the alive set changes (arrival or
// completion) or when the policy's own breakpoint expires (`max_duration`,
// used by quantum-based policies, SETF level catch-up, and continuously
// varying shares such as age-weighted RR).
//
// Non-clairvoyance: policies whose clairvoyant() is false must never read
// AliveJob::size/remaining; the engine can enforce this by hiding them (NaN)
// -- see RunRequest::hide_sizes.  Round Robin is non-clairvoyant: it needs
// nothing but the alive set.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/fast_forward.h"
#include "core/invariants.h"
#include "core/time_types.h"

namespace tempofair {

/// The engine's view of one alive (released, not yet completed) job.
struct AliveJob {
  JobId id = kInvalidJob;
  Time release = 0.0;
  /// Service received so far (observable even non-clairvoyantly).
  Work attained = 0.0;
  /// Original size; NaN when the engine hides sizes (non-clairvoyant run).
  Work size = 0.0;
  /// Remaining work; NaN when the engine hides sizes.
  Work remaining = 0.0;
  /// Importance weight; always visible (weights are announced at arrival
  /// even in the non-clairvoyant model).
  double weight = 1.0;

  [[nodiscard]] Time age(Time now) const noexcept { return now - release; }
};

/// Immutable context handed to Policy::rates().
struct SchedulerContext {
  Time now = 0.0;
  int machines = 1;
  /// Speed augmentation s: every machine runs s times faster than OPT's.
  double speed = 1.0;
  /// Alive jobs, sorted by id.
  std::span<const AliveJob> alive;
  /// False when the engine hides sizes (AliveJob::size/remaining are NaN).
  bool sizes_visible = true;

  [[nodiscard]] std::size_t n_alive() const noexcept { return alive.size(); }
  /// Total rate capacity available right now: s * m.
  [[nodiscard]] double capacity() const noexcept { return speed * machines; }
};

/// A policy's answer: one rate per alive job (parallel to ctx.alive), plus an
/// optional upper bound on how long this allocation may stay in force.
struct RateDecision {
  std::vector<double> rates;
  /// The engine will re-query rates() after at most this long even if no
  /// arrival/completion occurs.  Infinite for event-driven-only policies.
  Time max_duration = kInfiniteTime;
};

class Policy {
 public:
  virtual ~Policy() = default;
  Policy() = default;
  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// True if the policy reads job sizes / remaining work.
  [[nodiscard]] virtual bool clairvoyant() const noexcept = 0;
  /// Epoch-coalescing capability (see core/fast_forward.h).  Policies whose
  /// allocation rule has a closed form override this and must honor the
  /// FastForward contract (C1-C3); the default advertises none, keeping the
  /// generic event loop.
  [[nodiscard]] virtual FastForward fast_forward() const noexcept {
    return {};
  }
  /// Structural facts about this policy's allocation rule, consumed by the
  /// invariant layer (core/invariants.h) to decide which profile-gated
  /// checkers apply.  The default claims only work conservation; policies
  /// that idle capacity by design narrow it, the RR family widens it with
  /// its no-starvation / equal-share witnesses.
  [[nodiscard]] virtual PolicyInvariantTraits invariant_traits()
      const noexcept {
    return {};
  }

  /// Called once before each simulation; stateful policies reset here.
  virtual void reset() {}
  /// Called when `job` arrives (before the next rates() query).
  virtual void on_arrival(const AliveJob& job, Time now) {
    (void)job;
    (void)now;
  }
  /// Called when job `id` completes (before the next rates() query).
  virtual void on_completion(JobId id, Time now) {
    (void)id;
    (void)now;
  }

  /// Allocate rates to ctx.alive.  Must return exactly ctx.alive.size()
  /// rates, each in [0, ctx.speed], summing to at most ctx.capacity().
  [[nodiscard]] virtual RateDecision rates(const SchedulerContext& ctx) = 0;
};

}  // namespace tempofair
