// FastForwardCore: the epoch-coalescing kernel (see core/fast_forward.h).
//
// Byte-identity with the generic loop rests on three facts about IEEE-754
// round-to-nearest arithmetic, all used below:
//
//   F1. Division is monotone in the numerator, so
//           min_i (rem_i / share) == (min_i rem_i) / share
//       bitwise: the kernel reads the earliest completion off one end of
//       one sorted structure instead of dividing per alive job.
//   F2. Subtracting the same rounded delta from every element preserves
//       weak ordering (x <= y implies fl(x - d) <= fl(y - d)), so the
//       sorted-by-remaining order survives every uniform advance and is
//       maintained incrementally, never re-sorted.
//   F3. x - fl(0 * dt) == x exactly for x > 0, so jobs at rate zero can be
//       skipped during the advance without changing their stored bits.
//
// What the kernel does NOT do is compress the per-event remaining-work
// update itself: a chain of individually rounded subtractions has no closed
// form that reproduces the same bits, so every job with a positive rate is
// advanced every event.  The win is structural -- no policy virtual call,
// no RateDecision allocation, no rate validation pass, no
// completion-candidate scan, no policy-facing view maintenance per event --
// plus the streaming arrival path that never materializes the instance.
//
// Data layout (kUniformShare): the remaining-sorted order is the PRIMARY
// storage -- three parallel arrays (ord_rem_, ord_thr_, order_) sorted by
// remaining work DESCENDING, so the next completer sits at the back, the
// advance is one fused contiguous loop, and completions pop off the end
// with no memmove.  The id-sorted alive list (ids_) is maintained only
// when a trace is recorded, since trace rows are the only consumer; a
// trace-off RR run touches no id-sorted state at all.  kTopPriority and
// kWeightedShare keep the id-sorted arrays primary (their rates/trace
// rows are per-job anyway) with order_ as an id-indirected priority order.
//
// Data layout (kEqualAttained, kLevelPriority): the priority order is the
// primary storage -- one RankedJob record per alive job in ranked_, sorted
// WORST first, so the running jobs are the back of the array, new jobs
// (attained 0, level 0) insert near the back, and completions erase there.
// The key is SETF's (attained, id) or MLFQ's (level, release, id) from
// core/share_rules.h.  Both are strict total orders, so the kept order IS
// the permutation the policies' sort produces, and share_rules::setf_grant
// / mlfq_select read the same k-th job either way.  Only the running jobs'
// attained (and MLFQ level) change in an advance (F3 keeps every other job's
// bits), so after an advance only those few are re-placed, by insertion
// from the left.  Per event the kernel touches the running jobs only: the
// grant/select, the earliest-completion min, the advance, the completion
// test and the re-placement are all O(running), and the dense rate row
// exists only for trace rows and due invariant epochs.
//
// Completion detection is exact, not windowed: after an advance the kernel
// tests `rem <= kRelEps*size + kAbsEps` -- the generic loop's final test --
// directly.  Scanning from the front of the sorted order and stopping at
// the first job with rem > kRelEps*max_size + kAbsEps covers every possible
// completer, because a job passing its own threshold necessarily has
// rem <= kRelEps*max_size + kAbsEps (sizes never exceed the running max).
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/engine_fail.h"
#include "core/share_rules.h"
#include "core/simd.h"
#include "obs/obs.h"

namespace tempofair {

namespace {

using detail::engine_fail;

void validate_descriptor(const FastForward& ff, std::string_view policy_name) {
  switch (ff.kind) {
    case FastForwardKind::kNone:
      throw std::invalid_argument("fast_forward: policy " +
                                  std::string(policy_name) +
                                  " has no FastForward capability");
    case FastForwardKind::kUniformShare:
      if (ff.uniform_share == nullptr) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kUniformShare without a uniform_share function");
      }
      break;
    case FastForwardKind::kWeightedShare:
      if (ff.weighted_rates == nullptr) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kWeightedShare without a weighted_rates function");
      }
      break;
    case FastForwardKind::kTopPriority:
      break;
    case FastForwardKind::kQuantumRR:
      if (!(ff.quantum > 0.0) || !std::isfinite(ff.quantum)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kQuantumRR with a non-positive quantum");
      }
      if (ff.switch_cost < 0.0 || !std::isfinite(ff.switch_cost)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kQuantumRR with a negative switch cost");
      }
      break;
    case FastForwardKind::kEqualAttained:
      if (!(ff.level_tolerance >= 0.0) || !std::isfinite(ff.level_tolerance)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kEqualAttained with a negative or non-finite "
            "level tolerance");
      }
      break;
    case FastForwardKind::kLatestArrival:
      if (!(ff.beta > 0.0) || ff.beta > 1.0) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kLatestArrival with beta outside (0, 1]");
      }
      break;
    case FastForwardKind::kLevelPriority:
      if (!(ff.mlfq_base > 0.0) || !std::isfinite(ff.mlfq_base)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kLevelPriority with a non-positive base quantum");
      }
      if (!(ff.mlfq_growth > 1.0) || !std::isfinite(ff.mlfq_growth)) {
        throw std::invalid_argument(
            "fast_forward: policy " + std::string(policy_name) +
            " advertises kLevelPriority with growth <= 1");
      }
      break;
  }
}

// Pull-based arrival cursors; both expose the same tiny interface so
// run_impl is generic over materialized and streaming sources.
class InstanceArrivals {
 public:
  explicit InstanceArrivals(const Instance& instance)
      : instance_(&instance), order_(instance.release_order()) {
    if (!order_.empty()) ahead_release_ = instance.job(order_[0]).release;
  }

  [[nodiscard]] bool exhausted() const { return next_ == order_.size(); }
  // The next release is cached at take() time: the kernel peeks it at least
  // twice per event (the dt min and the admit loop), and each uncached peek
  // is a bounds-checked Instance::job() lookup.
  [[nodiscard]] Time peek_release() const { return ahead_release_; }
  [[nodiscard]] Job take() {
    const Job j = instance_->job(order_[next_++]);
    if (next_ < order_.size()) {
      ahead_release_ = instance_->job(order_[next_]).release;
    }
    return j;
  }
  [[nodiscard]] std::size_t total() const { return order_.size(); }

 private:
  const Instance* instance_;
  std::span<const JobId> order_;
  std::size_t next_ = 0;
  Time ahead_release_ = 0.0;
};

class StreamArrivals {
 public:
  explicit StreamArrivals(JobStream& stream)
      : stream_(&stream), count_(stream.n()) {
    if (count_ > 0) ahead_ = fetch(0);
  }

  [[nodiscard]] bool exhausted() const { return taken_ == count_; }
  [[nodiscard]] Time peek_release() const { return ahead_.release; }
  [[nodiscard]] Job take() {
    const Job j = ahead_;
    ++taken_;
    if (taken_ < count_) ahead_ = fetch(taken_);
    return j;
  }
  [[nodiscard]] std::size_t total() const { return count_; }

 private:
  // Enforce contract S2 (core/job_stream.h) at the boundary: a generator bug
  // must fail loudly, not silently corrupt a million-job run.
  [[nodiscard]] Job fetch(std::size_t i) {
    const Job j = stream_->next();
    if (j.id != static_cast<JobId>(i)) {
      throw std::invalid_argument(
          "JobStream: call " + std::to_string(i) + " yielded id " +
          std::to_string(j.id) + "; ids must be dense and sequential (S2)");
    }
    if (!std::isfinite(j.release) || j.release < 0.0 ||
        j.release < prev_release_) {
      throw std::invalid_argument(
          "JobStream: job " + std::to_string(i) +
          " release is negative, non-finite, or decreasing (S2)");
    }
    if (!(j.size > 0.0) || !std::isfinite(j.size) || !(j.weight > 0.0) ||
        !std::isfinite(j.weight)) {
      throw std::invalid_argument(
          "JobStream: job " + std::to_string(i) +
          " must have positive finite size and weight (S2)");
    }
    prev_release_ = j.release;
    return j;
  }

  JobStream* stream_;
  std::size_t count_;
  std::size_t taken_ = 0;
  Job ahead_{};
  Time prev_release_ = 0.0;
};

}  // namespace

Schedule FastForwardCore::run(const Instance& instance, const FastForward& ff,
                              const RunRequest& request,
                              std::string_view policy_name,
                              const PolicyInvariantTraits& traits,
                              InvariantStats& invariants) {
  validate_descriptor(ff, policy_name);
  InstanceArrivals arrivals(instance);
  return run_impl(arrivals, Schedule(instance, request.machines, request.speed),
                  ff, request, policy_name, traits, invariants);
}

Schedule FastForwardCore::run(JobStream& stream, const FastForward& ff,
                              const RunRequest& request,
                              std::string_view policy_name,
                              const PolicyInvariantTraits& traits,
                              InvariantStats& invariants) {
  validate_descriptor(ff, policy_name);
  StreamArrivals arrivals(stream);
  return run_impl(arrivals,
                  Schedule(arrivals.total(), request.machines, request.speed),
                  ff, request, policy_name, traits, invariants);
}

template <typename Arrivals>
Schedule FastForwardCore::run_impl(Arrivals& arrivals, Schedule schedule,
                                   const FastForward& ff,
                                   const RunRequest& request,
                                   std::string_view policy_name,
                                   const PolicyInvariantTraits& traits,
                                   InvariantStats& invariants) {
  obs::ScopedTimer run_timer("engine.run");
  schedule.set_trace_recorded(request.record_trace);

  const std::size_t total_jobs = arrivals.total();

  inv_.begin_run(
      InvariantRunProfile{request.machines, request.speed,
                          std::string(policy_name), traits},
      request.invariants, request.invariant_sample_period, &schedule);
  auto finish_invariants = [&] {
    inv_.finish();
    if (request.invariants == InvariantMode::kExhaustive) {
      throw_if_violated(inv_.stats(), policy_name);
    }
    invariants = inv_.stats();
  };

  if (arrivals.exhausted()) {
    finish_invariants();
    obs::add("engine.runs", 1);
    obs::add(obs_counters::kFastForwardRuns, 1);
    return schedule;
  }

  const int machines = request.machines;
  const double speed = request.speed;
  const bool trace = request.record_trace;
  const std::string name(policy_name);
  const FastForwardKind kind = ff.kind;

  ids_.clear();
  rem_.clear();
  size_.clear();
  release_.clear();
  weight_.clear();
  attained_.clear();
  order_.clear();
  ord_rem_.clear();
  ord_thr_.clear();
  rates_.clear();
  completing_.clear();
  degen_ids_.clear();
  rr_queue_.clear();
  ranked_.clear();

  // kQuantumRR: the replicated QuantumRoundRobin phase state (see
  // policies/quantum_rr.cpp -- every transition below mirrors its rates()
  // bit for bit, evaluated once per event exactly when the generic loop
  // would query the policy).
  enum class QPhase : std::uint8_t { kRunning, kSwitching };
  QPhase qphase = QPhase::kRunning;
  Time qphase_end = -kInfiniteTime;
  bool qphase_started = false;

  const bool uniform = ff.kind == FastForwardKind::kUniformShare;
  // kLatestArrival evaluates share_rules::laps_rates, the very template the
  // policy's rates() instantiates, over the id-sorted arrays plus the
  // attained_ column the invariant battery audits.
  const bool laps = kind == FastForwardKind::kLatestArrival;
  // kEqualAttained / kLevelPriority keep ranked_ (see the layout note at
  // the top of this file).
  const bool ranked = kind == FastForwardKind::kEqualAttained ||
                      kind == FastForwardKind::kLevelPriority;
  const bool setf = kind == FastForwardKind::kEqualAttained;
  // kUniformShare and the ranked kinds keep their own primary layout; the
  // id-sorted alive list then exists purely to emit id-ordered trace rows.
  const bool keep_ids = !(uniform || ranked) || request.record_trace;
  if (kind == FastForwardKind::kLevelPriority) {
    mlfq_thresholds_.reset(ff.mlfq_base, ff.mlfq_growth);
  }

  // ranked_ is sorted by `worse` ascending: the best job sits at the back.
  auto worse = [setf](const RankedJob& a, const RankedJob& b) {
    return setf ? share_rules::setf_before(b.attained, b.id, a.attained, a.id)
                : share_rules::mlfq_before(b.level, b.release, b.id, a.level,
                                           a.release, a.id);
  };
  // The k-th best alive job (k = 0 is the best).
  auto best = [&](std::size_t k) -> RankedJob& {
    return ranked_[ranked_.size() - 1 - k];
  };
  // Restores ranked_'s order after the jobs in [lo, hi) changed keys, each
  // only toward worse (attained and level never decrease): insertion from
  // the left, so every job it reaches has a sorted prefix to search.
  auto replace_ranked = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = std::max<std::size_t>(lo, 1); j < hi; ++j) {
      const auto at = ranked_.begin() + static_cast<std::ptrdiff_t>(j);
      if (!worse(*at, *(at - 1))) continue;
      std::rotate(std::upper_bound(ranked_.begin(), at, *at, worse), at,
                  at + 1);
    }
  };

  // Position of `id` in the id-sorted alive arrays.
  auto pos_of = [&](JobId id) -> std::size_t {
    return static_cast<std::size_t>(
        std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
  };

  // kTopPriority: the exact strict weak order the policy's rates() sorts by,
  // tie-breaks included (fast_forward.h, FastForwardPriority).
  auto prio_less = [&](std::size_t a, std::size_t b) {
    if (ff.priority == FastForwardPriority::kRemainingThenReleaseThenId &&
        rem_[a] != rem_[b]) {
      return rem_[a] < rem_[b];
    }
    if (ff.priority == FastForwardPriority::kSizeThenReleaseThenId &&
        size_[a] != size_[b]) {
      return size_[a] < size_[b];
    }
    if (release_[a] != release_[b]) return release_[a] < release_[b];
    return ids_[a] < ids_[b];
  };

  // Jobs whose size is already under the completion threshold can complete
  // at rate zero (the generic loop's zero-rate candidate branch); while any
  // is alive, completion scans must cover the whole alive set, not just the
  // sorted front / running prefix.
  std::size_t degenerate_alive = 0;
  Work max_size_admitted = 0.0;

  auto admit_arrivals = [&](Time t) -> std::size_t {
    std::size_t admitted = 0;
    while (!arrivals.exhausted() && arrivals.peek_release() <= t + kAbsEps) {
      const Job j = arrivals.take();
      schedule.admit_job(j.id, j.release, j.size, j.weight);
      if (keep_ids) {
        const auto p = static_cast<std::ptrdiff_t>(pos_of(j.id));
        ids_.insert(ids_.begin() + p, j.id);
        if (!uniform && !ranked) {
          rem_.insert(rem_.begin() + p, j.size);
          size_.insert(size_.begin() + p, j.size);
          release_.insert(release_.begin() + p, j.release);
          weight_.insert(weight_.begin() + p, j.weight);
          if (laps) attained_.insert(attained_.begin() + p, 0.0);
        }
      }
      max_size_admitted = std::max(max_size_admitted, j.size);
      const Work thr = kRelEps * j.size + kAbsEps;
      if (j.size <= thr) {
        ++degenerate_alive;
        degen_ids_.push_back(j.id);
      }
      if (uniform) {
        // Descending by current remaining work (the arriving job's remaining
        // is its size), so the next completer sits at the back.  Ties
        // resolve arbitrarily -- completion detection tests exact
        // thresholds, never positions.
        const auto it =
            std::lower_bound(ord_rem_.begin(), ord_rem_.end(), j.size,
                             [](Work r, Work v) { return r > v; });
        const auto off = it - ord_rem_.begin();
        ord_rem_.insert(it, j.size);
        ord_thr_.insert(ord_thr_.begin() + off, thr);
        order_.insert(order_.begin() + off, j.id);
      } else if (kind == FastForwardKind::kTopPriority) {
        const auto it = std::lower_bound(
            order_.begin(), order_.end(), j.id, [&](JobId a, JobId b) {
              return prio_less(pos_of(a), pos_of(b));
            });
        order_.insert(it, j.id);
      } else if (kind == FastForwardKind::kQuantumRR) {
        rr_queue_.push_back(j.id);  // mirrors QuantumRoundRobin::on_arrival
      } else if (ranked) {
        const RankedJob r{0.0,       j.size, j.size, j.release, j.id,
                          setf ? 0 : mlfq_thresholds_.level_of(0.0)};
        ranked_.insert(
            std::upper_bound(ranked_.begin(), ranked_.end(), r, worse), r);
      }
      ++admitted;
    }
    return admitted;
  };

  // Alive count, whichever layout this kind maintains.
  auto alive_count = [&]() -> std::size_t {
    return uniform ? ord_rem_.size() : ranked ? ranked_.size() : ids_.size();
  };

  Time now = arrivals.peek_release();
  admit_arrivals(now);

  std::size_t steps = 0;
  std::size_t zero_progress_streak = 0;
  std::size_t intervals_emitted = 0;
  std::size_t ff_events = 0;
  std::size_t ff_epochs = 0;
  std::size_t ff_touched = 0;
  bool epoch_open = false;
  std::vector<double> wrates;  // kWeightedShare per-event rates, id order

  while (alive_count() > 0 || !arrivals.exhausted()) {
    if (++steps > request.max_steps) {
      engine_fail("exceeded max_steps=" + std::to_string(request.max_steps) +
                  " with policy " + name);
    }

    if (alive_count() == 0) {
      // Idle gap: jump to the next arrival.
      now = arrivals.peek_release();
      admit_arrivals(now);
      epoch_open = false;
      continue;
    }

    const std::size_t n = alive_count();
    if (!epoch_open) {
      ++ff_epochs;
      epoch_open = true;
    }
    ++ff_events;

    // --- closed-form rates and earliest predicted completion --------------
    // The generic loop's clamp_nonneg/min(r, speed) post-processing is an
    // identity on every rate these rules produce (all nonnegative, none
    // above speed), so the raw closed-form values are already the bits the
    // slow path would use.
    double share = 0.0;            // kUniformShare
    std::size_t run_count = 0;     // kTopPriority / kQuantumRR / ranked
    bool qrr_all = false;          // kQuantumRR: n <= m, everyone runs
    // kQuantumRR quantum/switch expiry; kEqualAttained/kLevelPriority
    // shared-rule breakpoint (the policy's RateDecision::max_duration).
    Time breakpoint_dt = kInfiniteTime;
    Time completion_dt = kInfiniteTime;
    switch (kind) {
      case FastForwardKind::kUniformShare:
        share = ff.uniform_share(n, machines, speed);
        // F1: the minimum of rem/share over the alive set is the back of
        // the descending remaining order, divided once.
        completion_dt = ord_rem_.back() / share;
        break;
      case FastForwardKind::kTopPriority:
        run_count = std::min(n, static_cast<std::size_t>(machines));
        for (std::size_t i = 0; i < run_count; ++i) {
          const Time cdt = rem_[pos_of(order_[i])] / speed;
          if (cdt < completion_dt) completion_dt = cdt;
        }
        break;
      case FastForwardKind::kWeightedShare:
        wrates = ff.weighted_rates(weight_, machines, speed);
        if (wrates.size() != n) {
          engine_fail("fast_forward: weighted_rates returned " +
                      std::to_string(wrates.size()) + " rates for " +
                      std::to_string(n) + " alive jobs");
        }
        // Zero-weight shares divide to +inf (rem > 0) and drop out of the
        // min, so the unmasked kernel matches the positive-rate-guarded
        // scalar min bitwise.
        completion_dt = simd::min_ratio(rem_.data(), wrates.data(), n);
        break;
      case FastForwardKind::kQuantumRR: {
        const auto m = static_cast<std::size_t>(machines);
        if (n <= m) {
          // Everyone runs continuously; quanta do not apply.
          qphase = QPhase::kRunning;
          qphase_started = false;
          qrr_all = true;
          run_count = n;
          for (std::size_t i = 0; i < n; ++i) {
            const Time cdt = rem_[i] / speed;
            if (cdt < completion_dt) completion_dt = cdt;
          }
          break;  // no breakpoint: max_duration stays infinite
        }
        // Expired phase: rotate after a quantum, resume after a switch.
        if (qphase_started && now >= qphase_end - kAbsEps) {
          if (qphase == QPhase::kRunning) {
            const std::size_t rotate = std::min(m, rr_queue_.size());
            for (std::size_t i = 0; i < rotate; ++i) {
              rr_queue_.push_back(rr_queue_.front());
              rr_queue_.pop_front();
            }
            if (ff.switch_cost > 0.0) {
              qphase = QPhase::kSwitching;
              qphase_end = now + ff.switch_cost;
            } else {
              qphase_end = now + ff.quantum;
            }
          } else {
            qphase = QPhase::kRunning;
            qphase_end = now + ff.quantum;
          }
        } else if (!qphase_started) {
          qphase = QPhase::kRunning;
          qphase_end = now + ff.quantum;
          qphase_started = true;
        }
        if (qphase == QPhase::kRunning) {
          run_count = std::min(m, rr_queue_.size());
          for (std::size_t i = 0; i < run_count; ++i) {
            const Time cdt = rem_[pos_of(rr_queue_[i])] / speed;
            if (cdt < completion_dt) completion_dt = cdt;
          }
        }  // kSwitching: all machines idle, run_count stays 0
        breakpoint_dt = std::max(qphase_end - now, kAbsEps);
        break;
      }
      // The shared-rule kinds evaluate the policy's exact rule body
      // (core/share_rules.h) over the kernel's own state -- identical
      // floating-point program, so identical rates and breakpoints -- then
      // take the earliest completion as the generic loop does: min over
      // positive-rate jobs of rem/rate.  simd::min_ratio divides rate-zero
      // jobs to +inf (rem > 0 always), which cannot win the min, so the
      // unmasked vector reduction matches the guarded scalar min bitwise.
      case FastForwardKind::kLatestArrival:
        share_rules::laps_rates(
            n, machines, speed, ff.beta,
            [this](std::size_t i) { return release_[i]; }, rates_, laps_idx_);
        completion_dt = simd::min_ratio(rem_.data(), rates_.data(), n);
        break;
      // The ranked kinds run the grant / select over the kept order; every
      // job past the running prefix has rate 0 and cannot win the min.
      case FastForwardKind::kEqualAttained: {
        run_rates_.clear();
        const share_rules::SetfGrant grant = share_rules::setf_grant(
            n, machines, speed, ff.level_tolerance,
            [&](std::size_t k) { return best(k).attained; },
            [this](std::size_t, double r) { run_rates_.push_back(r); });
        breakpoint_dt = grant.breakpoint;
        run_count = grant.running;
        break;
      }
      case FastForwardKind::kLevelPriority:
        run_rates_.clear();
        run_count = std::min(n, static_cast<std::size_t>(machines));
        breakpoint_dt = share_rules::mlfq_select(
            run_count, speed, mlfq_thresholds_,
            [&](std::size_t k) { return best(k).attained; },
            [&](std::size_t k) { return best(k).level; },
            [this](std::size_t, double r) { run_rates_.push_back(r); });
        break;
      case FastForwardKind::kNone:
        engine_fail("fast path invoked without a FastForward capability");
    }
    if (ranked) {
      for (std::size_t k = 0; k < run_count; ++k) {
        if (run_rates_[k] > 0.0) {
          const Time cdt = best(k).remaining / run_rates_[k];
          if (cdt < completion_dt) completion_dt = cdt;
        }
      }
    }

    // --- next event: arrival, completion, breakpoint, or max_time ---------
    Time dt = std::min(completion_dt, breakpoint_dt);
    if (!arrivals.exhausted()) {
      dt = std::min(dt, arrivals.peek_release() - now);
    }
    if (std::isfinite(request.max_time)) {
      if (now >= request.max_time) {
        engine_fail("simulated clock passed max_time");
      }
      dt = std::min(dt, request.max_time - now);
    }
    if (!std::isfinite(dt)) {
      engine_fail("deadlock: policy " + name + " allocates zero rate to all " +
                  std::to_string(n) +
                  " alive jobs with no arrival or breakpoint pending");
    }
    dt = std::max(dt, 0.0);
    const Time step_start = now;

    // --- advance, emitting the trace row before the clock moves -----------
    // The invariant battery sees the epoch before any remaining-work
    // mutation; epoch_due() is the only per-event cost it adds here.
    const bool inv_due = dt > 0.0 && inv_.epoch_due();
    auto check_id_epoch = [&](std::span<const double> epoch_rates) {
      InvariantEpoch epoch;
      epoch.begin = now;
      epoch.end = now + dt;
      epoch.jobs = ids_;
      epoch.rates = epoch_rates;
      epoch.remaining = rem_;
      epoch.sizes = size_;
      // The attained-tracking kernels expose their column so the
      // attained-accounting witness can audit it against size - remaining.
      if (laps) epoch.attained = attained_;
      inv_.check_epoch(epoch);
    };
    if (dt > 0.0) {
      switch (kind) {
        case FastForwardKind::kUniformShare: {
          if (trace) {
            schedule.push_interval_uniform(now, now + dt, ids_, share);
            ++intervals_emitted;
          }
          if (inv_due) {
            InvariantEpoch epoch;
            epoch.begin = now;
            epoch.end = now + dt;
            epoch.jobs = order_;
            epoch.uniform = true;
            epoch.uniform_rate = share;
            epoch.remaining = ord_rem_;
            epoch.remaining_sorted_descending = true;
            inv_.check_epoch(epoch);
          }
          // One shared delta (every rate is the same double), one fused
          // contiguous pass (vectorized; elementwise, so bitwise-equal to
          // the scalar loop); F2 keeps the descending order sorted through
          // it.
          const Work delta = share * dt;
          simd::sub_scalar(ord_rem_.data(), ord_rem_.size(), delta);
          ff_touched += n;
          break;
        }
        case FastForwardKind::kTopPriority: {
          if (trace || inv_due) {
            rates_.assign(n, 0.0);
            for (std::size_t i = 0; i < run_count; ++i) {
              rates_[pos_of(order_[i])] = speed;
            }
            if (inv_due) check_id_epoch(rates_);
            if (trace) {
              schedule.push_interval(now, now + dt, ids_, rates_);
              ++intervals_emitted;
            }
          }
          // F3: waiting jobs (rate 0) keep their bits untouched; only the
          // running prefix advances, so the priority order is preserved.
          const Work delta = speed * dt;
          for (std::size_t i = 0; i < run_count; ++i) {
            rem_[pos_of(order_[i])] -= delta;
          }
          ff_touched += run_count;
          break;
        }
        case FastForwardKind::kWeightedShare:
          if (inv_due) check_id_epoch(wrates);
          if (trace) {
            schedule.push_interval(now, now + dt, ids_, wrates);
            ++intervals_emitted;
          }
          simd::sub_product(rem_.data(), wrates.data(), n, dt);
          ff_touched += n;
          break;
        case FastForwardKind::kQuantumRR: {
          if (trace || inv_due) {
            rates_.assign(n, qrr_all ? speed : 0.0);
            if (!qrr_all) {
              for (std::size_t i = 0; i < run_count; ++i) {
                rates_[pos_of(rr_queue_[i])] = speed;
              }
            }
            if (inv_due) check_id_epoch(rates_);
            if (trace) {
              // The generic loop emits rows even for all-idle switching
              // phases; so does the kernel.
              schedule.push_interval(now, now + dt, ids_, rates_);
              ++intervals_emitted;
            }
          }
          // F3 again: only the running set loses work.
          const Work delta = speed * dt;
          if (qrr_all) {
            simd::sub_scalar(rem_.data(), rem_.size(), delta);
          } else {
            for (std::size_t i = 0; i < run_count; ++i) {
              rem_[pos_of(rr_queue_[i])] -= delta;
            }
          }
          ff_touched += run_count;
          break;
        }
        case FastForwardKind::kLatestArrival:
          if (inv_due) check_id_epoch(rates_);
          if (trace) {
            schedule.push_interval(now, now + dt, ids_, rates_);
            ++intervals_emitted;
          }
          // The generic loop's exact per-job advance (delta = rate * dt,
          // attained += delta, remaining -= delta), fused over the SoA
          // columns.  Rate-zero jobs keep their bits untouched (F3), so
          // advancing everyone is safe and branch-free.
          simd::advance(attained_.data(), rem_.data(), rates_.data(), n, dt);
          ff_touched += n;
          break;
        case FastForwardKind::kEqualAttained:
        case FastForwardKind::kLevelPriority: {
          if (inv_due) {
            // The battery is order-blind, so the epoch goes out in ranked
            // order (best first), with dense rates only on this path.
            auto& jobs = order_;
            auto& rates = inv_.scratch_rates();
            auto& rem = inv_.scratch_remaining();
            auto& sizes = inv_.scratch_sizes();
            auto& att = inv_.scratch_attained();
            jobs.resize(n);
            rates.assign(n, 0.0);
            rem.resize(n);
            sizes.resize(n);
            att.resize(n);
            for (std::size_t k = 0; k < n; ++k) {
              const RankedJob& r = best(k);
              jobs[k] = r.id;
              if (k < run_count) rates[k] = run_rates_[k];
              rem[k] = r.remaining;
              sizes[k] = r.size;
              att[k] = r.attained;
            }
            InvariantEpoch epoch;
            epoch.begin = now;
            epoch.end = now + dt;
            epoch.jobs = jobs;
            epoch.rates = rates;
            epoch.remaining = rem;
            epoch.sizes = sizes;
            epoch.attained = att;
            inv_.check_epoch(epoch);
          }
          if (trace) {
            rates_.assign(n, 0.0);
            for (std::size_t k = 0; k < run_count; ++k) {
              rates_[pos_of(best(k).id)] = run_rates_[k];
            }
            schedule.push_interval(now, now + dt, ids_, rates_);
            ++intervals_emitted;
          }
          // The generic loop's exact per-job advance (delta = rate * dt,
          // attained += delta, remaining -= delta) over the running prefix;
          // every other job has rate 0 and keeps its bits (F3).
          for (std::size_t k = 0; k < run_count; ++k) {
            RankedJob& r = best(k);
            const Work delta = run_rates_[k] * dt;
            r.attained += delta;
            r.remaining -= delta;
          }
          ff_touched += run_count;
          break;
        }
        case FastForwardKind::kNone:
          break;  // unreachable; rejected above
      }
      now += dt;
    }

    // --- completions: exact threshold test, same as the generic loop ------
    completing_.clear();
    if (uniform) {
      // Scan backward (ascending remaining).  A completer satisfies
      // rem <= its own threshold; the scan may stop at the first job with
      // rem > kRelEps*max_size + kAbsEps, since every per-job threshold is
      // bounded by that window.  With a degenerate job alive the window
      // argument does not apply (rate-zero jobs complete too), so scan all.
      std::size_t lo = ord_rem_.size();
      const Work window = kRelEps * max_size_admitted + kAbsEps;
      while (lo > 0) {
        const std::size_t i = lo - 1;
        if (ord_rem_[i] > ord_thr_[i] && ord_rem_[i] > window &&
            degenerate_alive == 0) {
          break;
        }
        --lo;
      }
      // Compact the scanned suffix in place, completing as we go.
      std::size_t w = lo;
      for (std::size_t i = lo; i < ord_rem_.size(); ++i) {
        if (ord_rem_[i] <= ord_thr_[i]) {
          completing_.push_back(order_[i]);
        } else {
          ord_rem_[w] = ord_rem_[i];
          ord_thr_[w] = ord_thr_[i];
          order_[w] = order_[i];
          ++w;
        }
      }
      ord_rem_.resize(w);
      ord_thr_.resize(w);
      order_.resize(w);
      for (const JobId id : completing_) {
        schedule.set_completion(id, now);
        if (keep_ids) ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(pos_of(id)));
      }
    } else if (ranked) {
      // Only the running jobs lost work; with a degenerate job alive every
      // job is a candidate.  Survivors keep their order, so the running
      // block stays the back of ranked_.
      const std::size_t size_before = ranked_.size();
      const std::size_t lo =
          degenerate_alive > 0 ? 0 : size_before - run_count;
      std::size_t w = lo;
      std::size_t running_left = run_count;
      for (std::size_t i = lo; i < size_before; ++i) {
        const RankedJob& r = ranked_[i];
        if (r.remaining <= kRelEps * r.size + kAbsEps) {
          completing_.push_back(r.id);
          if (i >= size_before - run_count) --running_left;
        } else {
          ranked_[w++] = r;
        }
      }
      ranked_.resize(w);
      for (const JobId id : completing_) {
        schedule.set_completion(id, now);
        if (keep_ids) {
          ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(pos_of(id)));
        }
      }
      if (dt > 0.0) {
        const std::size_t hi = ranked_.size();
        if (!setf) {
          for (std::size_t i = hi - running_left; i < hi; ++i) {
            ranked_[i].level = mlfq_thresholds_.level_of(ranked_[i].attained);
          }
        }
        replace_ranked(hi - running_left, hi);
      }
    } else {
      std::size_t order_scan_end = 0;  // prefix of order_ the scan covered
      if (degenerate_alive > 0 || kind == FastForwardKind::kWeightedShare ||
          laps || (kind == FastForwardKind::kQuantumRR && qrr_all)) {
        for (std::size_t i = 0; i < n; ++i) {
          if (rem_[i] <= kRelEps * size_[i] + kAbsEps) {
            completing_.push_back(ids_[i]);
          }
        }
        order_scan_end = order_.size();
      } else if (kind == FastForwardKind::kQuantumRR) {
        // Only the running queue prefix lost work (none while switching).
        for (std::size_t i = 0; i < run_count; ++i) {
          const std::size_t p = pos_of(rr_queue_[i]);
          if (rem_[p] <= kRelEps * size_[p] + kAbsEps) {
            completing_.push_back(rr_queue_[i]);
          }
        }
      } else {  // kTopPriority: only running jobs lose work
        for (std::size_t i = 0; i < run_count; ++i) {
          const std::size_t p = pos_of(order_[i]);
          if (rem_[p] <= kRelEps * size_[p] + kAbsEps) {
            completing_.push_back(order_[i]);
          }
        }
        order_scan_end = run_count;
      }

      if (!completing_.empty()) {
        if (kind == FastForwardKind::kQuantumRR) {
          // Mirrors QuantumRoundRobin::on_completion: the job may sit
          // anywhere in the queue (front if it was running).
          for (const JobId id : completing_) {
            const auto it =
                std::find(rr_queue_.begin(), rr_queue_.end(), id);
            if (it != rr_queue_.end()) rr_queue_.erase(it);
          }
        } else if (kind == FastForwardKind::kTopPriority) {
          const auto scan_end =
              order_.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(order_scan_end, order_.size()));
          order_.erase(
              std::remove_if(order_.begin(), scan_end,
                             [&](JobId id) {
                               return std::find(completing_.begin(),
                                                completing_.end(),
                                                id) != completing_.end();
                             }),
              scan_end);
        }
        for (const JobId id : completing_) {
          schedule.set_completion(id, now);
          const auto p = static_cast<std::ptrdiff_t>(pos_of(id));
          ids_.erase(ids_.begin() + p);
          rem_.erase(rem_.begin() + p);
          size_.erase(size_.begin() + p);
          release_.erase(release_.begin() + p);
          weight_.erase(weight_.begin() + p);
          if (laps) attained_.erase(attained_.begin() + p);
        }
      }
    }
    if (degenerate_alive > 0 && !completing_.empty()) {
      // Sole owner of the degenerate count: every branch above defers the
      // decrement here.  Degenerate jobs are rare enough that linear
      // membership only ever runs while one is alive.
      for (const JobId id : completing_) {
        const auto it = std::find(degen_ids_.begin(), degen_ids_.end(), id);
        if (it != degen_ids_.end()) {
          degen_ids_.erase(it);
          --degenerate_alive;
        }
      }
    }

    const std::size_t admitted = admit_arrivals(now);
    if (admitted > 0) epoch_open = false;

    // Livelock guard, mirrored from the generic loop.  With closed-form
    // rates a zero-progress event is essentially unreachable (every alive
    // job has remaining > kAbsEps and some rate is positive), but the guard
    // stays so a latent bug fails with a diagnostic instead of burning
    // max_steps.
    if (now > step_start || !completing_.empty() || admitted > 0) {
      zero_progress_streak = 0;
    } else if (++zero_progress_streak >= kMaxZeroProgressSteps) {
      engine_fail("livelock: " + std::to_string(zero_progress_streak) +
                  " consecutive zero-progress fast-path events (no clock "
                  "advance, completion, or arrival) with policy " +
                  name + " at t=" + std::to_string(now) + " with " +
                  std::to_string(alive_count()) + " alive jobs");
    }
  }

  if (trace) schedule.finalize_trace();
  finish_invariants();

  obs::add("engine.runs", 1);
  obs::add("engine.events", steps);
  obs::add("engine.jobs", total_jobs);
  obs::add("engine.trace_intervals", intervals_emitted);
  obs::add(obs_counters::kFastForwardRuns, 1);
  obs::add(obs_counters::kFastForwardEvents, ff_events);
  obs::add(obs_counters::kFastForwardEpochs, ff_epochs);
  obs::add(obs_counters::kFastForwardTouched, ff_touched);
  return schedule;
}

}  // namespace tempofair
