// Closed-form share rules, shared verbatim between the policies and
// FastForwardCore (contract C1 in core/fast_forward.h).
//
// SETF, LAPS, and MLFQ allocate rates by a pure function of the alive jobs'
// (attained, release) columns and the run constants -- no state survives
// between queries (a scratch holds buffers and, for MLFQ, a table computed
// from the run constants).  To make the fast path bitwise-equal to the
// event loop, the one rule body lives here as a template over accessors,
// and both paths therefore execute the exact same floating-point
// operations in the same order:
//
//   - LAPS: laps_rates, instantiated by the policy over its id-sorted
//     AliveJob views and by the kernel over its id-sorted SoA columns.
//     Tie-breaks by job id reduce to index comparisons because both index
//     in ascending-id order.
//   - SETF and MLFQ are split at the sort.  setf_before / mlfq_before are
//     the priority orders; setf_grant and mlfq_select read an alive set
//     already in that order.  The policy sorts its views (setf_rates,
//     mlfq_rates); the kernel keeps the order across events instead of
//     re-sorting.  Both orders are strict total orders, so the kept order
//     is the sorted one.  setf_grant stops after the first zero-rate group
//     past the visited ones, because every later pair of groups has
//     closing speed 0 and cannot set the breakpoint; with F3 (only jobs
//     that ran change, see core/fast_forward.cpp) that makes the kernel's
//     per-event work O(running).
//
// Editing a formula here changes both paths at once -- which is the point.
// Never fork a copy into a policy or the kernel.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/time_types.h"

namespace tempofair::share_rules {

/// SETF's priority order: (attained, id) ascending -- a strict total order
/// (ids are distinct), so the sorted order of an alive set is unique.
/// `a`/`b` are ids or id-ordered indices.
template <typename Id>
[[nodiscard]] inline bool setf_before(double attained_a, Id a,
                                      double attained_b, Id b) noexcept {
  if (attained_a != attained_b) return attained_a < attained_b;
  return a < b;
}

/// What setf_grant decided: the RateDecision::max_duration breakpoint and
/// the length of the sorted prefix the grant visited.  Every job past that
/// prefix has rate zero.
struct SetfGrant {
  Time breakpoint = kInfiniteTime;
  std::size_t running = 0;
};

/// Fluid SETF's grant (policies/setf.h) over an alive set already sorted by
/// setf_before: `attained(k)` reads the k-th job of that order.  Machines
/// are granted in that order; a group tied at one level (within `tol`)
/// shares what remains, and `set_rate(k, rate)` receives the rate of every
/// job of every group the walk visits.  The breakpoint is the earliest
/// catch-up time at which two adjacent groups merge.
///
/// The walk visits groups while machines remain, so `running` can cover a
/// group whose rate is tiny (a rounding remainder of machines_left) or zero
/// (that remainder divided by a large group underflows).  Past the visited
/// groups it reads only the level of the next group: every later pair of
/// groups is two zero-rate groups with closing speed 0, which never sets
/// the breakpoint.  The work is O(running), not O(n).
template <typename AttainedAt, typename SetRate>
[[nodiscard]] SetfGrant setf_grant(std::size_t n, int machines, double speed,
                                   double tol, const AttainedAt& attained,
                                   const SetRate& set_rate) {
  // Groups are built by chaining: job j joins the current group when its
  // attained service is within tolerance of its predecessor's.  (Comparing to
  // the group head instead would split groups spuriously right after two
  // groups merge, forcing the engine into tiny catch-up steps.)
  auto group_end = [&](std::size_t start) {
    std::size_t j = start + 1;
    while (j < n && approx_equal(attained(j), attained(j - 1), tol, tol)) {
      ++j;
    }
    return j;
  };

  // Breakpoint: the earliest time a faster lower group catches the level of
  // the group above it (their rates then change as the groups merge).  Each
  // group is compared with its predecessor as the walk reaches it.
  SetfGrant grant;
  bool have_prev = false;
  double prev_rate = 0.0;
  double prev_level = 0.0;
  auto close_pair = [&](double rate, double level) {
    if (have_prev) {
      const double closing = prev_rate - rate;
      if (closing > kAbsEps) {
        const double gap = level - prev_level;
        grant.breakpoint =
            std::min(grant.breakpoint, std::max(gap, 0.0) / closing);
      }
    }
    have_prev = true;
    prev_rate = rate;
    prev_level = level;
  };

  double machines_left = static_cast<double>(machines);
  std::size_t i = 0;
  while (i < n && machines_left > 0.0) {
    const double level = attained(i);
    const std::size_t j = group_end(i);
    const double group_size = static_cast<double>(j - i);
    const double per_job = speed * std::min(1.0, machines_left / group_size);
    for (std::size_t g = i; g < j; ++g) set_rate(g, per_job);
    machines_left -= (per_job / speed) * group_size;
    close_pair(per_job, level);
    i = j;
  }
  grant.running = i;
  if (i < n) close_pair(0.0, attained(i));  // the first zero-rate group
  if (grant.breakpoint <= 0.0) {
    grant.breakpoint = kAbsEps;  // merged this instant; take a tiny step
  }
  return grant;
}

/// Reusable scratch for setf_rates; callers keep one across queries so the
/// per-event cost is a sort, never an allocation.
struct SetfScratch {
  std::vector<std::size_t> idx;
};

/// Fluid SETF over an unsorted alive set: sorts the id-ordered alive jobs
/// by setf_before, then runs setf_grant.  `attained(i)` reads job i's
/// attained service; i ranges over the id-sorted alive set.  Fills `rates`
/// (id order) and returns the RateDecision::max_duration breakpoint.
template <typename AttainedAt>
[[nodiscard]] Time setf_rates(std::size_t n, int machines, double speed,
                              double tol, const AttainedAt& attained,
                              std::vector<double>& rates,
                              SetfScratch& scratch) {
  auto& idx = scratch.idx;
  idx.resize(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return setf_before(attained(a), a, attained(b), b);
  });
  rates.assign(n, 0.0);
  return setf_grant(
             n, machines, speed, tol,
             [&](std::size_t k) { return attained(idx[k]); },
             [&](std::size_t k, double rate) { rates[idx[k]] = rate; })
      .breakpoint;
}

/// LAPS(beta) (policies/priority_policies.h): the ceil(beta*n)
/// latest-arriving jobs split the machines equally, capped at one machine
/// each; release ties go to the larger id.  `release(i)` reads job i's
/// release time over the id-sorted alive set.  Fills `rates` (id order);
/// LAPS is event-driven only, so there is no breakpoint to return.
///
/// When ids follow arrival order -- every generator, stream and trace
/// assigns them so -- the releases are nondecreasing in index, and the
/// top ceil(beta*n) under (release desc, index desc) are exactly the last
/// indices: one O(n) check replaces the partial sort.  Other instances
/// (Instance::from_pairs makes no such promise) take the partial sort.
template <typename ReleaseAt>
void laps_rates(std::size_t n, int machines, double speed, double beta,
                const ReleaseAt& release, std::vector<double>& rates,
                std::vector<std::size_t>& idx) {
  const std::size_t share_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(beta * static_cast<double>(n))));
  const double rate =
      speed * std::min(1.0, static_cast<double>(machines) /
                                static_cast<double>(share_count));
  rates.assign(n, 0.0);

  bool ordered = true;
  for (std::size_t i = 1; i < n && ordered; ++i) {
    ordered = release(i - 1) <= release(i);
  }
  if (ordered) {
    for (std::size_t i = n - share_count; i < n; ++i) rates[i] = rate;
    return;
  }

  idx.resize(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::partial_sort(idx.begin(),
                    idx.begin() + static_cast<std::ptrdiff_t>(share_count),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (release(a) != release(b)) {
                        return release(a) > release(b);
                      }
                      return a > b;
                    });
  for (std::size_t i = 0; i < share_count; ++i) rates[idx[i]] = rate;
}

/// MLFQ level threshold T_level = base * growth^level (policies/mlfq.h).
[[nodiscard]] inline double mlfq_threshold(double base, double growth,
                                           int level) noexcept {
  return base * std::pow(growth, level);
}

/// The MLFQ thresholds of one (base, growth), tabulated for levels 0..63 by
/// mlfq_threshold itself, so each entry has the formula's bits.  It caches
/// run constants, not rule state (C2).
class MlfqThresholds {
 public:
  static constexpr int kLevels = 64;

  /// Tabulates (base, growth) unless the table already holds them.  The
  /// table ends at the first infinite threshold: no finite attained service
  /// passes it.
  void reset(double base, double growth) noexcept {
    if (size_ > 0 && base == base_ && growth == growth_) return;
    base_ = base;
    growth_ = growth;
    size_ = 0;
    while (size_ < kLevels) {
      const double t = mlfq_threshold(base, growth, size_);
      table_[static_cast<std::size_t>(size_++)] = t;
      if (std::isinf(t)) break;
    }
  }

  /// T_level: the table entry, or the formula past the table's end.
  [[nodiscard]] double threshold(int level) const noexcept {
    return level < size_ ? table_[static_cast<std::size_t>(level)]
                         : mlfq_threshold(base_, growth_, level);
  }

  /// Level of a job with attained service `attained`: the number of
  /// thresholds it has passed, i.e. the smallest L with attained < T_L.
  /// Below the last tabulated threshold that is a binary search of the
  /// table, with no log or pow.  Past it, a log guess picks where a walk up
  /// the thresholds starts; the guess never starts above the answer, so
  /// both paths return the same L.
  [[nodiscard]] int level_of(double attained) const noexcept {
    const auto end = table_.begin() + size_;
    if (attained < *(end - 1)) {
      return static_cast<int>(std::upper_bound(table_.begin(), end, attained) -
                              table_.begin());
    }
    // The walk starts one below the level the logs give, which rounding at
    // exact threshold values may put one too high.  Where attained / base_
    // overflows there is no guess, and the walk starts at the table's end.
    const double guess =
        std::floor(std::log(attained / base_) / std::log(growth_));
    int l = std::isinf(guess) ? size_ : std::max(static_cast<int>(guess), 0);
    while (attained >= mlfq_threshold(base_, growth_, l)) ++l;
    return l;
  }

 private:
  double base_ = 0.0;
  double growth_ = 0.0;
  int size_ = 0;
  std::array<double, kLevels> table_{};
};

/// MLFQ's priority order: (level, release, id) ascending -- a strict total
/// order, so the m least jobs of an alive set are unique.
template <typename Id>
[[nodiscard]] inline bool mlfq_before(int level_a, double release_a, Id a,
                                      int level_b, double release_b,
                                      Id b) noexcept {
  if (level_a != level_b) return level_a < level_b;
  if (release_a != release_b) return release_a < release_b;
  return a < b;
}

/// MLFQ's selection (policies/mlfq.h) over an alive set whose first `run`
/// jobs are its `run` least under mlfq_before (`run` = min(n, m)): each runs
/// at full speed, reported through `set_rate(k, speed)`, and the breakpoint
/// fires when one of them crosses into the next level.  `attained(k)` and
/// `level(k)` read the k-th job of that order.
template <typename AttainedAt, typename LevelAt, typename SetRate>
[[nodiscard]] Time mlfq_select(std::size_t run, double speed,
                               const MlfqThresholds& thresholds,
                               const AttainedAt& attained, const LevelAt& level,
                               const SetRate& set_rate) {
  Time breakpoint = kInfiniteTime;
  for (std::size_t k = 0; k < run; ++k) {
    set_rate(k, speed);
    // Re-query when this job crosses into the next level (it may then be
    // preempted by a lower-level waiter).
    const double to_demotion = thresholds.threshold(level(k)) - attained(k);
    if (to_demotion > 0.0) {
      breakpoint = std::min(breakpoint, to_demotion / speed);
    }
  }
  if (breakpoint <= 0.0) breakpoint = kAbsEps;
  return breakpoint;
}

/// Reusable scratch for mlfq_rates.
struct MlfqScratch {
  std::vector<int> levels;
  std::vector<std::size_t> idx;
  MlfqThresholds thresholds;
};

/// MLFQ over an unsorted alive set: every job's level, then the m least by
/// mlfq_before, then mlfq_select.  Fills `rates` (id order) and returns the
/// breakpoint.
template <typename AttainedAt, typename ReleaseAt>
[[nodiscard]] Time mlfq_rates(std::size_t n, int machines, double speed,
                              double base, double growth,
                              const AttainedAt& attained,
                              const ReleaseAt& release,
                              std::vector<double>& rates,
                              MlfqScratch& scratch) {
  auto& thresholds = scratch.thresholds;
  thresholds.reset(base, growth);
  auto& levels = scratch.levels;
  levels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    levels[i] = thresholds.level_of(attained(i));
  }

  auto& idx = scratch.idx;
  idx.resize(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const std::size_t run =
      std::min<std::size_t>(n, static_cast<std::size_t>(machines));
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(run),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      return mlfq_before(levels[a], release(a), a, levels[b],
                                         release(b), b);
                    });

  rates.assign(n, 0.0);
  return mlfq_select(
      run, speed, thresholds, [&](std::size_t k) { return attained(idx[k]); },
      [&](std::size_t k) { return levels[idx[k]]; },
      [&](std::size_t k, double rate) { rates[idx[k]] = rate; });
}

}  // namespace tempofair::share_rules
