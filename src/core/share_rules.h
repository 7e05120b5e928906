// Closed-form share rules, shared verbatim between the policies and
// FastForwardCore (contract C1 in core/fast_forward.h).
//
// SETF, LAPS, and MLFQ allocate rates by a pure function of the alive jobs'
// (attained, release) columns and the run constants -- no state survives
// between queries (a scratch holds buffers and, for MLFQ, a table computed
// from the run constants).  To make the fast path bitwise-equal to the
// event loop, the one rule body lives here as a template over column
// accessors: the policy's rates() instantiates it over the id-sorted
// AliveJob views, the kernel over its id-sorted SoA columns, and both
// therefore execute the exact same floating-point operations in the same
// order.  Tie-breaks by job id reduce to index comparisons because both
// callers index in ascending-id order.
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

/// Reusable scratch for setf_rates; callers keep one across queries so the
/// per-event cost is a sort, never an allocation.
struct SetfScratch {
  struct Group {
    double rate;
    double level;
  };
  std::vector<std::size_t> idx;
  std::vector<Group> groups;
};

/// Fluid SETF (policies/setf.h): machines are granted to jobs in increasing
/// attained-service order; a group tied at one level (within `tol`) shares
/// what remains, and the breakpoint is the earliest catch-up time at which
/// two adjacent groups merge.  `attained(i)` reads job i's attained service;
/// i ranges over the id-sorted alive set.  Fills `rates` (id order) and
/// returns the RateDecision::max_duration breakpoint.
template <typename AttainedAt>
[[nodiscard]] Time setf_rates(std::size_t n, int machines, double speed,
                              double tol, const AttainedAt& attained,
                              std::vector<double>& rates,
                              SetfScratch& scratch) {
  auto& idx = scratch.idx;
  idx.resize(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (attained(a) != attained(b)) return attained(a) < attained(b);
    return a < b;
  });

  rates.assign(n, 0.0);

  // Walk groups of (approximately) equal attained service, granting machines.
  double machines_left = static_cast<double>(machines);
  std::size_t i = 0;
  auto& groups = scratch.groups;
  groups.clear();
  // Groups are built by chaining: job j joins the current group when its
  // attained service is within tolerance of its predecessor's.  (Comparing to
  // the group head instead would split groups spuriously right after two
  // groups merge, forcing the engine into tiny catch-up steps.)
  auto group_end = [&](std::size_t start) {
    std::size_t j = start + 1;
    while (j < n &&
           approx_equal(attained(idx[j]), attained(idx[j - 1]), tol, tol)) {
      ++j;
    }
    return j;
  };

  while (i < n && machines_left > 0.0) {
    const double level = attained(idx[i]);
    const std::size_t j = group_end(i);
    const double group_size = static_cast<double>(j - i);
    const double per_job = speed * std::min(1.0, machines_left / group_size);
    for (std::size_t g = i; g < j; ++g) rates[idx[g]] = per_job;
    machines_left -= (per_job / speed) * group_size;
    groups.push_back(SetfScratch::Group{per_job, level});
    i = j;
  }
  // Remaining groups (if any) get zero rate but we still need their levels
  // for the catch-up breakpoint.
  while (i < n) {
    const double level = attained(idx[i]);
    groups.push_back(SetfScratch::Group{0.0, level});
    i = group_end(i);
  }

  // Breakpoint: the earliest time a faster lower group catches the level of
  // the group above it (their rates then change as the groups merge).
  Time breakpoint = kInfiniteTime;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
    const double closing = groups[g].rate - groups[g + 1].rate;
    if (closing > kAbsEps) {
      const double gap = groups[g + 1].level - groups[g].level;
      breakpoint = std::min(breakpoint, std::max(gap, 0.0) / closing);
    }
  }
  if (breakpoint <= 0.0) breakpoint = kAbsEps;  // merged this instant; take a tiny step
  return breakpoint;
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

/// Reusable scratch for mlfq_rates.
struct MlfqScratch {
  std::vector<int> levels;
  std::vector<std::size_t> idx;
  MlfqThresholds thresholds;
};

/// MLFQ (policies/mlfq.h): the m alive jobs of lexicographically least
/// (level, release, id) run at full speed; the breakpoint fires when a
/// running job crosses into the next level.  Fills `rates` (id order) and
/// returns the breakpoint.
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
                      if (levels[a] != levels[b]) return levels[a] < levels[b];
                      if (release(a) != release(b)) {
                        return release(a) < release(b);
                      }
                      return a < b;
                    });

  rates.assign(n, 0.0);
  Time breakpoint = kInfiniteTime;
  for (std::size_t i = 0; i < run; ++i) {
    const std::size_t a = idx[i];
    rates[a] = speed;
    // Re-query when this job crosses into the next level (it may then be
    // preempted by a lower-level waiter).
    const double to_demotion = thresholds.threshold(levels[a]) - attained(a);
    if (to_demotion > 0.0) {
      breakpoint = std::min(breakpoint, to_demotion / speed);
    }
  }
  if (breakpoint <= 0.0) breakpoint = kAbsEps;
  return breakpoint;
}

}  // namespace tempofair::share_rules
