// The split SETF and MLFQ rule bodies (core/share_rules.h) against verbatim
// copies of the whole-set functions they replaced.  The policies call
// sort + setf_grant and levels + partial sort + mlfq_select; the fast-path
// kernel calls setf_grant and mlfq_select over its kept order.  Both must
// give the rate and breakpoint bits the old single-body functions gave, on
// every alive set, so the comparison here is bitwise.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/share_rules.h"

namespace tempofair {
namespace {

// --- verbatim copies of the pre-split rule bodies ---------------------------

struct ReferenceSetfScratch {
  struct Group {
    double rate;
    double level;
  };
  std::vector<std::size_t> idx;
  std::vector<Group> groups;
};

template <typename AttainedAt>
[[nodiscard]] Time reference_setf_rates(std::size_t n, int machines,
                                        double speed, double tol,
                                        const AttainedAt& attained,
                                        std::vector<double>& rates,
                                        ReferenceSetfScratch& scratch) {
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
    groups.push_back(ReferenceSetfScratch::Group{per_job, level});
    i = j;
  }
  // Remaining groups (if any) get zero rate but we still need their levels
  // for the catch-up breakpoint.
  while (i < n) {
    const double level = attained(idx[i]);
    groups.push_back(ReferenceSetfScratch::Group{0.0, level});
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

struct ReferenceMlfqScratch {
  std::vector<int> levels;
  std::vector<std::size_t> idx;
  share_rules::MlfqThresholds thresholds;
};

template <typename AttainedAt, typename ReleaseAt>
[[nodiscard]] Time reference_mlfq_rates(std::size_t n, int machines,
                                        double speed, double base,
                                        double growth,
                                        const AttainedAt& attained,
                                        const ReleaseAt& release,
                                        std::vector<double>& rates,
                                        ReferenceMlfqScratch& scratch) {
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

// --- helpers ----------------------------------------------------------------

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, Time got_bp,
                      Time want_bp, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << " job " << i << ": " << got[i] << " vs " << want[i];
  }
  ASSERT_EQ(bits(got_bp), bits(want_bp))
      << what << " breakpoint " << got_bp << " vs " << want_bp;
}

/// Attained-service columns that stress the grouping: exact ties, ties
/// within a relative 1e-12 (inside the default tolerance, outside 0), one
/// large group (49 jobs share m machines with a rounding remainder left
/// over for the groups behind it), and jobs right at one another's
/// tolerance edge.
std::vector<double> attained_column(std::mt19937_64& rng, std::size_t n,
                                    int shape) {
  std::uniform_int_distribution<int> slot(0, 6);
  std::uniform_real_distribution<double> unit(0.0, 3.0);
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // exact ties on a small grid
        a[i] = 0.25 * slot(rng);
        break;
      case 1:  // ties within tolerance: grid values nudged by ~1e-12
        a[i] = (0.25 * slot(rng)) * (1.0 + 1e-12 * slot(rng));
        break;
      case 2:  // the first 49 at 0, the rest spread (remainder grants)
        a[i] = i < 49 ? 0.0 : 1e-3 * static_cast<double>(i - 48);
        break;
      case 3:  // distinct values, a few far apart
        a[i] = unit(rng);
        break;
      default:  // chains at the tolerance edge: each 1e-9 above the last
        a[i] = 1.0 + 1e-9 * static_cast<double>(i % 5);
        break;
    }
  }
  std::shuffle(a.begin(), a.end(), rng);
  return a;
}

TEST(ShareRules, SplitRulesMatchFullReference) {
  std::mt19937_64 rng(19);
  std::vector<double> rates;
  std::vector<double> want;
  std::vector<double> grant_rates;
  share_rules::SetfScratch setf_scratch;
  ReferenceSetfScratch setf_reference;
  share_rules::MlfqScratch mlfq_scratch;
  ReferenceMlfqScratch mlfq_reference;

  const std::vector<std::size_t> sizes = {1, 2, 3, 5, 8, 13, 49, 50, 60, 97};
  for (const std::size_t n : sizes) {
    for (int shape = 0; shape < 5; ++shape) {
      for (const int machines : {1, 2, 3, 7, 64}) {  // 64 > every n but 97
        for (const double speed : {1.0, 2.5}) {
          const std::vector<double> att = attained_column(rng, n, shape);
          const auto attained = [&](std::size_t i) { return att[i]; };
          const std::string what = "n=" + std::to_string(n) + " shape=" +
                                   std::to_string(shape) + " m=" +
                                   std::to_string(machines) +
                                   " speed=" + std::to_string(speed);

          // SETF, through the policies' entry point and through a grant
          // over the sorted order, as the kernel calls it.
          for (const double tol : {0.0, 1e-9, 1e-3}) {
            const Time want_bp = reference_setf_rates(
                n, machines, speed, tol, attained, want, setf_reference);
            const Time bp = share_rules::setf_rates(n, machines, speed, tol,
                                                    attained, rates,
                                                    setf_scratch);
            expect_same_bits(rates, want, bp, want_bp,
                             "setf_rates tol=" + std::to_string(tol) + " " +
                                 what);

            std::vector<std::size_t> order(n);
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return share_rules::setf_before(att[a], a, att[b], b);
                      });
            grant_rates.clear();
            const share_rules::SetfGrant grant = share_rules::setf_grant(
                n, machines, speed, tol,
                [&](std::size_t k) { return att[order[k]]; },
                [&](std::size_t k, double r) {
                  ASSERT_EQ(k, grant_rates.size());
                  grant_rates.push_back(r);
                });
            ASSERT_EQ(grant.running, grant_rates.size()) << what;
            if (shape == 2 && machines == 1 && n > 49) {
              // 49 * fl(1/49) < 1: the rounding remainder of machines_left
              // reaches the group behind the 49 tied jobs.
              ASSERT_GT(grant.running, 49u) << what;
            }
            rates.assign(n, 0.0);
            for (std::size_t k = 0; k < grant.running; ++k) {
              rates[order[k]] = grant_rates[k];
            }
            expect_same_bits(rates, want, grant.breakpoint, want_bp,
                             "setf_grant tol=" + std::to_string(tol) + " " +
                                 what);
          }

          // MLFQ: the same attained columns, releases with ties.
          std::uniform_int_distribution<int> release_slot(0, 3);
          std::vector<double> rel(n);
          for (double& r : rel) r = 0.5 * release_slot(rng);
          const auto release = [&](std::size_t i) { return rel[i]; };
          for (const auto& [base, growth] :
               {std::pair{1.0, 2.0}, std::pair{0.25, 2.0},
                std::pair{0.5, 3.0}, std::pair{1e-9, 1.1}}) {
            const std::string mwhat = "mlfq base=" + std::to_string(base) +
                                      " growth=" + std::to_string(growth) +
                                      " " + what;
            const Time want_bp =
                reference_mlfq_rates(n, machines, speed, base, growth,
                                     attained, release, want, mlfq_reference);
            const Time bp = share_rules::mlfq_rates(
                n, machines, speed, base, growth, attained, release, rates,
                mlfq_scratch);
            expect_same_bits(rates, want, bp, want_bp, "mlfq_rates " + mwhat);

            // mlfq_select over the whole order, with levels computed once.
            const share_rules::MlfqThresholds& thresholds =
                mlfq_scratch.thresholds;
            std::vector<int> level(n);
            for (std::size_t i = 0; i < n; ++i) {
              level[i] = thresholds.level_of(att[i]);
            }
            std::vector<std::size_t> order(n);
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return share_rules::mlfq_before(level[a], rel[a], a,
                                                        level[b], rel[b], b);
                      });
            const std::size_t run =
                std::min(n, static_cast<std::size_t>(machines));
            rates.assign(n, 0.0);
            const Time select_bp = share_rules::mlfq_select(
                run, speed, thresholds,
                [&](std::size_t k) { return att[order[k]]; },
                [&](std::size_t k) { return level[order[k]]; },
                [&](std::size_t k, double r) { rates[order[k]] = r; });
            expect_same_bits(rates, want, select_bp, want_bp,
                             "mlfq_select " + mwhat);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tempofair
