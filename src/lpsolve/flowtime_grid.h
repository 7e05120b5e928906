// Internal to lpsolve: the slot grid and unit costs of the discretized
// Section 3.1 LP, shared by the min-cost-flow solve (flowtime_lp.cpp) and
// the dense per-job builder for the simplex cross-check
// (flowtime_lp_dense.cpp), so both build the same program.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/instance.h"
#include "core/pow_k.h"
#include "lpsolve/flowtime_lp.h"

namespace tempofair::lpsolve::detail {

struct Grid {
  double t0 = 0.0;       // grid origin (min release)
  double slot = 1.0;
  std::size_t slots = 0;

  [[nodiscard]] double slot_start(std::size_t s) const {
    return t0 + static_cast<double>(s) * slot;
  }
  /// Slot containing the release.  Granting the *whole* slot (not just the
  /// part after r_j) relaxes the LP, and the cost there is evaluated at r_j
  /// itself (unit_cost clamps t - r_j at 0) -- both effects only lower the
  /// discrete optimum, keeping it a valid lower bound on the continuous LP.
  [[nodiscard]] std::size_t first_slot_for(double release) const {
    const double rel = (release - t0) / slot;
    return static_cast<std::size_t>(std::floor(rel + 1e-12));
  }
};

/// The grid from the first release to the horizon bound plus one padding
/// slot, capped at options.max_slots.  Throws std::invalid_argument for an
/// empty instance, bad options or a slot count that is not finite.
[[nodiscard]] Grid make_grid(const Instance& instance,
                             const FlowtimeLpOptions& options);

/// Cost per unit of processing of job j in slot s (evaluated at slot start);
/// size_pow is pow_k(j.size, k), computed once per job.
[[nodiscard]] inline double unit_cost(const Job& j, const Grid& g,
                                      std::size_t s, double k,
                                      double size_pow) {
  const double t = std::max(g.slot_start(s) - j.release, 0.0);
  return (pow_k(t, k) + size_pow) / j.size;
}

[[nodiscard]] inline bool lp_included(const Job& j) {
  return j.size >= kMinLpJobSize;
}

/// Rejects an included job released at or after the end of the (possibly
/// capped) grid: it would have no slot to run in.
void require_slot_for(const Job& j, const Grid& g);

}  // namespace tempofair::lpsolve::detail
