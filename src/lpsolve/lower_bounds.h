// Bounds on OPT's k-th-power flow time, used to bracket competitive ratios.
//
// Since OPT is intractable to compute exactly, every measured ratio is
// reported against both sides of a bracket:
//
//   cost / proxy_ub  <=  true competitive ratio  <=  cost / best_lb
//
// where best_lb <= OPT^k <= proxy_ub:
//  * trivial_lb:  sum_j p_j^k  (every flow is at least the job's size at
//    speed 1);
//  * lp_lb:       the Section 3.1 LP solved exactly, divided by 2;
//  * proxy_ub:    the measured cost of the best clairvoyant heuristic at
//    speed 1 (min over SRPT and SJF) -- a feasible schedule, hence >= OPT^k.
#pragma once

#include "core/instance.h"
#include "lpsolve/flowtime_lp.h"

namespace tempofair::lpsolve {

struct OptBounds {
  double k = 2.0;
  int machines = 1;
  double trivial_lb = 0.0;  ///< sum p_j^k
  double lp_lb = 0.0;       ///< LP / 2 (0 if LP skipped)
  double best_lb = 0.0;     ///< max of the lower bounds
  double proxy_ub = 0.0;    ///< min(SRPT, SJF) cost at speed 1
  /// Exactly-verified lower bound on OPT^k: the max over the components
  /// whose certificates checked out (the trivial bound re-derived in exact
  /// rational arithmetic for integer k, and the LP dual certificate / 2).
  /// Slightly below best_lb in general (safe-side rounding).
  double certified_lb = 0.0;
  /// True iff certified_lb > 0 is backed by an exact-rational certificate.
  /// When false, ratios against certified_lb must be flagged uncertified.
  bool lb_certified = false;
};

struct OptBoundsOptions {
  double k = 2.0;
  int machines = 1;
  /// Solve the LP lower bound (can be slow for large instances); the trivial
  /// bound and the proxy are always computed.
  bool with_lp = true;
  /// LP discretization width; 0 = auto_lp_slot (min(1, min_size),
  /// coarsened so the grid stays at about 600 slots at most).
  double lp_slot = 0.0;
};

/// Computes the OPT^k bracket for `instance`.
[[nodiscard]] OptBounds opt_bounds(const Instance& instance,
                                   const OptBoundsOptions& options);

/// Exact-rational version of the trivial bound sum_j p_j^k for *integer*
/// k <= 8: each size is floored to a dyadic grid (a lower bound on p_j) and
/// raised to the k-th power exactly, so the rounded-down sum is a
/// machine-checked lower bound on sum_j p_j^k <= OPT^k.  Uncertified for
/// non-integer k or when 128-bit arithmetic would overflow.  Also the cheap
/// certified denominator the adversary search (src/search) screens with.
[[nodiscard]] CertifiedBound certified_trivial_bound(const Instance& instance,
                                                     double k);

}  // namespace tempofair::lpsolve
