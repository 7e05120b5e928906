// The flow-time LP relaxation of Section 3.1, discretized and solved exactly.
//
//   min  sum_{j,t} (x_{jt}/p_j) ((t - r_j)^k + p_j^k)
//   s.t. sum_t x_{jt} >= p_j          (every job fully processed)
//        sum_j x_{jt} <= m * slot     (machine capacity per slot)
//        x >= 0,   x_{jt} = 0 for t < r_j
//
// Time is discretized into slots of width `slot`; each slot's cost uses the
// slot's *start*, which under-estimates the true integrand (costs increase in
// t), so the discrete optimum is a valid lower bound on the continuous LP,
// which in turn is at most 2 * OPT^k (the paper's observation: for any
// feasible schedule, (t-r_j)^k <= F_j^k while j is alive and p_j^k <= F_j^k).
// Hence:   OPT^k  >=  lp_value / 2.
//
// The LP is a transportation problem (jobs -> slots) solved exactly by
// min-cost max-flow and certified by its repaired dual -- the one certified
// path every caller (opt_bounds, the adversary search) uses.
//
// The flow graph has one node per *class* of included jobs with
// bitwise-equal (release, size), not one per job: batches, overload pulses
// and search instances repeat the same job many times.  The class node
// supplies its members' summed size through one row of class->slot arcs.
// This is exact, not a relaxation: members have identical cost rows, so any
// per-job solution sums to a class solution of the same cost, and a class's
// flow split among its members in proportion to their sizes is a per-job
// solution of the same cost -- the two optima are equal.  The certificate
// gives every member its class's alpha (feasible on each member's arcs,
// which are the class's) and sums the dual objective over the member jobs,
// sum_j Rational(p_j) * alpha_class, so it remains an exact lower bound on
// the per-job LP.  Classes are ordered by their lowest job id, between the
// source and the slots, so a duplicate-free instance builds the per-job
// graph edge for edge.
// build_flowtime_lp() exposes the same program, one row per job, for the
// dense simplex, which serves only as a cross-check oracle (experiment T8,
// lp_fuzz, tests) -- so those checks compare the class graph against the
// unaggregated LP.  It is built in its own file (flowtime_lp_dense.cpp), so
// the min-cost-flow path does not include simplex.h; its callers include
// simplex.h themselves.
#pragma once

#include <cstddef>

#include "core/instance.h"
#include "lpsolve/certified_bound.h"

namespace tempofair::lpsolve {

struct LinearProgram;  // simplex.h

/// Jobs below this size are dropped from the LP.  A denormal-size job makes
/// unit_cost = (t^k + p^k) / p overflow to infinity, and removing a demand
/// row only *lowers* the LP optimum, so the relaxed value stays a valid
/// lower bound on OPT^k.
inline constexpr double kMinLpJobSize = 1e-12;

struct FlowtimeLpOptions {
  double k = 2.0;        ///< the l_k norm exponent
  int machines = 1;
  double slot = 1.0;     ///< discretization width
  /// Optional cap on the number of slots (0 = derive from the horizon bound).
  std::size_t max_slots = 0;
};

struct FlowtimeLpResult {
  double lp_value = 0.0;       ///< optimal discretized LP objective
  double opt_power_lb = 0.0;   ///< lp_value / 2: lower bound on OPT^k
  std::size_t slots = 0;
  std::size_t edges = 0;
  std::size_t skipped_jobs = 0;  ///< jobs below kMinLpJobSize dropped
  /// Flow-graph job nodes: classes of included jobs with bitwise-equal
  /// (release, size).  Also counted as "mcmf.job_classes".
  std::size_t job_classes = 0;
  /// Exact-rational certificate for `lp_value`: a dual-feasible solution of
  /// the transportation LP, repaired from the min-cost-flow potentials and
  /// verified in exact arithmetic.  When certified, `certificate.value` is a
  /// machine-checked lower bound on the discretized LP optimum (so
  /// certificate.value / 2 certifies opt_power_lb).
  CertifiedBound certificate;
};

/// auto_lp_slot() never picks a slot narrower than (horizon bound - first
/// release) / kAutoLpSlots.
inline constexpr std::size_t kAutoLpSlots = 600;

/// Most slots a grid at an auto_lp_slot() width holds: kAutoLpSlots, plus
/// the grid's padding slot, plus one for the rounding of
/// horizon / (horizon / kAutoLpSlots).
inline constexpr std::size_t kAutoLpMaxSlots = kAutoLpSlots + 2;

/// The default grid width: min(1, min_size), coarsened so the grid from the
/// first release to the horizon bound holds at most kAutoLpMaxSlots slots.
/// Degenerate sizes or horizons (zero, denormal, NaN) fall back to 1.  Used
/// by opt_bounds (OptBoundsOptions::lp_slot = 0) and the adversary search.
[[nodiscard]] double auto_lp_slot(const Instance& instance, int machines);

/// Solves the discretized LP exactly via min-cost max-flow.
/// Throws std::invalid_argument for empty instances or bad options.
[[nodiscard]] FlowtimeLpResult solve_flowtime_lp(const Instance& instance,
                                                 const FlowtimeLpOptions& options);

/// Number of per-job LP variables -- columns of build_flowtime_lp(), and at
/// least the class->slot arcs of solve_flowtime_lp() -- (saturating at
/// SIZE_MAX), computed from the grid without allocating any of them, so
/// callers can refuse an oversized LP up front.  Throws what both builders throw for a grid they cannot build.
[[nodiscard]] std::size_t flowtime_lp_num_vars(
    const Instance& instance, const FlowtimeLpOptions& options);

/// Number of grid slots -- slot nodes and slot->sink edges of
/// solve_flowtime_lp(), each with its dual beta_t -- computed without
/// allocating any of them.  Throws as flowtime_lp_num_vars() does.
[[nodiscard]] std::size_t flowtime_lp_num_slots(
    const Instance& instance, const FlowtimeLpOptions& options);

/// Builds the same LP, one demand row per job, as a dense LinearProgram
/// (variables x_{jt} in job-major order, only t >= r_j slots materialized)
/// for the simplex cross-check.  Only sensible for tiny instances.
[[nodiscard]] LinearProgram build_flowtime_lp(const Instance& instance,
                                              const FlowtimeLpOptions& options);

}  // namespace tempofair::lpsolve
