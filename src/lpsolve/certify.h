// Exact-rational certificate verification for the LP layer.
//
// The float simplex (simplex.h) and the min-cost-flow solver behind the
// flow-time LP both terminate on tolerances, so their "lower bounds" are
// only as trustworthy as their epsilons.  Following the dual-fitting
// literature (a dual-feasible solution is a machine-checkable certificate of
// a bound), this module re-derives the dual vector from the float solver's
// final basis and re-checks dual feasibility plus weak duality in *exact*
// 128-bit rational arithmetic:
//
//   * solve_lp_exact() replays the LP in exact arithmetic with Bland's rule,
//     warm-started from the float basis.  Each basis column is pivoted into
//     the first row that still holds a non-basis column and has a nonzero
//     entry in it (B^{-1} depends on the basis set, not on which row holds
//     which column), so every nonsingular float basis installs.  The full
//     two-phase solve is the fallback only for a malformed basis (an
//     out-of-range or repeated column) or one that is exactly singular or
//     exactly infeasible;
//   * the optimal exact basis yields duals y with y.b == c.x exactly, and an
//     independent pass re-verifies primal feasibility (A x {<=,>=,=} b,
//     x >= 0) and dual feasibility (c_j - y.A_j >= 0, row-sign constraints)
//     against a fresh conversion of the original data;
//   * the certified value is y.b rounded *down* to a double, so the number
//     callers consume is guaranteed <= the true LP optimum.
//
// Pivots and reduced-cost scans skip exact-zero tableau entries, which can
// neither change a value nor overflow.  Any 128-bit overflow poisons the
// computation and yields certified = false (never a wrong bound).  All statuses are exact: kInfeasible means the
// exact phase-1 optimum is nonzero, kUnbounded means an exact ray exists.
//
// This path is an oracle: experiment T8, lp_fuzz and the tests cross-check
// the MCMF dual certificate (flowtime_lp.h) against it.  opt_bounds and the
// adversary search certify through the MCMF path only.
#pragma once

#include <cstddef>
#include <vector>

#include "lpsolve/certified_bound.h"
#include "lpsolve/rational.h"
#include "lpsolve/simplex.h"

namespace tempofair::lpsolve {

struct CertifyOptions {
  /// Pivot budget for the exact solve.  Bland's rule terminates finitely;
  /// this caps pathological inputs.
  std::size_t max_pivots = 20'000;
};

struct CertifyResult {
  SolveStatus exact_status = SolveStatus::kIterLimit;
  /// Certified LP optimum (kOptimal only): bound.value <= exact optimum.
  CertifiedBound bound;
  /// The exact optimal objective (invalid unless kOptimal).
  Rational exact_objective;
  /// Exact duals per original row, rounded to nearest double (kOptimal only).
  std::vector<double> duals;
  bool warm_start_used = false;  ///< float basis reproduced without fallback
  bool overflow = false;         ///< 128-bit arithmetic overflowed
  std::size_t pivots = 0;        ///< exact simplex pivots (not the install)
};

/// Solves `lp` in exact rational arithmetic.  When `warm` carries an optimal
/// float solution, its final basis seeds the exact solve.  Throws
/// std::invalid_argument on dimension mismatches.  Timed as obs span
/// "lpsolve.exact"; counts "lpcert.warm_start" or "lpcert.cold_solve" (did
/// the solve reuse the float basis) and adds `pivots` to
/// "lpcert.exact_pivots".
[[nodiscard]] CertifyResult solve_lp_exact(const LinearProgram& lp,
                                           const LpSolution* warm = nullptr,
                                           const CertifyOptions& options = {});

/// The certificate pass: takes the float solve's final basis, re-derives the
/// dual vector and re-checks dual feasibility plus weak duality exactly.
/// Returns an uncertified bound when `solution` is not optimal, the exact
/// replay disagrees, or the arithmetic overflows.
[[nodiscard]] CertifiedBound verify_certificate(const LinearProgram& lp,
                                                const LpSolution& solution,
                                                const CertifyOptions& options = {});

}  // namespace tempofair::lpsolve
