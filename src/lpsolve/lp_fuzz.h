// Differential fuzzing of the LP stack.
//
// Generates seeded random small LPs with dyadic coefficients and runs every
// solver we have against each other:
//
//   * the float two-phase simplex (simplex.h),
//   * the exact-rational solver (certify.h), warm-started from the float
//     basis so the warm-start path is exercised too,
//   * and, on scheduling-shaped cases, the min-cost-flow transportation
//     solver against the dense simplex on build_flowtime_lp(), with the
//     flow-side dual certificate rechecked exactly.
//
// Any status disagreement, objective mismatch beyond float tolerance, or
// certificate that claims a value above the exact optimum is recorded as a
// disagreement; CI runs >= 1000 cases and requires zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tempofair::lpsolve {

struct LpFuzzOptions {
  std::uint64_t seed = 20260806;
  std::size_t count = 1000;       ///< random dense LPs
  std::size_t max_vars = 6;
  std::size_t max_rows = 6;
  /// Every `flow_every`-th case additionally fuzzes the flow-time LP pair
  /// (MCMF vs dense simplex vs exact certificate); 0 disables.
  std::size_t flow_every = 8;
};

struct LpFuzzDisagreement {
  std::size_t case_index = 0;
  std::string what;
};

struct LpFuzzReport {
  std::uint64_t seed = 0;
  std::size_t count = 0;          ///< dense LP cases run
  std::size_t optimal = 0;        ///< float simplex optimal
  std::size_t infeasible = 0;
  std::size_t unbounded = 0;
  std::size_t iter_limit = 0;     ///< either side gave up (not a failure)
  std::size_t certified = 0;      ///< exact certificates issued
  std::size_t warm_starts = 0;    ///< exact solves that reused the float basis
  std::size_t flow_cases = 0;     ///< flow-time differential cases run
  /// Flow cases whose instance repeated a (release, size) pair, so the MCMF
  /// graph merged jobs into one class node and the dense per-job LP did not.
  std::size_t flow_merged_cases = 0;
  std::vector<LpFuzzDisagreement> disagreements;

  [[nodiscard]] bool ok() const noexcept { return disagreements.empty(); }
};

/// Runs the differential fuzz; deterministic for a fixed options struct.
[[nodiscard]] LpFuzzReport run_lp_fuzz(const LpFuzzOptions& options);

}  // namespace tempofair::lpsolve
