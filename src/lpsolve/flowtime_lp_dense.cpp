// build_flowtime_lp: the discretized Section 3.1 LP, one demand row per job,
// as a dense LinearProgram for the simplex cross-check (experiment T8,
// lp_fuzz, tests).  It shares the grid and unit costs of the min-cost-flow
// solve (flowtime_grid.h), so the two solvers see the same program.
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/pow_k.h"
#include "lpsolve/flowtime_grid.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/simplex.h"

namespace tempofair::lpsolve {

namespace {

using detail::Grid;
using detail::lp_included;
using detail::make_grid;
using detail::require_slot_for;
using detail::unit_cost;

}  // namespace

LinearProgram build_flowtime_lp(const Instance& instance,
                                const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);
  const std::size_t n = instance.n();

  // Variable layout: for each *included* job j (in id order), one variable
  // per slot s >= first_slot_for(r_j).  Tiny jobs are dropped exactly as in
  // solve_flowtime_lp so the two solvers stay comparable.
  std::vector<bool> incl(n, false);
  std::vector<std::size_t> var_base(n + 1, 0);
  std::vector<std::size_t> first_slot(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = instance.job(static_cast<JobId>(j));
    incl[j] = lp_included(job);
    if (incl[j]) require_slot_for(job, g);
    first_slot[j] = g.first_slot_for(job.release);
    var_base[j + 1] =
        var_base[j] + (incl[j] ? g.slots - first_slot[j] : 0);
  }
  const std::size_t num_vars = var_base[n];

  LinearProgram lp;
  lp.objective.assign(num_vars, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!incl[j]) continue;
    const Job& job = instance.job(static_cast<JobId>(j));
    const double size_pow = pow_k(job.size, options.k);
    for (std::size_t s = first_slot[j]; s < g.slots; ++s) {
      lp.objective[var_base[j] + (s - first_slot[j])] =
          unit_cost(job, g, s, options.k, size_pow);
    }
  }
  // sum_t x_{jt} >= p_j
  for (std::size_t j = 0; j < n; ++j) {
    if (!incl[j]) continue;
    LinearProgram::Row row;
    row.coeffs.assign(num_vars, 0.0);
    for (std::size_t s = first_slot[j]; s < g.slots; ++s) {
      row.coeffs[var_base[j] + (s - first_slot[j])] = 1.0;
    }
    row.rel = LinearProgram::Rel::kGe;
    row.rhs = instance.job(static_cast<JobId>(j)).size;
    lp.rows.push_back(std::move(row));
  }
  // sum_j x_{jt} <= m * slot
  for (std::size_t s = 0; s < g.slots; ++s) {
    LinearProgram::Row row;
    row.coeffs.assign(num_vars, 0.0);
    bool any = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (incl[j] && s >= first_slot[j]) {
        row.coeffs[var_base[j] + (s - first_slot[j])] = 1.0;
        any = true;
      }
    }
    if (!any) continue;
    row.rel = LinearProgram::Rel::kLe;
    row.rhs = g.slot * options.machines;
    lp.rows.push_back(std::move(row));
  }
  return lp;
}

}  // namespace tempofair::lpsolve
