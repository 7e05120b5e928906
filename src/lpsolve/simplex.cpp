#include "lpsolve/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace tempofair::lpsolve {

namespace {

constexpr double kTol = 1e-9;

/// Dense tableau in canonical form: rows of equalities over [structural |
/// slack | artificial] variables, all rhs >= 0, plus a basis.
struct Tableau {
  std::size_t rows = 0;
  std::size_t cols = 0;                 // total variables
  std::vector<std::vector<double>> a;   // rows x cols
  std::vector<double> b;                // rhs, >= 0 invariant
  std::vector<std::size_t> basis;       // basic variable per row

  void pivot(std::size_t r, std::size_t c) {
    const double p = a[r][c];
    for (std::size_t j = 0; j < cols; ++j) a[r][j] /= p;
    b[r] /= p;
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == r) continue;
      const double f = a[i][c];
      if (std::fabs(f) < kTol) continue;
      for (std::size_t j = 0; j < cols; ++j) a[i][j] -= f * a[r][j];
      b[i] -= f * b[r];
      if (b[i] < 0.0 && b[i] > -kTol) b[i] = 0.0;
    }
    basis[r] = c;
  }

  [[nodiscard]] double objective(const std::vector<double>& c) const {
    double obj = 0.0;
    for (std::size_t i = 0; i < rows; ++i) obj += c[basis[i]] * b[i];
    return obj;
  }
};

struct SimplexStats {
  std::size_t pivots = 0;
  std::size_t bland_switches = 0;
};

/// Runs the simplex on `t` minimizing cost vector `c` (restricted to
/// `allowed` columns).  Dantzig pricing by default; after `stall_limit`
/// consecutive pivots without objective progress (degeneracy / cycling) the
/// pricing switches to Bland's rule, which cannot cycle.  Returns status; on
/// optimal, reduced costs are clean.
SolveStatus run_simplex(Tableau& t, const std::vector<double>& c,
                        const std::vector<bool>& allowed, std::size_t max_iters,
                        SimplexStats& stats) {
  // Maintain reduced costs z_j = c_j - c_B . B^{-1} A_j implicitly by
  // recomputing from the tableau each pivot (fine at these sizes).
  std::vector<double> reduced(t.cols);
  const std::size_t stall_limit = 2 * (t.rows + t.cols) + 16;
  std::size_t stalled = 0;
  bool bland = false;
  double last_obj = t.objective(c);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // reduced_j = c_j - sum_i c_basis[i] * a[i][j]
    for (std::size_t j = 0; j < t.cols; ++j) {
      double z = c[j];
      for (std::size_t i = 0; i < t.rows; ++i) {
        const double cb = c[t.basis[i]];
        if (cb != 0.0) z -= cb * t.a[i][j];
      }
      reduced[j] = z;
    }

    // Entering column: Dantzig rule (single -kTol threshold, strict
    // improvement -- no per-candidate tolerance drift), or lowest eligible
    // index once Bland's rule is active.
    std::size_t enter = t.cols;
    double best = -kTol;
    for (std::size_t j = 0; j < t.cols; ++j) {
      if (!allowed[j]) continue;
      if (reduced[j] < best) {
        best = reduced[j];
        enter = j;
        if (bland) break;  // first eligible index wins
      }
    }
    if (enter == t.cols) return SolveStatus::kOptimal;

    // Leaving row: minimum ratio, Bland tie-break by basis index.
    std::size_t leave = t.rows;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < t.rows; ++i) {
      if (t.a[i][enter] > kTol) {
        const double ratio = t.b[i] / t.a[i][enter];
        if (ratio < best_ratio - kTol ||
            (ratio < best_ratio + kTol &&
             (leave == t.rows || t.basis[i] < t.basis[leave]))) {
          best_ratio = ratio;
          leave = i;
        }
      }
    }
    if (leave == t.rows) return SolveStatus::kUnbounded;
    t.pivot(leave, enter);
    ++stats.pivots;

    if (!bland) {
      const double obj = t.objective(c);
      if (obj >= last_obj - kTol * (1.0 + std::fabs(last_obj))) {
        if (++stalled > stall_limit) {
          bland = true;  // degenerate stall: guarantee termination
          ++stats.bland_switches;
        }
      } else {
        stalled = 0;
      }
      last_obj = obj;
    }
  }
  return SolveStatus::kIterLimit;
}

}  // namespace

StandardForm standardize(const LinearProgram& lp) {
  const std::size_t n = lp.num_vars();
  for (const auto& row : lp.rows) {
    if (row.coeffs.size() != n) {
      throw std::invalid_argument("solve_lp: row width != objective size");
    }
  }
  StandardForm sf;
  sf.n = n;
  sf.rows = lp.rows.size();
  for (const auto& row : lp.rows) {
    if (row.rel != LinearProgram::Rel::kEq) ++sf.slacks;
  }
  sf.cols = n + sf.slacks + sf.rows;
  sf.a.assign(sf.rows, std::vector<double>(n + sf.slacks, 0.0));
  sf.b.assign(sf.rows, 0.0);
  sf.row_sign.assign(sf.rows, 1.0);

  std::size_t slack_at = n;
  for (std::size_t i = 0; i < sf.rows; ++i) {
    const auto& row = lp.rows[i];
    const double sign = row.rhs < 0.0 ? -1.0 : 1.0;  // normalize rhs >= 0
    sf.row_sign[i] = sign;
    for (std::size_t j = 0; j < n; ++j) sf.a[i][j] = sign * row.coeffs[j];
    sf.b[i] = sign * row.rhs;
    LinearProgram::Rel rel = row.rel;
    if (sign < 0.0) {
      if (rel == LinearProgram::Rel::kLe) rel = LinearProgram::Rel::kGe;
      else if (rel == LinearProgram::Rel::kGe) rel = LinearProgram::Rel::kLe;
    }
    if (rel == LinearProgram::Rel::kLe) {
      sf.a[i][slack_at++] = 1.0;
    } else if (rel == LinearProgram::Rel::kGe) {
      sf.a[i][slack_at++] = -1.0;
    }
  }
  return sf;
}

LpSolution solve_lp(const LinearProgram& lp, std::size_t max_iters) {
  const obs::ScopedTimer timer("lpsolve.simplex");
  const StandardForm sf = standardize(lp);
  const std::size_t n = sf.n;
  const std::size_t m = sf.rows;

  Tableau t;
  t.rows = m;
  t.cols = sf.cols;
  t.a.assign(m, std::vector<double>(sf.cols, 0.0));
  t.b = sf.b;
  t.basis.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n + sf.slacks; ++j) t.a[i][j] = sf.a[i][j];
    // Artificial variable for this row; starts basic.
    t.a[i][sf.artificial(i)] = 1.0;
    t.basis[i] = sf.artificial(i);
  }

  SimplexStats stats;
  LpSolution sol;
  const auto finish = [&stats](LpSolution s) {
    obs::add("simplex.pivots", stats.pivots);
    if (stats.bland_switches > 0) {
      obs::add("simplex.bland_switches", stats.bland_switches);
    }
    obs::add("simplex.solves", 1);
    return s;
  };

  // Phase 1: minimize sum of artificials.
  std::vector<double> c1(sf.cols, 0.0);
  for (std::size_t i = 0; i < m; ++i) c1[sf.artificial(i)] = 1.0;
  std::vector<bool> allowed(sf.cols, true);
  SolveStatus st = run_simplex(t, c1, allowed, max_iters, stats);
  if (st != SolveStatus::kOptimal) {
    sol.status = st;
    return finish(sol);
  }
  double phase1 = 0.0;
  double bscale = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    bscale = std::max(bscale, sf.b[i]);
    if (t.basis[i] >= n + sf.slacks) phase1 += t.b[i];
  }
  // Feasibility cutoff on the same kTol the pivoting uses, scaled by the
  // rhs magnitude (a fixed absolute cutoff misclassifies scaled problems).
  if (phase1 > kTol * bscale * static_cast<double>(m + 1)) {
    sol.status = SolveStatus::kInfeasible;
    return finish(sol);
  }

  // Drive any artificial still basic (at value ~0) out of the basis if a
  // non-artificial column with a nonzero entry exists; otherwise the row is
  // redundant and harmless.
  for (std::size_t i = 0; i < m; ++i) {
    if (t.basis[i] >= n + sf.slacks) {
      for (std::size_t j = 0; j < n + sf.slacks; ++j) {
        if (std::fabs(t.a[i][j]) > kTol) {
          t.pivot(i, j);
          break;
        }
      }
    }
  }

  // Phase 2: original objective, artificials barred.
  std::vector<double> c2(sf.cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) c2[j] = lp.objective[j];
  for (std::size_t j = n + sf.slacks; j < sf.cols; ++j) allowed[j] = false;
  st = run_simplex(t, c2, allowed, max_iters, stats);
  if (st != SolveStatus::kOptimal) {
    sol.status = st;
    return finish(sol);
  }

  sol.status = SolveStatus::kOptimal;
  sol.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (t.basis[i] < n) sol.x[t.basis[i]] = t.b[i];
  }
  double obj = 0.0;
  for (std::size_t j = 0; j < n; ++j) obj += lp.objective[j] * sol.x[j];
  sol.objective = obj;
  sol.basis = t.basis;
  // Dual vector from the final tableau: the artificial columns carry B^{-1},
  // so y_std_i = c_B . B^{-1} e_i; un-apply the rhs sign normalization to
  // get the dual of the original row.
  sol.duals.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double y = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      const double cb = c2[t.basis[r]];
      if (cb != 0.0) y += cb * t.a[r][sf.artificial(i)];
    }
    sol.duals[i] = sf.row_sign[i] * y;
  }
  return finish(sol);
}

}  // namespace tempofair::lpsolve
