#include "lpsolve/certify.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/obs.h"

namespace tempofair::lpsolve {

namespace {

/// Exact dense tableau over [structural | slack | artificial] columns.
struct ExactTableau {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::vector<Rational>> a;  // rows x cols
  std::vector<Rational> b;
  std::vector<std::size_t> basis;
  bool overflow = false;

  // Entries where the pivot row holds an exact 0 are skipped: an operation
  // on an exact 0 can neither change a value nor overflow.
  void pivot(std::size_t r, std::size_t c) {
    const Rational p = a[r][c];
    for (std::size_t j = 0; j < cols; ++j) {
      if (a[r][j].is_zero()) continue;
      a[r][j] = a[r][j] / p;
      if (!a[r][j].valid()) overflow = true;
    }
    b[r] = b[r] / p;
    if (!b[r].valid()) overflow = true;
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == r) continue;
      const Rational f = a[i][c];
      if (f.is_zero()) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        if (a[r][j].is_zero()) continue;
        a[i][j] = a[i][j] - f * a[r][j];
        if (!a[i][j].valid()) overflow = true;
      }
      b[i] = b[i] - f * b[r];
      if (!b[i].valid()) overflow = true;
    }
    basis[r] = c;
  }

  [[nodiscard]] Rational objective(const std::vector<Rational>& c) const {
    Rational obj;
    for (std::size_t i = 0; i < rows; ++i) obj += c[basis[i]] * b[i];
    return obj;
  }
};

/// Bland's rule in exact arithmetic: lowest-index entering column with a
/// strictly negative reduced cost, minimum-ratio leaving row with
/// lowest-basis-index tie break.  Cannot cycle; the pivot cap only guards
/// pathological sizes.
SolveStatus run_exact_simplex(ExactTableau& t, const std::vector<Rational>& c,
                              const std::vector<bool>& allowed,
                              std::size_t max_pivots, std::size_t& pivots) {
  std::vector<Rational> y(t.rows);
  while (true) {
    if (t.overflow) return SolveStatus::kIterLimit;
    // Reduced cost z_j = c_j - sum_i c_basis[i] * a[i][j]; scan columns in
    // index order and take the first negative one (Bland).
    std::size_t enter = t.cols;
    for (std::size_t j = 0; j < t.cols && enter == t.cols; ++j) {
      if (!allowed[j]) continue;
      Rational z = c[j];
      for (std::size_t i = 0; i < t.rows; ++i) {
        if (!c[t.basis[i]].is_zero() && !t.a[i][j].is_zero()) {
          z -= c[t.basis[i]] * t.a[i][j];
        }
      }
      if (!z.valid()) {
        t.overflow = true;
        return SolveStatus::kIterLimit;
      }
      if (z.is_negative()) enter = j;
    }
    if (enter == t.cols) return SolveStatus::kOptimal;

    std::size_t leave = t.rows;
    Rational best_ratio;
    for (std::size_t i = 0; i < t.rows; ++i) {
      if (!t.a[i][enter].is_positive()) continue;
      const Rational ratio = t.b[i] / t.a[i][enter];
      if (!ratio.valid()) {
        t.overflow = true;
        return SolveStatus::kIterLimit;
      }
      if (leave == t.rows || ratio < best_ratio ||
          (ratio == best_ratio && t.basis[i] < t.basis[leave])) {
        best_ratio = ratio;
        leave = i;
      }
    }
    if (leave == t.rows) return SolveStatus::kUnbounded;
    t.pivot(leave, enter);
    if (++pivots > max_pivots) return SolveStatus::kIterLimit;
  }
}

struct ExactData {
  StandardForm sf;                          // double standard form (layout)
  std::vector<std::vector<Rational>> a;     // rows x (n + slacks), exact
  std::vector<Rational> b;
  std::vector<Rational> c;                  // phase-2 costs, length cols
  bool overflow = false;
};

ExactData build_exact(const LinearProgram& lp) {
  ExactData d;
  d.sf = standardize(lp);
  d.a.assign(d.sf.rows, std::vector<Rational>(d.sf.n + d.sf.slacks));
  d.b.assign(d.sf.rows, Rational());
  d.c.assign(d.sf.cols, Rational());
  for (std::size_t i = 0; i < d.sf.rows; ++i) {
    for (std::size_t j = 0; j < d.sf.n + d.sf.slacks; ++j) {
      d.a[i][j] = Rational::from_double(d.sf.a[i][j]);
      if (!d.a[i][j].valid()) d.overflow = true;
    }
    d.b[i] = Rational::from_double(d.sf.b[i]);
    if (!d.b[i].valid()) d.overflow = true;
  }
  for (std::size_t j = 0; j < d.sf.n; ++j) {
    d.c[j] = Rational::from_double(lp.objective[j]);
    if (!d.c[j].valid()) d.overflow = true;
  }
  return d;
}

ExactTableau fresh_tableau(const ExactData& d) {
  ExactTableau t;
  t.rows = d.sf.rows;
  t.cols = d.sf.cols;
  t.a.assign(t.rows, std::vector<Rational>(t.cols));
  t.b = d.b;
  t.basis.assign(t.rows, 0);
  for (std::size_t i = 0; i < t.rows; ++i) {
    for (std::size_t j = 0; j < d.sf.n + d.sf.slacks; ++j) t.a[i][j] = d.a[i][j];
    t.a[i][d.sf.artificial(i)] = Rational::from_int(1);
    t.basis[i] = d.sf.artificial(i);
  }
  return t;
}

/// Replays the float basis on a fresh exact tableau.  Each basis column is
/// pivoted into the first row that still holds a non-target column and has a
/// nonzero entry in it: B^{-1} depends on the basis set, not on which row
/// holds which column.  Returns false on a malformed basis (out-of-range or
/// duplicate column) or when it turns out exactly singular or exactly
/// primal-infeasible; the caller then falls back to the full two-phase
/// exact solve.
bool warm_start(ExactTableau& t, const std::vector<std::size_t>& target) {
  if (target.size() != t.rows) return false;
  std::vector<bool> in_target(t.cols, false);
  for (const std::size_t col : target) {
    if (col >= t.cols || in_target[col]) return false;
    in_target[col] = true;
  }
  for (const std::size_t col : target) {
    if (std::find(t.basis.begin(), t.basis.end(), col) != t.basis.end()) {
      continue;  // already basic (an artificial the float basis kept)
    }
    std::size_t row = 0;
    while (row < t.rows &&
           (in_target[t.basis[row]] || t.a[row][col].is_zero())) {
      ++row;
    }
    if (row == t.rows) return false;  // exactly singular
    t.pivot(row, col);
    if (t.overflow) return false;
  }
  for (const Rational& bi : t.b) {
    if (bi.is_negative()) return false;  // exactly primal-infeasible basis
  }
  return true;
}

/// Runs the exact two-phase simplex from scratch.  Returns the terminal
/// status with the tableau at the phase-2 optimum when kOptimal.
SolveStatus full_exact_solve(const ExactData& d, ExactTableau& t,
                             std::size_t max_pivots, std::size_t& pivots) {
  t = fresh_tableau(d);
  std::vector<Rational> c1(d.sf.cols);
  for (std::size_t i = 0; i < d.sf.rows; ++i) {
    c1[d.sf.artificial(i)] = Rational::from_int(1);
  }
  std::vector<bool> allowed(d.sf.cols, true);
  SolveStatus st = run_exact_simplex(t, c1, allowed, max_pivots, pivots);
  if (st == SolveStatus::kUnbounded) return SolveStatus::kIterLimit;  // impossible
  if (st != SolveStatus::kOptimal) return st;
  const Rational phase1 = t.objective(c1);
  if (!phase1.valid()) return SolveStatus::kIterLimit;
  if (phase1.is_positive()) return SolveStatus::kInfeasible;
  // Drive artificials stuck at zero out of the basis where possible;
  // leftover rows are exactly redundant and harmless.
  for (std::size_t i = 0; i < d.sf.rows; ++i) {
    if (t.basis[i] >= d.sf.n + d.sf.slacks) {
      for (std::size_t j = 0; j < d.sf.n + d.sf.slacks; ++j) {
        if (!t.a[i][j].is_zero()) {
          t.pivot(i, j);
          break;
        }
      }
    }
  }
  std::vector<bool> allowed2(d.sf.cols, true);
  for (std::size_t j = d.sf.n + d.sf.slacks; j < d.sf.cols; ++j) {
    allowed2[j] = false;
  }
  return run_exact_simplex(t, d.c, allowed2, max_pivots, pivots);
}

/// Independent verification against a *fresh* conversion of the original
/// data: primal feasibility of the basic solution, dual feasibility of y,
/// and weak duality (y.b == c.x at the optimal basis).  Guards the pivoting
/// machinery itself.
bool verify_optimal_pair(const ExactData& d, const ExactTableau& t,
                         const std::vector<Rational>& y,
                         const Rational& primal_obj, const Rational& dual_obj) {
  const std::size_t width = d.sf.n + d.sf.slacks;
  // Recover the full standard-form solution vector from the basis.
  std::vector<Rational> x(width);
  for (std::size_t i = 0; i < t.rows; ++i) {
    if (t.basis[i] < width) {
      x[t.basis[i]] = t.b[i];
    } else if (!t.b[i].is_zero()) {
      return false;  // artificial basic at a nonzero value
    }
  }
  for (const Rational& xi : x) {
    if (!xi.valid() || xi.is_negative()) return false;
  }
  // A x == b, row by row.
  for (std::size_t i = 0; i < t.rows; ++i) {
    Rational lhs;
    for (std::size_t j = 0; j < width; ++j) {
      if (!x[j].is_zero() && !d.a[i][j].is_zero()) lhs += d.a[i][j] * x[j];
    }
    if (!(lhs == d.b[i])) return false;
  }
  // Dual feasibility: c_j - y.A_j >= 0 over structural and slack columns
  // (slack columns encode the row-sign constraints on y).
  for (std::size_t j = 0; j < width; ++j) {
    Rational z = d.c[j];
    for (std::size_t i = 0; i < t.rows; ++i) {
      if (!y[i].is_zero() && !d.a[i][j].is_zero()) z -= y[i] * d.a[i][j];
    }
    if (!z.valid() || z.is_negative()) return false;
  }
  // Weak duality, tight at the optimal basis: y.b == c.x.
  return primal_obj.valid() && dual_obj.valid() && primal_obj == dual_obj;
}

CertifyResult exact_solve(const LinearProgram& lp, const LpSolution* warm,
                          const CertifyOptions& options) {
  CertifyResult out;
  out.exact_objective = Rational::invalid();
  const ExactData d = build_exact(lp);
  if (d.overflow) {
    out.overflow = true;
    return out;
  }

  ExactTableau t;
  bool have_basis = false;
  if (warm != nullptr && warm->status == SolveStatus::kOptimal &&
      warm->basis.size() == d.sf.rows) {
    t = fresh_tableau(d);
    if (warm_start(t, warm->basis)) {
      std::vector<bool> allowed(d.sf.cols, true);
      for (std::size_t j = d.sf.n + d.sf.slacks; j < d.sf.cols; ++j) {
        allowed[j] = false;
      }
      const SolveStatus st =
          run_exact_simplex(t, d.c, allowed, options.max_pivots, out.pivots);
      if (st == SolveStatus::kOptimal && !t.overflow) {
        // A warm-started run never ran exact phase 1; require every
        // artificial basic variable to sit exactly at zero, else fall back.
        bool clean = true;
        for (std::size_t i = 0; i < t.rows; ++i) {
          if (t.basis[i] >= d.sf.n + d.sf.slacks && !t.b[i].is_zero()) {
            clean = false;
          }
        }
        if (clean) {
          out.exact_status = SolveStatus::kOptimal;
          out.warm_start_used = true;
          have_basis = true;
        }
      } else if (st == SolveStatus::kUnbounded && !t.overflow) {
        out.exact_status = SolveStatus::kUnbounded;
        return out;
      }
    }
  }

  if (!have_basis) {
    out.warm_start_used = false;
    out.exact_status =
        full_exact_solve(d, t, options.max_pivots, out.pivots);
    if (t.overflow) {
      out.overflow = true;
      out.exact_status = SolveStatus::kIterLimit;
      return out;
    }
    if (out.exact_status != SolveStatus::kOptimal) return out;
  }

  // Duals from the final tableau: artificial column i holds B^{-1} e_i.
  std::vector<Rational> y(t.rows);
  for (std::size_t i = 0; i < t.rows; ++i) {
    Rational yi;
    for (std::size_t r = 0; r < t.rows; ++r) {
      if (!d.c[t.basis[r]].is_zero()) {
        yi += d.c[t.basis[r]] * t.a[r][d.sf.artificial(i)];
      }
    }
    y[i] = yi;
  }
  Rational dual_obj;
  for (std::size_t i = 0; i < t.rows; ++i) dual_obj += y[i] * d.b[i];
  const Rational primal_obj = t.objective(d.c);

  if (!verify_optimal_pair(d, t, y, primal_obj, dual_obj)) {
    out.overflow = t.overflow;
    out.exact_status = SolveStatus::kIterLimit;
    return out;
  }

  out.exact_objective = primal_obj;
  out.bound.value = dual_obj.lower_double();
  out.bound.certified = true;
  out.duals.resize(t.rows);
  for (std::size_t i = 0; i < t.rows; ++i) {
    // Un-apply the rhs sign normalization: dual of the original row.
    out.duals[i] = d.sf.row_sign[i] * y[i].to_double();
  }
  return out;
}

}  // namespace

CertifyResult solve_lp_exact(const LinearProgram& lp, const LpSolution* warm,
                             const CertifyOptions& options) {
  const obs::ScopedTimer timer("lpsolve.exact");
  CertifyResult out = exact_solve(lp, warm, options);
  obs::add(out.warm_start_used ? "lpcert.warm_start" : "lpcert.cold_solve", 1);
  obs::add("lpcert.exact_pivots", out.pivots);
  return out;
}

CertifiedBound verify_certificate(const LinearProgram& lp,
                                  const LpSolution& solution,
                                  const CertifyOptions& options) {
  if (solution.status != SolveStatus::kOptimal) {
    obs::add("lpcert.uncertified", 1);
    return CertifiedBound{};
  }
  const CertifyResult r = solve_lp_exact(lp, &solution, options);
  if (r.exact_status != SolveStatus::kOptimal || !r.bound.certified) {
    obs::add("lpcert.uncertified", 1);
    return CertifiedBound{solution.objective.value_or(0.0), false};
  }
  obs::add("lpcert.certified", 1);
  return r.bound;
}

}  // namespace tempofair::lpsolve
