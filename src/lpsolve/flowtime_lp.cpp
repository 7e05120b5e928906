#include "lpsolve/flowtime_lp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "lpsolve/mincost_flow.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"

namespace tempofair::lpsolve {

namespace {

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

Grid make_grid(const Instance& instance, const FlowtimeLpOptions& options) {
  if (instance.empty()) {
    throw std::invalid_argument("flowtime_lp: empty instance");
  }
  if (!(options.slot > 0.0)) {
    throw std::invalid_argument("flowtime_lp: slot width must be > 0");
  }
  if (!(options.k >= 1.0)) {
    throw std::invalid_argument("flowtime_lp: k must be >= 1");
  }
  if (options.machines < 1) {
    throw std::invalid_argument("flowtime_lp: machines must be >= 1");
  }
  Grid g;
  g.t0 = instance.min_release();
  g.slot = options.slot;
  // Any left-compacted LP solution finishes by the horizon bound (capacity m
  // per unit time at speed 1); add one slot of padding.
  const double horizon =
      instance.horizon_bound(options.machines, 1.0) - g.t0;
  g.slots = static_cast<std::size_t>(std::ceil(horizon / g.slot)) + 1;
  if (options.max_slots > 0) g.slots = std::min(g.slots, options.max_slots);
  if (g.slots == 0) throw std::invalid_argument("flowtime_lp: zero slots");
  return g;
}

/// Cost per unit of processing of job j in slot s (evaluated at slot start).
double unit_cost(const Job& j, const Grid& g, std::size_t s, double k) {
  const double t = std::max(g.slot_start(s) - j.release, 0.0);
  return (std::pow(t, k) + std::pow(j.size, k)) / j.size;
}

[[nodiscard]] bool lp_included(const Job& j) {
  return j.size >= kMinLpJobSize;
}

/// Dyadic grid for quantized duals: multiples of 2^-24 keep every
/// denominator a power of two small enough that the exact dual objective
/// stays far from 128-bit overflow.
constexpr unsigned kDualGridBits = 24;

/// Repairs the min-cost-flow potentials into an exactly-feasible dual of the
/// transportation LP
///
///   max  sum_j p_j alpha_j - sum_t cap beta_t
///   s.t. alpha_j - beta_t <= c_jt   for every materialized (j, t) edge,
///        alpha, beta >= 0,
///
/// and evaluates its objective in exact rational arithmetic.  beta comes
/// from the potentials (zeroed on unsaturated slots per complementary
/// slackness, then quantized to the dyadic grid); alpha_j is then set to the
/// *exact* best response max(0, floor_grid(min_t (c_jt + beta_t))), which is
/// feasible by construction.  An independent exact pass re-checks every dual
/// constraint before the objective is trusted.  Weak duality then makes the
/// returned value a machine-checked lower bound on the LP optimum.  Any
/// overflow poisons the result and yields certified = false.  `costs` holds
/// c_jt for every job->slot edge in build order (job-major, slots
/// ascending): the very doubles MCMF solved with, which each pass converts
/// to Rational on its own.
CertifiedBound certify_flowtime_dual(
    const std::vector<const Job*>& included, const Grid& g,
    const FlowtimeLpOptions& options, const std::vector<double>& costs,
    const MinCostFlow& mcf, std::size_t slot_node0, std::size_t sink_node,
    const std::vector<std::size_t>& slot_edge_handles) {
  const obs::ScopedTimer timer("lpsolve.certify");
  const double slot_cap = g.slot * options.machines;
  const std::vector<double>& phi = mcf.potentials();

  // beta_t from the potentials.  Unsaturated slots get beta_t = 0
  // (complementary slackness says the optimal dual does, and zeroing can
  // only help the alpha best response); any nonnegative beta is feasible.
  std::vector<Rational> beta(g.slots);
  bool ok = true;
  for (std::size_t s = 0; s < g.slots; ++s) {
    double b = 0.0;
    if (mcf.flow_on(slot_edge_handles[s]) >= slot_cap - kFlowEps) {
      b = std::max(0.0, phi[sink_node] - phi[slot_node0 + s]);
    }
    beta[s] = Rational::from_double(b).floor_to_dyadic(kDualGridBits);
    if (beta[s].is_negative()) beta[s] = Rational();
    if (!beta[s].valid()) ok = false;
  }

  // alpha_j = max(0, floor_grid(min_t (c_jt + beta_t))), computed exactly.
  std::vector<Rational> alpha(included.size());
  std::size_t arc = 0;  // index into `costs`
  for (std::size_t ji = 0; ji < included.size() && ok; ++ji) {
    const std::size_t first = g.first_slot_for(included[ji]->release);
    Rational best = Rational::invalid();
    for (std::size_t s = first; s < g.slots; ++s) {
      const Rational cand = Rational::from_double(costs[arc++]) + beta[s];
      if (!cand.valid()) {
        ok = false;
        break;
      }
      if (!best.valid() || cand < best) best = cand;
    }
    if (!ok || !best.valid()) {
      ok = false;
      break;
    }
    alpha[ji] = best.floor_to_dyadic(kDualGridBits);
    if (alpha[ji].is_negative()) alpha[ji] = Rational();
    if (!alpha[ji].valid()) ok = false;
  }

  // Independent exact feasibility re-check of every dual constraint, so the
  // certificate does not depend on the construction above being right.
  arc = 0;
  for (std::size_t ji = 0; ji < included.size() && ok; ++ji) {
    const std::size_t first = g.first_slot_for(included[ji]->release);
    for (std::size_t s = first; s < g.slots; ++s) {
      const Rational c = Rational::from_double(costs[arc++]);
      if (!(alpha[ji] - beta[s] <= c)) {  // fails closed on invalid
        ok = false;
        break;
      }
    }
  }

  CertifiedBound cert;
  if (ok) {
    Rational dual_obj;
    for (std::size_t ji = 0; ji < included.size(); ++ji) {
      dual_obj += Rational::from_double(included[ji]->size) * alpha[ji];
    }
    const Rational cap = Rational::from_double(slot_cap);
    for (std::size_t s = 0; s < g.slots; ++s) {
      if (!beta[s].is_zero()) dual_obj -= cap * beta[s];
    }
    if (dual_obj.valid()) {
      // The LP objective is nonnegative, so 0 is always a certified bound.
      cert.value = std::max(0.0, dual_obj.lower_double());
      cert.certified = true;
    }
  }
  obs::add(cert.certified ? "lpcert.flow.certified" : "lpcert.flow.uncertified",
           1);
  return cert;
}

}  // namespace

FlowtimeLpResult solve_flowtime_lp(const Instance& instance,
                                   const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);
  const std::size_t n = instance.n();

  std::vector<const Job*> included;
  included.reserve(n);
  double included_work = 0.0;
  for (const Job& j : instance.jobs()) {
    if (lp_included(j)) {
      included.push_back(&j);
      included_work += j.size;
    }
  }

  // Check the (possibly capped) grid has enough capacity for the work we
  // actually route.
  const double capacity =
      static_cast<double>(g.slots) * g.slot * options.machines;
  if (capacity < included_work - 1e-6) {
    throw std::invalid_argument(
        "flowtime_lp: max_slots leaves insufficient capacity for the work");
  }

  // Nodes: source | jobs (1..n) | slots (n+1 .. n+slots) | sink.
  const std::size_t kSource = 0;
  const std::size_t kJob0 = 1;
  const std::size_t kSlot0 = kJob0 + n;
  const std::size_t kSink = kSlot0 + g.slots;
  MinCostFlow mcf(kSink + 1);

  const double slot_cap = g.slot * options.machines;
  std::vector<std::size_t> slot_edge(g.slots);
  for (std::size_t s = 0; s < g.slots; ++s) {
    slot_edge[s] = mcf.add_edge(kSlot0 + s, kSink, slot_cap, 0.0);
  }
  std::size_t edges = g.slots;
  // Job->slot unit costs in build order (job-major, slots ascending), which
  // the certificate pass walks in the same order.
  std::vector<double> costs;
  for (const Job* jp : included) {
    const Job& j = *jp;
    mcf.add_edge(kSource, kJob0 + j.id, j.size, 0.0);
    ++edges;
    const std::size_t first = g.first_slot_for(j.release);
    for (std::size_t s = first; s < g.slots; ++s) {
      // The slot->sink edge already caps how much any slot absorbs (the LP of
      // the paper lets a job run on several machines simultaneously), so the
      // job->slot arcs get a deliberately never-binding capacity.  This is
      // not cosmetic: a saturated arc may carry negative reduced cost in the
      // final potentials, which would break the transportation-dual reading
      // (alpha_j - beta_t <= c_jt, tight on flow-carrying arcs) that
      // certify_flowtime_dual builds the exact certificate from.
      costs.push_back(unit_cost(j, g, s, options.k));
      mcf.add_edge(kJob0 + j.id, kSlot0 + s, included_work + 1.0,
                   costs.back());
      ++edges;
    }
  }

  const MinCostFlow::Result r = mcf.solve(kSource, kSink, included_work);
  if (r.flow < included_work - 1e-6) {
    throw std::runtime_error("flowtime_lp: could not route all work (internal)");
  }

  FlowtimeLpResult out;
  out.lp_value = r.cost;
  out.opt_power_lb = r.cost / 2.0;
  out.slots = g.slots;
  out.edges = edges;
  out.skipped_jobs = n - included.size();
  out.certificate = certify_flowtime_dual(included, g, options, costs, mcf,
                                          kSlot0, kSink, slot_edge);
  return out;
}

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
    for (std::size_t s = first_slot[j]; s < g.slots; ++s) {
      lp.objective[var_base[j] + (s - first_slot[j])] =
          unit_cost(job, g, s, options.k);
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
