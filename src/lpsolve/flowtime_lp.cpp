// The discretized Section 3.1 LP: slot grid, the grouping of identical jobs
// into classes, the min-cost-flow solve and its exact dual certificate
// (certify_flowtime_dual).  The dense per-job builder for the simplex
// cross-check lives in flowtime_lp_dense.cpp, on the same grid helpers
// (flowtime_grid.h).  The certificate decides most dual constraints in
// doubles, inside a stated range where that is exact, and the rest in
// Rational; its result has the same bits as checking every constraint in
// Rational.
#include "lpsolve/flowtime_lp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pow_k.h"
#include "lpsolve/flowtime_grid.h"
#include "lpsolve/mincost_flow.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"

namespace tempofair::lpsolve {

namespace detail {

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
  const double slots = std::ceil(horizon / g.slot);
  if (!(slots < 0x1p53)) {  // also rejects NaN
    throw std::invalid_argument(
        "flowtime_lp: slot count is not finite or >= 2^53");
  }
  g.slots = static_cast<std::size_t>(slots) + 1;
  if (options.max_slots > 0) g.slots = std::min(g.slots, options.max_slots);
  if (g.slots == 0) throw std::invalid_argument("flowtime_lp: zero slots");
  return g;
}

void require_slot_for(const Job& j, const Grid& g) {
  if (g.first_slot_for(j.release) >= g.slots) {
    throw std::invalid_argument(
        "flowtime_lp: job " + std::to_string(j.id) +
        " is released after the last of the " + std::to_string(g.slots) +
        " slots (max_slots too small)");
  }
}

}  // namespace detail

namespace {

using detail::Grid;
using detail::lp_included;
using detail::make_grid;
using detail::require_slot_for;
using detail::unit_cost;


/// The included jobs grouped into classes of bitwise-equal (release, size).
/// Members of a class have identical cost rows, so the LP keeps one demand
/// row per class with the members' summed size (see flowtime_lp.h).
/// Classes are numbered in order of their lowest member's job id.
struct JobClasses {
  std::vector<const Job*> leader;  ///< per class: its lowest-id member
  std::vector<double> supply;      ///< per class: members' sizes, id order
  std::vector<std::size_t> of;     ///< per included job: its class
};

/// One index sort by (release bits, size bits, index): each run of equal
/// keys is a class, and its first index is the class's lowest member.
JobClasses group_identical_jobs(const std::vector<const Job*>& included) {
  const std::size_t n = included.size();
  const auto key = [&](std::size_t i) {
    return std::pair{std::bit_cast<std::uint64_t>(included[i]->release),
                     std::bit_cast<std::uint64_t>(included[i]->size)};
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto ka = key(a);
    const auto kb = key(b);
    return ka < kb || (ka == kb && a < b);
  });
  std::vector<std::size_t> first_member(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = order[i];
    const bool same = i > 0 && key(order[i - 1]) == key(j);
    first_member[j] = same ? first_member[order[i - 1]] : j;
  }
  JobClasses classes;
  classes.of.resize(n);
  classes.leader.reserve(n);
  classes.supply.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (first_member[j] == j) {
      classes.of[j] = classes.leader.size();
      classes.leader.push_back(included[j]);
      classes.supply.push_back(0.0);
    } else {
      classes.of[j] = classes.of[first_member[j]];  // first_member[j] < j
    }
    classes.supply[classes.of[j]] += included[j]->size;
  }
  return classes;
}

/// Dyadic grid for quantized duals: multiples of 2^-24 keep every
/// denominator a power of two small enough that the exact dual objective
/// stays far from 128-bit overflow.
constexpr unsigned kDualGridBits = 24;

/// The range in which the certificate's Rational arithmetic provably stays
/// exact, so that doubles may decide for it.  A cost c in {0} u [2^-30, 2^44)
/// is a double whose denominator is at most 2^(30+52); beta is a multiple of
/// 2^-24 below 2^44.  operator+ puts c + beta over the larger denominator
/// D <= 2^82, and its products c*D, beta*D and (c + beta)*D stay below
/// 2^45 * 2^82 = 2^127: every c + beta is valid, and operator< (cross
/// products, else the difference over D) compares any two of them exactly.
/// In the re-check with 0 <= alpha, beta < 2^28, alpha - beta has
/// denominator <= 2^24 and (|alpha - beta| + c) * D < 2^127, so Rational
/// decides `alpha - beta <= c` exactly -- and so do doubles, since the
/// difference of two multiples of 2^-24 below 2^28 is a double.
constexpr double kExactCostMin = 0x1p-30;
constexpr double kExactMax = 0x1p44;
constexpr double kExactDiffMax = 0x1p28;

[[nodiscard]] bool in_exact_range(double cost) {
  return cost == 0.0 || (cost >= kExactCostMin && cost < kExactMax);
}

/// x as a double when the conversion round-trips exactly, else +inf, which
/// fails every range test above.
[[nodiscard]] double exact_double(const Rational& x) {
  const double d = x.to_double();
  return Rational::from_double(d) == x
             ? d
             : std::numeric_limits<double>::infinity();
}

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
/// feasible by construction.  Members of a job class share one cost row, so
/// the best response and the re-check run once per class and every member
/// takes the class's alpha; the objective sums Rational(p_j) * alpha over
/// the member jobs, never the rounded double class supply.  An independent
/// pass re-checks every dual constraint before the objective is trusted.
/// Weak duality then makes the returned value a machine-checked lower bound
/// on the per-job LP optimum.  Any overflow poisons the result and yields
/// certified = false.  `costs` holds c_jt for every class->slot edge in
/// build order (class-major, slots ascending): the very doubles MCMF solved
/// with.
///
/// Doubles only choose which arcs need Rational; every value that enters
/// alpha, beta or the objective is exact, and the result has the same bits
/// as evaluating every arc in Rational:
///  * best response: fl(c + beta) is correctly rounded, hence monotone, so
///    every arc holding the exact minimum has the class's smallest double sum
///    m, and only arcs with sum <= m need the exact minimum.  The filter
///    applies to a class only when all its arcs are in the exact range,
///    where an all-Rational scan has valid sums and exact comparisons, so
///    skipping arcs cannot change its minimum; otherwise every arc of the
///    class goes through Rational in order, overflows included;
///  * re-check: an arc in the exact range with alpha, beta_t < 2^28 is
///    decided by `alpha - beta <= c` in doubles, any other arc in Rational.
/// Counts "lpcert.flow.arcs" (arcs visited by both passes) and
/// "lpcert.flow.exact_arcs" (the ones evaluated in Rational).
CertifiedBound certify_flowtime_dual(
    const std::vector<const Job*>& included, const JobClasses& classes,
    const Grid& g, const FlowtimeLpOptions& options,
    const std::vector<double>& costs,
    const MinCostFlow& mcf, std::size_t slot_node0, std::size_t sink_node,
    const std::vector<std::size_t>& slot_edge_handles) {
  const obs::ScopedTimer timer("lpsolve.certify");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double slot_cap = g.slot * options.machines;
  const std::vector<double>& phi = mcf.potentials();

  // beta_t from the potentials.  Unsaturated slots get beta_t = 0
  // (complementary slackness says the optimal dual does, and zeroing can
  // only help the alpha best response); any nonnegative beta is feasible.
  std::vector<Rational> beta(g.slots);
  std::vector<double> beta_d(g.slots);
  bool ok = true;
  for (std::size_t s = 0; s < g.slots; ++s) {
    double b = 0.0;
    if (mcf.flow_on(slot_edge_handles[s]) >= slot_cap - kFlowEps) {
      b = std::max(0.0, phi[sink_node] - phi[slot_node0 + s]);
    }
    beta[s] = Rational::from_double(b).floor_to_dyadic(kDualGridBits);
    if (beta[s].is_negative()) beta[s] = Rational();
    if (!beta[s].valid()) ok = false;
    beta_d[s] = exact_double(beta[s]);
  }

  std::size_t arcs = 0;
  std::size_t exact_arcs = 0;

  // alpha = max(0, floor_grid(min_t (c_t + beta_t))) per class, computed
  // exactly.
  const std::size_t num_classes = classes.leader.size();
  std::vector<Rational> alpha(num_classes);
  std::vector<double> alpha_d(num_classes);
  std::size_t class_arc0 = 0;  // index into `costs` of the class's first arc
  for (std::size_t ci = 0; ci < num_classes && ok; ++ci) {
    const std::size_t first = g.first_slot_for(classes.leader[ci]->release);
    const std::size_t class_arcs = g.slots - first;
    const double* c = costs.data() + class_arc0;
    // The class's smallest double sum m, or +inf (no arc skipped) when some
    // arc is outside the exact range.
    double keep_up_to = kInf;
    for (std::size_t i = 0; i < class_arcs; ++i) {
      if (!in_exact_range(c[i]) || !(beta_d[first + i] < kExactMax)) {
        keep_up_to = kInf;
        break;
      }
      keep_up_to = std::min(keep_up_to, c[i] + beta_d[first + i]);
    }
    Rational best = Rational::invalid();
    for (std::size_t i = 0; i < class_arcs; ++i) {
      ++arcs;
      if (c[i] + beta_d[first + i] > keep_up_to) continue;
      ++exact_arcs;
      const Rational cand = Rational::from_double(c[i]) + beta[first + i];
      if (!cand.valid()) {
        ok = false;
        break;
      }
      if (!best.valid() || cand < best) best = cand;
    }
    class_arc0 += class_arcs;
    if (!ok || !best.valid()) {
      ok = false;
      break;
    }
    alpha[ci] = best.floor_to_dyadic(kDualGridBits);
    if (alpha[ci].is_negative()) alpha[ci] = Rational();
    if (!alpha[ci].valid()) ok = false;
    alpha_d[ci] = exact_double(alpha[ci]);
  }

  // Independent feasibility re-check of every dual constraint, so the
  // certificate does not depend on the construction above being right.
  std::size_t arc = 0;  // index into `costs`
  for (std::size_t ci = 0; ci < num_classes && ok; ++ci) {
    const std::size_t first = g.first_slot_for(classes.leader[ci]->release);
    for (std::size_t s = first; s < g.slots; ++s) {
      const double c = costs[arc++];
      ++arcs;
      bool feasible = false;
      if (alpha_d[ci] < kExactDiffMax && beta_d[s] < kExactDiffMax &&
          in_exact_range(c)) {
        feasible = alpha_d[ci] - beta_d[s] <= c;
      } else {
        ++exact_arcs;
        feasible = alpha[ci] - beta[s] <= Rational::from_double(c);
      }
      if (!feasible) {  // the Rational test fails closed on invalid
        ok = false;
        break;
      }
    }
  }
  obs::add("lpcert.flow.arcs", arcs);
  obs::add("lpcert.flow.exact_arcs", exact_arcs);

  CertifiedBound cert;
  if (ok) {
    Rational dual_obj;
    for (std::size_t ji = 0; ji < included.size(); ++ji) {
      dual_obj +=
          Rational::from_double(included[ji]->size) * alpha[classes.of[ji]];
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

double auto_lp_slot(const Instance& instance, int machines) {
  // The grid dominates the MCMF cost (roughly slots x jobs edges and
  // slots + jobs augmentations); a coarser grid only loosens the lower
  // bound, never invalidates it.
  double slot = std::min(1.0, instance.min_size());
  const double horizon =
      instance.horizon_bound(machines, 1.0) - instance.min_release();
  const double min_slot = horizon / static_cast<double>(kAutoLpSlots);
  // A denormal/zero min size (or a degenerate horizon) must not reach the
  // LP as slot = 0: the negated comparison also catches NaN.
  if (!(slot >= min_slot)) slot = min_slot;
  if (!(slot > 0.0) || !std::isfinite(slot)) slot = 1.0;
  return slot;
}

FlowtimeLpResult solve_flowtime_lp(const Instance& instance,
                                   const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);
  const std::size_t n = instance.n();

  std::vector<const Job*> included;
  included.reserve(n);
  double included_work = 0.0;
  for (const Job& j : instance.jobs()) {
    if (lp_included(j)) {
      require_slot_for(j, g);
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

  const JobClasses classes = group_identical_jobs(included);
  const std::size_t num_classes = classes.leader.size();

  std::size_t class_arcs = 0;
  for (const Job* leader : classes.leader) {
    class_arcs += g.slots - g.first_slot_for(leader->release);
  }

  // Nodes: source | classes (1..C) | slots (C+1 .. C+slots) | sink.
  const std::size_t kSource = 0;
  const std::size_t kClass0 = 1;
  const std::size_t kSlot0 = kClass0 + num_classes;
  const std::size_t kSink = kSlot0 + g.slots;
  MinCostFlow mcf(kSink + 1, g.slots + num_classes + class_arcs);

  const double slot_cap = g.slot * options.machines;
  std::vector<std::size_t> slot_edge(g.slots);
  for (std::size_t s = 0; s < g.slots; ++s) {
    slot_edge[s] = mcf.add_edge(kSlot0 + s, kSink, slot_cap, 0.0);
  }
  std::size_t edges = g.slots;
  // Class->slot unit costs in build order (class-major, slots ascending),
  // which the certificate pass walks in the same order.
  std::vector<double> costs;
  costs.reserve(class_arcs);
  for (std::size_t ci = 0; ci < num_classes; ++ci) {
    const Job& j = *classes.leader[ci];
    mcf.add_edge(kSource, kClass0 + ci, classes.supply[ci], 0.0);
    ++edges;
    const std::size_t first = g.first_slot_for(j.release);
    const double size_pow = pow_k(j.size, options.k);
    for (std::size_t s = first; s < g.slots; ++s) {
      // The slot->sink edge already caps how much any slot absorbs (the LP of
      // the paper lets a job run on several machines simultaneously), so the
      // job->slot arcs get a deliberately never-binding capacity.  This is
      // not cosmetic: a saturated arc may carry negative reduced cost in the
      // final potentials, which would break the transportation-dual reading
      // (alpha_j - beta_t <= c_jt, tight on flow-carrying arcs) that
      // certify_flowtime_dual builds the exact certificate from.
      costs.push_back(unit_cost(j, g, s, options.k, size_pow));
      mcf.add_edge(kClass0 + ci, kSlot0 + s, included_work + 1.0,
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
  out.job_classes = num_classes;
  obs::add("mcmf.job_classes", num_classes);
  out.certificate = certify_flowtime_dual(included, classes, g, options, costs,
                                          mcf, kSlot0, kSink, slot_edge);
  return out;
}

std::size_t flowtime_lp_num_vars(const Instance& instance,
                                 const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);
  std::size_t vars = 0;
  for (const Job& j : instance.jobs()) {
    if (!lp_included(j)) continue;
    require_slot_for(j, g);
    const std::size_t job_vars = g.slots - g.first_slot_for(j.release);
    if (job_vars > std::numeric_limits<std::size_t>::max() - vars) {
      return std::numeric_limits<std::size_t>::max();
    }
    vars += job_vars;
  }
  return vars;
}

std::size_t flowtime_lp_num_slots(const Instance& instance,
                                  const FlowtimeLpOptions& options) {
  return make_grid(instance, options).slots;
}

}  // namespace tempofair::lpsolve
