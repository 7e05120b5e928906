#include "analysis/dualfit.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/pow_k.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"

namespace tempofair::analysis {

// Every power below goes through pow_k (core/pow_k.h): std::pow's bits,
// skipping the call where an FMA residual proves them.  A plain v * v would
// not do, since pow(v, 2) need not equal the correctly rounded v * v.

DualFitResult dual_fit_certificate(const Schedule& schedule,
                                   const DualFitOptions& options) {
  if (!schedule.has_trace()) {
    throw std::invalid_argument("dual_fit_certificate: schedule has no trace");
  }
  const double k = options.k;
  const double eps = options.eps;
  if (!(k >= 1.0)) throw std::invalid_argument("dual_fit_certificate: k must be >= 1");
  if (!(eps > 0.0) || eps > 0.1) {
    throw std::invalid_argument("dual_fit_certificate: eps must be in (0, 0.1]");
  }

  obs::ScopedTimer cert_timer("dualfit.certificate");

  DualFitResult res;
  res.k = k;
  res.eps = eps;
  res.delta = eps;  // the paper sets delta = eps
  res.gamma = options.gamma > 0.0 ? options.gamma : k * pow_k(k / eps, k);
  res.speed = schedule.speed();
  res.machines = schedule.machines();

  const std::size_t n = schedule.n();
  const int m = schedule.machines();
  const std::span<const Time> release = schedule.releases();
  const std::span<const Time> completion = schedule.completions();

  // ---- alpha_j --------------------------------------------------------------
  // Every alpha term is an integral over one trace interval [a, b]:
  //   integral_a^b k (t - r)^(k-1) dt  =  (b - r)^k - (a - r)^k.
  // A job's intervals are normally consecutive, so its begin term is the
  // end term of its previous interval: cache (t, (t - r_j)^k) per job and
  // reuse it when the begin time has the same bits (same argument, same
  // pow bits; comparing bits keeps -0.0 and +0.0 apart).  The cache starts
  // at (r_j, +0): r_j is finite, so r_j - r_j = +0 and pow(+0, k) = +0 for
  // k > 0 (C Annex F).  A job that leaves and re-enters the alive set just
  // misses the cache.  This costs at most one pow per trace entry.
  std::vector<Time> last_t(release.begin(), release.end());
  std::vector<double> last_pow(n, 0.0);
  const auto age_power_integral = [&](Time a, Time b, JobId job) {
    const double hi = pow_k(b - release[job], k);
    const double lo = std::bit_cast<std::uint64_t>(a) ==
                              std::bit_cast<std::uint64_t>(last_t[job])
                          ? last_pow[job]
                          : pow_k(a - release[job], k);
    last_t[job] = b;
    last_pow[job] = hi;
    return hi - lo;
  };
  const auto arrival_order = [&](JobId a, JobId b) {
    if (release[a] != release[b]) return release[a] < release[b];
    return a < b;
  };

  std::vector<double> alpha(n, 0.0);
  std::vector<JobId> resorted;  // the alive set re-sorted by (release, id)
  std::size_t trace_intervals = 0;
  std::size_t resorted_intervals = 0;
  for (const TraceIntervalView iv : schedule.trace()) {
    ++trace_intervals;
    const std::size_t nt = iv.alive_count();
    if (nt == 0) continue;
    const bool overloaded = nt >= static_cast<std::size_t>(m);

    if (!overloaded) {
      for (const JobId job : iv.jobs()) {
        alpha[job] += age_power_integral(iv.begin(), iv.end(), job);
      }
      continue;
    }

    // Overloaded: alpha_j gains sum_{j' arrived no later} integral of
    // k (t - r_{j'})^{k-1} / n_t, a prefix sum over the alive set in
    // (release, id) order.  Rows are sorted by id and ids are assigned in
    // release order by every generator, stream and trace, so the row is
    // normally in that order already and the interval costs O(n_t); other
    // rows (e.g. Instance::from_pairs with out-of-order releases) are
    // sorted first, O(n_t log n_t).
    std::span<const JobId> by_arrival = iv.jobs();
    if (!std::is_sorted(by_arrival.begin(), by_arrival.end(), arrival_order)) {
      resorted.assign(by_arrival.begin(), by_arrival.end());
      std::sort(resorted.begin(), resorted.end(), arrival_order);
      by_arrival = resorted;
      ++resorted_intervals;
    }
    double prefix = 0.0;
    for (const JobId job : by_arrival) {
      // The i-th job in arrival order collects the terms of the i jobs that
      // arrived no later than it, averaged by n_t.
      prefix += age_power_integral(iv.begin(), iv.end(), job);
      alpha[job] += prefix / static_cast<double>(nt);
    }
  }
  // F_j^k = (C_j - r_j)^k.  A job's last interval normally ends at C_j,
  // and then the cache already holds that power: same argument bits, same
  // result.  The sums run over j in id order either way.
  for (std::size_t j = 0; j < n; ++j) {
    const double fk = std::bit_cast<std::uint64_t>(last_t[j]) ==
                              std::bit_cast<std::uint64_t>(completion[j])
                          ? last_pow[j]
                          : pow_k(completion[j] - release[j], k);
    res.rr_power += fk;
    alpha[j] -= eps * fk;
    res.alpha_sum += alpha[j];
  }

  // ---- beta_t ---------------------------------------------------------------
  // beta is piecewise constant with breakpoints at r_j (rise by
  // coeff F_j^(k-1)) and C_j + delta F_j (fall by as much), coeff =
  // (1/2 - 3 eps) / m.  Sweeping the events in time order gives the pieces.
  //
  // When releases are nondecreasing in id the rises are already in time
  // order, so only the n falls are sorted and the two lists are merged.
  // If all 2n times are distinct, the time order is unique: the merge
  // visits exactly the sequence a full sort would and performs the same
  // additions in the same order.  A tie (equal adjacent times) leaves the
  // order of equal events to std::sort, so the merge is abandoned and the
  // 2n events are sorted as a whole -- as are unordered releases.
  const bool releases_ordered = std::is_sorted(release.begin(), release.end());
  const double beta_coeff = (0.5 - 3.0 * eps) / static_cast<double>(m);
  using BetaEvent = std::pair<Time, double>;  // (time, change of beta)
  const auto by_time = [](const BetaEvent& a, const BetaEvent& b) {
    return a.first < b.first;
  };
  // Only alpha outlives the alpha cache, so the rises take over its
  // storage instead of faulting in fresh pages.
  last_t = std::vector<Time>();
  std::vector<double> rise = std::move(last_pow);
  // Pieces: (start time, beta value on [start, next start)).  Until the
  // merge overwrites it, the back half holds the falls: the merge writes
  // piece a + b after reading rise a or fall b, and a + b <= n + b.
  std::vector<BetaEvent> beta_pieces(2 * n);
  const std::span<BetaEvent> falls(beta_pieces.data() + n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const Time flow = completion[j] - release[j];
    rise[j] = beta_coeff * pow_k(flow, k - 1.0);
    falls[j] = BetaEvent{completion[j] + res.delta * flow, -rise[j]};
  }

  double beta_integral = 0.0;
  bool merged = releases_ordered;
  if (merged) {
    std::sort(falls.begin(), falls.end(), by_time);
    // The full-sort path's sweep (below), with one event per time.
    double running = 0.0;
    Time prev_t = n == 0 ? 0.0 : std::min(release[0], falls[0].first);
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < n || b < n) {
      const std::size_t piece = a + b;
      BetaEvent e;
      if (b == n || (a < n && release[a] < falls[b].first)) {
        e = BetaEvent{release[a], rise[a]};
        ++a;
      } else {
        e = falls[b++];
      }
      if (e.first == prev_t && piece != 0) {
        merged = false;
        break;
      }
      beta_integral += running * (e.first - prev_t);
      prev_t = e.first;
      running += e.second;
      beta_pieces[piece] = BetaEvent{e.first, std::max(running, 0.0)};
    }
  }
  if (!merged) {
    std::vector<BetaEvent> events;
    events.reserve(2 * n);
    for (std::size_t j = 0; j < n; ++j) {
      const Time flow = completion[j] - release[j];
      events.push_back(BetaEvent{release[j], rise[j]});
      events.push_back(BetaEvent{completion[j] + res.delta * flow, -rise[j]});
    }
    std::sort(events.begin(), events.end(), by_time);
    beta_pieces.clear();
    beta_integral = 0.0;
    double running = 0.0;
    std::size_t i = 0;
    Time prev_t = events.empty() ? 0.0 : events.front().first;
    while (i < events.size()) {
      const Time t = events[i].first;
      beta_integral += running * (t - prev_t);
      prev_t = t;
      while (i < events.size() && events[i].first == t) {
        running += events[i].second;
        ++i;
      }
      beta_pieces.emplace_back(t, std::max(running, 0.0));
    }
    // (running is ~0 after the last event; the final piece has beta = 0.)
  }
  res.beta_term = static_cast<double>(m) * beta_integral;
  res.dual_objective = res.alpha_sum - res.beta_term;

  // ---- Lemmas 1 and 2 -------------------------------------------------------
  const double tol = 1e-7 * std::max(1.0, res.rr_power);
  res.lemma1_ok = res.alpha_sum >= (0.5 - eps) * res.rr_power - tol;
  res.lemma2_ok = res.beta_term <= (0.5 - 2.0 * eps) * res.rr_power + tol;
  {
    // Tolerance-free recheck of both lemma inequalities in exact rational
    // arithmetic over the (exactly representable) double values; fails
    // closed if the 128-bit arithmetic overflows.
    using lpsolve::Rational;
    const Rational half = Rational::from_ratio(1, 2);
    const Rational e = Rational::from_double(eps);
    const Rational rr = Rational::from_double(res.rr_power);
    res.lemmas_exact =
        Rational::from_double(res.alpha_sum) >= (half - e) * rr &&
        Rational::from_double(res.beta_term) <= (half - e - e) * rr;
  }

  // ---- Dual feasibility -----------------------------------------------------
  // For each job j and each beta piece [t_i, t_{i+1}): the RHS
  //   gamma ((t - r_j)^k + p_j^k)/p_j + beta(piece)
  // is nondecreasing in t inside the piece, so its minimum is at
  // t = max(t_i, r_j); a piece entirely before r_j is skipped.
  //
  // Windowed scan instead of the naive O(n * pieces) sweep: find the first
  // piece whose window reaches past r_j, then walk forward and stop once the
  // beta-free lower bound
  //   base(t) = gamma ((t - r_j)^k + p_j^k) / p_j
  // provably exceeds the job's running minimum slack.  base(t) is
  // nondecreasing in t and beta >= 0 with rhs = base + beta (rounding is
  // monotone, so rhs >= base bitwise), hence no later piece -- nor the
  // beta = 0 tail -- can lower this job's min slack once the bound clears
  // it.  Violations (slack < 0) force 0 < rhs < lhs, so their scale is
  // lhs and the largest relative violation sits at the min-slack piece,
  // which the scan has already visited.  The relative margin keeps the
  // cutoff conservative against pow() rounding wobble between pieces.
  //
  // The first piece is the one containing r_j, or piece 0 when r_j precedes
  // every breakpoint.  When releases are nondecreasing in id (ids assigned
  // in arrival order), a cursor advanced job by job finds it in O(n +
  // pieces) overall; otherwise each job binary-searches for it.
  std::size_t cursor = 0;
  res.min_slack = kInfiniteTime;
  res.max_relative_violation = 0.0;
  std::size_t feasibility_checks = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = schedule.size(static_cast<JobId>(j));
    const double rj = release[j];
    const double lhs = alpha[j] / pj;
    const double pjk = pow_k(pj, k);
    double job_min_slack = kInfiniteTime;
    auto base_at = [&](Time t) {
      return res.gamma * (pow_k(std::max(t - rj, 0.0), k) + pjk) / pj;
    };
    auto check = [&](double base, double beta_value) {
      ++feasibility_checks;
      const double rhs = base + beta_value;
      const double slack = rhs - lhs;
      job_min_slack = std::min(job_min_slack, slack);
      if (slack < 0.0) {
        const double scale = std::max({std::fabs(lhs), std::fabs(rhs), 1e-300});
        res.max_relative_violation =
            std::max(res.max_relative_violation, -slack / scale);
      }
    };

    if (beta_pieces.empty()) {
      check(base_at(rj), 0.0);
      res.min_slack = std::min(res.min_slack, job_min_slack);
      continue;
    }

    std::size_t p0 = 0;
    if (releases_ordered) {
      while (cursor + 1 < beta_pieces.size() &&
             beta_pieces[cursor + 1].first <= rj) {
        ++cursor;
      }
      p0 = cursor;
    } else {
      const auto q = std::upper_bound(
          beta_pieces.begin(), beta_pieces.end(), rj,
          [](Time t, const std::pair<Time, double>& piece) {
            return t < piece.first;
          });
      if (q != beta_pieces.begin()) {
        p0 = static_cast<std::size_t>(q - beta_pieces.begin()) - 1;
      }
    }

    bool cut_off = false;
    for (std::size_t p = p0; p < beta_pieces.size(); ++p) {
      const double base = base_at(std::max(beta_pieces[p].first, rj));
      if (p > p0 &&
          base - lhs > job_min_slack + 1e-9 * (std::fabs(base) + std::fabs(lhs))) {
        cut_off = true;
        break;
      }
      check(base, beta_pieces[p].second);
    }
    if (!cut_off) {
      // Tail beyond the last event: beta = 0.
      check(base_at(std::max(beta_pieces.back().first, rj)), 0.0);
    }
    res.min_slack = std::min(res.min_slack, job_min_slack);
  }
  res.feasible = res.max_relative_violation <= 1e-7;

  // ---- Objective ------------------------------------------------------------
  if (res.rr_power > 0.0) {
    res.objective_ratio = res.dual_objective / res.rr_power;
  }
  res.objective_ok = res.objective_ratio >= eps - 1e-9;
  if (res.feasible && res.objective_ratio > 0.0) {
    res.implied_lk_ratio =
        std::pow(2.0 * res.gamma / res.objective_ratio, 1.0 / k);
  }

  obs::add("dualfit.certificates", 1);
  obs::add("dualfit.trace_intervals", trace_intervals);
  obs::add("dualfit.beta_pieces", beta_pieces.size());
  obs::add("dualfit.feasibility_checks", feasibility_checks);
  obs::add("dualfit.resorted_intervals", resorted_intervals);
  obs::add("dualfit.beta_full_sorts", merged ? 0 : 1);
  return res;
}

}  // namespace tempofair::analysis
