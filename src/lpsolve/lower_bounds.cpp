#include "lpsolve/lower_bounds.h"

#include <algorithm>
#include <cmath>

#include "core/engine.h"
#include "core/metrics.h"
#include "core/pow_k.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"

namespace tempofair::lpsolve {

CertifiedBound certified_trivial_bound(const Instance& instance, double k) {
  CertifiedBound out;
  const double k_round = std::round(k);
  if (!(k >= 1.0) || k != k_round || k_round > 8.0) return out;
  const int ki = static_cast<int>(k_round);

  // Grid resolution: quantized sizes are raised to the k-th power, so the
  // bit budget shrinks with k to keep numerators inside 128 bits.
  const unsigned bits =
      static_cast<unsigned>(std::max(4, std::min(24, 127 / ki - 12)));

  Rational sum;
  for (const Job& j : instance.jobs()) {
    const Rational q = Rational::from_double(j.size).floor_to_dyadic(bits);
    if (!q.valid()) return out;
    if (!q.is_positive()) continue;  // floors to 0: contributes nothing
    Rational pw = q;
    for (int e = 1; e < ki; ++e) pw *= q;
    sum += pw;
    if (!sum.valid()) return out;
  }
  out.value = std::max(0.0, sum.lower_double());
  out.certified = true;
  return out;
}

OptBounds opt_bounds(const Instance& instance, const OptBoundsOptions& options) {
  OptBounds out;
  out.k = options.k;
  out.machines = options.machines;

  for (const Job& j : instance.jobs()) {
    out.trivial_lb += pow_k(j.size, options.k);
  }
  const CertifiedBound trivial_cert =
      certified_trivial_bound(instance, options.k);

  CertifiedBound lp_cert;
  if (options.with_lp && !instance.empty()) {
    FlowtimeLpOptions lp_opts;
    lp_opts.k = options.k;
    lp_opts.machines = options.machines;
    lp_opts.slot = options.lp_slot <= 0.0
                       ? auto_lp_slot(instance, options.machines)
                       : options.lp_slot;
    const FlowtimeLpResult lp = solve_flowtime_lp(instance, lp_opts);
    out.lp_lb = lp.opt_power_lb;
    if (lp.certificate.certified) {
      lp_cert.value = lp.certificate.value / 2.0;
      lp_cert.certified = true;
    }
  }
  out.best_lb = std::max(out.trivial_lb, out.lp_lb);

  if (trivial_cert.certified) {
    out.certified_lb = std::max(out.certified_lb, trivial_cert.value);
  }
  if (lp_cert.certified) {
    out.certified_lb = std::max(out.certified_lb, lp_cert.value);
  }
  out.lb_certified = (trivial_cert.certified || lp_cert.certified) &&
                     out.certified_lb > 0.0;
  obs::add(out.lb_certified ? "lpcert.lb_certified" : "lpcert.lb_uncertified",
           1);

  RunRequest request;
  request.machines = options.machines;
  request.speed = 1.0;
  request.record_trace = false;
  request.policy = "srpt";
  const double srpt_cost =
      flow_lk_power(run(instance, request).schedule, options.k);
  request.policy = "sjf";
  const double sjf_cost =
      flow_lk_power(run(instance, request).schedule, options.k);
  out.proxy_ub = std::min(srpt_cost, sjf_cost);
  return out;
}

}  // namespace tempofair::lpsolve
