#include "analysis/competitive.h"

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "core/metrics.h"

namespace tempofair::analysis {

RatioMeasurement measure_ratio(const Instance& instance, Policy& policy,
                               const RatioOptions& options,
                               const lpsolve::OptBounds& bounds) {
  RunRequest request;
  request.machines = options.machines;
  request.speed = options.speed;
  request.record_trace = false;
  const Schedule sched = run(instance, policy, request).schedule;

  RatioMeasurement m;
  m.policy = std::string(policy.name());
  m.k = options.k;
  m.machines = options.machines;
  m.speed = options.speed;
  m.cost_power = flow_lk_power(sched, options.k);
  m.cost_norm = flow_lk_norm(sched, options.k);
  m.bounds = bounds;
  m.lb_certified = bounds.lb_certified;
  const double lb = bounds.lb_certified ? bounds.certified_lb : bounds.best_lb;
  // A zero, denormal, or non-finite lower bound has no meaningful ratio:
  // cost / lb would round to inf (or nan) and look like an unboundedly bad
  // instance.  Flag it instead of reporting a poisoned ratio.
  if (std::isfinite(lb) && lb >= std::numeric_limits<double>::min()) {
    m.ratio_vs_lb = std::pow(m.cost_power / lb, 1.0 / options.k);
  } else {
    m.lb_degenerate = true;
  }
  if (bounds.proxy_ub > 0.0) {
    m.ratio_vs_proxy = std::pow(m.cost_power / bounds.proxy_ub, 1.0 / options.k);
  }
  return m;
}

RatioMeasurement measure_ratio(const Instance& instance, Policy& policy,
                               const RatioOptions& options) {
  lpsolve::OptBoundsOptions bopts;
  bopts.k = options.k;
  bopts.machines = options.machines;
  bopts.with_lp = options.with_lp;
  bopts.lp_slot = options.lp_slot;
  return measure_ratio(instance, policy, options,
                       lpsolve::opt_bounds(instance, bopts));
}

}  // namespace tempofair::analysis
