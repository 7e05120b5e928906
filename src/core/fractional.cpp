#include "core/fractional.h"

#include <cmath>
#include <stdexcept>

#include "core/pow_k.h"

namespace tempofair {

FractionalFlowResult fractional_flow_power(const Schedule& schedule, double k) {
  if (!schedule.has_trace()) {
    throw std::invalid_argument("fractional_flow_power: schedule has no trace");
  }
  if (!(k >= 1.0)) {
    throw std::invalid_argument("fractional_flow_power: k must be >= 1");
  }

  const std::size_t n = schedule.n();
  FractionalFlowResult out;
  out.per_job.assign(n, 0.0);

  // Track remaining work per job by scanning the trace forward.
  std::vector<double> remaining(n);
  for (std::size_t j = 0; j < n; ++j) {
    remaining[j] = schedule.size(static_cast<JobId>(j));
  }

  for (const TraceIntervalView iv : schedule.trace()) {
    const double len = iv.length();
    for (const RateShare s : iv.shares()) {
      const double p = schedule.size(s.job);
      const double r = schedule.release(s.job);
      // Within the interval, remaining(t) = A - B*(t - r) with
      //   B = rate, A = remaining at iv.begin + rate*(iv.begin - r).
      const double rem_a = remaining[s.job];
      const double a = iv.begin() - r;
      const double b = iv.end() - r;
      const double A = rem_a + s.rate * a;
      const double B = s.rate;
      // integral over u in [a,b] of k u^{k-1} (A - B u) / p du
      //   = [A u^k - B k/(k+1) u^{k+1}] / p  evaluated at b minus at a.
      auto antiderivative = [&](double u) {
        return (A * pow_k(u, k) - B * k / (k + 1.0) * pow_k(u, k + 1.0)) / p;
      };
      out.per_job[s.job] += antiderivative(b) - antiderivative(a);
      remaining[s.job] = rem_a - s.rate * len;
    }
  }
  for (double v : out.per_job) out.total += v;
  return out;
}

}  // namespace tempofair
