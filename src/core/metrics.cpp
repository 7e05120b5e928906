#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tempofair {

namespace {

/// Where the p-th percentile of n > 0 values sits: between the lo-th and
/// hi-th order statistics (hi == lo when the position is an integer), with
/// weight frac on the upper one.
struct PercentileRank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

PercentileRank percentile_rank(std::size_t n, double p) {
  const double pos = (p / 100.0) * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  return {lo, hi, pos - static_cast<double>(lo)};
}

/// The one interpolation formula behind every percentile this file returns.
double interpolate(double v_lo, double v_hi, double frac) {
  return v_lo * (1.0 - frac) + v_hi * frac;
}

/// Interpolated percentile of a non-empty span by selection instead of a
/// sort.  nth_element puts the lo-th order statistic at `lo` with nothing
/// smaller after it, so the hi-th one is the least value after `lo`: the
/// same two order statistics a sorted copy holds, hence the same bits.
/// [0, from) must already hold the `from` smallest values, as an earlier
/// call for a lower p leaves them; `from` is advanced to lo.
double percentile_select(std::span<double> values, std::size_t& from,
                         double p) {
  const PercentileRank r = percentile_rank(values.size(), p);
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from), lo,
                   values.end());
  from = r.lo;
  const double v_hi =
      r.hi == r.lo ? *lo : *std::min_element(lo + 1, values.end());
  return interpolate(*lo, v_hi, r.frac);
}

/// flow_stats over `flows`, which it reorders: the sums and norms read the
/// values in their given order first, then p50/p95/p99 are selected in
/// place.
FlowStats flow_stats_in_place(std::span<double> flows) {
  FlowStats s;
  s.n = flows.size();
  if (flows.empty()) return s;
  double sum = 0.0, sq = 0.0;
  for (double f : flows) {
    sum += f;
    sq += f * f;
  }
  s.l1 = sum;
  s.l2 = lk_norm(flows, 2.0);
  s.l3 = lk_norm(flows, 3.0);
  s.linf = linf_norm(flows);
  s.mean = sum / static_cast<double>(s.n);
  s.variance = std::max(0.0, sq / static_cast<double>(s.n) - s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);
  std::size_t from = 0;
  s.p50 = percentile_select(flows, from, 50.0);
  s.p95 = percentile_select(flows, from, 95.0);
  s.p99 = percentile_select(flows, from, 99.0);
  return s;
}

}  // namespace

double lk_power_sum(std::span<const double> values, double k) {
  if (!(k >= 1.0)) throw std::invalid_argument("lk_power_sum: k must be >= 1");
  double vmax = 0.0;
  for (double v : values) {
    if (v < 0.0) throw std::invalid_argument("lk_power_sum: negative value");
    vmax = std::max(vmax, v);
  }
  if (vmax <= 0.0) return 0.0;
  // Accumulate in the vmax-rescaled form (every term in [0, 1]) and scale
  // once at the end: the sum itself never overflows, so the result is inf
  // only when sum v^k genuinely exceeds the double range.
  double sum = 0.0;
  for (double v : values) sum += std::pow(v / vmax, k);
  return std::pow(vmax, k) * sum;
}

double lk_norm(std::span<const double> values, double k) {
  if (!(k >= 1.0)) throw std::invalid_argument("lk_norm: k must be >= 1");
  if (values.empty()) return 0.0;
  double vmax = 0.0;
  for (double v : values) {
    if (v < 0.0) throw std::invalid_argument("lk_norm: negative value");
    vmax = std::max(vmax, v);
  }
  if (std::isinf(k)) return vmax;
  if (vmax <= 0.0) return 0.0;
  // (sum (v/vmax)^k)^(1/k) * vmax avoids overflow for large k.
  double sum = 0.0;
  for (double v : values) sum += std::pow(v / vmax, k);
  return vmax * std::pow(sum, 1.0 / k);
}

double linf_norm(std::span<const double> values) {
  double m = 0.0;
  for (double v : values) m = std::max(m, v);
  return m;
}

double percentile(std::span<const double> values, double p) {
  // The negated test also rejects NaN, which would reach percentile_rank's
  // cast to size_t as undefined behaviour.  It runs before the empty check
  // so a bad p is rejected whatever the input.
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p outside [0,100]");
  }
  if (values.empty()) return 0.0;
  std::vector<double> scratch(values.begin(), values.end());
  std::size_t from = 0;
  return percentile_select(scratch, from, p);
}

FlowStats flow_stats(std::span<const double> flows) {
  std::vector<double> scratch(flows.begin(), flows.end());
  return flow_stats_in_place(scratch);
}

FlowStats flow_stats(const Schedule& schedule) {
  std::vector<Time> flows = schedule.flows();
  return flow_stats_in_place(flows);
}

// The Schedule overloads below recompute F_j = C_j - r_j from the schedule's
// columnar completion/release arrays on the fly instead of materializing a
// flows vector per call.  The value sequence (and hence every rounding step)
// matches lk_power_sum / lk_norm over flows() exactly.

double flow_lk_norm(const Schedule& schedule, double k) {
  if (!(k >= 1.0)) throw std::invalid_argument("lk_norm: k must be >= 1");
  const std::span<const Time> completion = schedule.completions();
  const std::span<const Time> release = schedule.releases();
  const std::size_t n = completion.size();
  if (n == 0) return 0.0;
  double vmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = completion[i] - release[i];
    if (v < 0.0) throw std::invalid_argument("lk_norm: negative value");
    vmax = std::max(vmax, v);
  }
  if (std::isinf(k)) return vmax;
  if (vmax <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::pow((completion[i] - release[i]) / vmax, k);
  }
  return vmax * std::pow(sum, 1.0 / k);
}

double flow_lk_power(const Schedule& schedule, double k) {
  if (!(k >= 1.0)) throw std::invalid_argument("lk_power_sum: k must be >= 1");
  const std::span<const Time> completion = schedule.completions();
  const std::span<const Time> release = schedule.releases();
  double vmax = 0.0;
  for (std::size_t i = 0; i < completion.size(); ++i) {
    const double v = completion[i] - release[i];
    if (v < 0.0) throw std::invalid_argument("lk_power_sum: negative value");
    vmax = std::max(vmax, v);
  }
  if (vmax <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < completion.size(); ++i) {
    sum += std::pow((completion[i] - release[i]) / vmax, k);
  }
  return std::pow(vmax, k) * sum;
}

namespace {

/// Max value on the positive-weight support (weights act as a support
/// filter, matching the k = infinity semantics); validates both spans.
double weighted_support_max(std::span<const double> values,
                            std::span<const double> weights, const char* who) {
  double vmax = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < 0.0 || weights[i] < 0.0) {
      throw std::invalid_argument(std::string(who) +
                                  ": negative value or weight");
    }
    if (weights[i] > 0.0) vmax = std::max(vmax, values[i]);
  }
  return vmax;
}

}  // namespace

double weighted_lk_power(std::span<const double> values,
                         std::span<const double> weights, double k) {
  if (!(k >= 1.0)) throw std::invalid_argument("weighted_lk_power: k must be >= 1");
  if (values.size() != weights.size()) {
    throw std::invalid_argument("weighted_lk_power: size mismatch");
  }
  const double vmax =
      weighted_support_max(values, weights, "weighted_lk_power");
  if (vmax <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += weights[i] * std::pow(values[i] / vmax, k);
  }
  return std::pow(vmax, k) * sum;
}

double weighted_lk_norm(std::span<const double> values,
                        std::span<const double> weights, double k) {
  if (!(k >= 1.0)) throw std::invalid_argument("weighted_lk_norm: k must be >= 1");
  if (values.size() != weights.size()) {
    throw std::invalid_argument("weighted_lk_norm: size mismatch");
  }
  const double vmax = weighted_support_max(values, weights, "weighted_lk_norm");
  if (std::isinf(k)) return vmax;
  if (vmax <= 0.0) return 0.0;
  // Root of the *rescaled* weighted power: the unscaled sum w v^k can
  // overflow to inf even when the norm itself is representable.
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += weights[i] * std::pow(values[i] / vmax, k);
  }
  return vmax * std::pow(sum, 1.0 / k);
}

double weighted_flow_lk_power(const Schedule& schedule, double k) {
  const std::vector<Time> flows = schedule.flows();
  return weighted_lk_power(flows, schedule.weights(), k);
}

double weighted_flow_lk_norm(const Schedule& schedule, double k) {
  const std::vector<Time> flows = schedule.flows();
  return weighted_lk_norm(flows, schedule.weights(), k);
}

}  // namespace tempofair
