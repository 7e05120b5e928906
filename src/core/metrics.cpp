#include "core/metrics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/pow_k.h"

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

/// The interpolated percentile at rank r of a non-empty span, by selection
/// instead of a sort.  nth_element puts the r.lo-th order statistic at lo
/// with nothing smaller after it, so the r.hi-th one is the least value
/// after lo: the same two order statistics a sorted copy holds, hence the
/// same bits.  [0, from) must already hold the `from` smallest values, as an
/// earlier call for a lower rank leaves them; `from` is advanced to r.lo.
double select_rank(std::span<double> values, std::size_t& from,
                   PercentileRank r) {
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from), lo,
                   values.end());
  from = r.lo;
  const double v_hi =
      r.hi == r.lo ? *lo : *std::min_element(lo + 1, values.end());
  return interpolate(*lo, v_hi, r.frac);
}

double percentile_select(std::span<double> values, std::size_t& from,
                         double p) {
  return select_rank(values, from, percentile_rank(values.size(), p));
}

/// The percentiles flow_stats reports, in ascending order.
constexpr std::array<double, 3> kStatPercentiles{50.0, 95.0, 99.0};

/// Below this many values the percentiles are selected by the nth_element
/// chain alone: radix select's histogram costs more than it saves.
constexpr std::size_t kRadixCutoff = 4096;

/// kStatPercentiles of `values` by radix select.  Requires at least
/// kRadixCutoff and at most 2^32 - 1 values, each non-negative, not -0.0
/// and not NaN, whose bit patterns lie in [kmin, kmax].  Such doubles order
/// like their bit patterns, so one histogram pass over the high bits of
/// (bits - kmin) finds the buckets that hold the (at most six) ranks the
/// percentiles read, one more pass gathers those buckets, and select_rank
/// runs on the gathered values with each rank shifted to its place among
/// them: the same order statistics, hence the same bits as the chain.
std::array<double, 3> radix_percentiles(std::span<const double> values,
                                        std::uint64_t kmin,
                                        std::uint64_t kmax) {
  const std::size_t n = values.size();
  // About n / 4 buckets, at most 2^16; the shift fits the key range in.
  const int bucket_bits = std::min(16, static_cast<int>(std::bit_width(n)) - 2);
  const int range_bits = static_cast<int>(std::bit_width(kmax - kmin));
  const int shift = std::max(0, range_bits - bucket_bits);
  const auto bucket = [&](double v) {
    return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(v) - kmin) >>
                                    shift);
  };
  const std::size_t buckets = bucket(std::bit_cast<double>(kmax)) + 1;

  // start[b] = how many values fall in buckets before b.
  std::vector<std::uint32_t> start(buckets + 1, 0);
  for (const double v : values) ++start[bucket(v) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) start[b] += start[b - 1];
  const auto bucket_of_rank = [&](std::size_t rank) {
    return static_cast<std::size_t>(
        std::upper_bound(start.begin(), start.end(), rank) - start.begin() - 1);
  };

  std::array<PercentileRank, 3> ranks{};
  std::vector<unsigned char> take(buckets, 0);
  std::vector<std::size_t> taken;  // the buckets to gather, at most six
  std::size_t gathered = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ranks[i] = percentile_rank(n, kStatPercentiles[i]);
    for (const std::size_t rank : {ranks[i].lo, ranks[i].hi}) {
      const std::size_t b = bucket_of_rank(rank);
      if (take[b]) continue;
      take[b] = 1;
      taken.push_back(b);
      gathered += start[b + 1] - start[b];
    }
  }
  std::vector<double> g;
  g.reserve(gathered);
  for (const double v : values) {
    if (take[bucket(v)]) g.push_back(v);
  }
  // Where rank r sits in g: the gathered values of the buckets below its
  // own, plus its place within that bucket.
  const auto shifted = [&](std::size_t rank) {
    const std::size_t b = bucket_of_rank(rank);
    std::size_t below = rank - start[b];
    for (const std::size_t t : taken) {
      if (t < b) below += start[t + 1] - start[t];
    }
    return below;
  };
  std::array<double, 3> out{};
  std::size_t from = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const std::size_t lo = shifted(ranks[i].lo);
    const std::size_t hi = ranks[i].hi == ranks[i].lo ? lo : lo + 1;
    out[i] = select_rank(g, from, {lo, hi, ranks[i].frac});
  }
  return out;
}

/// flow_stats over `flows`, which it may reorder.  One pass reads the sums,
/// the max (linf, and the rescaling of both norms) and the range of the bit
/// patterns; a second accumulates the l2 and l3 terms in index order, the
/// terms and order lk_norm uses.  The percentiles come from radix select
/// for kRadixCutoff values or more when no value is -0.0 or NaN, and from
/// the nth_element chain otherwise.
FlowStats flow_stats_in_place(std::span<double> flows) {
  FlowStats s;
  s.n = flows.size();
  if (flows.empty()) return s;
  double sum = 0.0, sq = 0.0, vmax = 0.0;
  std::uint64_t kmin = ~std::uint64_t{0}, kmax = 0;
  for (const double f : flows) {
    if (f < 0.0) throw std::invalid_argument("lk_norm: negative value");
    sum += f;
    sq += f * f;
    vmax = std::max(vmax, f);
    const auto key = std::bit_cast<std::uint64_t>(f);
    kmin = std::min(kmin, key);
    kmax = std::max(kmax, key);
  }
  s.l1 = sum;
  s.linf = vmax;
  if (vmax > 0.0) {
    double sum2 = 0.0, sum3 = 0.0;
    for (const double f : flows) {
      const double x = f / vmax;
      sum2 += pow_k(x, 2.0);
      sum3 += pow_k(x, 3.0);
    }
    s.l2 = vmax * std::pow(sum2, 1.0 / 2.0);
    s.l3 = vmax * std::pow(sum3, 1.0 / 3.0);
  }
  s.mean = sum / static_cast<double>(s.n);
  s.variance = std::max(0.0, sq / static_cast<double>(s.n) - s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);
  // Every bit pattern above +inf's is -0.0 or a NaN (negatives threw above).
  const bool radix = flows.size() >= kRadixCutoff &&
                     flows.size() <= std::numeric_limits<std::uint32_t>::max() &&
                     kmax <= std::bit_cast<std::uint64_t>(kInfiniteTime);
  if (radix) {
    const std::array<double, 3> p = radix_percentiles(flows, kmin, kmax);
    s.p50 = p[0];
    s.p95 = p[1];
    s.p99 = p[2];
  } else {
    std::size_t from = 0;
    s.p50 = percentile_select(flows, from, kStatPercentiles[0]);
    s.p95 = percentile_select(flows, from, kStatPercentiles[1]);
    s.p99 = percentile_select(flows, from, kStatPercentiles[2]);
  }
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
  for (double v : values) sum += pow_k(v / vmax, k);
  return pow_k(vmax, k) * sum;
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
  for (double v : values) sum += pow_k(v / vmax, k);
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
    sum += pow_k((completion[i] - release[i]) / vmax, k);
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
    sum += pow_k((completion[i] - release[i]) / vmax, k);
  }
  return pow_k(vmax, k) * sum;
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
    sum += weights[i] * pow_k(values[i] / vmax, k);
  }
  return pow_k(vmax, k) * sum;
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
    sum += weights[i] * pow_k(values[i] / vmax, k);
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
