#include "core/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace tempofair {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LkNorm, L1IsSum) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, 1.0), 6.0);
}

TEST(LkNorm, L2MatchesEuclidean) {
  const std::vector<double> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, 2.0), 5.0);
}

TEST(LkNorm, L3HandComputed) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_NEAR(lk_norm(v, 3.0), std::cbrt(9.0), 1e-12);
}

TEST(LkNorm, InfinityIsMax) {
  const std::vector<double> v{1.0, 7.0, 3.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, kInf), 7.0);
}

TEST(LkNorm, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(lk_norm(std::vector<double>{}, 2.0), 0.0);
}

TEST(LkNorm, AllZeroIsZero) {
  const std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(lk_norm(v, 2.0), 0.0);
}

TEST(LkNorm, LargeKDoesNotOverflow) {
  const std::vector<double> v(100, 1e30);
  const double norm = lk_norm(v, 50.0);
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_NEAR(norm, 1e30 * std::pow(100.0, 1.0 / 50.0), 1e18);
}

TEST(LkNorm, MonotoneDecreasingInK) {
  // For fixed values, the l_k norm is non-increasing in k.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  double prev = lk_norm(v, 1.0);
  for (double k : {1.5, 2.0, 3.0, 5.0, 10.0}) {
    const double cur = lk_norm(v, k);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
  EXPECT_GE(prev, linf_norm(v) - 1e-12);
}

TEST(LkNorm, RejectsKLessThanOne) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)lk_norm(v, 0.5), std::invalid_argument);
}

TEST(LkNorm, RejectsNanK) {
  // A NaN k passes `k < 1.0`; every l_k entry point must still reject it
  // rather than return NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v{1.0, 2.0};
  const std::vector<double> w{1.0, 1.0};
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 1.0}, {0.0, 2.0}});
  Schedule sched(inst, 1, 1.0);
  sched.set_completion(0, 1.0);
  sched.set_completion(1, 3.0);
  EXPECT_THROW((void)lk_norm(v, nan), std::invalid_argument);
  EXPECT_THROW((void)lk_power_sum(v, nan), std::invalid_argument);
  EXPECT_THROW((void)flow_lk_norm(sched, nan), std::invalid_argument);
  EXPECT_THROW((void)flow_lk_power(sched, nan), std::invalid_argument);
  EXPECT_THROW((void)weighted_lk_power(v, w, nan), std::invalid_argument);
  EXPECT_THROW((void)weighted_lk_norm(v, w, nan), std::invalid_argument);
  EXPECT_THROW((void)weighted_flow_lk_power(sched, nan), std::invalid_argument);
  EXPECT_THROW((void)weighted_flow_lk_norm(sched, nan), std::invalid_argument);
  // The checks leave valid k untouched.
  EXPECT_DOUBLE_EQ(flow_lk_power(sched, 2.0), 10.0);
}

TEST(LkNorm, RejectsNegativeValues) {
  const std::vector<double> v{-1.0};
  EXPECT_THROW((void)lk_norm(v, 2.0), std::invalid_argument);
}

TEST(LkPowerSum, MatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lk_power_sum(v, 2.0), 14.0);
  EXPECT_DOUBLE_EQ(lk_power_sum(v, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(lk_power_sum(v, 3.0), 36.0);
}

TEST(LkPowerSum, NormConsistency) {
  const std::vector<double> v{0.5, 1.5, 2.5, 4.0};
  for (double k : {1.0, 2.0, 3.0}) {
    EXPECT_NEAR(std::pow(lk_norm(v, k), k), lk_power_sum(v, k), 1e-9);
  }
}

TEST(LkPowerSum, MillionScaleFlowsAtK8) {
  // Regression: k = 8 over ~1e6-scale flows used to be accumulated as raw
  // pow(v, k) terms; the rescaled form must still match the analytic value
  // sum v^8 = 1e48 * (1 + 2^8 + 3^8).
  const std::vector<double> v{1e6, 2e6, 3e6};
  const double expect = 1e48 * (1.0 + 256.0 + 6561.0);
  EXPECT_NEAR(lk_power_sum(v, 8.0), expect, expect * 1e-12);
  EXPECT_NEAR(std::pow(lk_norm(v, 8.0), 8.0), expect, expect * 1e-9);
}

TEST(LkPowerSum, SaturatesOnlyWhenTrueSumOverflows) {
  // (1e38)^8 = 1e304: representable, must stay finite.
  EXPECT_TRUE(std::isfinite(lk_power_sum(std::vector<double>{1e38}, 8.0)));
  // (1e40)^8 = 1e320: the true sum exceeds the double range, inf is correct.
  EXPECT_TRUE(std::isinf(lk_power_sum(std::vector<double>{1e40}, 8.0)));
}

TEST(WeightedLkNorm, HugeValuesDoNotOverflowToInf) {
  // Regression: the norm used to take pow(sum w v^k, 1/k) on the *unscaled*
  // power sum, so (3e160)^2 = inf poisoned a perfectly representable norm.
  const std::vector<double> v{3e160, 4e160};
  const std::vector<double> w{1.0, 1.0};
  const double norm = weighted_lk_norm(v, w, 2.0);
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_NEAR(norm, 5e160, 5e160 * 1e-12);
  // Same shape at k = 8 over ~1e6-scale values, against the analytic value.
  const std::vector<double> v8{1e6, 2e6};
  const std::vector<double> w8{2.0, 1.0};
  // (2 * (1e6)^8 + 1 * (2e6)^8)^(1/8) = 1e6 * (2 + 256)^(1/8)
  const double expect = 1e6 * std::pow(2.0 + 256.0, 1.0 / 8.0);
  EXPECT_NEAR(weighted_lk_norm(v8, w8, 8.0), expect, expect * 1e-12);
}

TEST(WeightedLkPower, MillionScaleMatchesUnweighted) {
  const std::vector<double> v{1e6, 2e6, 3e6};
  const std::vector<double> ones{1.0, 1.0, 1.0};
  EXPECT_NEAR(weighted_lk_power(v, ones, 8.0), lk_power_sum(v, 8.0),
              lk_power_sum(v, 8.0) * 1e-12);
}

TEST(Percentile, Endpoints) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, RejectsOutOfRange) {
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
  // NaN fails both range comparisons; it must not reach the rank cast.
  EXPECT_THROW(
      (void)percentile(v, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  // Empty input is no excuse for a bad p.
  const std::vector<double> none;
  EXPECT_THROW((void)percentile(none, 150.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(none, -1.0), std::invalid_argument);
  EXPECT_THROW(
      (void)percentile(none, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(none, 50.0), 0.0);
}

TEST(FlowStats, SummarizesCorrectly) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const FlowStats s = flow_stats(v);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.l1, 10.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.linf, 4.0);
  EXPECT_NEAR(s.variance, 1.25, 1e-12);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
}

TEST(FlowStats, EmptyIsAllZero) {
  const FlowStats s = flow_stats(std::vector<double>{});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.l1, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(FlowStats, SingleValue) {
  const FlowStats s = flow_stats(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.l2, 7.0);
  EXPECT_DOUBLE_EQ(s.p99, 7.0);
}

/// The sort-based percentile flow_stats and percentile() computed before
/// they switched to selection, kept here as the reference they must match.
double sorted_reference_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = (p / 100.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void expect_percentiles_match_sort(const std::vector<double>& v) {
  SCOPED_TRACE("n=" + std::to_string(v.size()));
  const FlowStats s = flow_stats(v);
  const std::pair<double, double> stats[] = {
      {50.0, s.p50}, {95.0, s.p95}, {99.0, s.p99}};
  for (const auto& [p, got] : stats) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(sorted_reference_percentile(v, p)))
        << "flow_stats p" << p;
  }
  for (const double p : {0.0, 12.5, 50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(v, p)),
              std::bit_cast<std::uint64_t>(sorted_reference_percentile(v, p)))
        << "percentile p" << p;
  }
}

TEST(FlowStats, PercentilesMatchSortReference) {
  // Distinct, heavily duplicated and all-equal flows at every size up to
  // 300 (n = 101 puts p50/p95/p99 on integer positions, so hi == lo) and at
  // 100k, where the nested selections work on long upper parts.
  std::mt19937_64 rng(20261017);
  std::exponential_distribution<double> flow(0.7);
  std::uniform_int_distribution<int> few(0, 4);
  const auto check_all_shapes = [&](std::size_t n) {
    std::vector<double> distinct(n), duplicated(n);
    for (std::size_t i = 0; i < n; ++i) {
      distinct[i] = flow(rng);
      duplicated[i] = 0.25 * few(rng);
    }
    expect_percentiles_match_sort(distinct);
    expect_percentiles_match_sort(duplicated);
    expect_percentiles_match_sort(std::vector<double>(n, 3.75));
  };
  for (std::size_t n = 1; n <= 300; ++n) check_all_shapes(n);
  check_all_shapes(100'000);
}

// --- flow_stats against the algorithm it replaced --------------------------

/// std::pow with an exponent the compiler cannot see: with a literal 2.0
/// GCC folds std::pow(x, 2.0) into x * x, which is not what pow returns.
double runtime_pow(double v, double k) {
  volatile double exponent = k;
  return std::pow(v, exponent);
}

/// flow_stats as it was computed before the fused pass and radix select:
/// lk_norm through std::pow, linf_norm, then the nth_element chain.
FlowStats reference_flow_stats(std::vector<double> flows) {
  FlowStats s;
  s.n = flows.size();
  if (flows.empty()) return s;
  double sum = 0.0, sq = 0.0;
  for (double f : flows) {
    sum += f;
    sq += f * f;
  }
  const auto norm = [&](double k) {
    double vmax = 0.0;
    for (double v : flows) {
      if (v < 0.0) throw std::invalid_argument("lk_norm: negative value");
      vmax = std::max(vmax, v);
    }
    if (vmax <= 0.0) return 0.0;
    double acc = 0.0;
    for (double v : flows) acc += runtime_pow(v / vmax, k);
    return vmax * runtime_pow(acc, 1.0 / k);
  };
  s.l1 = sum;
  s.l2 = norm(2.0);
  s.l3 = norm(3.0);
  s.linf = 0.0;
  for (double v : flows) s.linf = std::max(s.linf, v);
  s.mean = sum / static_cast<double>(s.n);
  s.variance = std::max(0.0, sq / static_cast<double>(s.n) - s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);
  std::size_t from = 0;
  const auto select = [&](double p) {
    const double pos = (p / 100.0) * static_cast<double>(flows.size() - 1);
    const auto lo_rank = static_cast<std::size_t>(std::floor(pos));
    const auto hi_rank = static_cast<std::size_t>(std::ceil(pos));
    const auto lo = flows.begin() + static_cast<std::ptrdiff_t>(lo_rank);
    std::nth_element(flows.begin() + static_cast<std::ptrdiff_t>(from), lo,
                     flows.end());
    from = lo_rank;
    const double v_hi =
        hi_rank == lo_rank ? *lo : *std::min_element(lo + 1, flows.end());
    const double frac = pos - static_cast<double>(lo_rank);
    return *lo * (1.0 - frac) + v_hi * frac;
  };
  s.p50 = select(50.0);
  s.p95 = select(95.0);
  s.p99 = select(99.0);
  return s;
}

void expect_flow_stats_match_reference(const std::vector<double>& v,
                                       const std::string& shape) {
  SCOPED_TRACE(shape + " n=" + std::to_string(v.size()));
  const FlowStats got = flow_stats(v);
  const FlowStats want = reference_flow_stats(v);
  EXPECT_EQ(got.n, want.n);
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"l1", {got.l1, want.l1}},
      {"l2", {got.l2, want.l2}},
      {"l3", {got.l3, want.l3}},
      {"linf", {got.linf, want.linf}},
      {"mean", {got.mean, want.mean}},
      {"variance", {got.variance, want.variance}},
      {"stddev", {got.stddev, want.stddev}},
      {"p50", {got.p50, want.p50}},
      {"p95", {got.p95, want.p95}},
      {"p99", {got.p99, want.p99}}};
  for (const auto& [name, values] : fields) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(values.first),
              std::bit_cast<std::uint64_t>(values.second))
        << name << ": " << values.first << " vs " << values.second;
  }
}

TEST(FlowStats, MatchesReferenceBitwise) {
  // The sizes straddle the radix-select cutoff (4096 values); -0.0 and NaN
  // take the nth_element chain at every size.
  std::mt19937_64 rng(20261020);
  std::exponential_distribution<double> flow(0.7);
  std::uniform_real_distribution<double> exponent(-40.0, 40.0);
  std::uniform_int_distribution<int> few(0, 4);
  for (const std::size_t n : {0, 1, 2, 3, 4095, 4096, 50'000}) {
    std::vector<double> distinct(n), wide(n), ties(n);
    for (std::size_t i = 0; i < n; ++i) {
      distinct[i] = flow(rng);
      wide[i] = std::exp2(exponent(rng));  // forty binades either side of 1
      ties[i] = 0.25 * few(rng);
    }
    expect_flow_stats_match_reference(distinct, "distinct");
    expect_flow_stats_match_reference(wide, "wide");
    expect_flow_stats_match_reference(ties, "ties");
    expect_flow_stats_match_reference(std::vector<double>(n, 3.75), "equal");
    if (n == 0) continue;
    std::vector<double> mostly_equal(n, 1.5);
    mostly_equal[n / 2] = 2.0;
    mostly_equal[n - 1] = 0.0;
    expect_flow_stats_match_reference(mostly_equal, "mostly equal");
    std::vector<double> with_inf = distinct;
    with_inf[n / 3] = kInf;
    expect_flow_stats_match_reference(with_inf, "with inf");
    std::vector<double> neg_zero = distinct;
    neg_zero[n / 2] = -0.0;
    expect_flow_stats_match_reference(neg_zero, "with -0.0");
    std::vector<double> nan = ties;
    nan[n - 1] = std::numeric_limits<double>::quiet_NaN();
    expect_flow_stats_match_reference(nan, "with NaN");
  }
  std::vector<double> negative(5000, 1.0);
  negative[4000] = -1.0;
  EXPECT_THROW((void)flow_stats(negative), std::invalid_argument);
}

TEST(LinfNorm, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(linf_norm(std::vector<double>{}), 0.0);
}

TEST(WeightedLkPower, MatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const std::vector<double> w{2.0, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(weighted_lk_power(v, w, 1.0), 2.0 + 2.0 + 1.5);
  EXPECT_DOUBLE_EQ(weighted_lk_power(v, w, 2.0), 2.0 + 4.0 + 4.5);
}

TEST(WeightedLkPower, UnitWeightsMatchUnweighted) {
  const std::vector<double> v{0.5, 1.5, 2.5};
  const std::vector<double> w{1.0, 1.0, 1.0};
  for (double k : {1.0, 2.0, 3.0}) {
    EXPECT_NEAR(weighted_lk_power(v, w, k), lk_power_sum(v, k), 1e-12);
    EXPECT_NEAR(weighted_lk_norm(v, w, k), lk_norm(v, k), 1e-12);
  }
}

TEST(WeightedLkNorm, InfinityFiltersZeroWeights) {
  const std::vector<double> v{10.0, 3.0};
  const std::vector<double> w{0.0, 1.0};
  EXPECT_DOUBLE_EQ(weighted_lk_norm(v, w, kInf), 3.0);
}

TEST(WeightedLkPower, RejectsBadInput) {
  const std::vector<double> v{1.0};
  const std::vector<double> w{1.0, 2.0};
  EXPECT_THROW((void)weighted_lk_power(v, w, 2.0), std::invalid_argument);
  const std::vector<double> neg{-1.0};
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)weighted_lk_power(neg, one, 2.0), std::invalid_argument);
  EXPECT_THROW((void)weighted_lk_power(one, neg, 2.0), std::invalid_argument);
  EXPECT_THROW((void)weighted_lk_power(one, one, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace tempofair
