#include "core/pow_k.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace tempofair {
namespace {

/// std::pow with an exponent the compiler cannot see: with a literal 2.0
/// GCC folds std::pow(x, 2.0) into x * x, and the test would then compare
/// x * x with itself.
double runtime_pow(double v, double k) {
  volatile double exponent = k;
  return std::pow(v, exponent);
}

/// |v^k - p| in units of ulp(p), p = RN(RN(v * v) * v) for k = 3 and
/// RN(v * v) for k = 2 (exact from FMA residuals in the normal range): how
/// close v sits to a rounding midpoint, for picking inputs near one.
double residual_ulps(double v, int k) {
  const double h = v * v;
  const double l = std::fma(v, v, -h);
  double p = h;
  double r = l;
  if (k == 3) {
    p = h * v;
    r = std::fma(l, v, std::fma(h, v, -p));
  }
  const int e = std::ilogb(p);
  return std::fabs(r) / std::ldexp(1.0, e - 52);
}

/// Appends `count` uniform values on [lo, hi].
void append_uniform(std::vector<double>& out, std::mt19937_64& rng, double lo,
                    double hi, std::size_t count) {
  std::uniform_real_distribution<double> u(lo, hi);
  for (std::size_t i = 0; i < count; ++i) out.push_back(u(rng));
}

TEST(PowK, MatchesStdPowBitwise) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const int k : {2, 3}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::mt19937_64 rng(20261020 + static_cast<unsigned>(k));
    std::vector<double> inputs;
    inputs.reserve(11'000'000);
    append_uniform(inputs, rng, 0.0, 1.0, 3'500'000);
    append_uniform(inputs, rng, 1e-3, 1e4, 3'500'000);
    append_uniform(inputs, rng, 0.0, 1e-3, 3'000'000);

    // Powers of two (of either sign), zeros, infinities and NaN.
    for (int e = -1074; e <= 1023; ++e) {
      inputs.push_back(std::ldexp(1.0, e));
      inputs.push_back(-std::ldexp(1.0, e));
    }
    for (const double v : {0.0, -0.0, kInf, -kInf,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max()}) {
      inputs.push_back(v);
    }
    // Results that are subnormal, that underflow to zero, that overflow,
    // and values near the edges of pow_k's [2^-900, 2^1000) window.
    const double edge = 1.0 / static_cast<double>(k);
    for (const double lo_exp : {-1080.0 * edge, -1022.0 * edge,
                                -900.0 * edge, 1000.0 * edge, 1024.0 * edge}) {
      std::uniform_real_distribution<double> scale(lo_exp - 2.0, lo_exp + 2.0);
      for (int i = 0; i < 20'000; ++i) inputs.push_back(std::exp2(scale(rng)));
    }
    // Negative values.
    append_uniform(inputs, rng, -1e4, 0.0, 100'000);

    // Exact rounding midpoints: an odd integer whose k-th power has exactly
    // 54 significant bits lies halfway between two doubles; scaled by powers
    // of two so the exponent varies.
    const double m_lo = std::ceil(std::exp2(53.0 / k));
    const double m_hi = std::exp2(54.0 / k);
    std::uniform_int_distribution<int> shift(-100, 100);
    std::size_t midpoints = 0;
    for (double m = m_lo + (std::fmod(m_lo, 2.0) == 0.0 ? 1.0 : 0.0);
         m < m_hi && midpoints < 200'000; m += 2.0, ++midpoints) {
      inputs.push_back(std::ldexp(m, shift(rng)));
    }
    // Near-midpoint values: random ones whose power sits at least 0.40 ulp
    // from the nearest candidate, so many take the std::pow fallback.
    std::uniform_real_distribution<double> wide(-30.0, 30.0);
    std::size_t near = 0;
    while (near < 1'000'000) {
      const double v = std::exp2(wide(rng));
      if (residual_ulps(v, k) >= 0.40) {
        inputs.push_back(v);
        ++near;
      }
    }
    ASSERT_GE(inputs.size(), 10'000'000u);

    std::size_t mismatches = 0;
    double first_bad = 0.0;
    for (const double v : inputs) {
      const double got = pow_k(v, k);
      const double want = runtime_pow(v, k);
      if (std::bit_cast<std::uint64_t>(got) !=
          std::bit_cast<std::uint64_t>(want)) {
        if (mismatches++ == 0) first_bad = v;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "first mismatch at v = " << std::hexfloat
                              << first_bad;
  }
}

}  // namespace
}  // namespace tempofair
