#include "lpsolve/rational.h"

#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

namespace tempofair::lpsolve {
namespace {

TEST(Rational, FromRatioNormalizes) {
  EXPECT_EQ(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
  EXPECT_EQ(Rational::from_ratio(-2, 4), Rational::from_ratio(1, -2));
  EXPECT_EQ(Rational::from_ratio(0, 7), Rational::from_int(0));
  const Rational half = Rational::from_ratio(3, 6);
  EXPECT_EQ(static_cast<long long>(half.num()), 1);
  EXPECT_EQ(static_cast<long long>(half.den()), 2);
}

TEST(Rational, NormalizesToTheEuclidGcd) {
  // Every value is reduced by the gcd: odd and power-of-two factors, signs,
  // and operands wider than 64 bits after a product.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto num = static_cast<long long>(rng() >> (1 + rng() % 62)) *
                     (i % 3 == 0 ? -1 : 1);
    auto den = static_cast<long long>(rng() >> (1 + rng() % 62));
    if (i % 4 == 0) den = 1LL << (rng() % 62);
    if (den == 0) den = 1;
    const Rational r = Rational::from_ratio(num, den);
    ASSERT_TRUE(r.valid());
    const long long g = std::gcd(num, den);
    ASSERT_EQ(r.num(), static_cast<Rational::Int>(num / g)) << num << "/" << den;
    ASSERT_EQ(r.den(), static_cast<Rational::Int>(den / g)) << num << "/" << den;
    // A product of two such values is reduced across 128-bit operands.
    const Rational sq = r * Rational::from_ratio(den, 3);
    ASSERT_TRUE(sq.valid());
    const Rational::Int n2 = static_cast<Rational::Int>(num) * den;
    const Rational::Int d2 = static_cast<Rational::Int>(den) * 3;
    ASSERT_EQ(d2 % sq.den(), 0);
    ASSERT_EQ(sq.num() * (d2 / sq.den()), n2);
    Rational::Int a = sq.num() < 0 ? -sq.num() : sq.num();
    Rational::Int b = sq.den();
    while (b != 0) {
      const Rational::Int t = a % b;
      a = b;
      b = t;
    }
    ASSERT_EQ(a, 1);
  }
}

TEST(Rational, FromRatioZeroDenIsInvalid) {
  EXPECT_FALSE(Rational::from_ratio(1, 0).valid());
}

TEST(Rational, FromDoubleIsExact) {
  // 0.1 is not 1/10 in binary; the conversion must capture the double's
  // true value, so converting back is lossless.
  for (const double v : {0.1, -0.3, 1.0 / 3.0, 2.5, -1024.75, 1e-20, 3e20}) {
    const Rational r = Rational::from_double(v);
    ASSERT_TRUE(r.valid()) << v;
    EXPECT_EQ(r.to_double(), v);
  }
  EXPECT_TRUE(Rational::from_double(0.0).is_zero());
}

TEST(Rational, FromDoubleRejectsNonFinite) {
  EXPECT_FALSE(Rational::from_double(std::nan("")).valid());
  EXPECT_FALSE(
      Rational::from_double(std::numeric_limits<double>::infinity()).valid());
  // Denormals have exponents far outside the 128-bit window.
  EXPECT_FALSE(
      Rational::from_double(std::numeric_limits<double>::denorm_min()).valid());
}

TEST(Rational, ExactArithmetic) {
  const Rational third = Rational::from_ratio(1, 3);
  const Rational sixth = Rational::from_ratio(1, 6);
  EXPECT_EQ(third + sixth, Rational::from_ratio(1, 2));
  EXPECT_EQ(third - sixth, sixth);
  EXPECT_EQ(third * sixth, Rational::from_ratio(1, 18));
  EXPECT_EQ(third / sixth, Rational::from_int(2));
  EXPECT_EQ(-third, Rational::from_ratio(-1, 3));
  // The exact sum of double(0.1) and double(0.2) lies strictly between
  // double(0.3) and the rounded double sum 0.1 + 0.2 -- rationals expose the
  // rounding that doubles hide.
  const Rational sum =
      Rational::from_double(0.1) + Rational::from_double(0.2);
  EXPECT_NE(sum, Rational::from_double(0.3));
  EXPECT_NE(sum, Rational::from_double(0.1 + 0.2));
  EXPECT_LT(Rational::from_double(0.3), sum);
  EXPECT_LT(sum, Rational::from_double(0.1 + 0.2));
}

TEST(Rational, DivisionByZeroPoisons) {
  EXPECT_FALSE((Rational::from_int(1) / Rational::from_int(0)).valid());
}

TEST(Rational, OverflowPoisonsAndPropagates) {
  // (2^96 / 3) * (2^96 / 5) cannot be represented: ~2^192.
  const Rational big =
      Rational::from_double(std::ldexp(1.0, 96)) / Rational::from_int(3);
  ASSERT_TRUE(big.valid());
  const Rational big2 =
      Rational::from_double(std::ldexp(1.0, 96)) / Rational::from_int(5);
  const Rational prod = big * big2;
  EXPECT_FALSE(prod.valid());
  // Poison propagates through further arithmetic.
  EXPECT_FALSE((prod + Rational::from_int(1)).valid());
  EXPECT_FALSE((-prod).valid());
}

TEST(Rational, ComparisonsFailClosedOnInvalid) {
  const Rational bad = Rational::invalid();
  const Rational one = Rational::from_int(1);
  EXPECT_FALSE(bad == bad);
  EXPECT_FALSE(bad <= one);
  EXPECT_FALSE(one <= bad);
  EXPECT_FALSE(bad < one);
  EXPECT_FALSE(one >= bad);
  EXPECT_FALSE(bad.is_zero());
  EXPECT_FALSE(bad.is_negative());
  EXPECT_FALSE(bad.is_positive());
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational::from_ratio(1, 3), Rational::from_ratio(1, 2));
  EXPECT_LT(Rational::from_ratio(-1, 2), Rational::from_ratio(-1, 3));
  EXPECT_GT(Rational::from_int(1), Rational::from_ratio(99, 100));
  EXPECT_LE(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
}

TEST(Rational, DyadicRounding) {
  const Rational third = Rational::from_ratio(1, 3);
  const Rational down = third.floor_to_dyadic(4);  // multiples of 1/16
  const Rational up = third.ceil_to_dyadic(4);
  EXPECT_EQ(down, Rational::from_ratio(5, 16));
  EXPECT_EQ(up, Rational::from_ratio(6, 16));
  // Negative values floor away from zero.
  EXPECT_EQ((-third).floor_to_dyadic(4), Rational::from_ratio(-6, 16));
  EXPECT_EQ((-third).ceil_to_dyadic(4), Rational::from_ratio(-5, 16));
  // Grid points are fixed points.
  const Rational grid = Rational::from_ratio(3, 16);
  EXPECT_EQ(grid.floor_to_dyadic(4), grid);
  EXPECT_EQ(grid.ceil_to_dyadic(4), grid);
}

TEST(Rational, DirectedDoubleRounding) {
  const Rational third = Rational::from_ratio(1, 3);
  const double lo = third.lower_double();
  const double hi = third.upper_double();
  EXPECT_LT(lo, hi);
  EXPECT_TRUE(Rational::from_double(lo) <= third);
  EXPECT_TRUE(Rational::from_double(hi) >= third);
  // Exactly representable values round to themselves on both sides.
  const Rational half = Rational::from_ratio(1, 2);
  EXPECT_EQ(half.lower_double(), 0.5);
  EXPECT_EQ(half.upper_double(), 0.5);
  // Invalid values round to the unusable side.
  EXPECT_EQ(Rational::invalid().lower_double(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Rational::invalid().upper_double(),
            std::numeric_limits<double>::infinity());
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational::from_ratio(-7, 3).str(), "-7/3");
  EXPECT_EQ(Rational::from_int(5).str(), "5");
  EXPECT_EQ(Rational::invalid().str(), "invalid");
}

}  // namespace
}  // namespace tempofair::lpsolve
