#include "lpsolve/rational.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace tempofair::lpsolve {

namespace {

using Int = Rational::Int;
using UInt = unsigned __int128;

UInt uabs(Int v) {
  return v < 0 ? -static_cast<UInt>(v) : static_cast<UInt>(v);
}

/// Trailing zero bits of v != 0.
int ctz_u(UInt v) {
  const auto lo = static_cast<std::uint64_t>(v);
  return lo != 0 ? __builtin_ctzll(lo)
                 : 64 + __builtin_ctzll(static_cast<std::uint64_t>(v >> 64));
}

/// Binary (Stein's) gcd of two odd values: only shifts and subtractions.
template <typename U>
U odd_gcd(U a, U b) {
  for (;;) {
    if (a > b) std::swap(a, b);
    if (a == 1) return 1;
    b -= a;  // even
    if (b == 0) return a;
    if constexpr (sizeof(U) == 8) {
      b >>= __builtin_ctzll(b);
    } else {
      b >>= ctz_u(b);
    }
  }
}

/// The gcd, computed without the 128-bit divisions of Euclid's algorithm
/// (a library call each), which dominated exact-certificate arithmetic.
/// The operands here are mostly dyadic, where it finishes in a step or two.
UInt gcd_u(UInt a, UInt b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = ctz_u(a | b);
  a >>= ctz_u(a);
  b >>= ctz_u(b);
  if (((a | b) >> 64) == 0) {
    return static_cast<UInt>(odd_gcd(static_cast<std::uint64_t>(a),
                                     static_cast<std::uint64_t>(b)))
           << shift;
  }
  return odd_gcd(a, b) << shift;
}

/// v / g for a g > 0 that divides v exactly: a shift when g is a power of
/// two (exact division rounds nothing, so the shift agrees for negative v).
Rational::Int exact_div(Rational::Int v, UInt g) {
  if ((g & (g - 1)) == 0) return v >> ctz_u(g);
  return v / static_cast<Rational::Int>(g);
}

bool mul_overflows(Int a, Int b, Int* out) {
  return __builtin_mul_overflow(a, b, out);
}

bool add_overflows(Int a, Int b, Int* out) {
  return __builtin_add_overflow(a, b, out);
}

double int128_to_double(Int v) {
  return static_cast<double>(v);  // correctly rounded per IEEE conversion
}

}  // namespace

Rational Rational::make(Int num, Int den) noexcept {
  if (den == 0) return invalid();
  if (den < 0) {
    // -INT128_MIN overflows; such a denominator cannot be normalized.
    if (den == std::numeric_limits<Int>::min() ||
        num == std::numeric_limits<Int>::min()) {
      return invalid();
    }
    num = -num;
    den = -den;
  }
  if (num == 0) return Rational(0, 1, true);
  const UInt g = gcd_u(uabs(num), static_cast<UInt>(den));
  if (g > 1) {
    num = exact_div(num, g);
    den = exact_div(den, g);
  }
  return Rational(num, den, true);
}

Rational Rational::invalid() {
  return Rational(0, 0, false);
}

Rational Rational::from_int(long long value) {
  return Rational(static_cast<Int>(value), 1, true);
}

Rational Rational::from_ratio(long long num, long long den) {
  return make(static_cast<Int>(num), static_cast<Int>(den));
}

Rational Rational::from_double(double value) {
  if (!std::isfinite(value)) return invalid();
  if (value == 0.0) return Rational();
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // value = mant * 2^exp
  // mant * 2^53 is an odd-or-even integer with |.| in [2^52, 2^53).
  const auto scaled = static_cast<long long>(std::ldexp(mant, 53));
  const int pow2 = exp - 53;  // value = scaled * 2^pow2
  if (pow2 >= 0) {
    if (pow2 > 74) return invalid();  // |scaled| < 2^53; shift must fit
    return make(static_cast<Int>(scaled) << pow2, 1);
  }
  if (pow2 < -126) return invalid();
  return make(static_cast<Int>(scaled), static_cast<Int>(1) << -pow2);
}

double Rational::to_double() const noexcept {
  if (!valid_) return 0.0;
  return int128_to_double(num_) / int128_to_double(den_);
}

double Rational::lower_double() const noexcept {
  if (!valid_) return -std::numeric_limits<double>::infinity();
  double d = to_double();
  // from_double is exact, so the exact comparison below terminates after at
  // most a few ulp steps (double division is correctly rounded).
  while (from_double(d) > *this) {
    d = std::nextafter(d, -std::numeric_limits<double>::infinity());
  }
  return d;
}

double Rational::upper_double() const noexcept {
  if (!valid_) return std::numeric_limits<double>::infinity();
  double d = to_double();
  while (from_double(d) < *this) {
    d = std::nextafter(d, std::numeric_limits<double>::infinity());
  }
  return d;
}

Rational Rational::floor_to_dyadic(unsigned bits) const {
  if (!valid_ || bits > 62) return invalid();
  const Int scale = static_cast<Int>(1) << bits;
  Int scaled_num = 0;
  if (mul_overflows(num_, scale, &scaled_num)) return invalid();
  // Floor division for possibly-negative numerators.
  Int q = scaled_num / den_;
  if (scaled_num % den_ != 0 && scaled_num < 0) --q;
  return make(q, scale);
}

Rational Rational::ceil_to_dyadic(unsigned bits) const {
  const Rational neg = (-*this).floor_to_dyadic(bits);
  return -neg;
}

Rational Rational::operator-() const {
  if (!valid_ || num_ == std::numeric_limits<Int>::min()) return invalid();
  return Rational(-num_, den_, true);
}

Rational operator+(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return Rational::invalid();
  // a.num/a.den + b.num/b.den over the reduced common denominator.
  const UInt g = gcd_u(static_cast<UInt>(a.den_), static_cast<UInt>(b.den_));
  const Int bden_red = exact_div(b.den_, g);
  const Int aden_red = exact_div(a.den_, g);
  Int lhs = 0, rhs = 0, num = 0, den = 0;
  if (mul_overflows(a.num_, bden_red, &lhs) ||
      mul_overflows(b.num_, aden_red, &rhs) ||
      add_overflows(lhs, rhs, &num) ||
      mul_overflows(a.den_, bden_red, &den)) {
    return Rational::invalid();
  }
  return Rational::make(num, den);
}

Rational operator-(const Rational& a, const Rational& b) {
  return a + (-b);
}

Rational operator*(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return Rational::invalid();
  // Cross-reduce before multiplying to keep intermediates small.
  const UInt g1 = gcd_u(uabs(a.num_), static_cast<UInt>(b.den_));
  const UInt g2 = gcd_u(uabs(b.num_), static_cast<UInt>(a.den_));
  const Int an = exact_div(a.num_, g1 == 0 ? 1 : g1);
  const Int bd = exact_div(b.den_, g1 == 0 ? 1 : g1);
  const Int bn = exact_div(b.num_, g2 == 0 ? 1 : g2);
  const Int ad = exact_div(a.den_, g2 == 0 ? 1 : g2);
  Int num = 0, den = 0;
  if (mul_overflows(an, bn, &num) || mul_overflows(ad, bd, &den)) {
    return Rational::invalid();
  }
  return Rational::make(num, den);
}

Rational operator/(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_ || b.num_ == 0) return Rational::invalid();
  return a * Rational::make(b.den_, b.num_);
}

bool operator==(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return false;
  return a.num_ == b.num_ && a.den_ == b.den_;  // both normalized
}

bool operator!=(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return false;
  return !(a == b);
}

bool operator<(const Rational& a, const Rational& b) {
  if (!a.valid_ || !b.valid_) return false;
  // a.num/a.den < b.num/b.den  <=>  a.num*b.den < b.num*a.den (dens > 0).
  Int lhs = 0, rhs = 0;
  if (mul_overflows(a.num_, b.den_, &lhs) ||
      mul_overflows(b.num_, a.den_, &rhs)) {
    // Fall back to the (a - b) sign, which cross-reduces internally.
    const Rational diff = a - b;
    return diff.valid_ && diff.num_ < 0;
  }
  return lhs < rhs;
}

bool operator<=(const Rational& a, const Rational& b) {
  return a == b || a < b;
}

bool operator>(const Rational& a, const Rational& b) {
  return b < a;
}

bool operator>=(const Rational& a, const Rational& b) {
  return b <= a;
}

std::string Rational::str() const {
  if (!valid_) return "invalid";
  auto digits = [](Int v) {
    if (v == 0) return std::string("0");
    const bool neg = v < 0;
    UInt u = neg ? -static_cast<UInt>(v) : static_cast<UInt>(v);
    std::string out;
    while (u != 0) {
      out.insert(out.begin(), static_cast<char>('0' + static_cast<int>(u % 10)));
      u /= 10;
    }
    if (neg) out.insert(out.begin(), '-');
    return out;
  };
  if (den_ == 1) return digits(num_);
  return digits(num_) + "/" + digits(den_);
}

}  // namespace tempofair::lpsolve
