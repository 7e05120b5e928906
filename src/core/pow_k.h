// v^k for the integer exponents of the l_k objective, bit-identical to
// std::pow(v, k) but cheaper where that is provably safe.
//
// For k = 2 and k = 3 pow_k forms the double c nearest v^k and the residual
// v^k - c with explicit FMAs, and returns c when the residual is at most
// 0.45 ulp(c).  glibc documents pow() as accurate to 0.52 ULP in
// round-to-nearest, and the other neighbour of c then lies more than 0.55
// ulp from v^k, so pow() must return c too.  Powers of two (where the
// neighbours are not evenly spaced), results outside [2^-900, 2^1000)
// (where the residual could underflow or overflow) and NaN take std::pow,
// as does every other exponent.  PowK.MatchesStdPowBitwise holds this to
// std::pow bit for bit; DESIGN.md (metrics) has the argument in full.
//
// Without hardware FMA enabled (-mfma) std::fma is a library call: the bits
// are the same, only slower.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace tempofair {

namespace pow_k_detail {

/// True when c is the value pow() returns for a power whose exact value is
/// c + residual.
[[nodiscard]] inline bool certain(double c, double residual) noexcept {
  constexpr std::uint64_t kMagnitude = ~(std::uint64_t{1} << 63);
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ULL;
  constexpr std::uint64_t kLow = std::bit_cast<std::uint64_t>(0x1p-900);
  constexpr std::uint64_t kHigh = std::bit_cast<std::uint64_t>(0x1p1000);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(c) & kMagnitude;
  if (bits < kLow || bits >= kHigh) return false;   // also NaN and inf
  if ((bits & ~kExponent) == 0) return false;       // a power of two
  const double ulp = std::bit_cast<double>(bits & kExponent) * 0x1p-52;
  return std::fabs(residual) <= 0.45 * ulp;
}

}  // namespace pow_k_detail

/// std::pow(v, k), bit for bit.  k == 1 returns v (the exact result, which
/// a pow() accurate below 1 ULP must return); k == 0 returns 1 for every v,
/// NaN included (C Annex F); k == 2 and k == 3 skip the call when the FMA
/// residual proves the result (see above).
[[nodiscard]] inline double pow_k(double v, double k) {
  if (k == 1.0) return v;
  if (k == 0.0) return 1.0;
  if (k == 2.0) {
    const double c = v * v;
    if (pow_k_detail::certain(c, std::fma(v, v, -c))) return c;
  } else if (k == 3.0) {
    const double h = v * v;
    const double l = std::fma(v, v, -h);  // v * v == h + l exactly
    const double p = h * v;
    // v^3 - p = (h v - p) + l v: the first term exactly, one rounding.
    const double r = std::fma(l, v, std::fma(h, v, -p));
    const double c = p + r;  // p, or its neighbour when r passes half an ulp
    if (pow_k_detail::certain(c, (p - c) + r)) return c;
  }
  return std::pow(v, k);
}

}  // namespace tempofair
