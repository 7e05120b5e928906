// Portable data-parallel kernels for the engine's fused inner loops and the
// min-cost-flow arc scan.
//
// This shim is the ONLY place in the tree allowed to include <immintrin.h>
// (scripts/header_lint.sh enforces the confinement).  Each kernel has two
// implementations selected at COMPILE time by the instruction-set macros the
// build defines (-mavx2 via the TEMPOFAIR_SIMD cmake option): a vector path
// and a scalar fallback that is the definitional reference.  At runtime the
// TEMPOFAIR_FORCE_SCALAR environment variable (read once per process)
// forces the scalar fallback even in a vector build, so sanitizers and the
// determinism tests can cover both paths of one binary.
//
// Bitwise contract: every kernel performs exactly the same IEEE-754
// operations per element as its scalar fallback -- same multiply, same
// subtract, in round-to-nearest, with NO fused-multiply-add contraction
// (the intrinsics used are plain mul/sub/div, which the compiler may not
// contract) and NO reassociation of per-element chains.  Horizontal
// reductions are only used for min(), which is associative and commutative
// over the non-NaN doubles the engine feeds it, so vector-lane order cannot
// change the result.  FastForwardCore's fast/slow equivalence tests,
// MinCostFlow's reference test and tests/core/simd_test.cpp hold both paths
// to this bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#if defined(__AVX2__)
#include <immintrin.h>
#define TEMPOFAIR_SIMD_AVX2 1
#endif

namespace tempofair::simd {

/// Compile-time width of the vector path (doubles per register); 1 when the
/// build has no vector ISA enabled.
#if defined(TEMPOFAIR_SIMD_AVX2)
inline constexpr std::size_t kVectorWidth = 4;
#else
inline constexpr std::size_t kVectorWidth = 1;
#endif

/// True when TEMPOFAIR_FORCE_SCALAR is set to a non-empty, non-"0" value.
/// Evaluated once; the knob exists so one binary can exercise both code
/// paths (sanitize CI runs the suite twice, once forced scalar).
[[nodiscard]] inline bool force_scalar() noexcept {
  static const bool forced = [] {
    const char* env = std::getenv("TEMPOFAIR_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }();
  return forced;
}

/// True when calls will take the vector path (vector build and not forced
/// scalar); what the perf cases and tests report about the running config.
[[nodiscard]] inline bool vector_active() noexcept {
  return kVectorWidth > 1 && !force_scalar();
}

// --- scalar reference implementations --------------------------------------
// These are the semantics; the vector paths below must match them bitwise.

namespace scalar {

inline void sub_scalar(double* v, std::size_t n, double delta) noexcept {
  for (std::size_t i = 0; i < n; ++i) v[i] -= delta;
}

inline void advance(double* attained, double* remaining, const double* rates,
                    std::size_t n, double dt) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double delta = rates[i] * dt;
    attained[i] += delta;
    remaining[i] -= delta;
  }
}

inline void sub_product(double* remaining, const double* rates, std::size_t n,
                        double dt) noexcept {
  for (std::size_t i = 0; i < n; ++i) remaining[i] -= rates[i] * dt;
}

/// min over i with rates[i] > 0 of remaining[i] / rates[i]; +inf when no
/// rate is positive.  remaining[i] must be > 0 (the engine guarantees alive
/// jobs keep positive remaining work), so a zero rate divides to +inf and
/// drops out of the min on its own -- no NaN can appear.
[[nodiscard]] inline double min_ratio(const double* remaining,
                                      const double* rates,
                                      std::size_t n) noexcept {
  double best = __builtin_inf();
  for (std::size_t i = 0; i < n; ++i) {
    const double cdt = remaining[i] / rates[i];
    if (cdt < best) best = cdt;
  }
  return best;
}

/// Calls on_hit(i, label) in increasing i for every arc i < n with
/// cap[i] > cap_eps and label = d + max((cost[i] + pu) - pot[i], 0) below
/// dist[i] - eps: MinCostFlow's Dijkstra relaxation test over one run of
/// arcs whose heads are consecutive nodes (pot and dist point at the run's
/// first head).  on_hit may write dist[i] -- and only that -- for the i it
/// is given.
template <class OnHit>
inline void for_each_improving_arc(const double* cap, const double* cost,
                                   const double* pot, const double* dist,
                                   std::size_t n, double pu, double d,
                                   double eps, double cap_eps,
                                   OnHit&& on_hit) {
  for (std::size_t i = 0; i < n; ++i) {
    if (cap[i] <= cap_eps) continue;
    const double label = d + std::max((cost[i] + pu) - pot[i], 0.0);
    if (label < dist[i] - eps) on_hit(i, label);
  }
}

}  // namespace scalar

// --- public kernels (vector path + runtime force-scalar escape) -------------

/// v[i] -= delta for all i (the kUniformShare fused advance: every alive job
/// loses the same rounded delta, order preserved -- F2 in fast_forward.cpp).
inline void sub_scalar(double* v, std::size_t n, double delta) noexcept {
#if defined(TEMPOFAIR_SIMD_AVX2)
  if (!force_scalar()) {
    const __m256d d = _mm256_set1_pd(delta);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(v + i, _mm256_sub_pd(_mm256_loadu_pd(v + i), d));
    }
    for (; i < n; ++i) v[i] -= delta;
    return;
  }
#endif
  scalar::sub_scalar(v, n, delta);
}

/// attained[i] += rates[i]*dt; remaining[i] -= rates[i]*dt.  The generic
/// loop's per-job advance, fused over the SoA columns.  Explicit mul then
/// add/sub -- never FMA -- so the rounding matches the scalar loop exactly.
inline void advance(double* attained, double* remaining, const double* rates,
                    std::size_t n, double dt) noexcept {
#if defined(TEMPOFAIR_SIMD_AVX2)
  if (!force_scalar()) {
    const __m256d vdt = _mm256_set1_pd(dt);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d delta = _mm256_mul_pd(_mm256_loadu_pd(rates + i), vdt);
      _mm256_storeu_pd(attained + i,
                       _mm256_add_pd(_mm256_loadu_pd(attained + i), delta));
      _mm256_storeu_pd(remaining + i,
                       _mm256_sub_pd(_mm256_loadu_pd(remaining + i), delta));
    }
    for (; i < n; ++i) {
      const double delta = rates[i] * dt;
      attained[i] += delta;
      remaining[i] -= delta;
    }
    return;
  }
#endif
  scalar::advance(attained, remaining, rates, n, dt);
}

/// remaining[i] -= rates[i]*dt (the kWeightedShare fused advance; no
/// attained column is kept for weight-static policies).
inline void sub_product(double* remaining, const double* rates, std::size_t n,
                        double dt) noexcept {
#if defined(TEMPOFAIR_SIMD_AVX2)
  if (!force_scalar()) {
    const __m256d vdt = _mm256_set1_pd(dt);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d delta = _mm256_mul_pd(_mm256_loadu_pd(rates + i), vdt);
      _mm256_storeu_pd(remaining + i,
                       _mm256_sub_pd(_mm256_loadu_pd(remaining + i), delta));
    }
    for (; i < n; ++i) remaining[i] -= rates[i] * dt;
    return;
  }
#endif
  scalar::sub_product(remaining, rates, n, dt);
}

/// Earliest predicted completion: min over positive-rate jobs of
/// remaining/rate (+inf when none).  Division by a zero rate yields +inf
/// (remaining > 0), which cannot win the min, so the vector path needs no
/// mask; min is order-independent over non-NaN values, so the horizontal
/// reduction matches the scalar left-to-right min bitwise.
[[nodiscard]] inline double min_ratio(const double* remaining,
                                      const double* rates,
                                      std::size_t n) noexcept {
#if defined(TEMPOFAIR_SIMD_AVX2)
  if (!force_scalar()) {
    __m256d best = _mm256_set1_pd(__builtin_inf());
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      best = _mm256_min_pd(best, _mm256_div_pd(_mm256_loadu_pd(remaining + i),
                                               _mm256_loadu_pd(rates + i)));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, best);
    double out = lanes[0];
    if (lanes[1] < out) out = lanes[1];
    if (lanes[2] < out) out = lanes[2];
    if (lanes[3] < out) out = lanes[3];
    for (; i < n; ++i) {
      const double cdt = remaining[i] / rates[i];
      if (cdt < out) out = cdt;
    }
    return out;
  }
#endif
  return scalar::min_ratio(remaining, rates, n);
}

/// MinCostFlow's arc scan (see scalar::for_each_improving_arc).  Four arcs
/// are tested at once with the scalar test's operations in its order:
/// `!(cap <= cap_eps)` is _CMP_NLE_UQ, and max(zero, x) returns x unless
/// 0 > x, exactly as std::max(x, 0.0) does (-0.0 and NaN included).  The
/// lanes' heads are distinct, so on_hit's write to dist[i] cannot change a
/// later lane's test that was computed before it ran.
template <class OnHit>
inline void for_each_improving_arc(const double* cap, const double* cost,
                                   const double* pot, const double* dist,
                                   std::size_t n, double pu, double d,
                                   double eps, double cap_eps,
                                   OnHit&& on_hit) {
#if defined(TEMPOFAIR_SIMD_AVX2)
  if (!force_scalar()) {
    const __m256d vpu = _mm256_set1_pd(pu);
    const __m256d vd = _mm256_set1_pd(d);
    const __m256d veps = _mm256_set1_pd(eps);
    const __m256d vcap_eps = _mm256_set1_pd(cap_eps);
    const __m256d zero = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d open =
          _mm256_cmp_pd(_mm256_loadu_pd(cap + i), vcap_eps, _CMP_NLE_UQ);
      const __m256d reduced = _mm256_sub_pd(
          _mm256_add_pd(_mm256_loadu_pd(cost + i), vpu),
          _mm256_loadu_pd(pot + i));
      const __m256d label = _mm256_add_pd(vd, _mm256_max_pd(zero, reduced));
      const __m256d better = _mm256_cmp_pd(
          label, _mm256_sub_pd(_mm256_loadu_pd(dist + i), veps), _CMP_LT_OQ);
      unsigned hits = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_and_pd(open, better)));
      if (hits == 0) continue;
      alignas(32) double labels[4];
      _mm256_store_pd(labels, label);
      do {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(hits));
        on_hit(i + lane, labels[lane]);
        hits &= hits - 1;
      } while (hits != 0);
    }
    scalar::for_each_improving_arc(cap + i, cost + i, pot + i, dist + i, n - i,
                                   pu, d, eps, cap_eps,
                                   [&](std::size_t j, double label) {
                                     on_hit(i + j, label);
                                   });
    return;
  }
#endif
  scalar::for_each_improving_arc(cap, cost, pot, dist, n, pu, d, eps, cap_eps,
                                 on_hit);
}

}  // namespace tempofair::simd
