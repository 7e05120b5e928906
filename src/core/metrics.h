// Flow-time metrics: l_k norms and distribution statistics.
//
// The paper's objective is the l_k norm of flow time, (sum_j F_j^k)^{1/k};
// k = 1 is total (average) flow, k = 2 balances average latency against
// variance (the "temporal fairness" objective), k = infinity is max flow.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/schedule.h"
#include "core/time_types.h"

namespace tempofair {

/// (sum_j v_j^k)^(1/k).  Requires k >= 1 and all v_j >= 0.  Computed in a
/// scale-invariant way (factors out max v) so large k does not overflow.
[[nodiscard]] double lk_norm(std::span<const double> values, double k);

/// sum_j v_j^k -- the "k-th power" objective the analysis works with.
/// Accumulated in the same vmax-rescaled form as lk_norm, so the result is
/// inf only when the true sum exceeds the double range (never from an
/// intermediate term alone).
[[nodiscard]] double lk_power_sum(std::span<const double> values, double k);

/// max_j v_j (the l_infinity norm).
[[nodiscard]] double linf_norm(std::span<const double> values);

/// p-th percentile (p in [0,100]) by linear interpolation; 0 for empty
/// input.  Throws std::invalid_argument for p outside [0,100] or NaN.
[[nodiscard]] double percentile(std::span<const double> values, double p);

struct FlowStats {
  std::size_t n = 0;
  double l1 = 0.0;        ///< total flow time
  double l2 = 0.0;        ///< l2 norm of flow
  double l3 = 0.0;        ///< l3 norm of flow
  double linf = 0.0;      ///< max flow
  double mean = 0.0;
  double variance = 0.0;  ///< population variance of flows
  double stddev = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Summary statistics of a flow-time vector, in two fused passes over the
/// flows (sums, max and norms; every field has the bits lk_norm,
/// linf_norm and percentile() give).  The percentiles are selected, not
/// sorted for: by radix select over the bit patterns from 4096 flows up,
/// by an nth_element chain below that or when a flow is -0.0 or NaN.
/// Throws std::invalid_argument on a negative flow.
[[nodiscard]] FlowStats flow_stats(std::span<const double> flows);

/// Summary statistics of a schedule's flow times.
[[nodiscard]] FlowStats flow_stats(const Schedule& schedule);

/// l_k norm of a schedule's flow times (k may be +infinity).
[[nodiscard]] double flow_lk_norm(const Schedule& schedule, double k);
/// sum_j F_j^k of a schedule.
[[nodiscard]] double flow_lk_power(const Schedule& schedule, double k);

// --- Weighted flow time (the weighted-flow literature [1,7,20]) ------------

/// sum_j w_j v_j^k.  Requires matching lengths, k >= 1, v >= 0, w >= 0.
/// Accumulated vmax-rescaled, like lk_power_sum.
[[nodiscard]] double weighted_lk_power(std::span<const double> values,
                                       std::span<const double> weights,
                                       double k);

/// The weighted l_k norm (sum_j w_j v_j^k)^(1/k); for k = infinity,
/// max_j over v_j with w_j > 0 (weights act as a support filter).
[[nodiscard]] double weighted_lk_norm(std::span<const double> values,
                                      std::span<const double> weights,
                                      double k);

/// sum_j w_j F_j^k of a schedule (weights from the instance).
[[nodiscard]] double weighted_flow_lk_power(const Schedule& schedule, double k);
/// Weighted l_k norm of a schedule's flows.
[[nodiscard]] double weighted_flow_lk_norm(const Schedule& schedule, double k);

}  // namespace tempofair
