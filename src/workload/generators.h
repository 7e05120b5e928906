// Randomized workload generators.
//
// The paper's model is adversarial; for the typical-case side of the
// experiment suite we generate stochastic streams: Poisson arrivals with a
// pluggable size distribution, calibrated to a target utilization
// rho = lambda * E[size] / m (rho < 1 keeps speed-1 schedulers stable).
#pragma once

#include <variant>

#include "core/instance.h"
#include "workload/rng.h"

namespace tempofair::workload {

// --- Size distributions -----------------------------------------------------

struct FixedSize {
  double value = 1.0;
};
struct UniformSize {
  double lo = 0.5;
  double hi = 1.5;
};
struct ExponentialSize {
  double mean = 1.0;
};
/// Heavy-tailed sizes; `cap` truncates the tail (0 = uncapped).
struct ParetoSize {
  double alpha = 1.8;
  double xmin = 0.5;
  double cap = 0.0;
};
/// With probability p_small a small job, else a large one.
struct BimodalSize {
  double p_small = 0.9;
  double small = 1.0;
  double large = 50.0;
};

using SizeDist =
    std::variant<FixedSize, UniformSize, ExponentialSize, ParetoSize, BimodalSize>;

/// Draws one size from the distribution.
[[nodiscard]] double draw_size(const SizeDist& dist, Rng& rng);
/// Expected size of the distribution (Pareto uses the capped mean when
/// capped; requires alpha > 1 when uncapped).
[[nodiscard]] double mean_size(const SizeDist& dist);
/// Short human-readable name, e.g. "pareto(1.8)".
[[nodiscard]] std::string dist_name(const SizeDist& dist);

// --- Streams ----------------------------------------------------------------
//
// Describe workloads with a WorkloadSpec and build them through
// workload::make_source() / make_instance() (workload/spec.h,
// workload/source.h), which names them with one portable spec string.  The
// detail:: generators below are the single source of truth the spec layer
// calls, so a spec-built workload is bitwise-identical to a direct detail::
// call with the same Rng.

namespace detail {
/// n jobs, Poisson arrivals with rate `lambda`, iid sizes from `dist`:
/// materialize() over a detail::PoissonStream drawing from `rng`.
[[nodiscard]] Instance poisson_stream(std::size_t n, double lambda,
                                      const SizeDist& dist, Rng& rng);
/// Poisson stream calibrated so that utilization lambda*E[size]/machines
/// equals `utilization` (must be in (0, 1.5]; > 1 deliberately overloads):
/// materialize() over poisson_load_stream(), whose checks it throws.
[[nodiscard]] Instance poisson_load(std::size_t n, int machines,
                                    double utilization, const SizeDist& dist,
                                    Rng& rng);
/// `bursts` bursts of `per_burst` jobs each, bursts spaced `gap` apart,
/// iid sizes from `dist`.
[[nodiscard]] Instance bursty_stream(std::size_t bursts, std::size_t per_burst,
                                     double gap, const SizeDist& dist,
                                     Rng& rng);
/// Deterministic stream: n jobs of size `size`, released every `gap`.
[[nodiscard]] Instance uniform_stream(std::size_t n, double gap, double size,
                                      Time start = 0.0);
}  // namespace detail

// --- Weight assignment (for weighted-flow experiments) ----------------------

enum class WeightScheme {
  kUniform,          ///< all weights 1 (the paper's unweighted objective)
  kRandom,           ///< iid uniform in [1, 10]
  kInverseSize,      ///< w = 1 / p  (every job equally important per se)
  kProportionalSize  ///< w = p     (large jobs more important)
};

/// Returns a copy of `instance` with weights assigned by `scheme`.
[[nodiscard]] Instance with_weights(const Instance& instance,
                                    WeightScheme scheme, Rng& rng);

}  // namespace tempofair::workload
