#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "workload/stream.h"

namespace tempofair::workload {

double draw_size(const SizeDist& dist, Rng& rng) {
  return std::visit(
      [&rng](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, FixedSize>) {
          return d.value;
        } else if constexpr (std::is_same_v<T, UniformSize>) {
          return rng.uniform(d.lo, d.hi);
        } else if constexpr (std::is_same_v<T, ExponentialSize>) {
          // Avoid pathological zero-size jobs.
          return std::max(rng.exponential(d.mean), 1e-6 * d.mean);
        } else if constexpr (std::is_same_v<T, ParetoSize>) {
          double v = rng.pareto(d.alpha, d.xmin);
          if (d.cap > 0.0) v = std::min(v, d.cap);
          return v;
        } else {
          static_assert(std::is_same_v<T, BimodalSize>);
          return rng.bernoulli(d.p_small) ? d.small : d.large;
        }
      },
      dist);
}

double mean_size(const SizeDist& dist) {
  return std::visit(
      [](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, FixedSize>) {
          return d.value;
        } else if constexpr (std::is_same_v<T, UniformSize>) {
          return 0.5 * (d.lo + d.hi);
        } else if constexpr (std::is_same_v<T, ExponentialSize>) {
          return d.mean;
        } else if constexpr (std::is_same_v<T, ParetoSize>) {
          if (d.cap > 0.0) {
            // E[min(X, cap)] = xmin + integral_{xmin}^{cap} (xmin/t)^alpha dt.
            if (d.cap <= d.xmin) return d.cap;
            const double a = d.alpha;
            if (a == 1.0) {
              return d.xmin * (1.0 + std::log(d.cap / d.xmin));
            }
            return d.xmin +
                   d.xmin / (a - 1.0) * (1.0 - std::pow(d.xmin / d.cap, a - 1.0));
          }
          if (!(d.alpha > 1.0)) {
            throw std::invalid_argument(
                "mean_size: uncapped Pareto with alpha <= 1 has no mean");
          }
          return d.alpha * d.xmin / (d.alpha - 1.0);
        } else {
          static_assert(std::is_same_v<T, BimodalSize>);
          return d.p_small * d.small + (1.0 - d.p_small) * d.large;
        }
      },
      dist);
}

std::string dist_name(const SizeDist& dist) {
  std::ostringstream os;
  std::visit(
      [&os](const auto& d) {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, FixedSize>) {
          os << "fixed(" << d.value << ")";
        } else if constexpr (std::is_same_v<T, UniformSize>) {
          os << "uniform(" << d.lo << "," << d.hi << ")";
        } else if constexpr (std::is_same_v<T, ExponentialSize>) {
          os << "exp(" << d.mean << ")";
        } else if constexpr (std::is_same_v<T, ParetoSize>) {
          os << "pareto(" << d.alpha << ")";
        } else {
          os << "bimodal(" << d.small << "/" << d.large << ")";
        }
      },
      dist);
  return os.str();
}

namespace detail {

Instance poisson_stream(std::size_t n, double lambda, const SizeDist& dist,
                        Rng& rng) {
  PoissonStream stream(n, lambda, dist, rng);
  return materialize(stream);
}

Instance poisson_load(std::size_t n, int machines, double utilization,
                      const SizeDist& dist, Rng& rng) {
  PoissonStream stream =
      poisson_load_stream(n, machines, utilization, dist, rng);
  return materialize(stream);
}

Instance bursty_stream(std::size_t bursts, std::size_t per_burst, double gap,
                       const SizeDist& dist, Rng& rng) {
  if (!(gap > 0.0)) throw std::invalid_argument("bursty_stream: gap must be > 0");
  std::vector<Job> jobs;
  jobs.reserve(bursts * per_burst);
  JobId id = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    const Time t = static_cast<double>(b) * gap;
    for (std::size_t i = 0; i < per_burst; ++i) {
      jobs.push_back(Job{id++, t, draw_size(dist, rng)});
    }
  }
  return Instance::from_jobs(std::move(jobs));
}

Instance uniform_stream(std::size_t n, double gap, double size, Time start) {
  if (!(gap >= 0.0)) throw std::invalid_argument("uniform_stream: gap must be >= 0");
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(Job{static_cast<JobId>(i), start + static_cast<double>(i) * gap, size});
  }
  return Instance::from_jobs(std::move(jobs));
}

}  // namespace detail

Instance with_weights(const Instance& instance, WeightScheme scheme, Rng& rng) {
  std::vector<Job> jobs(instance.jobs().begin(), instance.jobs().end());
  for (Job& j : jobs) {
    switch (scheme) {
      case WeightScheme::kUniform:
        j.weight = 1.0;
        break;
      case WeightScheme::kRandom:
        j.weight = rng.uniform(1.0, 10.0);
        break;
      case WeightScheme::kInverseSize:
        j.weight = 1.0 / j.size;
        break;
      case WeightScheme::kProportionalSize:
        j.weight = j.size;
        break;
    }
  }
  return Instance::from_jobs(std::move(jobs));
}

}  // namespace tempofair::workload
