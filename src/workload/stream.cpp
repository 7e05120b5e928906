#include "workload/stream.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tempofair::workload {

namespace detail {

PoissonStream::PoissonStream(std::size_t n, double lambda, const SizeDist& dist,
                             Rng& rng)
    : n_(n), lambda_(lambda), dist_(&dist), rng_(&rng) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("PoissonStream: lambda must be > 0");
  }
}

Job PoissonStream::next() {
  if (emitted_ == n_) {
    throw std::logic_error("PoissonStream: next() called past n()");
  }
  clock_ += rng_->exponential(1.0 / lambda_);
  const Job j{static_cast<JobId>(emitted_), clock_, draw_size(*dist_, *rng_)};
  ++emitted_;
  return j;
}

PoissonStream poisson_load_stream(std::size_t n, int machines,
                                  double utilization, const SizeDist& dist,
                                  Rng& rng) {
  if (!(utilization > 0.0) || utilization > 1.5) {
    throw std::invalid_argument(
        "poisson_load_stream: utilization outside (0, 1.5]");
  }
  if (machines < 1) {
    throw std::invalid_argument("poisson_load_stream: machines < 1");
  }
  const double lambda = utilization * machines / mean_size(dist);
  return PoissonStream(n, lambda, dist, rng);
}

InstanceRefStream::InstanceRefStream(const Instance& instance)
    : instance_(&instance) {
  if (instance.ids_in_release_order()) return;
  // Name the first out-of-place rank in the message.
  const std::span<const JobId> order = instance.release_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<JobId>(i)) {
      throw std::invalid_argument(
          "InstanceRefStream: job ids are not sequential in release order "
          "(job at release rank " + std::to_string(i) + " has id " +
          std::to_string(order[i]) + "); cannot stream without relabeling");
    }
  }
}

std::size_t InstanceRefStream::n() const noexcept { return instance_->n(); }

Job InstanceRefStream::next() {
  if (next_ == instance_->n()) {
    throw std::logic_error("InstanceRefStream: next() called past n()");
  }
  return instance_->job(static_cast<JobId>(next_++));
}

}  // namespace detail

Instance materialize(JobStream& stream) {
  std::vector<Job> jobs;
  jobs.reserve(stream.n());
  for (std::size_t i = 0; i < stream.n(); ++i) jobs.push_back(stream.next());
  return Instance::from_jobs(std::move(jobs));
}

}  // namespace tempofair::workload
