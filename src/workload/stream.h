// Streaming workload generators (core/job_stream.h implementations).
//
// Materializing generators stage every job before the engine sees the first
// one; at a million jobs that is an O(n) allocation spike paid purely for
// staging.  detail::PoissonStream draws the *identical* RNG sequence one job
// at a time, so the engine's fast path admits arrivals straight from the
// generator and the run's footprint is the alive set plus the trace --
// never the full instance.  detail::poisson_stream is materialize() over a
// PoissonStream, so one draw loop serves both and seeding their Rngs alike
// yields bitwise-equal jobs, which is what the equivalence tests rely on.
//
// Callers should not name these concrete classes directly: describe the
// workload with a WorkloadSpec and obtain the stream from
// workload::make_source() (workload/source.h).
#pragma once

#include <cstddef>

#include "core/instance.h"
#include "core/job_stream.h"
#include "workload/generators.h"
#include "workload/rng.h"

namespace tempofair::workload {

namespace detail {

/// Poisson arrivals with rate `lambda`, iid sizes from `dist`; job i is the
/// i-th arrival, so ids are sequential in release order (contract S2).
/// Draws from `rng` lazily in next(): the gap to the arrival, then its size.
/// The Rng and SizeDist must outlive the stream.
class PoissonStream final : public JobStream {
 public:
  PoissonStream(std::size_t n, double lambda, const SizeDist& dist, Rng& rng);

  [[nodiscard]] std::size_t n() const noexcept override { return n_; }
  [[nodiscard]] Job next() override;

 private:
  std::size_t n_;
  double lambda_;
  const SizeDist* dist_;
  Rng* rng_;
  std::size_t emitted_ = 0;
  Time clock_ = 0.0;
};

/// PoissonStream with lambda chosen so that utilization
/// lambda*E[size]/machines equals `utilization` in (0, 1.5]; the one
/// calibration detail::poisson_load() materializes.
[[nodiscard]] PoissonStream poisson_load_stream(std::size_t n, int machines,
                                                double utilization,
                                                const SizeDist& dist, Rng& rng);

/// Adapts a materialized Instance as a JobStream, for equivalence tests and
/// trace replay.  Requires the instance's ids to already be sequential in
/// release order (true for the generator outputs); throws
/// std::invalid_argument otherwise, since relabeling would silently change
/// the id -> job mapping being compared.
class InstanceRefStream final : public JobStream {
 public:
  explicit InstanceRefStream(const Instance& instance);

  [[nodiscard]] std::size_t n() const noexcept override;
  [[nodiscard]] Job next() override;

 private:
  const Instance* instance_;
  std::size_t next_ = 0;
};

}  // namespace detail

/// Drains `stream` into a materialized Instance (for running the same
/// workload through the generic engine loop or a non-streaming analysis).
[[nodiscard]] Instance materialize(JobStream& stream);

}  // namespace tempofair::workload
