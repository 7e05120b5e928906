// JobStream: a pull-based source of jobs in release order.
//
// The Instance-based entry points materialize every job up front; for
// million-job runs that is an avoidable O(n) staging cost (and an O(n)
// allocation spike) when the workload is generated procedurally anyway.  A
// JobStream yields jobs one at a time in nondecreasing release order with
// dense sequential ids, so the engine's fast path can admit arrivals
// directly from the generator with O(1) lookahead and never hold more than
// the alive set in memory.
//
// Contract:
//   S1. n() is the exact number of jobs the stream will yield.
//   S2. next() is called exactly n() times; call i (0-based) returns a job
//       with id == i, release nondecreasing in i, size > 0, weight > 0,
//       all finite and releases >= 0.
//
// Generators live in workload/stream.h; detail::InstanceRefStream adapts an
// existing Instance for tests and equivalence checks.
#pragma once

#include <cstddef>

#include "core/job.h"

namespace tempofair {

class JobStream {
 public:
  virtual ~JobStream() = default;
  JobStream() = default;
  JobStream(const JobStream&) = delete;
  JobStream& operator=(const JobStream&) = delete;

  /// Total number of jobs this stream yields (S1).
  [[nodiscard]] virtual std::size_t n() const noexcept = 0;
  /// The next job, in release order with sequential ids (S2).
  [[nodiscard]] virtual Job next() = 0;
};

}  // namespace tempofair
