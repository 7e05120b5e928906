// Instance: an immutable, validated set of jobs forming one scheduling input.
//
// Construction validates the input (positive sizes, finite nonnegative
// releases) and assigns dense ids 0..n-1 in the order the jobs were given.
// Jobs are additionally indexable in release order, which the engine and the
// dual-fitting verifier rely on.
//
// Construction is one O(n) pass when the jobs already arrive with ids 0..n-1
// in (release, id) order, as every generator, stream and sorted trace
// delivers them; other input is sorted, with the same result bit for bit.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/job.h"

namespace tempofair {

class Instance {
 public:
  Instance() = default;

  /// Builds an instance from (release, size) pairs; ids are assigned 0..n-1
  /// in the given order.  Throws std::invalid_argument on bad input.
  static Instance from_pairs(std::span<const std::pair<Time, Work>> pairs);

  /// Builds from explicit jobs whose ids must already be exactly 0..n-1
  /// (in any order).  Throws std::invalid_argument otherwise.
  static Instance from_jobs(std::vector<Job> jobs);

  /// Convenience: n jobs, all released at `release`, sizes as given.
  static Instance batch(std::span<const Work> sizes, Time release = 0.0);

  [[nodiscard]] std::size_t n() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }

  /// Jobs indexed by id.
  [[nodiscard]] const Job& job(JobId id) const { return jobs_.at(id); }
  [[nodiscard]] std::span<const Job> jobs() const noexcept { return jobs_; }

  /// Job ids sorted by (release, id); arrival order used by the engine.
  /// The identity 0..n-1 (built without a sort) when ids_in_release_order().
  [[nodiscard]] std::span<const JobId> release_order() const noexcept {
    return release_order_;
  }

  /// True when release_order() is the identity: job i is the i-th arrival,
  /// so the instance can be streamed in id order (stream contract S2).
  [[nodiscard]] bool ids_in_release_order() const noexcept {
    return ids_in_release_order_;
  }

  [[nodiscard]] Work total_work() const noexcept { return total_work_; }
  [[nodiscard]] Work max_size() const noexcept { return max_size_; }
  [[nodiscard]] Work min_size() const noexcept { return min_size_; }
  [[nodiscard]] Time min_release() const noexcept { return min_release_; }
  [[nodiscard]] Time max_release() const noexcept { return max_release_; }

  /// A horizon by which every work-conserving schedule on m speed-s machines
  /// is guaranteed to have finished all jobs.
  [[nodiscard]] Time horizon_bound(int machines, double speed = 1.0) const;

  /// Returns a copy with all releases shifted so min_release() == 0.
  [[nodiscard]] Instance normalized() const;

  /// Concatenates two instances (ids of `other` are shifted past ours).
  [[nodiscard]] Instance merged_with(const Instance& other) const;

  [[nodiscard]] std::string summary() const;

 private:
  explicit Instance(std::vector<Job> jobs);

  std::vector<Job> jobs_;            // indexed by id
  std::vector<JobId> release_order_; // ids sorted by (release, id)
  bool ids_in_release_order_ = true;
  Work total_work_ = 0.0;
  Work max_size_ = 0.0;
  Work min_size_ = 0.0;
  Time min_release_ = 0.0;
  Time max_release_ = 0.0;
};

}  // namespace tempofair
