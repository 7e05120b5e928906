#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace tempofair {

namespace {

void validate_job(const Job& j) {
  if (!(j.size > 0.0) || !std::isfinite(j.size)) {
    throw std::invalid_argument("Instance: job " + std::to_string(j.id) +
                                " has non-positive or non-finite size");
  }
  if (!(j.release >= 0.0) || !std::isfinite(j.release)) {
    throw std::invalid_argument("Instance: job " + std::to_string(j.id) +
                                " has negative or non-finite release");
  }
  if (!(j.weight > 0.0) || !std::isfinite(j.weight)) {
    throw std::invalid_argument("Instance: job " + std::to_string(j.id) +
                                " has non-positive or non-finite weight");
  }
}

}  // namespace

Instance::Instance(std::vector<Job> jobs) : jobs_(std::move(jobs)) {
  // Every caller hands over jobs_ indexed by id (jobs_[i].id == i), so the
  // release order is the identity exactly when each job arrives strictly
  // after its predecessor; that is checked in the same pass as validation.
  min_release_ = kInfiniteTime;
  max_release_ = 0.0;
  min_size_ = std::numeric_limits<Work>::infinity();
  bool ordered = true;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& j = jobs_[i];
    validate_job(j);
    total_work_ += j.size;
    max_size_ = std::max(max_size_, j.size);
    min_size_ = std::min(min_size_, j.size);
    min_release_ = std::min(min_release_, j.release);
    max_release_ = std::max(max_release_, j.release);
    ordered = ordered && (i == 0 || arrives_before(jobs_[i - 1], j));
  }
  if (jobs_.empty()) {
    min_release_ = 0.0;
    min_size_ = 0.0;
  }
  release_order_.resize(jobs_.size());
  std::iota(release_order_.begin(), release_order_.end(), JobId{0});
  ids_in_release_order_ = ordered;
  if (ordered) return;
  std::sort(release_order_.begin(), release_order_.end(),
            [this](JobId a, JobId b) {
              return arrives_before(jobs_[a], jobs_[b]);
            });
}

Instance Instance::from_pairs(std::span<const std::pair<Time, Work>> pairs) {
  std::vector<Job> jobs;
  jobs.reserve(pairs.size());
  JobId id = 0;
  for (const auto& [release, size] : pairs) {
    jobs.push_back(Job{id++, release, size});
  }
  return Instance(std::move(jobs));
}

Instance Instance::from_jobs(std::vector<Job> jobs) {
  // Ids already 0..n-1 in place: a permutation in id order, nothing to do.
  std::size_t i = 0;
  while (i < jobs.size() && jobs[i].id == i) ++i;
  if (i == jobs.size()) return Instance(std::move(jobs));
  std::vector<bool> seen(jobs.size(), false);
  for (const Job& j : jobs) {
    if (j.id >= jobs.size() || seen[j.id]) {
      throw std::invalid_argument(
          "Instance::from_jobs: ids must be a permutation of 0..n-1");
    }
    seen[j.id] = true;
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const Job& a, const Job& b) { return a.id < b.id; });
  return Instance(std::move(jobs));
}

Instance Instance::batch(std::span<const Work> sizes, Time release) {
  std::vector<Job> jobs;
  jobs.reserve(sizes.size());
  JobId id = 0;
  for (Work s : sizes) jobs.push_back(Job{id++, release, s});
  return Instance(std::move(jobs));
}

Time Instance::horizon_bound(int machines, double speed) const {
  if (machines < 1) throw std::invalid_argument("horizon_bound: machines < 1");
  if (!(speed > 0.0)) throw std::invalid_argument("horizon_bound: speed <= 0");
  // A work-conserving schedule never idles while jobs are pending, so all
  // work is done by max_release + total_work / speed even on one machine.
  return max_release_ + total_work_ / speed + 1.0;
}

Instance Instance::normalized() const {
  std::vector<Job> jobs = jobs_;
  for (Job& j : jobs) j.release -= min_release_;
  return Instance(std::move(jobs));
}

Instance Instance::merged_with(const Instance& other) const {
  std::vector<Job> jobs = jobs_;
  jobs.reserve(jobs_.size() + other.n());
  for (Job j : other.jobs()) {
    j.id += static_cast<JobId>(jobs_.size());
    jobs.push_back(j);
  }
  return Instance(std::move(jobs));
}

std::string Instance::summary() const {
  std::ostringstream os;
  os << "Instance{n=" << n() << ", work=" << total_work_ << ", sizes=["
     << min_size_ << "," << max_size_ << "], releases=[" << min_release_ << ","
     << max_release_ << "]}";
  return os.str();
}

}  // namespace tempofair
