#include "core/trace_arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace tempofair {

namespace {

template <typename C>
std::size_t capacity_bytes(const C& v) noexcept {
  return v.capacity() * sizeof(*v.data());
}

// Grows a column to hold `extra` more elements using a 1.25x geometric
// factor instead of the standard library's 2x.  The trace columns dominate
// the simulator's footprint, and a tight factor caps the capacity slack at
// 25% (vs. up to 100%) while staying amortized O(1) per element.
template <typename C>
void grow_for(C& v, std::size_t extra) {
  if (!v.lacks_room(extra)) return;
  v.reserve(std::max(v.size() + extra, v.capacity() + v.capacity() / 4 + 1));
}

#if defined(__linux__)
constexpr std::size_t kMappedBytes = std::size_t{1} << 17;

bool mapped(std::size_t bytes) noexcept { return bytes >= kMappedBytes; }

std::size_t page_round(std::size_t bytes) noexcept {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}
#endif

}  // namespace

void* TraceArena::resize_block(void* p, std::size_t old_bytes,
                               std::size_t used, std::size_t new_bytes) {
#if defined(__linux__)
  if (mapped(old_bytes) && mapped(new_bytes)) {
    void* q = mremap(p, page_round(old_bytes), page_round(new_bytes),
                     MREMAP_MAYMOVE);
    if (q == MAP_FAILED) throw std::bad_alloc();
    return q;
  }
  if (mapped(old_bytes) || mapped(new_bytes)) {
    // Crossing the threshold: a fresh block of the other kind, and a copy
    // of less than 128 KiB.
    void* q = mapped(new_bytes)
                  ? mmap(nullptr, page_round(new_bytes),
                         PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0)
                  : std::malloc(new_bytes);
    if (q == MAP_FAILED || q == nullptr) throw std::bad_alloc();
    if (used != 0) std::memcpy(q, p, used);
    free_block(p, old_bytes);
    return q;
  }
#else
  (void)old_bytes;
  (void)used;
#endif
  void* q = std::realloc(p, new_bytes);
  if (q == nullptr) throw std::bad_alloc();
  return q;
}

void TraceArena::free_block(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  if (p != nullptr && mapped(bytes)) {
    munmap(p, page_round(bytes));
    return;
  }
#else
  (void)bytes;
#endif
  std::free(p);
}

JobSlice JobTraceView::operator[](std::size_t i) const noexcept {
  const std::size_t iv = intervals_[i];
  const TraceIntervalView view = (*arena_)[iv];
  return JobSlice{iv, view.begin(), view.end(), view.rate(positions_[i])};
}

Work JobTraceView::total_work() const noexcept {
  Work total = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const JobSlice s = (*this)[i];
    total += s.rate * s.length();
  }
  return total;
}

void TraceArena::clear() noexcept {
  begin_.clear();
  end_.clear();
  job_off_.clear();
  rate_off_.clear();
  ids_.clear();
  rates_.clear();
  index_built_ = false;
  jidx_off_.clear();
  jidx_interval_.clear();
  jidx_pos_.clear();
}

void TraceArena::reserve(std::size_t intervals, std::size_t entries) {
  begin_.reserve(intervals);
  end_.reserve(intervals);
  job_off_.reserve(intervals + 1);
  rate_off_.reserve(intervals + 1);
  ids_.reserve(entries);
  rates_.reserve(entries);
  peak_bytes_ = std::max(peak_bytes_, memory_bytes());
}

// One check per row; only growth changes memory_bytes(), so the peak is
// updated only when a column grew.  The first row of an empty arena also
// writes the offset tables' leading 0, with the capacity of two slots that
// one slot plus grow_for() would give.
void TraceArena::make_room(std::size_t ids, std::size_t rates) {
  if (job_off_.empty()) {
    job_off_.reserve(2);
    job_off_.push_back(0);
    rate_off_.reserve(2);
    rate_off_.push_back(0);
  }
  if (!begin_.lacks_room(1) && !end_.lacks_room(1) &&
      !job_off_.lacks_room(1) && !rate_off_.lacks_room(1) &&
      !ids_.lacks_room(ids) && !rates_.lacks_room(rates)) {
    return;
  }
  grow_for(begin_, 1);
  grow_for(end_, 1);
  grow_for(job_off_, 1);
  grow_for(rate_off_, 1);
  grow_for(ids_, ids);
  grow_for(rates_, rates);
  peak_bytes_ = std::max(peak_bytes_, memory_bytes());
}

void TraceArena::append(Time begin, Time end, std::span<const JobId> jobs,
                        std::span<const double> rates) {
  if (jobs.size() != rates.size()) {
    throw std::invalid_argument(
        "TraceArena::append: jobs/rates size mismatch");
  }
  if (!(end > begin)) {
    throw std::invalid_argument(
        "TraceArena::append: interval must have end > begin");
  }
  // Uniform-rate compression (I3): when every rate is bitwise-equal --
  // true for every Round Robin interval -- store the shared value once.
  bool uniform = !rates.empty();
  for (double r : rates) {
    if (r != rates[0]) {
      uniform = false;
      break;
    }
  }
  const std::size_t stored = uniform ? 1 : rates.size();
  make_room(jobs.size(), stored);

  begin_.push_back(begin);
  end_.push_back(end);
  ids_.append(jobs.data(), jobs.size());
  job_off_.push_back(ids_.size());
  rates_.append(rates.data(), stored);
  rate_off_.push_back(rates_.size());
  index_built_ = false;
}

void TraceArena::append_uniform(Time begin, Time end,
                                std::span<const JobId> jobs, double rate) {
  if (!(end > begin)) {
    throw std::invalid_argument(
        "TraceArena::append_uniform: interval must have end > begin");
  }
  make_room(jobs.size(), 1);  // an empty row stores no rate but reserves one

  begin_.push_back(begin);
  end_.push_back(end);
  ids_.append(jobs.data(), jobs.size());
  job_off_.push_back(ids_.size());
  if (!jobs.empty()) rates_.push_back(rate);
  rate_off_.push_back(rates_.size());
  index_built_ = false;
}

void TraceArena::append(Time begin, Time end,
                        std::initializer_list<RateShare> shares) {
  std::vector<JobId> jobs;
  std::vector<double> rates;
  jobs.reserve(shares.size());
  rates.reserve(shares.size());
  for (const RateShare& s : shares) {
    jobs.push_back(s.job);
    rates.push_back(s.rate);
  }
  append(begin, end, jobs, rates);
}

void TraceArena::shrink_to_fit() {
  begin_.shrink_to_fit();
  end_.shrink_to_fit();
  job_off_.shrink_to_fit();
  rate_off_.shrink_to_fit();
  ids_.shrink_to_fit();
  rates_.shrink_to_fit();
}

TraceIntervalView TraceArena::operator[](std::size_t i) const noexcept {
  const std::uint64_t jo = job_off_[i];
  return TraceIntervalView(begin_[i], end_[i], ids_.data() + jo,
                           rates_.data() + rate_off_[i],
                           static_cast<std::size_t>(job_off_[i + 1] - jo),
                           interval_uniform(i));
}

void TraceArena::ensure_job_index() const {
  if (index_built_) return;
  if (size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("TraceArena: too many intervals for job index");
  }
  JobId max_id = 0;
  for (JobId id : ids_) max_id = std::max(max_id, id);
  const std::size_t n_jobs = ids_.empty() ? 0 : static_cast<std::size_t>(max_id) + 1;

  // Counting sort of flat entries by job id, preserving interval order.
  jidx_off_.assign(n_jobs + 1, 0);
  for (JobId id : ids_) ++jidx_off_[id + 1];
  for (std::size_t j = 0; j < n_jobs; ++j) jidx_off_[j + 1] += jidx_off_[j];

  jidx_interval_.resize(ids_.size());
  jidx_pos_.resize(ids_.size());
  std::vector<std::uint64_t> cursor(jidx_off_.begin(), jidx_off_.end() - 1);
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::uint64_t k = job_off_[i]; k < job_off_[i + 1]; ++k) {
      const std::uint64_t slot = cursor[ids_[k]]++;
      jidx_interval_[slot] = static_cast<std::uint32_t>(i);
      jidx_pos_[slot] = static_cast<std::uint32_t>(k - job_off_[i]);
    }
  }
  index_built_ = true;
}

JobTraceView TraceArena::job_trace(JobId job) const {
  ensure_job_index();
  const std::size_t n_jobs = jidx_off_.empty() ? 0 : jidx_off_.size() - 1;
  if (job >= n_jobs) return JobTraceView(this, nullptr, nullptr, 0);
  const std::uint64_t lo = jidx_off_[job];
  const std::uint64_t hi = jidx_off_[job + 1];
  return JobTraceView(this, jidx_interval_.data() + lo, jidx_pos_.data() + lo,
                      static_cast<std::size_t>(hi - lo));
}

std::size_t TraceArena::memory_bytes() const noexcept {
  return capacity_bytes(begin_) + capacity_bytes(end_) +
         capacity_bytes(job_off_) + capacity_bytes(rate_off_) +
         capacity_bytes(ids_) + capacity_bytes(rates_);
}

std::size_t TraceArena::index_memory_bytes() const noexcept {
  return capacity_bytes(jidx_off_) + capacity_bytes(jidx_interval_) +
         capacity_bytes(jidx_pos_);
}

}  // namespace tempofair
