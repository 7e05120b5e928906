// Columnar (structure-of-arrays) arena for the piecewise-constant rate trace.
//
// A simulated run produces a sequence of half-open intervals [begin, end)
// during which the alive set and all rates are constant.  The arena stores
// that sequence in contiguous column arrays -- interval bounds, a CSR offset
// table, flat job ids and flat rates -- instead of one heap-allocated
// std::vector<RateShare> per interval.  Consequences:
//
//   * appending a row is two bulk copies into flat arrays (no per-interval
//     allocation in the engine's inner loop);
//   * every analysis (l_k norms, fairness, dual fitting) is a linear scan
//     over dense memory;
//   * a per-job CSR index (built lazily, O(total entries)) gives each job a
//     cursor over exactly the intervals it appears in, so per-job integrals
//     -- traced work, alpha_j, service-lag curves -- cost O(intervals
//     containing j) instead of O(whole trace);
//   * intervals whose rates are all bitwise-equal (every Round Robin
//     interval) store a single rate, cutting the dominant column by the
//     alive-set size.
//
// Invariants (maintained by append, relied upon by all consumers):
//   I1. Intervals are appended in nondecreasing time order and have
//       end > begin (zero-length rows are the caller's job to drop).
//   I2. job_offset_/rate_offset_ are CSR tables of size size()+1 with
//       offset[0] == 0 (empty, not allocated, while size() == 0); interval
//       i owns ids [job_offset_[i], job_offset_[i+1]) and rates
//       [rate_offset_[i], rate_offset_[i+1]).
//   I3. rate_offset_[i+1]-rate_offset_[i] is either the interval's alive
//       count (per-job rates) or exactly 1 (uniform rate shared by all jobs
//       of the interval).  The two coincide for single-job intervals.
//   I4. Within an interval, job ids appear in the order the caller emitted
//       them (the engine emits sorted by id; Schedule::validate checks it).
//
// View lifetime: TraceIntervalView / JobTraceView / ShareRange are
// non-owning raw-pointer views.  They are invalidated by append(), clear()
// and shrink_to_fit(), exactly like std::span into a std::vector.  The
// lazily built per-job index is NOT thread-safe on first use; call
// job_trace() (or Schedule::validate) once before sharing a schedule
// across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/time_types.h"

namespace tempofair {

/// One job's share of the machines during a trace interval.
struct RateShare {
  JobId job = kInvalidJob;
  /// Processing rate in work units per time unit; for a policy running at
  /// speed s on m machines this lies in [0, s] and rates sum to <= s*m.
  double rate = 0.0;
};

/// Lightweight random-access range of RateShares materialized on the fly
/// from the arena's columns (handles the uniform-rate compressed case).
class ShareRange {
 public:
  ShareRange(const JobId* jobs, const double* rates, std::size_t n,
             bool uniform) noexcept
      : jobs_(jobs), rates_(rates), n_(n), uniform_(uniform) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] RateShare operator[](std::size_t i) const noexcept {
    return RateShare{jobs_[i], uniform_ ? rates_[0] : rates_[i]};
  }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RateShare;
    using difference_type = std::ptrdiff_t;
    using pointer = const RateShare*;
    using reference = RateShare;

    iterator() noexcept = default;
    iterator(const ShareRange* r, std::size_t i) noexcept : r_(r), i_(i) {}
    RateShare operator*() const noexcept { return (*r_)[i_]; }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const iterator& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

   private:
    const ShareRange* r_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() const noexcept { return iterator(this, n_); }

 private:
  const JobId* jobs_ = nullptr;
  const double* rates_ = nullptr;
  std::size_t n_ = 0;
  bool uniform_ = false;
};

/// Zero-copy view of one trace interval: bounds plus spans into the arena's
/// id and rate columns.  Cheap to construct and pass by value.
class TraceIntervalView {
 public:
  TraceIntervalView() noexcept = default;
  TraceIntervalView(Time begin, Time end, const JobId* jobs,
                    const double* rates, std::size_t n, bool uniform) noexcept
      : begin_(begin), end_(end), jobs_(jobs), rates_(rates), n_(n),
        uniform_(uniform) {}

  [[nodiscard]] Time begin() const noexcept { return begin_; }
  [[nodiscard]] Time end() const noexcept { return end_; }
  [[nodiscard]] Time length() const noexcept { return end_ - begin_; }
  [[nodiscard]] std::size_t alive_count() const noexcept { return n_; }

  [[nodiscard]] std::span<const JobId> jobs() const noexcept {
    return {jobs_, n_};
  }
  [[nodiscard]] JobId job(std::size_t i) const noexcept { return jobs_[i]; }
  [[nodiscard]] double rate(std::size_t i) const noexcept {
    return uniform_ ? rates_[0] : rates_[i];
  }
  [[nodiscard]] RateShare share(std::size_t i) const noexcept {
    return RateShare{jobs_[i], rate(i)};
  }
  /// True if this interval is stored in uniform-rate compressed form
  /// (all rates bitwise-equal at append time).
  [[nodiscard]] bool uniform_rate() const noexcept { return uniform_; }

  [[nodiscard]] ShareRange shares() const noexcept {
    return ShareRange(jobs_, rates_, n_, uniform_);
  }

 private:
  Time begin_ = 0.0;
  Time end_ = 0.0;
  const JobId* jobs_ = nullptr;
  const double* rates_ = nullptr;
  std::size_t n_ = 0;
  bool uniform_ = false;
};

/// One entry of a job's trace cursor: the job's rate during one interval it
/// is alive in, plus the interval's position in the arena (usable to query
/// global per-interval facts such as the alive count).
struct JobSlice {
  std::size_t interval = 0;
  Time begin = 0.0;
  Time end = 0.0;
  double rate = 0.0;

  [[nodiscard]] Time length() const noexcept { return end - begin; }
};

class TraceArena;

/// Cursor over the intervals containing one job, in trace order.  Backed by
/// the arena's per-job CSR index; iterating costs O(intervals containing j).
class JobTraceView {
 public:
  JobTraceView() noexcept = default;
  JobTraceView(const TraceArena* arena, const std::uint32_t* intervals,
               const std::uint32_t* positions, std::size_t n) noexcept
      : arena_(arena), intervals_(intervals), positions_(positions), n_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] JobSlice operator[](std::size_t i) const noexcept;
  [[nodiscard]] JobSlice front() const noexcept { return (*this)[0]; }
  [[nodiscard]] JobSlice back() const noexcept { return (*this)[n_ - 1]; }

  /// Total work processed for the job: sum of rate * length over slices.
  [[nodiscard]] Work total_work() const noexcept;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = JobSlice;
    using difference_type = std::ptrdiff_t;
    using pointer = const JobSlice*;
    using reference = JobSlice;

    iterator() noexcept = default;
    iterator(const JobTraceView* v, std::size_t i) noexcept : v_(v), i_(i) {}
    JobSlice operator*() const noexcept { return (*v_)[i_]; }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const iterator& o) const noexcept { return i_ == o.i_; }
    bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

   private:
    const JobTraceView* v_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
  [[nodiscard]] iterator end() const noexcept { return iterator(this, n_); }

 private:
  const TraceArena* arena_ = nullptr;
  const std::uint32_t* intervals_ = nullptr;
  const std::uint32_t* positions_ = nullptr;
  std::size_t n_ = 0;
};

/// The columnar trace store.  See the file comment for layout and invariants.
class TraceArena {
 public:
  /// An empty arena allocates nothing until its first append or reserve.
  TraceArena() noexcept = default;

  // --- mutation -------------------------------------------------------------
  void clear() noexcept;
  void reserve(std::size_t intervals, std::size_t entries);
  /// Appends one interval row.  `jobs` and `rates` must be parallel; the
  /// engine emits jobs sorted by id (I4).  Requires end > begin.
  void append(Time begin, Time end, std::span<const JobId> jobs,
              std::span<const double> rates);
  /// Appends a uniform-rate row (every job at `rate`) directly in the I3
  /// compressed form, producing exactly the columns append() would for an
  /// all-equal rate vector -- without the caller materializing one.  The
  /// engine's epoch-coalescing fast path emits Round-Robin rows this way.
  void append_uniform(Time begin, Time end, std::span<const JobId> jobs,
                      double rate);
  /// Convenience for hand-built traces (tests).
  void append(Time begin, Time end, std::initializer_list<RateShare> shares);
  /// Releases growth slack in all columns (call once after the last append).
  void shrink_to_fit();

  // --- interval access ------------------------------------------------------
  [[nodiscard]] std::size_t size() const noexcept { return begin_.size(); }
  [[nodiscard]] bool empty() const noexcept { return begin_.empty(); }
  /// Flat (interval, job) pair count across all intervals.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return ids_.size();
  }
  [[nodiscard]] TraceIntervalView operator[](std::size_t i) const noexcept;
  [[nodiscard]] TraceIntervalView front() const noexcept { return (*this)[0]; }
  [[nodiscard]] TraceIntervalView back() const noexcept {
    return (*this)[size() - 1];
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceIntervalView;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceIntervalView*;
    using reference = TraceIntervalView;

    const_iterator() noexcept = default;
    const_iterator(const TraceArena* a, std::size_t i) noexcept
        : a_(a), i_(i) {}
    TraceIntervalView operator*() const noexcept { return (*a_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return i_ == o.i_;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return i_ != o.i_;
    }

   private:
    const TraceArena* a_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(this, size());
  }

  // --- per-job access -------------------------------------------------------
  /// Cursor over the intervals containing `job`.  Builds the per-job CSR
  /// index on first use (O(total entries)); subsequent calls are O(1).
  [[nodiscard]] JobTraceView job_trace(JobId job) const;
  /// Total traced work for one job, via the per-job index.
  [[nodiscard]] Work job_work(JobId job) const {
    return job_trace(job).total_work();
  }

  // --- memory accounting ----------------------------------------------------
  /// Bytes currently allocated by the core columns (excludes the lazily
  /// built per-job index; capacity-based, so growth slack counts).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
  /// High-water mark of memory_bytes() across the arena's lifetime.
  [[nodiscard]] std::size_t peak_memory_bytes() const noexcept {
    return peak_bytes_;
  }
  /// Bytes allocated by the per-job index (0 until first job_trace call).
  [[nodiscard]] std::size_t index_memory_bytes() const noexcept;

 private:
  friend class JobTraceView;

  // Column storage, in bytes.  On Linux a block of at least 128 KiB is an
  // anonymous mapping of its own, resized with mremap: growth moves the
  // pages by their page tables instead of copying them and faulting in new
  // ones, and shrinking trims in place.  Smaller blocks, and all blocks
  // elsewhere, use malloc/realloc/free.  (glibc's realloc mremaps only
  // blocks it mmapped itself; once a free raises its dynamic mmap
  // threshold, large columns land on the heap and every growth copies.)
  // resize_block keeps the first `used` bytes and throws std::bad_alloc,
  // leaving `p` intact, on failure.
  static void* resize_block(void* p, std::size_t old_bytes, std::size_t used,
                            std::size_t new_bytes);
  static void free_block(void* p, std::size_t bytes) noexcept;

  // A growable array of trivially copyable elements on the blocks above.
  // Capacities follow std::vector's (reserve() allocates exactly what it is
  // asked for, a copy holds just its elements), so memory_bytes() reads
  // the same; a copy-assignment also holds just the source's elements.
  // push_back() and append() do not grow: the caller makes room first.
  template <typename T>
  class Column {
    static_assert(std::is_trivially_copyable_v<T>);

   public:
    Column() noexcept = default;
    Column(const Column& o) : size_(o.size_) {
      if (size_ == 0) return;
      data_ = static_cast<T*>(resize_block(nullptr, 0, 0, bytes(size_)));
      cap_ = size_;
      std::memcpy(data_, o.data_, bytes(size_));
    }
    Column(Column&& o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0)), cap_(std::exchange(o.cap_, 0)) {}
    Column& operator=(Column o) noexcept {
      std::swap(data_, o.data_);
      std::swap(size_, o.size_);
      std::swap(cap_, o.cap_);
      return *this;
    }
    ~Column() {
      if (data_ != nullptr) free_block(data_, bytes(cap_));
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    [[nodiscard]] const T* begin() const noexcept { return data_; }
    [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
      return data_[i];
    }
    /// True if `extra` more elements do not fit without growing.
    [[nodiscard]] bool lacks_room(std::size_t extra) const noexcept {
      return size_ + extra > cap_;
    }

    void push_back(T v) noexcept { data_[size_++] = v; }
    void append(const T* src, std::size_t n) noexcept {
      if (n != 0) std::memcpy(data_ + size_, src, bytes(n));
      size_ += n;
    }
    void clear() noexcept { size_ = 0; }
    /// Grows the capacity to exactly `n` if it is smaller.
    void reserve(std::size_t n) {
      if (n > cap_) resize(n);
    }
    void shrink_to_fit() {
      if (size_ == 0) {
        free_block(std::exchange(data_, nullptr), bytes(cap_));
        cap_ = 0;
      } else if (cap_ > size_) {
        resize(size_);
      }
    }

   private:
    static std::size_t bytes(std::size_t n) noexcept { return n * sizeof(T); }
    void resize(std::size_t n) {  // n >= size_, n > 0
      data_ = static_cast<T*>(
          resize_block(data_, bytes(cap_), bytes(size_), bytes(n)));
      cap_ = n;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  void ensure_job_index() const;
  /// Makes room for one more row holding `ids` ids and `rates` rates.
  void make_room(std::size_t ids, std::size_t rates);
  [[nodiscard]] bool interval_uniform(std::size_t i) const noexcept {
    const std::uint64_t nrates = rate_off_[i + 1] - rate_off_[i];
    return nrates != job_off_[i + 1] - job_off_[i] || nrates == 1;
  }

  Column<Time> begin_;
  Column<Time> end_;
  // size()+1 CSR tables, or empty while the arena holds no row.
  Column<std::uint64_t> job_off_;   // into ids_
  Column<std::uint64_t> rate_off_;  // into rates_
  Column<JobId> ids_;
  Column<double> rates_;
  std::size_t peak_bytes_ = 0;

  // Per-job CSR index, built lazily by ensure_job_index().
  mutable bool index_built_ = false;
  mutable std::vector<std::uint64_t> jidx_off_;       // n_jobs+1
  mutable std::vector<std::uint32_t> jidx_interval_;  // entry -> interval
  mutable std::vector<std::uint32_t> jidx_pos_;       // entry -> pos in row
};

}  // namespace tempofair
