// Run observability: named monotonic counters, scoped timers, CPU-time
// accounting and rate-limited progress lines.
//
// Counters accumulate into a Sink.  A thread can install a Sink override
// with ScopedSink; everything recorded on that thread (engine events, trace
// rows, dual-fit scan work, pool CPU time) then lands in that sink instead
// of the process-global one.  The thread pool propagates the submitting
// thread's override to its workers, so a whole fan-out -- including nested
// parallel_for chunks executed on stolen threads -- attributes to the run
// that spawned it.  This is how `tempofair_bench` produces per-experiment
// counter snapshots even when experiments share one work-stealing pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace tempofair::obs {

/// A set of named monotonic counters.  Thread-safe, and cheap enough to
/// call per simulation run or per LP solve: the first add() of a name on a
/// thread resolves it to a slot under the mutex; later adds of the same name
/// find that slot in a per-thread cache (keyed by the name's address and
/// length, checked against its bytes) and update it with one atomic add --
/// no lock, no allocation, no string built.  Per-event increments inside a
/// kernel's inner loop should still accumulate locally and flush once.
class Sink {
 public:
  Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  void add(std::string_view name, std::uint64_t delta);
  /// Current value (0 if never recorded).
  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  /// Every name recorded since construction or the last clear(), zero
  /// deltas included.
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;
  void clear();

 private:
  friend class ScopedTimer;

  /// One counter.  Slots live as long as their sink (clear() only zeroes
  /// them), so a cached slot pointer stays valid while its sink lives.
  struct Slot {
    std::atomic<std::uint64_t> value{0};
    /// Recorded since construction or the last clear(): snapshot() lists
    /// exactly the touched slots.
    std::atomic<bool> touched{false};
    /// The map key of this slot.
    std::string_view name;

    void add(std::uint64_t delta) noexcept {
      value.fetch_add(delta, std::memory_order_relaxed);
      if (!touched.load(std::memory_order_relaxed)) {
        touched.store(true, std::memory_order_relaxed);
      }
    }
  };
  /// One per-thread cache entry: (sink, name address, name length) ->
  /// slots.  The cache is set-associative, kCacheWays entries per set.
  struct CacheEntry;
  static constexpr std::size_t kCacheSetBits = 7;
  static constexpr std::size_t kCacheWays = 4;
  static constexpr std::size_t kCacheEntries = kCacheWays << kCacheSetBits;
  static thread_local CacheEntry cache_[kCacheEntries];

  /// Adds `ns` to "<name>.ns" and 1 to "<name>.calls".
  void add_timer(std::string_view name, std::uint64_t ns);
  /// The slot of `name` through the calling thread's cache.  With `calls`
  /// set, the slots of "<name>.ns" (returned) and "<name>.calls" (*calls).
  Slot& resolve(std::string_view name, Slot** calls);
  /// The cache-miss path: finds or creates the slots under the mutex.
  Slot& slot_locked(std::string_view name);

  /// Unique over the process lifetime, so a cache entry of a destroyed sink
  /// never matches a later sink at the same address.
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, Slot, std::less<>> counters_;
};

/// The process-global fallback sink.
[[nodiscard]] Sink& global_sink();

/// The calling thread's override, or nullptr if none is installed.
[[nodiscard]] Sink* current_override() noexcept;

/// The sink the calling thread records to: its override, else the global.
[[nodiscard]] Sink& current_sink();

/// Records `delta` into the calling thread's current sink.
void add(std::string_view name, std::uint64_t delta);

/// Installs `sink` as the calling thread's override for this scope
/// (nullptr = record to the global sink again).  Restores the previous
/// override on destruction.
class ScopedSink {
 public:
  explicit ScopedSink(Sink* sink) noexcept;
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* previous_;
};

/// CPU time consumed by the calling thread, in nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns();

/// Adds "<name>.ns" (wall nanoseconds) and "<name>.calls" to the current
/// sink when the scope ends.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

/// Adds the calling thread's *self* CPU time (excluding nested CpuAccount
/// scopes, which account for themselves) to `sink` under `counter` when the
/// scope ends.  The thread pool wraps every task in one of these, so a
/// task's CPU lands in its submitter's sink exactly once even when a worker
/// inlines other tasks while helping a join.
class CpuAccount {
 public:
  explicit CpuAccount(Sink& sink, std::string_view counter = "cpu_ns") noexcept;
  ~CpuAccount();
  CpuAccount(const CpuAccount&) = delete;
  CpuAccount& operator=(const CpuAccount&) = delete;

 private:
  Sink* sink_;
  std::string_view counter_;
  std::uint64_t saved_outer_ns_;
  std::uint64_t start_ns_;
};

/// Rate-limited progress lines ("label: done/total") for long fan-outs.
/// Thread-safe; prints at most one line per `min_interval` plus a final
/// line from finish() if anything was printed before.
class Progress {
 public:
  Progress(std::string label, std::uint64_t total, std::ostream* out = nullptr,
           std::chrono::milliseconds min_interval = std::chrono::seconds(2));
  void tick(std::uint64_t done_delta = 1);
  void finish();

 private:
  void print_line(std::uint64_t done);

  std::string label_;
  std::uint64_t total_;
  std::ostream* out_;
  std::chrono::milliseconds min_interval_;
  std::mutex mutex_;
  std::uint64_t done_ = 0;
  bool printed_ = false;
  std::chrono::steady_clock::time_point last_print_;
};

}  // namespace tempofair::obs
