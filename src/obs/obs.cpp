#include "obs/obs.h"

#include <atomic>
#include <cstdint>
#include <ctime>
#include <iostream>

namespace tempofair::obs {

namespace {

thread_local Sink* tl_sink = nullptr;
thread_local std::uint64_t tl_nested_cpu_ns = 0;

}  // namespace

struct Sink::CacheEntry {
  std::uint64_t sink = 0;  // 0 = empty; sink ids start at 1
  const char* data = nullptr;
  std::size_t size = 0;
  Slot* slot = nullptr;   // the name's slot, or "<name>.ns" for a timer
  Slot* calls = nullptr;  // "<name>.calls" for a timer, else nullptr
};

thread_local Sink::CacheEntry Sink::cache_[Sink::kCacheEntries];

namespace {

std::uint64_t next_sink_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Sink::Sink() : id_(next_sink_id()) {}

Sink::Slot& Sink::resolve(std::string_view name, Slot** calls) {
  const bool timer = calls != nullptr;
  constexpr std::uint64_t kMix = 0x9E3779B97F4A7C15ULL;
  const std::uint64_t hash =
      (reinterpret_cast<std::uintptr_t>(name.data()) ^ (name.size() << 40) ^
       (id_ * kMix) ^ static_cast<std::uint64_t>(timer)) *
      kMix;
  // A set of kCacheWays entries; the set index is the hash's top bits.
  CacheEntry* const set = cache_ + (hash >> (64 - kCacheSetBits)) * kCacheWays;
  for (std::size_t way = 0; way < kCacheWays; ++way) {
    const CacheEntry& entry = set[way];
    if (entry.sink != id_ || entry.data != name.data() ||
        entry.size != name.size() || (entry.calls != nullptr) != timer) {
      continue;
    }
    // The address matched; the bytes must too, since a reused buffer can
    // hold a different name at the same address.
    const std::string_view slot_name = entry.slot->name;
    const bool same = timer ? slot_name.size() == name.size() + 3 &&
                                  slot_name.starts_with(name)
                            : slot_name == name;
    if (same) {
      if (timer) *calls = entry.calls;
      return *entry.slot;
    }
  }
  const std::lock_guard lock(mutex_);
  Slot* slot = nullptr;
  Slot* calls_slot = nullptr;
  if (timer) {
    std::string full(name);
    full += ".ns";
    slot = &slot_locked(full);
    full.resize(name.size());
    full += ".calls";
    calls_slot = &slot_locked(full);
    *calls = calls_slot;
  } else {
    slot = &slot_locked(name);
  }
  // Fill an entry of another sink first, else evict a way the hash picks.
  std::size_t victim = hash & (kCacheWays - 1);
  for (std::size_t way = 0; way < kCacheWays; ++way) {
    if (set[way].sink != id_) {
      victim = way;
      break;
    }
  }
  set[victim] = CacheEntry{id_, name.data(), name.size(), slot, calls_slot};
  return *slot;
}

Sink::Slot& Sink::slot_locked(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
    it->second.name = it->first;
  }
  return it->second;
}

void Sink::add(std::string_view name, std::uint64_t delta) {
  resolve(name, nullptr).add(delta);
}

void Sink::add_timer(std::string_view name, std::uint64_t ns) {
  Slot* calls = nullptr;
  resolve(name, &calls).add(ns);
  calls->add(1);
}

std::uint64_t Sink::value(std::string_view name) const {
  const std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end()
             ? 0
             : it->second.value.load(std::memory_order_relaxed);
}

std::map<std::string, std::uint64_t> Sink::snapshot() const {
  const std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, slot] : counters_) {
    if (slot.touched.load(std::memory_order_relaxed)) {
      out.emplace_hint(out.end(), name,
                       slot.value.load(std::memory_order_relaxed));
    }
  }
  return out;
}

void Sink::clear() {
  const std::lock_guard lock(mutex_);
  for (auto& [name, slot] : counters_) {
    slot.value.store(0, std::memory_order_relaxed);
    slot.touched.store(false, std::memory_order_relaxed);
  }
}

Sink& global_sink() {
  static Sink sink;
  return sink;
}

Sink* current_override() noexcept { return tl_sink; }

Sink& current_sink() { return tl_sink ? *tl_sink : global_sink(); }

void add(std::string_view name, std::uint64_t delta) {
  current_sink().add(name, delta);
}

ScopedSink::ScopedSink(Sink* sink) noexcept : previous_(tl_sink) {
  tl_sink = sink;
}

ScopedSink::~ScopedSink() { tl_sink = previous_; }

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

ScopedTimer::ScopedTimer(std::string_view name) noexcept
    : name_(name), start_(std::chrono::steady_clock::now()) {}

ScopedTimer::~ScopedTimer() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  current_sink().add_timer(name_, static_cast<std::uint64_t>(ns));
}

CpuAccount::CpuAccount(Sink& sink, std::string_view counter) noexcept
    : sink_(&sink),
      counter_(counter),
      saved_outer_ns_(tl_nested_cpu_ns),
      start_ns_(thread_cpu_ns()) {
  tl_nested_cpu_ns = 0;
}

CpuAccount::~CpuAccount() {
  const std::uint64_t total = thread_cpu_ns() - start_ns_;
  const std::uint64_t nested = tl_nested_cpu_ns;
  sink_->add(counter_, total > nested ? total - nested : 0);
  tl_nested_cpu_ns = saved_outer_ns_ + total;
}

Progress::Progress(std::string label, std::uint64_t total, std::ostream* out,
                   std::chrono::milliseconds min_interval)
    : label_(std::move(label)),
      total_(total),
      out_(out ? out : &std::cerr),
      min_interval_(min_interval),
      last_print_(std::chrono::steady_clock::now()) {}

void Progress::tick(std::uint64_t done_delta) {
  std::lock_guard lock(mutex_);
  done_ += done_delta;
  const auto now = std::chrono::steady_clock::now();
  if (done_ < total_ && now - last_print_ < min_interval_) return;
  if (done_ < total_ && done_delta == 0) return;
  if (done_ >= total_ || now - last_print_ >= min_interval_) {
    // The final tick always prints if any earlier line did (so a watcher
    // sees completion), but a fast run stays silent end to end.
    if (done_ < total_ || printed_) {
      print_line(done_);
      last_print_ = now;
    }
  }
}

void Progress::finish() {
  std::lock_guard lock(mutex_);
  if (printed_ && done_ < total_) print_line(done_);
}

void Progress::print_line(std::uint64_t done) {
  *out_ << "[" << label_ << "] " << done << "/" << total_ << "\n";
  printed_ = true;
}

}  // namespace tempofair::obs
