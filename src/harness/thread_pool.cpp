#include "harness/thread_pool.h"

#include <algorithm>
#include <stdexcept>

namespace tempofair::harness {

namespace {

// Identifies the pool (and queue index) owning the current thread, so
// nested pushes go to the worker's own queue and pops prefer it.
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(sleep_mutex_);
    stopping_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::inside_worker() const noexcept { return tl_pool == this; }

void ThreadPool::push_task(std::function<void()> fn) {
  Task task{std::move(fn)};
  {
    std::lock_guard lock(sleep_mutex_);
    // Worker-originated pushes stay legal during teardown: a task already
    // running when the destructor flips stopping_ may still fan out nested
    // work, which its own help loop (or a not-yet-exited worker) drains.
    if (stopping_ && tl_pool != this) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    if (tl_pool == this) {
      // Nested push: the worker's own queue, at the front (depth-first).
      Queue& q = *queues_[tl_index];
      std::lock_guard qlock(q.mutex);
      q.tasks.push_front(std::move(task));
    } else {
      Queue& q = *queues_[next_queue_.fetch_add(1, std::memory_order_relaxed) %
                          queues_.size()];
      std::lock_guard qlock(q.mutex);
      q.tasks.push_back(std::move(task));
    }
    pending_.fetch_add(1, std::memory_order_release);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(Task& out) {
  const std::size_t nq = queues_.size();
  const std::size_t self = tl_pool == this ? tl_index : nq;
  if (self < nq) {
    Queue& q = *queues_[self];
    std::lock_guard lock(q.mutex);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Steal from the back of the other queues, rotating the start point so
  // helpers do not all hammer queue 0.
  const std::size_t start =
      self < nq ? self + 1
                : next_queue_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t off = 0; off < nq; ++off) {
    const std::size_t qi = (start + off) % nq;
    if (qi == self) continue;
    Queue& q = *queues_[qi];
    std::lock_guard lock(q.mutex);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task& task) {
  // Obs accounting lives inside fn (bind_obs) so that nothing borrowed from
  // the submitter is touched once fn has signaled completion.
  task.fn();
  // Serialize against threads between their predicate check and sleep, then
  // wake everyone: a finished task may be what a join is waiting for.
  { std::lock_guard lock(sleep_mutex_); }
  sleep_cv_.notify_all();
}

void ThreadPool::help_until(const std::function<bool()>& done) {
  for (;;) {
    if (done()) return;
    Task task;
    if (try_pop(task)) {
      run_task(task);
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [&] {
      return done() || stopping_ ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (done()) return;
    // stopping_ while a join is outstanding means the pool is being torn
    // down under live work -- keep helping; our chunks can only be finished
    // by us or by workers that have not exited yet.
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_index = index;
  for (;;) {
    Task task;
    if (try_pop(task)) {
      run_task(task);
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stopping_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (count == 0) return;
  if (grain == 0) {
    // ~4 chunks per worker: coarse enough that queue traffic is negligible,
    // fine enough that stealing can still balance uneven chunks.
    grain = std::max<std::size_t>(1, count / (size() * 4));
  }
  // The state lives on this frame: the caller waits for remaining == 0
  // before it returns, and each task's countdown is its last touch of the
  // state, so the captured exception is released here, on the calling
  // thread, never by whichever worker finished last.
  struct State {
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mutex;
    std::exception_ptr error;
  } state;
  const std::size_t chunks = (count + grain - 1) / grain;
  state.remaining.store(chunks, std::memory_order_relaxed);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(count, lo + grain);
    // bind_obs wraps only the body loop: the countdown below must stay the
    // chunk's final act, after every obs write, because the caller returns
    // from parallel_for (and may destroy the sink and the body, and does
    // destroy the state) the instant it observes remaining == 0.
    auto chunk = bind_obs([&state, &body, lo, hi] {
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        std::lock_guard lock(state.error_mutex);
        if (!state.error) state.error = std::current_exception();
      }
    });
    push_task([&state, chunk = std::move(chunk)]() mutable {
      chunk();
      state.remaining.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  help_until([&state] {
    return state.remaining.load(std::memory_order_acquire) == 0;
  });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace tempofair::harness
