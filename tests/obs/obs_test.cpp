#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

#include "core/engine.h"
#include "harness/thread_pool.h"
#include "policies/round_robin.h"

namespace tempofair::obs {
namespace {

TEST(Sink, AccumulatesAndSnapshots) {
  Sink sink;
  sink.add("a", 1);
  sink.add("a", 2);
  sink.add("b", 10);
  EXPECT_EQ(sink.value("a"), 3u);
  EXPECT_EQ(sink.value("b"), 10u);
  EXPECT_EQ(sink.value("never"), 0u);
  const auto snap = sink.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("a"), 3u);
  sink.clear();
  EXPECT_EQ(sink.value("a"), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(Sink, ThreadSafeAccumulation) {
  Sink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < 1000; ++i) sink.add("hits", 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sink.value("hits"), 4000u);
}

TEST(Sink, NamesBuiltInOneReusedBufferLandOnTheirOwnCounters) {
  // Every name below sits at the same address with the same length, so a
  // cache keyed on the address alone would merge them.
  Sink sink;
  std::string name;
  name.reserve(64);
  const char* const buffer = name.data();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      name.assign("reused.counter");
      name += static_cast<char>('0' + i);
      ASSERT_EQ(name.data(), buffer);
      sink.add(name, static_cast<std::uint64_t>(i + 1));
      name.assign("reused.timer");
      name += static_cast<char>('0' + i);
      {
        const ScopedSink scope(&sink);
        const ScopedTimer timer(name);
      }
    }
  }
  for (int i = 0; i < 5; ++i) {
    const std::string digit(1, static_cast<char>('0' + i));
    EXPECT_EQ(sink.value("reused.counter" + digit),
              3u * static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(sink.value("reused.timer" + digit + ".calls"), 3u);
  }
  // Five counters plus a .ns and a .calls per timer, nothing else.
  EXPECT_EQ(sink.snapshot().size(), 15u);
}

TEST(Sink, ZeroDeltasAreListedAndClearEmpties) {
  Sink sink;
  sink.add("zero", 0);
  sink.add("one", 1);
  auto snap = sink.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("zero"), 0u);
  sink.clear();
  EXPECT_TRUE(sink.snapshot().empty());
  EXPECT_EQ(sink.value("one"), 0u);
  // After a clear, a name is listed again once it is recorded again, even
  // with a zero delta and even through this thread's cached slot.
  sink.add("zero", 0);
  snap = sink.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.at("zero"), 0u);
}

TEST(Sink, DistinctSinksKeepTheirOwnCounters) {
  // A sink built at the address of a destroyed one must not inherit the
  // destroyed sink's cached slots.
  for (int i = 0; i < 4; ++i) {
    Sink sink;
    sink.add("per_sink", 1);
    EXPECT_EQ(sink.value("per_sink"), 1u);
    EXPECT_EQ(sink.snapshot().size(), 1u);
  }
}

TEST(ObsPool, AddsFromPoolTasksSumExactly) {
  harness::ThreadPool pool(4);
  Sink sink;
  constexpr std::size_t kTasks = 2000;
  {
    ScopedSink scope(&sink);
    pool.parallel_for(kTasks, [](std::size_t i) {
      add("pool_sum.total", i);
      add("pool_sum.ones", 1);
      add("pool_sum.zero", 0);
    });
  }
  EXPECT_EQ(sink.value("pool_sum.total"), kTasks * (kTasks - 1) / 2);
  EXPECT_EQ(sink.value("pool_sum.ones"), kTasks);
  const auto snap = sink.snapshot();
  ASSERT_TRUE(snap.count("pool_sum.zero"));
  EXPECT_EQ(snap.at("pool_sum.zero"), 0u);
  sink.clear();
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(ScopedSink, RedirectsAndRestores) {
  Sink mine;
  EXPECT_EQ(current_override(), nullptr);
  {
    ScopedSink scope(&mine);
    EXPECT_EQ(current_override(), &mine);
    EXPECT_EQ(&current_sink(), &mine);
    add("x", 5);
    {
      ScopedSink inner(nullptr);  // back to the global sink
      EXPECT_EQ(current_override(), nullptr);
      const std::uint64_t before = global_sink().value("obs_test.global");
      add("obs_test.global", 1);
      EXPECT_EQ(global_sink().value("obs_test.global"), before + 1);
    }
    EXPECT_EQ(current_override(), &mine);
  }
  EXPECT_EQ(current_override(), nullptr);
  EXPECT_EQ(mine.value("x"), 5u);
  EXPECT_EQ(global_sink().value("x"), 0u);
}

TEST(ScopedTimer, RecordsWallTimeAndCalls) {
  Sink sink;
  {
    ScopedSink scope(&sink);
    ScopedTimer timer("work");
  }
  {
    ScopedSink scope(&sink);
    ScopedTimer timer("work");
  }
  EXPECT_EQ(sink.value("work.calls"), 2u);
  // Wall time is nonnegative by construction; just check the key exists.
  EXPECT_TRUE(sink.snapshot().count("work.ns"));
}

TEST(CpuAccount, AttributesSelfCpuOnce) {
  Sink outer_sink;
  Sink inner_sink;
  {
    CpuAccount outer(outer_sink, "cpu_ns");
    volatile std::uint64_t spin = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) spin = spin + i;
    {
      CpuAccount inner(inner_sink, "cpu_ns");
      for (std::uint64_t i = 0; i < 100000; ++i) spin = spin + i;
    }
  }
  // Both scopes recorded something, and the outer scope excluded the nested
  // one (so outer + inner ~= total, not outer == total >= inner).  We can't
  // assert tight bounds on CPU clocks, but both must have been credited.
  EXPECT_TRUE(outer_sink.snapshot().count("cpu_ns"));
  EXPECT_TRUE(inner_sink.snapshot().count("cpu_ns"));
}

TEST(ObsPool, SinkPropagatesThroughParallelFor) {
  harness::ThreadPool pool(4);
  Sink sink;
  {
    ScopedSink scope(&sink);
    pool.parallel_for(64, [](std::size_t) { add("chunk.hits", 1); });
  }
  // Every chunk -- including ones stolen by other workers -- recorded into
  // the submitting thread's sink.
  EXPECT_EQ(sink.value("chunk.hits"), 64u);
  EXPECT_GE(sink.value("pool.tasks"), 1u);
  EXPECT_TRUE(sink.snapshot().count("pool.cpu_ns"));
}

TEST(ObsPool, SubmitWithoutOverrideDoesNotPollute) {
  harness::ThreadPool pool(2);
  Sink sink;
  {
    ScopedSink scope(&sink);
    pool.parallel_for(8, [](std::size_t) { add("a.hits", 1); });
  }
  // A second fan-out with no override must not land in `sink`.
  pool.parallel_for(8, [](std::size_t) { add("obs_test.unattributed", 1); });
  EXPECT_EQ(sink.value("a.hits"), 8u);
  EXPECT_EQ(sink.value("obs_test.unattributed"), 0u);
}

TEST(ObsPool, ConcurrentSinksStayIsolated) {
  harness::ThreadPool pool(4);
  Sink a, b;
  std::thread ta([&] {
    ScopedSink scope(&a);
    pool.parallel_for(32, [](std::size_t) { add("hits", 1); });
  });
  std::thread tb([&] {
    ScopedSink scope(&b);
    pool.parallel_for(32, [](std::size_t) { add("hits", 1); });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.value("hits"), 32u);
  EXPECT_EQ(b.value("hits"), 32u);
}

TEST(Progress, RateLimitedOutput) {
  std::ostringstream out;
  Progress progress("test", 100, &out, std::chrono::milliseconds(0));
  progress.tick(50);
  progress.tick(50);
  progress.finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("test"), std::string::npos);
  EXPECT_NE(text.find("100/100"), std::string::npos);
}

TEST(Progress, SilentWhenNeverDue) {
  std::ostringstream out;
  Progress progress("quiet", 10, &out, std::chrono::hours(1));
  progress.tick();
  progress.finish();  // nothing printed before => finish stays silent
  EXPECT_TRUE(out.str().empty());
}

TEST(EngineCounters, RecordedPerRun) {
  // The engine flushes run/event/job/trace counters into the current sink.
  Sink sink;
  {
    ScopedSink scope(&sink);
    const std::vector<std::pair<Time, Work>> jobs{{0.0, 1.0}, {0.5, 2.0}};
    const Instance inst = Instance::from_pairs(jobs);
    RoundRobin rr;
    (void)run(inst, rr);
  }
  EXPECT_EQ(sink.value("engine.runs"), 1u);
  EXPECT_EQ(sink.value("engine.jobs"), 2u);
  EXPECT_GE(sink.value("engine.events"), 1u);
  EXPECT_TRUE(sink.snapshot().count("engine.run.ns"));
}

}  // namespace
}  // namespace tempofair::obs
