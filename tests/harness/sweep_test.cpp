// run_sweep / run_sweep_sharded determinism: the merged results must be
// byte-identical for any worker count and any shard count, per-shard
// contexts (reused EngineCores) included.  This is the in-process half of
// the CI determinism gate; the workflow half diffs two tempofair_bench
// --grid-out artifacts produced with different --jobs values.
#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "harness/thread_pool.h"
#include "workload/source.h"

namespace tempofair {
namespace {

constexpr std::uint64_t kSeed = 20260806;

TEST(DeriveSeed, OrderIndependentAndDistinct) {
  const std::uint64_t a = harness::derive_seed(kSeed, 0);
  const std::uint64_t b = harness::derive_seed(kSeed, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, harness::derive_seed(kSeed, 0));
  EXPECT_NE(harness::derive_seed(kSeed, 7), harness::derive_seed(kSeed + 1, 7));
}

/// One sweep cell: a small Poisson run through a shard-reused EngineCore.
/// Returns doubles whose bits are compared across pool geometries.
struct CellResult {
  double l2 = 0.0;
  double mean = 0.0;
  std::uint64_t stream = 0;
};

std::vector<CellResult> sharded_grid(std::size_t workers, std::size_t shards) {
  harness::ThreadPool pool(workers);
  std::vector<double> loads;
  for (int i = 0; i < 23; ++i) loads.push_back(0.3 + 0.025 * i);
  return harness::run_sweep_sharded(
      pool, loads, kSeed, [] { return EngineCore{}; },
      [](EngineCore& engine, double load, std::uint64_t stream) {
        // WorkloadSpec round-trips seeds through a long; keep the derived
        // stream in range (still a pure function of the cell index).
        const Instance inst = workload::make_instance(
            workload::WorkloadSpec::poisson(60, load,
                                            workload::ExponentialSize{1.0},
                                            stream >> 1));
        RunRequest req;
        req.policy = "rr";
        req.record_trace = false;
        const RunResult result = engine.run(inst, req);
        return CellResult{result.stats.l2, result.stats.mean, stream};
      },
      shards);
}

TEST(RunSweepSharded, ByteIdenticalAcrossWorkerAndShardCounts) {
  const std::vector<CellResult> reference = sharded_grid(1, 1);
  ASSERT_EQ(reference.size(), 23u);
  for (const std::size_t workers : {1u, 2u, 5u}) {
    for (const std::size_t shards : {0u, 1u, 4u, 23u, 100u}) {
      const std::vector<CellResult> got = sharded_grid(workers, shards);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].l2),
                  std::bit_cast<std::uint64_t>(reference[i].l2))
            << "workers=" << workers << " shards=" << shards << " cell=" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].mean),
                  std::bit_cast<std::uint64_t>(reference[i].mean));
        EXPECT_EQ(got[i].stream, harness::derive_seed(kSeed, i))
            << "cell seed depends on shard geometry";
      }
    }
  }
}

TEST(RunSweepSharded, EmptyGridAndSingleCell) {
  harness::ThreadPool pool(2);
  const std::vector<int> empty;
  const auto none = harness::run_sweep_sharded(
      pool, empty, kSeed, [] { return 0; },
      [](int&, int c, std::uint64_t) { return c; });
  EXPECT_TRUE(none.empty());

  const std::vector<int> one{41};
  const auto single = harness::run_sweep_sharded(
      pool, one, kSeed, [] { return 1; },
      [](int& ctx, int c, std::uint64_t) { return c + ctx; });
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], 42);
}

TEST(RunSweepSharded, ContextIsPerShardNotPerCell) {
  // With one shard, all cells must see the same context instance (the
  // whole point: amortize context setup across a shard's cells).
  harness::ThreadPool pool(1);
  std::vector<int> cells(10, 0);
  const auto counts = harness::run_sweep_sharded(
      pool, cells, kSeed, [] { return std::vector<int>(); },
      [](std::vector<int>& seen, int, std::uint64_t) {
        seen.push_back(0);
        return static_cast<int>(seen.size());
      },
      /*shards=*/1);
  ASSERT_EQ(counts.size(), 10u);
  EXPECT_EQ(counts.front(), 1);
  EXPECT_EQ(counts.back(), 10);  // context accumulated across the shard
}

TEST(RunSweepSharded, MatchesUnshardedSeededSweep) {
  // The sharded and plain seeded overloads must agree cell for cell when
  // the evaluator ignores its context (same derive_seed streams).
  harness::ThreadPool pool(3);
  std::vector<int> cells;
  for (int i = 0; i < 17; ++i) cells.push_back(i);
  const auto plain = harness::run_sweep(
      pool, cells, kSeed,
      [](int c, std::uint64_t s) { return static_cast<double>(s % 1000) + c; });
  const auto sharded = harness::run_sweep_sharded(
      pool, cells, kSeed, [] { return 0; },
      [](int&, int c, std::uint64_t s) {
        return static_cast<double>(s % 1000) + c;
      });
  EXPECT_EQ(plain, sharded);
}

}  // namespace
}  // namespace tempofair
