#include "core/instance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tempofair {
namespace {

TEST(Instance, FromPairsAssignsSequentialIds) {
  const std::vector<std::pair<Time, Work>> pairs{{0.0, 2.0}, {1.5, 3.0}, {0.5, 1.0}};
  const Instance inst = Instance::from_pairs(pairs);
  ASSERT_EQ(inst.n(), 3u);
  EXPECT_EQ(inst.job(0).release, 0.0);
  EXPECT_EQ(inst.job(0).size, 2.0);
  EXPECT_EQ(inst.job(1).release, 1.5);
  EXPECT_EQ(inst.job(2).size, 1.0);
}

TEST(Instance, EmptyInstance) {
  const Instance inst;
  EXPECT_TRUE(inst.empty());
  EXPECT_EQ(inst.n(), 0u);
  EXPECT_EQ(inst.total_work(), 0.0);
}

TEST(Instance, BatchReleasesAllAtSameTime) {
  const std::vector<Work> sizes{1.0, 2.0, 3.0};
  const Instance inst = Instance::batch(sizes, 5.0);
  ASSERT_EQ(inst.n(), 3u);
  for (const Job& j : inst.jobs()) EXPECT_EQ(j.release, 5.0);
  EXPECT_EQ(inst.total_work(), 6.0);
}

TEST(Instance, RejectsNonPositiveSize) {
  const std::vector<std::pair<Time, Work>> pairs{{0.0, 0.0}};
  EXPECT_THROW((void)Instance::from_pairs(pairs), std::invalid_argument);
  const std::vector<std::pair<Time, Work>> neg{{0.0, -1.0}};
  EXPECT_THROW((void)Instance::from_pairs(neg), std::invalid_argument);
}

TEST(Instance, RejectsNegativeOrNonFiniteRelease) {
  const std::vector<std::pair<Time, Work>> neg{{-1.0, 1.0}};
  EXPECT_THROW((void)Instance::from_pairs(neg), std::invalid_argument);
  const std::vector<std::pair<Time, Work>> inf{
      {std::numeric_limits<double>::infinity(), 1.0}};
  EXPECT_THROW((void)Instance::from_pairs(inf), std::invalid_argument);
}

TEST(Instance, RejectsNonFiniteSize) {
  const std::vector<std::pair<Time, Work>> nan{
      {0.0, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW((void)Instance::from_pairs(nan), std::invalid_argument);
}

TEST(Instance, FromJobsRequiresIdPermutation) {
  EXPECT_THROW((void)Instance::from_jobs({Job{0, 0.0, 1.0}, Job{0, 1.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)Instance::from_jobs({Job{1, 0.0, 1.0}, Job{2, 1.0, 1.0}}),
               std::invalid_argument);
  const Instance ok = Instance::from_jobs({Job{1, 0.0, 1.0}, Job{0, 1.0, 2.0}});
  EXPECT_EQ(ok.job(0).release, 1.0);
  EXPECT_EQ(ok.job(1).release, 0.0);
}

TEST(Instance, ReleaseOrderSortsByReleaseThenId) {
  const Instance inst = Instance::from_jobs(
      {Job{0, 2.0, 1.0}, Job{1, 0.0, 1.0}, Job{2, 0.0, 1.0}, Job{3, 1.0, 1.0}});
  const auto order = inst.release_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 0u);
}

// Construction skips its sorts on input that is already in order; whichever
// branch runs, the instance must equal what the sorts produce.
TEST(Instance, ReleaseOrderMatchesSortReference) {
  std::mt19937_64 rng(20261019);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 1000u}) {
    // Job i released at a nondecreasing time; quarter steps give ties.
    std::vector<Job> ordered;
    Time t = 0.0;
    std::uniform_int_distribution<int> step(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      t += 0.25 * step(rng);
      ordered.push_back(Job{static_cast<JobId>(i), t, 1.0 + 0.5 * (i % 7)});
    }
    std::vector<std::pair<std::string, std::vector<Job>>> inputs;
    inputs.emplace_back("ordered", ordered);
    std::vector<Job> reversed = ordered;
    for (std::size_t i = 0; i < n; ++i) {
      reversed[i].release = ordered[n - 1 - i].release;
    }
    inputs.emplace_back("reversed releases", reversed);
    std::vector<Job> shuffled = ordered;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    inputs.emplace_back("ids shuffled", shuffled);
    std::vector<Job> tied = ordered;
    for (Job& j : tied) j.release = 3.0;
    inputs.emplace_back("all releases equal", tied);
    std::vector<Job> late = ordered;
    if (n > 0) late.back().release = 0.0;
    if (n > 1) late[n - 2].release = std::max(late[n - 2].release, 0.5);
    inputs.emplace_back("last release out of order", late);
    std::vector<Job> swapped = ordered;
    if (n > 1) std::swap(swapped.front(), swapped.back());
    inputs.emplace_back("ids out of place, releases ordered", swapped);

    for (const auto& [label, input] : inputs) {
      SCOPED_TRACE("n=" + std::to_string(n) + " " + label);
      std::vector<Job> by_id(n);
      for (const Job& j : input) by_id[j.id] = j;
      std::vector<JobId> reference(n);
      std::iota(reference.begin(), reference.end(), JobId{0});
      std::sort(reference.begin(), reference.end(), [&](JobId a, JobId b) {
        if (by_id[a].release != by_id[b].release) {
          return by_id[a].release < by_id[b].release;
        }
        return a < b;
      });
      bool identity = true;
      for (std::size_t i = 0; i < n; ++i) identity = identity && reference[i] == i;

      const Instance inst = Instance::from_jobs(input);
      ASSERT_EQ(inst.n(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(inst.jobs()[i].id, i);
        EXPECT_EQ(inst.jobs()[i], by_id[i]);
      }
      const auto order = inst.release_order();
      EXPECT_TRUE(std::equal(order.begin(), order.end(), reference.begin(),
                             reference.end()));
      EXPECT_EQ(inst.ids_in_release_order(), identity);
    }
  }
  // Ids in place up to a duplicate or an out-of-range id still fail.
  EXPECT_THROW((void)Instance::from_jobs(
                   {Job{0, 0.0, 1.0}, Job{1, 1.0, 1.0}, Job{1, 2.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)Instance::from_jobs(
                   {Job{0, 0.0, 1.0}, Job{1, 1.0, 1.0}, Job{3, 2.0, 1.0}}),
               std::invalid_argument);
}

TEST(Instance, AggregateStatistics) {
  const std::vector<std::pair<Time, Work>> pairs{{1.0, 2.0}, {3.0, 0.5}, {2.0, 4.0}};
  const Instance inst = Instance::from_pairs(pairs);
  EXPECT_DOUBLE_EQ(inst.total_work(), 6.5);
  EXPECT_DOUBLE_EQ(inst.max_size(), 4.0);
  EXPECT_DOUBLE_EQ(inst.min_size(), 0.5);
  EXPECT_DOUBLE_EQ(inst.min_release(), 1.0);
  EXPECT_DOUBLE_EQ(inst.max_release(), 3.0);
}

TEST(Instance, HorizonBoundCoversSequentialExecution) {
  const std::vector<std::pair<Time, Work>> pairs{{0.0, 5.0}, {10.0, 5.0}};
  const Instance inst = Instance::from_pairs(pairs);
  EXPECT_GE(inst.horizon_bound(1), 20.0);
  EXPECT_GE(inst.horizon_bound(4, 2.0), 10.0 + 10.0 / 2.0);
}

TEST(Instance, HorizonBoundValidatesArguments) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  EXPECT_THROW((void)inst.horizon_bound(0), std::invalid_argument);
  EXPECT_THROW((void)inst.horizon_bound(1, 0.0), std::invalid_argument);
}

TEST(Instance, NormalizedShiftsReleasesToZero) {
  const std::vector<std::pair<Time, Work>> pairs{{5.0, 1.0}, {7.0, 2.0}};
  const Instance norm = Instance::from_pairs(pairs).normalized();
  EXPECT_DOUBLE_EQ(norm.min_release(), 0.0);
  EXPECT_DOUBLE_EQ(norm.job(1).release, 2.0);
}

TEST(Instance, MergedWithShiftsIds) {
  const Instance a = Instance::batch(std::vector<Work>{1.0, 2.0});
  const Instance b = Instance::batch(std::vector<Work>{3.0}, 1.0);
  const Instance m = a.merged_with(b);
  ASSERT_EQ(m.n(), 3u);
  EXPECT_DOUBLE_EQ(m.job(2).size, 3.0);
  EXPECT_DOUBLE_EQ(m.job(2).release, 1.0);
  EXPECT_DOUBLE_EQ(m.total_work(), 6.0);
}

TEST(Instance, MergedWithEmptyIsIdentity) {
  const Instance a = Instance::batch(std::vector<Work>{1.0, 2.0});
  const Instance m = a.merged_with(Instance{});
  EXPECT_EQ(m.n(), 2u);
}

TEST(Instance, SummaryMentionsKeyNumbers) {
  const Instance a = Instance::batch(std::vector<Work>{1.0, 2.0});
  const std::string s = a.summary();
  EXPECT_NE(s.find("n=2"), std::string::npos);
}

TEST(Job, ArrivesBeforeOrdersByReleaseThenId) {
  const Job a{0, 1.0, 1.0}, b{1, 2.0, 1.0}, c{2, 1.0, 1.0};
  EXPECT_TRUE(arrives_before(a, b));
  EXPECT_FALSE(arrives_before(b, a));
  EXPECT_TRUE(arrives_before(a, c));   // same release, lower id
  EXPECT_FALSE(arrives_before(c, a));
}

}  // namespace
}  // namespace tempofair
