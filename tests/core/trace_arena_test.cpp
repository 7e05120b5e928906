// Unit tests of the columnar TraceArena / JobTraceView, plus equivalence
// tests pinning the refactored (view-based, windowed) analysis pipeline to
// first-principles recomputations over a materialized AoS copy of the trace.
// Tolerance for the equivalence checks is 1e-12 *relative*; most are in
// fact bitwise because the view code performs the identical arithmetic.
#include "core/trace_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "analysis/dualfit.h"
#include "core/engine.h"
#include "core/fairness.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair {
namespace {

// Materialized (array-of-structs) copy of the trace, as the pre-refactor
// layout stored it: the reference representation for equivalence checks.
struct AosInterval {
  Time begin = 0.0;
  Time end = 0.0;
  std::vector<RateShare> shares;
};

std::vector<AosInterval> materialize(const TraceArena& trace) {
  std::vector<AosInterval> out;
  out.reserve(trace.size());
  for (const TraceIntervalView iv : trace) {
    AosInterval a;
    a.begin = iv.begin();
    a.end = iv.end();
    for (std::size_t i = 0; i < iv.alive_count(); ++i) {
      a.shares.push_back(iv.share(i));
    }
    out.push_back(std::move(a));
  }
  return out;
}

void expect_rel_eq(double actual, double expected, const char* what) {
  const double tol = 1e-12 * std::max({std::fabs(actual), std::fabs(expected), 1.0});
  EXPECT_NEAR(actual, expected, tol) << what;
}

// ---- JobTraceView units -----------------------------------------------------

TEST(JobTraceView, EmptyForUnknownOrAbsentJob) {
  TraceArena arena;
  EXPECT_TRUE(arena.job_trace(0).empty());
  arena.append(0.0, 1.0, {RateShare{2, 1.0}});
  EXPECT_TRUE(arena.job_trace(0).empty());   // id below max, never traced
  EXPECT_TRUE(arena.job_trace(7).empty());   // id beyond any traced job
  EXPECT_EQ(arena.job_trace(2).size(), 1u);
  EXPECT_DOUBLE_EQ(arena.job_work(0), 0.0);
}

TEST(JobTraceView, SingleIntervalSlice) {
  TraceArena arena;
  arena.append(1.0, 3.5, {RateShare{4, 0.4}});
  const JobTraceView v = arena.job_trace(4);
  ASSERT_EQ(v.size(), 1u);
  const JobSlice s = v.front();
  EXPECT_EQ(s.interval, 0u);
  EXPECT_DOUBLE_EQ(s.begin, 1.0);
  EXPECT_DOUBLE_EQ(s.end, 3.5);
  EXPECT_DOUBLE_EQ(s.rate, 0.4);
  EXPECT_DOUBLE_EQ(s.length(), 2.5);
  EXPECT_DOUBLE_EQ(v.total_work(), 1.0);
}

TEST(JobTraceView, InterleavedArrivalsUnderRr) {
  // Jobs (0, 2), (1, 2): job 0 runs alone on [0,1), both share [1,3),
  // job 1 alone on [3,4).
  const Instance inst = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{{0.0, 2.0}, {1.0, 2.0}});
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;

  const JobTraceView v0 = s.job_trace(0);
  ASSERT_EQ(v0.size(), 2u);
  EXPECT_DOUBLE_EQ(v0[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(v0[0].end, 1.0);
  EXPECT_DOUBLE_EQ(v0[0].rate, 1.0);
  EXPECT_DOUBLE_EQ(v0[1].begin, 1.0);
  EXPECT_DOUBLE_EQ(v0[1].end, 3.0);
  EXPECT_DOUBLE_EQ(v0[1].rate, 0.5);

  const JobTraceView v1 = s.job_trace(1);
  ASSERT_EQ(v1.size(), 2u);
  EXPECT_DOUBLE_EQ(v1[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(v1[0].rate, 0.5);
  EXPECT_DOUBLE_EQ(v1[1].begin, 3.0);
  EXPECT_DOUBLE_EQ(v1[1].end, 4.0);
  EXPECT_DOUBLE_EQ(v1[1].rate, 1.0);

  // Slices reference their interval's global position.
  EXPECT_EQ(v0[1].interval, v1[0].interval);
  EXPECT_DOUBLE_EQ(v0.total_work(), 2.0);
  EXPECT_DOUBLE_EQ(v1.total_work(), 2.0);
}

TEST(TraceArena, UniformAndPerJobRateStorage) {
  TraceArena arena;
  // Bitwise-equal rates: stored compressed.
  arena.append(0.0, 1.0, {RateShare{0, 0.5}, RateShare{1, 0.5}});
  // Distinct rates: stored per job.
  arena.append(1.0, 2.0, {RateShare{0, 0.75}, RateShare{1, 0.25}});
  EXPECT_TRUE(arena[0].uniform_rate());
  EXPECT_FALSE(arena[1].uniform_rate());
  EXPECT_DOUBLE_EQ(arena[0].rate(0), 0.5);
  EXPECT_DOUBLE_EQ(arena[0].rate(1), 0.5);
  EXPECT_DOUBLE_EQ(arena[1].rate(0), 0.75);
  EXPECT_DOUBLE_EQ(arena[1].rate(1), 0.25);
  // The shares range resolves the compressed case too.
  std::vector<RateShare> got;
  for (const RateShare rs : arena[1].shares()) got.push_back(rs);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].job, 0u);
  EXPECT_DOUBLE_EQ(got[1].rate, 0.25);
  // Per-job cursor sees through compression as well.
  EXPECT_DOUBLE_EQ(arena.job_work(0), 0.5 + 0.75);
  EXPECT_DOUBLE_EQ(arena.job_work(1), 0.5 + 0.25);
}

TEST(TraceArena, EveryRrIntervalIsUniformCompressed) {
  workload::Rng rng(23);
  const Instance inst = workload::detail::poisson_load(
      80, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  const Schedule s = run(inst, rr).schedule;
  for (const TraceIntervalView iv : s.trace()) {
    EXPECT_TRUE(iv.uniform_rate());
  }
}

// ---- Column storage: growth, accounting, copy and move ---------------------

void expect_same_trace(const TraceArena& got,
                       const std::vector<AosInterval>& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(got.size(), want.size());
  std::size_t entries = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const TraceIntervalView iv = got[i];
    EXPECT_EQ(bits(iv.begin()), bits(want[i].begin)) << i;
    EXPECT_EQ(bits(iv.end()), bits(want[i].end)) << i;
    ASSERT_EQ(iv.alive_count(), want[i].shares.size()) << i;
    for (std::size_t p = 0; p < iv.alive_count(); ++p) {
      EXPECT_EQ(iv.job(p), want[i].shares[p].job) << i;
      EXPECT_EQ(bits(iv.rate(p)), bits(want[i].shares[p].rate)) << i;
    }
    entries += iv.alive_count();
  }
  EXPECT_EQ(got.entry_count(), entries);
}

TEST(TraceArena, ManyGrowthStepsMatchAosReference) {
  // Rows of 0-40 jobs, uniform or per-job rates, through both append
  // paths: thousands of rows take every column through dozens of growth
  // steps, and the contents must survive each of them.
  std::mt19937_64 gen(20261017);
  TraceArena arena;
  std::vector<AosInterval> want;
  std::vector<JobId> jobs;
  std::vector<double> rates;
  Time t = 0.0;
  for (int row = 0; row < 5000; ++row) {
    const std::size_t nt = gen() % 41;
    const bool uniform = gen() % 2 == 0;
    jobs.clear();
    rates.clear();
    AosInterval a;
    a.begin = t;
    t += 0.25 + static_cast<double>(gen() % 8);
    a.end = t;
    for (std::size_t p = 0; p < nt; ++p) {
      jobs.push_back(static_cast<JobId>(3 * p + gen() % 3));
      rates.push_back(uniform ? 1.0 / static_cast<double>(nt)
                              : static_cast<double>(p + 1) / 64.0);
      a.shares.push_back(RateShare{jobs.back(), rates.back()});
    }
    if (uniform && row % 3 == 0) {
      arena.append_uniform(a.begin, a.end, jobs,
                           rates.empty() ? 0.0 : rates[0]);
    } else {
      arena.append(a.begin, a.end, jobs, rates);
    }
    want.push_back(std::move(a));
    if (row % 997 == 0) expect_same_trace(arena, want);
  }
  expect_same_trace(arena, want);
  EXPECT_GE(arena.peak_memory_bytes(), arena.memory_bytes());
  arena.shrink_to_fit();
  expect_same_trace(arena, want);
}

TEST(TraceArena, LargeColumnsKeepContentsThroughEveryResize) {
  // Columns of 128 KiB and more are resized in place of their own memory
  // mapping.  Take every column into that range by reserve(), back out by
  // shrink_to_fit(), into it again by growth, then copy, move and assign.
  TraceArena arena;
  arena.reserve(100'000, 100'000);
  // 8 bytes per begin/end/rate slot, 8 per offset slot (+1), 4 per id.
  EXPECT_EQ(arena.memory_bytes(), 4'400'016u);
  EXPECT_EQ(arena.peak_memory_bytes(), 4'400'016u);
  std::vector<AosInterval> want;
  std::size_t stored_rates = 0;
  const std::vector<JobId> ids{2, 3, 5, 7, 11, 13};
  const auto add_row = [&](std::size_t nt, bool uniform) {
    stored_rates += uniform ? 1 : nt;
    AosInterval a;
    a.begin = static_cast<Time>(want.size());
    a.end = a.begin + 0.5;
    std::vector<double> rates;
    for (std::size_t p = 0; p < nt; ++p) {
      rates.push_back(uniform ? 0.25 : 0.125 * static_cast<double>(p + 1));
      a.shares.push_back(RateShare{ids[p], rates.back()});
    }
    arena.append(a.begin, a.end, std::span<const JobId>(ids.data(), nt), rates);
    want.push_back(std::move(a));
  };
  for (std::size_t i = 0; i < 50; ++i) add_row(i % 6 + 1, i % 2 == 0);
  expect_same_trace(arena, want);
  arena.shrink_to_fit();
  expect_same_trace(arena, want);
  EXPECT_EQ(arena.memory_bytes(),
            50u * 16 + 51u * 16 + 4u * arena.entry_count() + 8u * stored_rates);
  while (want.size() < 60'000) {
    add_row(want.size() % 6 + 1, want.size() % 3 != 0);
  }
  expect_same_trace(arena, want);
  const TraceArena copy(arena);
  expect_same_trace(copy, want);
  TraceArena moved(std::move(arena));
  moved.shrink_to_fit();
  expect_same_trace(moved, want);
  arena = copy;
  expect_same_trace(arena, want);
  EXPECT_EQ(arena.memory_bytes(), moved.memory_bytes());
}

TEST(TraceArena, MemoryBytesFollowTheGrowthRule) {
  // Row i holds i % 5 + 1 jobs at one uniform rate.  Each column grows to
  // max(needed, capacity + capacity / 4 + 1) when full; memory_bytes() is
  // 8 bytes per slot of begin/end/both offset tables and of rates, and 4
  // per id slot.  An empty arena holds no slot; the first row gives each
  // offset table two (offset[0] == 0 and the row's end offset).
  TraceArena arena;
  EXPECT_EQ(arena.memory_bytes(), 0u);
  std::vector<JobId> jobs;
  std::vector<std::size_t> at;
  for (int i = 0; i < 1000; ++i) {
    jobs.assign(static_cast<std::size_t>(i % 5 + 1), JobId{0});
    for (std::size_t p = 0; p < jobs.size(); ++p) {
      jobs[p] = static_cast<JobId>(p);
    }
    arena.append_uniform(i, i + 1, jobs, 0.5);
    at.push_back(arena.memory_bytes());
  }
  // Capacities (begin, end, job_off, rate_off, ids, rates) after rows
  // 1, 2, 3, 4: (1,1,2,2,1,1), (2,2,3,3,3,2), (3,3,4,4,6,3), (4,4,6,6,10,4).
  EXPECT_EQ(at[0], 60u);
  EXPECT_EQ(at[1], 108u);
  EXPECT_EQ(at[2], 160u);
  EXPECT_EQ(at[3], 232u);
  EXPECT_EQ(at[9], 564u);     // (11, 11, 11, 11, 31, 11)
  EXPECT_EQ(at[99], 5892u);   // (117, 117, 117, 117, 303, 117)
  EXPECT_EQ(at[999], 58556u); // (1109, 1109, 1109, 1109, 3549, 1109)
  EXPECT_EQ(arena.peak_memory_bytes(), 58556u);
  arena.shrink_to_fit();
  // Exactly the elements: 1000 begins, ends and rates, 1001 of each offset
  // table, 3000 ids.
  EXPECT_EQ(arena.memory_bytes(), 52016u);
  EXPECT_EQ(arena.peak_memory_bytes(), 58556u);
}

TEST(TraceArena, AppendAccountsUniformRowsLikeAppendUniform) {
  // append() stores an all-equal rate vector as one rate, so it must grow
  // the rate column by one, not by the row's job count.
  TraceArena by_append;
  TraceArena by_uniform;
  std::vector<JobId> jobs;
  for (int i = 0; i < 300; ++i) {
    jobs.resize(static_cast<std::size_t>(i % 7 + 1));
    for (std::size_t p = 0; p < jobs.size(); ++p) {
      jobs[p] = static_cast<JobId>(p);
    }
    const std::vector<double> rates(jobs.size(), 0.125);
    by_append.append(i, i + 1, jobs, rates);
    by_uniform.append_uniform(i, i + 1, jobs, 0.125);
    ASSERT_EQ(by_append.memory_bytes(), by_uniform.memory_bytes()) << i;
  }
  EXPECT_EQ(by_append.peak_memory_bytes(), by_uniform.peak_memory_bytes());
  expect_same_trace(by_append, materialize(by_uniform));
}

TEST(TraceArena, ShrinkToFitOnEmptyArena) {
  TraceArena arena;
  arena.shrink_to_fit();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.entry_count(), 0u);
  EXPECT_EQ(arena.memory_bytes(), 0u);  // no row, no offset table
  EXPECT_TRUE(arena.job_trace(0).empty());
  arena.append(0.0, 1.0, {RateShare{1, 0.5}});
  arena.clear();
  arena.shrink_to_fit();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.memory_bytes(), 0u);
  arena.append(2.0, 3.0, {RateShare{0, 1.0}, RateShare{1, 0.25}});
  ASSERT_EQ(arena.size(), 1u);
  EXPECT_DOUBLE_EQ(arena.job_work(1), 0.25);
}

TEST(TraceArena, CopyMoveAndSelfAssignmentOfTracedSchedule) {
  workload::Rng rng(5);
  const Instance inst = workload::detail::poisson_load(
      400, 2, 0.9, workload::ExponentialSize{1.0}, rng);
  RoundRobin rr;
  RunRequest req;
  req.machines = 2;
  req.record_trace = true;
  Schedule original = run(inst, rr, req).schedule;
  const std::vector<AosInterval> want = materialize(original.trace());
  ASSERT_GT(want.size(), 100u);
  const std::size_t bytes = original.trace_memory_bytes();

  Schedule copy(original);
  expect_same_trace(copy.trace(), want);
  EXPECT_EQ(copy.trace_memory_bytes(), bytes);  // finalized: no slack
  EXPECT_EQ(copy.trace().peak_memory_bytes(),
            original.trace().peak_memory_bytes());
  // The copy owns its columns: growing it leaves the original alone.
  copy.push_interval(1e9, 1e9 + 1, {RateShare{0, 1.0}});
  EXPECT_EQ(copy.trace().size(), want.size() + 1);
  expect_same_trace(original.trace(), want);

  Schedule& alias = original;
  original = alias;
  expect_same_trace(original.trace(), want);
  EXPECT_EQ(original.trace_memory_bytes(), bytes);

  Schedule moved(std::move(copy));
  EXPECT_EQ(moved.trace().size(), want.size() + 1);
  copy = original;  // a moved-from schedule can be assigned again
  expect_same_trace(copy.trace(), want);

  Schedule target =
      run(Instance::from_pairs(std::vector<std::pair<Time, Work>>{{0.0, 1.0}}), rr)
          .schedule;
  target = std::move(original);
  expect_same_trace(target.trace(), want);
  EXPECT_EQ(target.trace_memory_bytes(), bytes);
  target = copy;
  expect_same_trace(target.trace(), want);
  EXPECT_EQ(target.job_trace(0).total_work(), copy.job_trace(0).total_work());
}

// ---- Equivalence: arena pipeline vs first-principles AoS recomputation -----

class ArenaEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::Rng rng(42);
    inst_ = workload::detail::poisson_load(300, 1, 0.9,
                                   workload::ExponentialSize{1.5}, rng);
    RoundRobin rr;
    RunRequest req;
    req.record_trace = true;
    sched_ = run(inst_, rr, req).schedule;
    aos_ = materialize(sched_->trace());
  }

  Instance inst_;
  std::optional<Schedule> sched_;
  std::vector<AosInterval> aos_;
};

TEST_F(ArenaEquivalence, FlowTimesMatchLastTracedSlice) {
  // Under RR every job is processed until the moment it completes, so its
  // completion must equal the end of its last traced slice.
  for (JobId j = 0; j < inst_.n(); ++j) {
    const JobTraceView v = sched_->job_trace(j);
    ASSERT_FALSE(v.empty());
    expect_rel_eq(sched_->completion(j), v.back().end, "completion");
    expect_rel_eq(sched_->flow(j), v.back().end - sched_->release(j), "flow");
  }
}

TEST_F(ArenaEquivalence, TracedWorkMatchesAosRecompute) {
  double total_ref = 0.0;
  std::vector<double> per_job_ref(inst_.n(), 0.0);
  for (const AosInterval& iv : aos_) {
    const double len = iv.end - iv.begin;
    for (const RateShare& rs : iv.shares) {
      total_ref += rs.rate * len;
      per_job_ref[rs.job] += rs.rate * len;
    }
  }
  expect_rel_eq(sched_->traced_work(), total_ref, "traced_work total");
  for (JobId j = 0; j < inst_.n(); ++j) {
    expect_rel_eq(sched_->traced_work(j), per_job_ref[j], "traced_work per job");
  }
}

TEST_F(ArenaEquivalence, FairnessReportMatchesAosRecompute) {
  // Reference: the pre-refactor fairness loop over the AoS copy.
  const double speed = sched_->speed();
  const int m = sched_->machines();
  double jain_weighted = 0.0, busy = 0.0, max_lag = 0.0;
  std::vector<double> lag(inst_.n(), 0.0);
  std::vector<double> rates;
  for (const AosInterval& iv : aos_) {
    const double len = iv.end - iv.begin;
    const std::size_t n = iv.shares.size();
    if (n == 0) continue;
    busy += len;
    rates.clear();
    for (const RateShare& rs : iv.shares) rates.push_back(rs.rate);
    jain_weighted += jain_index(rates) * len;
    const double fair_share =
        speed * std::min(1.0, static_cast<double>(m) / static_cast<double>(n));
    for (const RateShare& rs : iv.shares) {
      lag[rs.job] += (fair_share - rs.rate) * len;
      max_lag = std::max(max_lag, lag[rs.job]);
    }
  }
  const FairnessReport rep = fairness_report(*sched_);
  expect_rel_eq(rep.busy_time, busy, "busy_time");
  expect_rel_eq(rep.jain_time_avg, jain_weighted / busy, "jain_time_avg");
  EXPECT_NEAR(rep.max_service_lag, max_lag, 1e-12);
}

TEST_F(ArenaEquivalence, ServiceLagCurveMatchesAosRecompute) {
  const double speed = sched_->speed();
  const int m = sched_->machines();
  for (JobId j : {JobId{0}, JobId{17}, JobId{299}}) {
    const auto curve = service_lag_curve(*sched_, j);
    // Reference: walk the AoS trace, accumulating lag in intervals with j.
    std::vector<std::pair<Time, double>> ref;
    double lag = 0.0;
    for (const AosInterval& iv : aos_) {
      const auto it = std::find_if(
          iv.shares.begin(), iv.shares.end(),
          [&](const RateShare& rs) { return rs.job == j; });
      if (it == iv.shares.end()) continue;
      if (ref.empty()) ref.emplace_back(iv.begin, 0.0);
      const double fair_share =
          speed * std::min(1.0, static_cast<double>(m) /
                                    static_cast<double>(iv.shares.size()));
      lag += (fair_share - it->rate) * (iv.end - iv.begin);
      ref.emplace_back(iv.end, lag);
    }
    ASSERT_EQ(curve.size(), ref.size());
    for (std::size_t i = 0; i < curve.size(); ++i) {
      EXPECT_DOUBLE_EQ(curve[i].first, ref[i].first);
      EXPECT_NEAR(curve[i].second, ref[i].second, 1e-12);
    }
  }
}

// Reference port of the pre-refactor dual-fit certificate: full O(n * pieces)
// feasibility sweep over the AoS trace copy, no windowing, no hoisting.
struct DualRef {
  double alpha_sum = 0.0;
  double beta_term = 0.0;
  double dual_objective = 0.0;
  double min_slack = 0.0;
  double max_relative_violation = 0.0;
};

DualRef dual_fit_reference(const Schedule& schedule,
                           const std::vector<AosInterval>& aos, double k,
                           double eps) {
  const std::size_t n = schedule.n();
  const int m = schedule.machines();
  const double gamma = k * std::pow(k / eps, k);
  const double delta = eps;

  auto age_power_integral = [&](double a, double b, double r) {
    return std::pow(b - r, k) - std::pow(a - r, k);
  };

  std::vector<double> flow(n), fk(n), fkm1(n);
  for (std::size_t j = 0; j < n; ++j) {
    flow[j] = schedule.flow(static_cast<JobId>(j));
    fk[j] = std::pow(flow[j], k);
    fkm1[j] = std::pow(flow[j], k - 1.0);
  }

  std::vector<double> alpha(n, 0.0);
  for (const AosInterval& iv : aos) {
    const std::size_t nt = iv.shares.size();
    if (nt == 0) continue;
    if (nt < static_cast<std::size_t>(m)) {
      for (const RateShare& s : iv.shares) {
        alpha[s.job] +=
            age_power_integral(iv.begin, iv.end, schedule.release(s.job));
      }
      continue;
    }
    std::vector<JobId> by_arrival;
    for (const RateShare& s : iv.shares) by_arrival.push_back(s.job);
    std::sort(by_arrival.begin(), by_arrival.end(), [&](JobId a, JobId b) {
      const Time ra = schedule.release(a), rb = schedule.release(b);
      if (ra != rb) return ra < rb;
      return a < b;
    });
    std::vector<double> prefix(nt + 1, 0.0);
    for (std::size_t i = 0; i < nt; ++i) {
      prefix[i + 1] = prefix[i] + age_power_integral(
                                      iv.begin, iv.end,
                                      schedule.release(by_arrival[i]));
    }
    for (std::size_t i = 0; i < nt; ++i) {
      alpha[by_arrival[i]] += prefix[i + 1] / static_cast<double>(nt);
    }
  }
  DualRef ref;
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] -= eps * fk[j];
    ref.alpha_sum += alpha[j];
  }

  const double beta_coeff = (0.5 - 3.0 * eps) / static_cast<double>(m);
  std::vector<std::pair<Time, double>> events;
  for (std::size_t j = 0; j < n; ++j) {
    const Time start = schedule.release(static_cast<JobId>(j));
    const Time stop =
        schedule.completion(static_cast<JobId>(j)) + delta * flow[j];
    events.emplace_back(start, beta_coeff * fkm1[j]);
    events.emplace_back(stop, -beta_coeff * fkm1[j]);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::pair<Time, double>> pieces;
  double running = 0.0, beta_integral = 0.0;
  Time prev_t = events.empty() ? 0.0 : events.front().first;
  std::size_t i = 0;
  while (i < events.size()) {
    const Time t = events[i].first;
    beta_integral += running * (t - prev_t);
    prev_t = t;
    while (i < events.size() && events[i].first == t) {
      running += events[i].second;
      ++i;
    }
    pieces.emplace_back(t, std::max(running, 0.0));
  }
  ref.beta_term = static_cast<double>(m) * beta_integral;
  ref.dual_objective = ref.alpha_sum - ref.beta_term;

  ref.min_slack = kInfiniteTime;
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = schedule.size(static_cast<JobId>(j));
    const double rj = schedule.release(static_cast<JobId>(j));
    const double lhs = alpha[j] / pj;
    auto check_at = [&](Time t, double beta_value) {
      const double rhs =
          gamma * (std::pow(std::max(t - rj, 0.0), k) + std::pow(pj, k)) / pj +
          beta_value;
      const double slack = rhs - lhs;
      ref.min_slack = std::min(ref.min_slack, slack);
      if (slack < 0.0) {
        const double scale = std::max({std::fabs(lhs), std::fabs(rhs), 1e-300});
        ref.max_relative_violation =
            std::max(ref.max_relative_violation, -slack / scale);
      }
    };
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      const Time piece_end =
          p + 1 < pieces.size() ? pieces[p + 1].first : kInfiniteTime;
      if (piece_end <= rj) continue;
      check_at(std::max(pieces[p].first, rj), pieces[p].second);
    }
    const Time tail_start =
        pieces.empty() ? rj : std::max(pieces.back().first, rj);
    check_at(tail_start, 0.0);
  }
  return ref;
}

TEST_F(ArenaEquivalence, DualFitCertificateMatchesFullScanReference) {
  for (const double k : {1.0, 2.0, 3.0}) {
    analysis::DualFitOptions opt;
    opt.k = k;
    opt.eps = 0.05;
    const analysis::DualFitResult res =
        analysis::dual_fit_certificate(*sched_, opt);
    const DualRef ref = dual_fit_reference(*sched_, aos_, k, opt.eps);
    expect_rel_eq(res.alpha_sum, ref.alpha_sum, "alpha_sum");
    expect_rel_eq(res.beta_term, ref.beta_term, "beta_term");
    expect_rel_eq(res.dual_objective, ref.dual_objective, "dual_objective");
    expect_rel_eq(res.min_slack, ref.min_slack, "min_slack");
    expect_rel_eq(res.max_relative_violation, ref.max_relative_violation,
                  "max_relative_violation");
  }
}

// Same equivalence on a multi-machine, non-unit-speed run: exercises the
// underloaded alpha branch and per-machine fair shares.
TEST(ArenaEquivalenceMultiMachine, DualFitAndWorkMatchReference) {
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      200, 3, 1.1, workload::UniformSize{0.5, 2.0}, rng);
  RoundRobin rr;
  RunRequest req;
  req.machines = 3;
  req.speed = 2.0;
  req.record_trace = true;
  const Schedule s = run(inst, rr, req).schedule;
  const std::vector<AosInterval> aos = materialize(s.trace());

  analysis::DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  const analysis::DualFitResult res = analysis::dual_fit_certificate(s, opt);
  const DualRef ref = dual_fit_reference(s, aos, opt.k, opt.eps);
  expect_rel_eq(res.alpha_sum, ref.alpha_sum, "alpha_sum");
  expect_rel_eq(res.beta_term, ref.beta_term, "beta_term");
  expect_rel_eq(res.min_slack, ref.min_slack, "min_slack");
  expect_rel_eq(res.max_relative_violation, ref.max_relative_violation,
                "max_relative_violation");

  double total_ref = 0.0;
  for (const AosInterval& iv : aos) {
    for (const RateShare& rs : iv.shares) {
      total_ref += rs.rate * (iv.end - iv.begin);
    }
  }
  expect_rel_eq(s.traced_work(), total_ref, "traced_work total");
}

}  // namespace
}  // namespace tempofair
