#include "lpsolve/lower_bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "policies/round_robin.h"
#include "workload/generators.h"

namespace tempofair::lpsolve {
namespace {

TEST(OptBounds, TrivialBoundIsSumOfSizePowers) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 2.0, 3.0});
  OptBoundsOptions opt;
  opt.k = 2.0;
  opt.with_lp = false;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_DOUBLE_EQ(b.trivial_lb, 1.0 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(b.best_lb, b.trivial_lb);
  EXPECT_DOUBLE_EQ(b.lp_lb, 0.0);
}

TEST(OptBounds, BracketOrderingHolds) {
  workload::Rng rng(89);
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::detail::poisson_load(
        35, 1, 0.9, workload::ExponentialSize{1.5}, rng);
    OptBoundsOptions opt;
    opt.k = k;
    const OptBounds b = opt_bounds(inst, opt);
    EXPECT_GT(b.best_lb, 0.0);
    EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-9)) << "k=" << k;
    EXPECT_GE(b.best_lb, b.trivial_lb - 1e-9);
    EXPECT_GE(b.best_lb, b.lp_lb - 1e-9);
  }
}

TEST(OptBounds, ProxyBoundsAnyPolicyFromBelow) {
  // proxy = min(SRPT, SJF) >= OPT, so every policy's cost >= ... is NOT
  // implied; instead: proxy <= RR's cost must hold only when SRPT beats RR,
  // which it does for l1 on one machine.
  workload::Rng rng(97);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::ExponentialSize{1.5}, rng);
  OptBoundsOptions opt;
  opt.k = 1.0;
  opt.with_lp = false;
  const OptBounds b = opt_bounds(inst, opt);
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const double rr_cost = flow_lk_power(run(inst, rr, req).schedule, 1.0);
  EXPECT_LE(b.proxy_ub, rr_cost * (1.0 + 1e-9));
}

TEST(OptBounds, MultiMachineBracket) {
  workload::Rng rng(101);
  const Instance inst = workload::detail::poisson_load(
      40, 4, 0.9, workload::ExponentialSize{1.0}, rng);
  OptBoundsOptions opt;
  opt.k = 2.0;
  opt.machines = 4;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-9));
}

TEST(OptBounds, AutoSlotKeepsGridBounded) {
  // A long-horizon instance must be solvable via the auto-coarsened grid.
  workload::Rng rng(103);
  const Instance inst = workload::detail::poisson_load(
      80, 1, 0.5, workload::ExponentialSize{10.0}, rng);
  OptBoundsOptions opt;
  opt.k = 2.0;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_GT(b.lp_lb, 0.0);
  EXPECT_LE(b.lp_lb, b.proxy_ub * (1.0 + 1e-9));
}

TEST(OptBounds, DenormalJobSizeDoesNotPoisonBounds) {
  // Regression: a denormal-size job used to collapse the auto slot width to
  // a denormal, making horizon/slot overflow and the LP grid degenerate.
  const std::vector<std::pair<Time, Work>> pairs{
      {0.0, 1.0}, {0.5, std::numeric_limits<double>::denorm_min()}, {1.0, 2.0}};
  const Instance inst = Instance::from_pairs(pairs);
  OptBoundsOptions opt;
  opt.k = 2.0;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_TRUE(std::isfinite(b.best_lb));
  EXPECT_TRUE(std::isfinite(b.lp_lb));
  EXPECT_GT(b.best_lb, 0.0);
  EXPECT_LE(b.best_lb, b.proxy_ub * (1.0 + 1e-9));
}

TEST(OptBounds, CertifiedLbBacksBestLb) {
  workload::Rng rng(109);
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::detail::poisson_load(
        30, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
    OptBoundsOptions opt;
    opt.k = k;
    const OptBounds b = opt_bounds(inst, opt);
    EXPECT_TRUE(b.lb_certified) << "k=" << k;
    EXPECT_GT(b.certified_lb, 0.0);
    // The exact certificate may only give up float-level slack vs best_lb.
    EXPECT_LE(b.certified_lb, b.best_lb * (1.0 + 1e-9)) << "k=" << k;
    EXPECT_GE(b.certified_lb, b.best_lb * (1.0 - 1e-4)) << "k=" << k;
  }
}

TEST(OptBounds, NonIntegerKFallsBackToLpCertificate) {
  // The trivial bound only certifies integer k; for k=1.5 the LP dual
  // certificate must carry the certification on its own.
  workload::Rng rng(113);
  const Instance inst = workload::detail::poisson_load(
      25, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
  OptBoundsOptions opt;
  opt.k = 1.5;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_TRUE(b.lb_certified);
  EXPECT_GT(b.certified_lb, 0.0);
}

TEST(OptBounds, SingleJobExactness) {
  // One job: OPT flow = size; trivial bound is exactly OPT^k.
  const Instance inst = Instance::batch(std::vector<Work>{4.0});
  OptBoundsOptions opt;
  opt.k = 2.0;
  const OptBounds b = opt_bounds(inst, opt);
  EXPECT_DOUBLE_EQ(b.trivial_lb, 16.0);
  EXPECT_DOUBLE_EQ(b.proxy_ub, 16.0);  // SRPT achieves it
}

TEST(OptBounds, GoldenBoundsOnStandardWorkloads) {
  // lp_lb and certified_lb pinned bit for bit on standard_workloads(50, m, 1)
  // cells.  The Poisson cells were recorded before the min-cost flow moved
  // to CSR arcs with an early-exit Dijkstra, the adv-* cells before the flow
  // graph merged identical jobs into one node.  Any change to MCMF's
  // arithmetic or tie-breaks, or to the certificate repair, moves at least
  // one of these.  adv-geometric (255 jobs, 8 distinct (release, size)
  // pairs) pins certified_lb only: its float lp_lb depends on the summation
  // order of the flow's costs, which merging jobs changes (by ~4e-14
  // relative); its exact certificate does not move.
  struct Golden {
    int machines;
    double k;
    const char* family;
    std::optional<double> lp_lb;
    double certified_lb;
  };
  const Golden cells[] = {
      {1, 1.0, "poisson-exp-0.9", 0x1.004ccb02232ep+6, 0x1.0e2d9834p+6},
      {1, 1.0, "poisson-pareto-0.9", 0x1.dadd64efe8ceep+5, 0x1.dadd6450baf0ep+5},
      {1, 2.0, "poisson-exp-0.9", 0x1.382d57a3f989dp+8, 0x1.382d5784cda87p+8},
      {1, 2.0, "poisson-pareto-0.9", 0x1.b2a30c47c00dfp+8, 0x1.b2a30c31e4157p+8},
      {1, 3.0, "poisson-exp-0.9", 0x1.ec38cc1f5ed83p+10, 0x1.ec38cc182e6b5p+10},
      {1, 3.0, "poisson-pareto-0.9", 0x1.133cda63dac1dp+12, 0x1.133cda6261802p+12},
      {2, 1.0, "poisson-exp-0.9", 0x1.85921a0273e9dp+5, 0x1.0e2d9834p+6},
      {2, 1.0, "poisson-pareto-0.9", 0x1.4ede8584a22c9p+5, 0x1.ce5ff128p+5},
      {2, 2.0, "poisson-exp-0.9", 0x1.36ba14ff0b1eep+7, 0x1.9a85ecefb04fep+7},
      {2, 2.0, "poisson-pareto-0.9", 0x1.27639df1fcaa1p+7, 0x1.27639dd155057p+7},
      {2, 3.0, "poisson-exp-0.9", 0x1.46ee3f385c3bcp+9, 0x1.d00f11105fecdp+9},
      {2, 3.0, "poisson-pareto-0.9", 0x1.74e5527d24b06p+9, 0x1.74e552736eccep+9},
      {1, 1.0, "adv-batch-stream", 0x1.2cp+6, 0x1.2bffffecp+6},
      {1, 2.0, "adv-batch-stream", 0x1.119ffffffffffp+8, 0x1.119ffff9p+8},
      {1, 3.0, "adv-batch-stream", 0x1.1fcffffffffffp+10, 0x1.1fcffffe2p+10},
      {2, 1.0, "adv-batch-stream", 0x1.3d9999999999ap+4, 0x1.ep+4},
      {2, 2.0, "adv-batch-stream", 0x1.6aae147ae147ap+4, 0x1.ep+4},
      {2, 3.0, "adv-batch-stream", 0x1.c610624dd2f1bp+4, 0x1.ep+4},
      {1, 1.0, "adv-geometric", std::nullopt, 0x1.00f780298b22cp+6},
      {1, 2.0, "adv-geometric", std::nullopt, 0x1.405b09f7a9373p+5},
      {1, 3.0, "adv-geometric", std::nullopt, 0x1.d2566ae79ba5bp+4},
      {2, 1.0, "adv-geometric", std::nullopt, 0x1.036cc0762e147p+5},
      {2, 2.0, "adv-geometric", std::nullopt, 0x1.3e84e6cc04187p+3},
      {2, 3.0, "adv-geometric", std::nullopt, 0x1.ec187ddf0a3d4p+1},
  };
  for (const int m : {1, 2}) {
    const std::vector<bench::NamedInstance> families =
        bench::standard_workloads(50, m, 1);
    for (const Golden& cell : cells) {
      if (cell.machines != m) continue;
      const auto it = std::find_if(
          families.begin(), families.end(),
          [&](const bench::NamedInstance& f) { return f.name == cell.family; });
      ASSERT_NE(it, families.end()) << cell.family;
      OptBoundsOptions opt;
      opt.k = cell.k;
      opt.machines = m;
      const OptBounds b = opt_bounds(it->instance, opt);
      if (cell.lp_lb) {
        EXPECT_EQ(b.lp_lb, *cell.lp_lb)
            << cell.family << " m=" << m << " k=" << cell.k;
      }
      EXPECT_EQ(b.certified_lb, cell.certified_lb)
          << cell.family << " m=" << m << " k=" << cell.k;
    }
  }
}

}  // namespace
}  // namespace tempofair::lpsolve
