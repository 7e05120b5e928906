#include "lpsolve/flowtime_lp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "lpsolve/certify.h"
#include "lpsolve/mincost_flow.h"
#include "lpsolve/rational.h"
#include "lpsolve/simplex.h"
#include "obs/obs.h"
#include "policies/priority_policies.h"
#include "workload/adversarial.h"
#include "workload/generators.h"

namespace tempofair::lpsolve {
namespace {

TEST(FlowtimeLp, SingleUnitJobValue) {
  // One job, size 1, released at 0, k=1, slot 1: the LP puts the whole job
  // in slot [0,1) at unit cost ((0-0)^1 + 1^1)/1 = 1.
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  FlowtimeLpOptions opt;
  opt.k = 1.0;
  const auto r = solve_flowtime_lp(inst, opt);
  EXPECT_NEAR(r.lp_value, 1.0, 1e-9);
  EXPECT_NEAR(r.opt_power_lb, 0.5, 1e-9);
}

TEST(FlowtimeLp, SingleJobSizeTwoUsesTwoSlots) {
  // Size 2, k=1, slot 1: slot 0 cost (0+2)/2 = 1 per unit, slot 1 cost
  // (1+2)/2 = 1.5 per unit -> value 1*1 + 1*1.5 = 2.5.
  const Instance inst = Instance::batch(std::vector<Work>{2.0});
  FlowtimeLpOptions opt;
  opt.k = 1.0;
  const auto r = solve_flowtime_lp(inst, opt);
  EXPECT_NEAR(r.lp_value, 2.5, 1e-9);
}

TEST(FlowtimeLp, LowerBoundsActualSchedules) {
  // LP/2 <= OPT^k <= any policy's cost, so LP/2 <= SRPT's cost.
  workload::Rng rng(71);
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::detail::poisson_load(
        30, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
    FlowtimeLpOptions opt;
    opt.k = k;
    opt.slot = 0.5;
    const auto r = solve_flowtime_lp(inst, opt);
    Srpt srpt;
    RunRequest req;
    req.record_trace = false;
    const double srpt_cost = flow_lk_power(run(inst, srpt, req).schedule, k);
    EXPECT_LE(r.opt_power_lb, srpt_cost * (1.0 + 1e-9)) << "k=" << k;
    EXPECT_GT(r.opt_power_lb, 0.0);
  }
}

TEST(FlowtimeLp, FinerSlotsGiveTighterBound) {
  workload::Rng rng(73);
  const Instance inst = workload::detail::poisson_load(
      20, 1, 0.8, workload::UniformSize{0.5, 2.0}, rng);
  double prev = 0.0;
  for (double slot : {2.0, 1.0, 0.5, 0.25}) {
    FlowtimeLpOptions opt;
    opt.k = 2.0;
    opt.slot = slot;
    const auto r = solve_flowtime_lp(inst, opt);
    EXPECT_GE(r.lp_value, prev - 1e-6);  // finer grid can only raise the LP
    prev = r.lp_value;
  }
}

TEST(FlowtimeLp, MultiMachineCapacityIsLooser) {
  workload::Rng rng(79);
  const Instance inst = Instance::batch(std::vector<Work>{1, 1, 1, 1, 1, 1});
  FlowtimeLpOptions one;
  one.k = 2.0;
  FlowtimeLpOptions three = one;
  three.machines = 3;
  EXPECT_LE(solve_flowtime_lp(inst, three).lp_value,
            solve_flowtime_lp(inst, one).lp_value + 1e-9);
}

TEST(FlowtimeLp, McmfMatchesSimplexOnTinyInstances) {
  workload::Rng rng(83);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::pair<Time, Work>> pairs;
    const int n = 3;
    for (int i = 0; i < n; ++i) {
      pairs.emplace_back(static_cast<double>(rng.uniform_int(0, 3)),
                         static_cast<double>(rng.uniform_int(1, 3)));
    }
    const Instance inst = Instance::from_pairs(pairs);
    FlowtimeLpOptions opt;
    opt.k = 2.0;
    opt.slot = 1.0;
    const auto mcmf = solve_flowtime_lp(inst, opt);
    const LinearProgram lp = build_flowtime_lp(inst, opt);
    const auto simplex = solve_lp(lp);
    ASSERT_EQ(simplex.status, SolveStatus::kOptimal);
    EXPECT_NEAR(mcmf.lp_value, *simplex.objective, 1e-6)
        << "trial " << trial << " " << inst.summary();
  }
}

TEST(FlowtimeLp, CertificateBoundsValueFromBelow) {
  workload::Rng rng(107);
  for (double k : {1.0, 2.0, 3.0}) {
    const Instance inst = workload::detail::poisson_load(
        25, 1, 0.85, workload::UniformSize{0.5, 2.0}, rng);
    FlowtimeLpOptions opt;
    opt.k = k;
    opt.slot = 0.5;
    const auto r = solve_flowtime_lp(inst, opt);
    ASSERT_TRUE(r.certificate.certified) << "k=" << k;
    EXPECT_GT(r.certificate.value, 0.0);
    EXPECT_LE(r.certificate.value, r.lp_value * (1.0 + 1e-9)) << "k=" << k;
    // The dyadic repair gives up only a sliver of the bound.
    EXPECT_GE(r.certificate.value, r.lp_value * (1.0 - 1e-4)) << "k=" << k;
  }
}

TEST(FlowtimeLp, DenormalJobSizeIsSkippedNotFatal) {
  // A denormal size passes Instance validation (it is > 0) but would drive
  // the per-unit LP cost to infinity; the solver must drop it, not throw.
  const std::vector<std::pair<Time, Work>> pairs{
      {0.0, 1.0}, {0.0, std::numeric_limits<double>::denorm_min()}, {1.0, 2.0}};
  const Instance inst = Instance::from_pairs(pairs);
  FlowtimeLpOptions opt;
  opt.k = 2.0;
  opt.slot = 1.0;
  const auto r = solve_flowtime_lp(inst, opt);
  EXPECT_EQ(r.skipped_jobs, 1u);
  EXPECT_TRUE(std::isfinite(r.lp_value));
  EXPECT_GT(r.lp_value, 0.0);
  // build_flowtime_lp must apply the same skip so both agree on the program.
  const LinearProgram lp = build_flowtime_lp(inst, opt);
  const auto simplex = solve_lp(lp);
  ASSERT_EQ(simplex.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.lp_value, *simplex.objective, 1e-6);
}

TEST(FlowtimeLp, RejectsBadOptions) {
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  FlowtimeLpOptions opt;
  opt.slot = 0.0;
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
  opt.slot = 1.0;
  opt.k = 0.5;
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
  opt.k = 2.0;
  opt.machines = 0;
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
  EXPECT_THROW((void)solve_flowtime_lp(Instance{}, FlowtimeLpOptions{}),
               std::invalid_argument);
}

TEST(FlowtimeLp, InsufficientSlotCapRejected) {
  const Instance inst = Instance::batch(std::vector<Work>{10.0});
  FlowtimeLpOptions opt;
  opt.max_slots = 2;  // capacity 2 < work 10
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
}

TEST(FlowtimeLp, SolveRejectsJobReleasedAfterCappedGrid) {
  // Capacity 20 covers the work 11, but job 1 arrives at t=100, after the
  // last of the 20 slots.
  const std::vector<std::pair<Time, Work>> pairs{{0.0, 10.0}, {100.0, 1.0}};
  FlowtimeLpOptions opt;
  opt.slot = 1.0;
  opt.max_slots = 20;
  try {
    (void)solve_flowtime_lp(Instance::from_pairs(pairs), opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 1 "), std::string::npos)
        << e.what();
  }
}

TEST(FlowtimeLp, BuildRejectsJobReleasedAfterCappedGrid) {
  const std::vector<std::pair<Time, Work>> pairs{{0.0, 10.0}, {100.0, 1.0}};
  FlowtimeLpOptions opt;
  opt.slot = 1.0;
  opt.max_slots = 20;
  try {
    (void)build_flowtime_lp(Instance::from_pairs(pairs), opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 1 "), std::string::npos)
        << e.what();
  }
}

TEST(FlowtimeLp, NumVarsMatchesBuilder) {
  // Job 1 is below kMinLpJobSize and gets no variables.
  const std::vector<std::pair<Time, Work>> pairs{
      {0.0, 2.0}, {0.5, 1e-13}, {1.25, 1.0}, {3.0, 0.5}};
  const Instance inst = Instance::from_pairs(pairs);
  FlowtimeLpOptions opt;
  for (const double slot : {0.25, 0.5, 1.0}) {
    opt.slot = slot;
    EXPECT_EQ(flowtime_lp_num_vars(inst, opt),
              build_flowtime_lp(inst, opt).num_vars())
        << "slot " << slot;
  }
}

TEST(FlowtimeLp, RejectsSlotCountBeyondDoublePrecision) {
  // horizon / slot = 1e300 slots: casting that to size_t would be undefined
  // behaviour, so the grid is refused before anything is sized from it.
  const Instance inst = Instance::batch(std::vector<Work>{1.0});
  FlowtimeLpOptions opt;
  // The horizon bound is 2: 2^52 + 1 slots are counted, never allocated,
  // and 2^53 + 1 are refused.
  opt.slot = 0x1p-51;
  EXPECT_EQ(flowtime_lp_num_vars(inst, opt), (std::size_t{1} << 52) + 1);
  opt.slot = 0x1p-52;
  EXPECT_THROW((void)flowtime_lp_num_vars(inst, opt), std::invalid_argument);
  opt.slot = 1e-300;
  EXPECT_THROW((void)flowtime_lp_num_vars(inst, opt), std::invalid_argument);
  EXPECT_THROW((void)build_flowtime_lp(inst, opt), std::invalid_argument);
  EXPECT_THROW((void)solve_flowtime_lp(inst, opt), std::invalid_argument);
}

TEST(FlowtimeLp, AutoSlotGridStaysWithinMaxSlots) {
  // auto_lp_slot coarsens long horizons to width horizon / kAutoLpSlots; the
  // grid's padding slot and the rounding of horizon / slot keep it within
  // kAutoLpMaxSlots, the cap the adversary search puts on a recorded grid.
  workload::Rng rng(20261018);
  std::size_t capped = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int m = 1 + trial % 3;
    const Instance inst = workload::detail::poisson_load(
        static_cast<std::size_t>(5 + trial % 40), m, 0.3 + 0.003 * trial,
        workload::ExponentialSize{0.2 + 0.05 * trial}, rng);
    FlowtimeLpOptions opt;
    opt.machines = m;
    opt.slot = auto_lp_slot(inst, m);
    const std::size_t slots = flowtime_lp_num_slots(inst, opt);
    EXPECT_LE(slots, kAutoLpMaxSlots) << "trial " << trial;
    if (slots > kAutoLpSlots) ++capped;
  }
  EXPECT_GT(capped, 0u);  // the coarsening binds, not just the size rule
}

TEST(FlowtimeLp, LateReleaseShiftsCosts) {
  // A job released at t=5 must not be charged for waiting before 5.
  const Instance early = Instance::batch(std::vector<Work>{1.0}, 0.0);
  const Instance late = Instance::batch(std::vector<Work>{1.0}, 5.0);
  FlowtimeLpOptions opt;
  opt.k = 2.0;
  EXPECT_NEAR(solve_flowtime_lp(early, opt).lp_value,
              solve_flowtime_lp(late, opt).lp_value, 1e-9);
}

TEST(FlowtimeLp, IdenticalJobsShareOneNode) {
  // Batch shapes repeat (release, size) pairs: the flow graph gets one node
  // per distinct pair, and its certified bound still sits just below the
  // exact optimum of the per-job LP that build_flowtime_lp spells out.
  struct Family {
    const char* name;
    Instance instance;
    std::size_t distinct_pairs;
  };
  for (const int m : {1, 2}) {
    const Family families[] = {
        // Level l releases 2^l jobs of size 2^-l at l * 1.05.
        {"geometric_levels(5)", workload::geometric_levels(5), 5},
        // Three bursts of four unit jobs, one release time per burst.
        {"overload_pulse(3,4)", workload::overload_pulse(3, 4, m), 3},
        // Six unit jobs at t=0, then one unit job at each of 1.05, 2.1, ...
        {"batch_plus_stream(6,10)", workload::batch_plus_stream(6, 10, 1.05),
         11},
    };
    for (const Family& f : families) {
      for (const double k : {1.0, 2.0, 3.0}) {
        FlowtimeLpOptions opt;
        opt.k = k;
        opt.machines = m;
        opt.slot = 1.0;
        const std::string what = std::string(f.name) + " m=" +
                                 std::to_string(m) + " k=" + std::to_string(k);
        obs::Sink counters;
        FlowtimeLpResult r;
        {
          const obs::ScopedSink scope(&counters);
          r = solve_flowtime_lp(f.instance, opt);
        }
        EXPECT_EQ(r.job_classes, f.distinct_pairs) << what;
        EXPECT_EQ(counters.value("mcmf.job_classes"), f.distinct_pairs)
            << what;
        ASSERT_TRUE(r.certificate.certified) << what;

        const LinearProgram lp = build_flowtime_lp(f.instance, opt);
        const LpSolution warm = solve_lp(lp);
        const CertifyResult exact = solve_lp_exact(lp, &warm);
        ASSERT_EQ(exact.exact_status, SolveStatus::kOptimal) << what;
        const double d = exact.exact_objective.to_double();
        EXPECT_LE(r.certificate.value, exact.exact_objective.upper_double())
            << what;
        EXPECT_GE(r.certificate.value, (1.0 - 1e-7) * d) << what;
        EXPECT_NEAR(r.lp_value, d, 1e-9 * d) << what;
      }
    }
  }

  // Distinct pairs -- shared releases, shared sizes, and a job below
  // kMinLpJobSize that stays out of the LP -- keep one node per job.
  const std::vector<std::pair<Time, Work>> distinct{
      {0.0, 1.0}, {0.0, 2.0}, {1.0, 1.0}, {1.0, 1e-13}, {1.5, 2.0}};
  const FlowtimeLpResult r =
      solve_flowtime_lp(Instance::from_pairs(distinct), FlowtimeLpOptions{});
  EXPECT_EQ(r.skipped_jobs, 1u);
  EXPECT_EQ(r.job_classes, 4u);
}

// --- Reference certificate ---------------------------------------------------
//
// The certificate as it was before the double filter: every class->slot arc
// evaluated in Rational, in the best response and in the re-check.  It is fed
// the same graph solve_flowtime_lp builds -- one node per class of jobs with
// bitwise-equal (release, size), grouped here with a map rather than the
// product's index sort -- so both see the same MCMF solve.
namespace reference {

struct Grid {
  double t0 = 0.0;
  double slot = 1.0;
  std::size_t slots = 0;

  [[nodiscard]] double slot_start(std::size_t s) const {
    return t0 + static_cast<double>(s) * slot;
  }
  [[nodiscard]] std::size_t first_slot_for(double release) const {
    const double rel = (release - t0) / slot;
    return static_cast<std::size_t>(std::floor(rel + 1e-12));
  }
};

Grid make_grid(const Instance& instance, const FlowtimeLpOptions& options) {
  Grid g;
  g.t0 = instance.min_release();
  g.slot = options.slot;
  const double horizon =
      instance.horizon_bound(options.machines, 1.0) - g.t0;
  g.slots = static_cast<std::size_t>(std::ceil(horizon / g.slot)) + 1;
  if (options.max_slots > 0) g.slots = std::min(g.slots, options.max_slots);
  return g;
}

double unit_cost(const Job& j, const Grid& g, std::size_t s, double k) {
  const double t = std::max(g.slot_start(s) - j.release, 0.0);
  return (std::pow(t, k) + std::pow(j.size, k)) / j.size;
}

constexpr unsigned kDualGridBits = 24;

struct Classes {
  std::vector<const Job*> leader;  // lowest-id member per class
  std::vector<double> supply;      // members' sizes summed in id order
  std::vector<std::size_t> of;     // class of each included job
};

Classes group(const std::vector<const Job*>& included) {
  Classes c;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> index;
  for (const Job* j : included) {
    const auto [it, added] = index.emplace(
        std::pair{std::bit_cast<std::uint64_t>(j->release),
                  std::bit_cast<std::uint64_t>(j->size)},
        c.leader.size());
    if (added) {
      c.leader.push_back(j);
      c.supply.push_back(0.0);
    }
    c.of.push_back(it->second);
    c.supply[it->second] += j->size;
  }
  return c;
}

CertifiedBound certify_flowtime_dual(
    const std::vector<const Job*>& included, const Classes& classes,
    const Grid& g, const FlowtimeLpOptions& options,
    const std::vector<double>& costs,
    const MinCostFlow& mcf, std::size_t slot_node0, std::size_t sink_node,
    const std::vector<std::size_t>& slot_edge_handles) {
  const double slot_cap = g.slot * options.machines;
  const std::vector<double>& phi = mcf.potentials();

  std::vector<Rational> beta(g.slots);
  bool ok = true;
  for (std::size_t s = 0; s < g.slots; ++s) {
    double b = 0.0;
    if (mcf.flow_on(slot_edge_handles[s]) >= slot_cap - kFlowEps) {
      b = std::max(0.0, phi[sink_node] - phi[slot_node0 + s]);
    }
    beta[s] = Rational::from_double(b).floor_to_dyadic(kDualGridBits);
    if (beta[s].is_negative()) beta[s] = Rational();
    if (!beta[s].valid()) ok = false;
  }

  std::vector<Rational> alpha(classes.leader.size());
  std::size_t arc = 0;
  for (std::size_t ci = 0; ci < classes.leader.size() && ok; ++ci) {
    const std::size_t first = g.first_slot_for(classes.leader[ci]->release);
    Rational best = Rational::invalid();
    for (std::size_t s = first; s < g.slots; ++s) {
      const Rational cand = Rational::from_double(costs[arc++]) + beta[s];
      if (!cand.valid()) {
        ok = false;
        break;
      }
      if (!best.valid() || cand < best) best = cand;
    }
    if (!ok || !best.valid()) {
      ok = false;
      break;
    }
    alpha[ci] = best.floor_to_dyadic(kDualGridBits);
    if (alpha[ci].is_negative()) alpha[ci] = Rational();
    if (!alpha[ci].valid()) ok = false;
  }

  arc = 0;
  for (std::size_t ci = 0; ci < classes.leader.size() && ok; ++ci) {
    const std::size_t first = g.first_slot_for(classes.leader[ci]->release);
    for (std::size_t s = first; s < g.slots; ++s) {
      const Rational c = Rational::from_double(costs[arc++]);
      if (!(alpha[ci] - beta[s] <= c)) {
        ok = false;
        break;
      }
    }
  }

  CertifiedBound cert;
  if (ok) {
    Rational dual_obj;
    for (std::size_t ji = 0; ji < included.size(); ++ji) {
      dual_obj +=
          Rational::from_double(included[ji]->size) * alpha[classes.of[ji]];
    }
    const Rational cap = Rational::from_double(slot_cap);
    for (std::size_t s = 0; s < g.slots; ++s) {
      if (!beta[s].is_zero()) dual_obj -= cap * beta[s];
    }
    if (dual_obj.valid()) {
      cert.value = std::max(0.0, dual_obj.lower_double());
      cert.certified = true;
    }
  }
  return cert;
}

struct Solved {
  double lp_value = 0.0;
  CertifiedBound certificate;
};

/// solve_flowtime_lp's graph and MCMF solve, certified by the copy above.
Solved solve(const Instance& instance, const FlowtimeLpOptions& options) {
  const Grid g = make_grid(instance, options);
  std::vector<const Job*> included;
  double included_work = 0.0;
  for (const Job& j : instance.jobs()) {
    if (j.size >= kMinLpJobSize) {
      included.push_back(&j);
      included_work += j.size;
    }
  }
  const Classes classes = group(included);
  const std::size_t kSource = 0;
  const std::size_t kClass0 = 1;
  const std::size_t kSlot0 = kClass0 + classes.leader.size();
  const std::size_t kSink = kSlot0 + g.slots;
  MinCostFlow mcf(kSink + 1);
  const double slot_cap = g.slot * options.machines;
  std::vector<std::size_t> slot_edge(g.slots);
  for (std::size_t s = 0; s < g.slots; ++s) {
    slot_edge[s] = mcf.add_edge(kSlot0 + s, kSink, slot_cap, 0.0);
  }
  std::vector<double> costs;
  for (std::size_t ci = 0; ci < classes.leader.size(); ++ci) {
    const Job& j = *classes.leader[ci];
    mcf.add_edge(kSource, kClass0 + ci, classes.supply[ci], 0.0);
    for (std::size_t s = g.first_slot_for(j.release); s < g.slots; ++s) {
      costs.push_back(unit_cost(j, g, s, options.k));
      mcf.add_edge(kClass0 + ci, kSlot0 + s, included_work + 1.0,
                   costs.back());
    }
  }
  Solved out;
  out.lp_value = mcf.solve(kSource, kSink, included_work).cost;
  out.certificate = certify_flowtime_dual(included, classes, g, options, costs,
                                          mcf, kSlot0, kSink, slot_edge);
  return out;
}

}  // namespace reference

struct CertCounts {
  bool certified = false;
  std::uint64_t arcs = 0;
  std::uint64_t exact_arcs = 0;
};

/// Solves `inst` and compares its certificate with the reference bit for
/// bit; returns the certificate's verdict and lpcert.flow.* counters.
CertCounts expect_reference_certificate(const Instance& inst,
                                        const FlowtimeLpOptions& opt,
                                        const std::string& what) {
  obs::Sink counters;
  FlowtimeLpResult got;
  {
    const obs::ScopedSink scope(&counters);
    got = solve_flowtime_lp(inst, opt);
  }
  const reference::Solved want = reference::solve(inst, opt);
  // Equal LP values mean the reference rebuilt the same graph.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lp_value),
            std::bit_cast<std::uint64_t>(want.lp_value))
      << what;
  EXPECT_EQ(got.certificate.certified, want.certificate.certified) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.certificate.value),
            std::bit_cast<std::uint64_t>(want.certificate.value))
      << what;
  return {got.certificate.certified, counters.value("lpcert.flow.arcs"),
          counters.value("lpcert.flow.exact_arcs")};
}

std::string describe(const std::string& name, const FlowtimeLpOptions& opt) {
  return name + " k=" + std::to_string(opt.k) +
         " m=" + std::to_string(opt.machines) +
         " slot=" + std::to_string(opt.slot);
}

TEST(FlowtimeLp, CertificateMatchesExactReference) {
  // The standard workloads on grids of about 50 slots, and 150 for n <= 50.
  // adv-geometric (255 jobs) does not depend on n, so it runs at n=12, m=1.
  for (const std::size_t n : {12u, 50u, 100u}) {
    for (const int m : {1, 2, 4}) {
      for (const bench::NamedInstance& f : bench::standard_workloads(n, m, 1)) {
        if ((n > 12 || m > 1) && f.name == "adv-geometric") continue;
        const double horizon =
            f.instance.horizon_bound(m, 1.0) - f.instance.min_release();
        for (const double k : {1.0, 1.5, 2.0, 3.0}) {
          for (const double slots : {50.0, 150.0}) {
            if (n > 50 && slots > 50.0) continue;
            FlowtimeLpOptions opt;
            opt.k = k;
            opt.machines = m;
            opt.slot = horizon / slots;
            const CertCounts c = expect_reference_certificate(
                f.instance, opt,
                describe(f.name, opt) + " n=" + std::to_string(n));
            // These costs and prices are all in the exact range: the filter
            // leaves about one arc per job class to Rational.
            EXPECT_TRUE(c.certified) << describe(f.name, opt);
            EXPECT_LE(c.exact_arcs, c.arcs / 20) << describe(f.name, opt);
          }
        }
      }
    }
  }

  workload::Rng rng(2015);
  // Every fourth job is just above kMinLpJobSize.  At k=3 its unit costs p^2
  // lie below 2^-74, where Rational::from_double gives up, so the bound is
  // uncertified, as it always was; at k=1 its costs (t + p)/p exceed 2^44.
  // Either way those jobs leave the exact range and take Rational arc by arc.
  constexpr int kTinyJobs = 24;
  std::vector<std::pair<Time, Work>> tiny;
  Time t = 0.0;
  for (int i = 0; i < kTinyJobs; ++i) {
    t += rng.uniform(0.0, 2.0);
    tiny.emplace_back(t, i % 4 == 0 ? kMinLpJobSize * rng.uniform(1.0, 4.0)
                                    : rng.uniform(0.5, 2.0));
  }
  // A long busy batch at k=3: slot prices beta pass 2^28 on one machine, so
  // the re-check decides those slots' arcs in Rational.
  std::vector<std::pair<Time, Work>> batch;
  for (int i = 0; i < 30; ++i) batch.emplace_back(rng.uniform(0.0, 5.0), 200.0);
  // Four unit jobs keep a machine busy until t=4, and a job of size 1e-11
  // arrives just before the second 0.5-wide slot.  At k=3 its first arc
  // costs p^2 = 1e-22 (denominator ~2^125), so c + beta overflows under that
  // slot's price; its other arcs cost ~1e-7 to ~1e13 < 2^44, and the second
  // one is cheaper than the first.  The all-Rational scan gives up on the
  // first arc all the same, so the bound stays uncertified -- and a filter
  // that skipped that arc would certify it.
  std::vector<std::pair<Time, Work>> busy_tiny(4, {0.0, 1.0});
  busy_tiny.emplace_back(0.5 - 1e-6, 1e-11);

  for (const int m : {1, 2}) {
    FlowtimeLpOptions opt;
    opt.machines = m;
    opt.slot = 0.5;
    opt.k = 1.0;
    const CertCounts k1 = expect_reference_certificate(
        Instance::from_pairs(tiny), opt, describe("tiny", opt));
    EXPECT_TRUE(k1.certified);
    EXPECT_GT(k1.exact_arcs, 4u * kTinyJobs) << "no fallback arcs at m=" << m;
    opt.k = 3.0;
    const CertCounts k3 = expect_reference_certificate(
        Instance::from_pairs(tiny), opt, describe("tiny", opt));
    EXPECT_FALSE(k3.certified);
    EXPECT_GT(k3.exact_arcs, 0u);

    opt.slot = 40.0;
    const CertCounts big = expect_reference_certificate(
        Instance::from_pairs(batch), opt, describe("batch", opt));
    EXPECT_TRUE(big.certified);
    if (m == 1) {
      EXPECT_GT(big.exact_arcs, big.arcs / 4) << "no Rational re-checks";
    }
    opt.slot = 0.5;
    const CertCounts mixed = expect_reference_certificate(
        Instance::from_pairs(busy_tiny), opt, describe("busy+tiny", opt));
    EXPECT_FALSE(mixed.certified);
  }
}

}  // namespace
}  // namespace tempofair::lpsolve
