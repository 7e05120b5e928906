#include "analysis/dualfit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/lower_bounds.h"
#include "lpsolve/rational.h"
#include "obs/obs.h"
#include "policies/round_robin.h"
#include "workload/adversarial.h"
#include "workload/generators.h"
#include "workload/source.h"
#include "workload/spec.h"

namespace tempofair::analysis {
namespace {

Schedule run_rr(const Instance& inst, double speed, int machines = 1) {
  RoundRobin rr;
  RunRequest req;
  req.speed = speed;
  req.machines = machines;
  req.record_trace = true;
  return run(inst, rr, req).schedule;
}

TEST(DualFit, RequiresTrace) {
  RoundRobin rr;
  RunRequest req;
  req.record_trace = false;
  const Schedule s = run(Instance::batch(std::vector<Work>{1.0}), rr, req).schedule;
  EXPECT_THROW((void)dual_fit_certificate(s, DualFitOptions{}),
               std::invalid_argument);
}

TEST(DualFit, RejectsBadParameters) {
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 1.0);
  DualFitOptions opt;
  opt.k = 0.5;
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
  opt.k = 2.0;
  opt.eps = 0.0;
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
  opt.eps = 0.2;
  EXPECT_THROW((void)dual_fit_certificate(s, opt), std::invalid_argument);
}

TEST(DualFit, Theorem1SpeedFormula) {
  EXPECT_DOUBLE_EQ(theorem1_speed(1.0, 0.05), 3.0);
  EXPECT_DOUBLE_EQ(theorem1_speed(2.0, 0.05), 6.0);
  EXPECT_DOUBLE_EQ(theorem1_speed(2.0, 0.1), 8.0);
}

TEST(DualFit, SingleJobAlphaByHand) {
  // One job, size p, alone: overloaded the whole time (n_t = 1 >= m = 1).
  // alpha = integral_0^{C} k t^{k-1} / 1 dt - eps F^k = F^k (1 - eps).
  // With speed eta, F = p / eta.
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{3.0}), eta);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  const double F = 3.0 / eta;
  EXPECT_NEAR(r.rr_power, F * F, 1e-9);
  EXPECT_NEAR(r.alpha_sum, F * F * (1.0 - eps), 1e-9);
  // beta integral: (1 + delta) * F * (1/2 - 3 eps) * F^{k-1}.
  EXPECT_NEAR(r.beta_term, (1.0 + eps) * (0.5 - 3.0 * eps) * F * F, 1e-9);
  EXPECT_TRUE(r.certificate_valid());
}

TEST(DualFit, Lemma2IsExactIdentity) {
  // Lemma 2's proof is an identity: beta_term == (1+delta)(1/2-3eps) RR^k.
  workload::Rng rng(7);
  const Instance inst = workload::detail::poisson_load(
      50, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps));
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_NEAR(r.beta_term, (1.0 + eps) * (0.5 - 3.0 * eps) * r.rr_power,
              1e-6 * r.rr_power);
}

struct DualFitCase {
  double k;
  int machines;
  std::uint64_t seed;
};

class DualFitTheoremSweep : public ::testing::TestWithParam<DualFitCase> {};

TEST_P(DualFitTheoremSweep, CertificateValidAtTheoremSpeed) {
  const auto [k, machines, seed] = GetParam();
  const double eps = 0.05;  // <= 1/15, see header note on Lemma 4
  workload::Rng rng(seed);
  const Instance inst = workload::detail::poisson_load(
      60, machines, 0.95, workload::ExponentialSize{1.5}, rng);
  const Schedule s = run_rr(inst, theorem1_speed(k, eps), machines);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_TRUE(r.lemma1_ok) << "alpha_sum=" << r.alpha_sum
                           << " rr_power=" << r.rr_power;
  EXPECT_TRUE(r.lemma2_ok);
  EXPECT_TRUE(r.feasible) << "violation=" << r.max_relative_violation;
  EXPECT_TRUE(r.objective_ok) << "ratio=" << r.objective_ratio;
  EXPECT_TRUE(r.certificate_valid());
  EXPECT_GT(r.implied_lk_ratio, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    KandMachines, DualFitTheoremSweep,
    ::testing::Values(DualFitCase{1.0, 1, 11}, DualFitCase{2.0, 1, 12},
                      DualFitCase{3.0, 1, 13}, DualFitCase{1.0, 4, 14},
                      DualFitCase{2.0, 4, 15}, DualFitCase{3.0, 4, 16},
                      DualFitCase{2.0, 2, 17}, DualFitCase{2.0, 8, 18}),
    [](const auto& param_info) {
      return "k" + std::to_string(static_cast<int>(param_info.param.k)) +
             "_m" + std::to_string(param_info.param.machines);
    });

TEST(DualFit, CertificateValidOnAdversarialFamilies) {
  const double k = 2.0, eps = 0.05;
  const double eta = theorem1_speed(k, eps);
  for (const Instance& inst :
       {workload::rr_l2_hard(20), workload::srpt_starvation(40, 15.0),
        workload::overload_pulse(4, 10, 2), workload::staircase(20)}) {
    const Schedule s = run_rr(inst, eta);
    DualFitOptions opt;
    opt.k = k;
    opt.eps = eps;
    const DualFitResult r = dual_fit_certificate(s, opt);
    EXPECT_TRUE(r.certificate_valid()) << inst.summary();
  }
}

TEST(DualFit, Lemmas1And2HoldAtAnySpeed) {
  // Lemmas 1 and 2 are pure algebra over the RR schedule's alive sets and
  // flows -- they hold at ANY speed.  The speed premise of Theorem 1 enters
  // only through dual FEASIBILITY on worst-case instances (Lemma 4 needs
  // eta(1/2 - 3 eps) >= k); on easy instances the huge gamma can mask it.
  workload::Rng rng(21);
  const Instance inst = workload::rr_l2_hard(25);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  for (double speed : {1.0, 2.0, theorem1_speed(2.0, 0.05)}) {
    const DualFitResult r = dual_fit_certificate(run_rr(inst, speed), opt);
    EXPECT_TRUE(r.lemma1_ok) << "speed " << speed;
    EXPECT_TRUE(r.lemma2_ok) << "speed " << speed;
    EXPECT_TRUE(r.objective_ok) << "speed " << speed;
  }
}

TEST(DualFit, FeasibilityMarginShrinksAtLowSpeedWithTightGamma) {
  // With gamma forced down to Lemma 3's bare minimum the certificate loses
  // its slack; the worst (smallest) constraint slack at speed 1 must be
  // strictly smaller than at the theorem speed on the hard family.
  const Instance inst = workload::rr_l2_hard(25);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  opt.gamma = 2.0 * (1.0 / 0.05);  // k (1/eps)^{k-1}, far below the default
  const DualFitResult slow = dual_fit_certificate(run_rr(inst, 1.0), opt);
  const DualFitResult fast =
      dual_fit_certificate(run_rr(inst, theorem1_speed(2.0, 0.05)), opt);
  EXPECT_LT(slow.min_slack, fast.min_slack);
}

TEST(DualFit, DualObjectiveAtMostGammaLpValue) {
  // Weak duality: a feasible dual's objective is at most the gamma-scaled
  // LP optimum (checked against the MCMF solve of the same LP).
  workload::Rng rng(23);
  const Instance inst = workload::detail::poisson_load(
      20, 1, 0.8, workload::UniformSize{0.5, 2.0}, rng);
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps));
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  ASSERT_TRUE(r.feasible);

  lpsolve::FlowtimeLpOptions lp;
  lp.k = k;
  lp.slot = 0.25;
  const double lp_gamma = r.gamma * lpsolve::solve_flowtime_lp(inst, lp).lp_value;
  // The continuous LP is at least the discretized one, so the dual objective
  // must not exceed gamma * LP_discrete by more than the discretization gap;
  // use a 10% cushion.
  EXPECT_LE(r.dual_objective, lp_gamma * 1.1);
}

TEST(DualFit, ImpliedRatioBoundsMeasuredRatio) {
  // The certificate's implied l_k ratio must upper-bound the actually
  // measured RR-vs-proxy ratio (since proxy >= OPT).
  workload::Rng rng(29);
  const Instance inst = workload::detail::poisson_load(
      40, 1, 0.9, workload::ExponentialSize{1.0}, rng);
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps));
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  ASSERT_TRUE(r.certificate_valid());

  lpsolve::OptBoundsOptions bo;
  bo.k = k;
  bo.with_lp = false;
  const auto bounds = lpsolve::opt_bounds(inst, bo);
  const double measured = std::pow(r.rr_power / bounds.proxy_ub, 1.0 / k);
  EXPECT_LE(measured, r.implied_lk_ratio * (1.0 + 1e-9));
}

TEST(DualFit, GammaOverrideIsRespected) {
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 6.0);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  opt.gamma = 123.0;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_DOUBLE_EQ(r.gamma, 123.0);
}

TEST(DualFit, DefaultGammaMatchesPaperFormula) {
  const Schedule s = run_rr(Instance::batch(std::vector<Work>{1.0}), 6.0);
  DualFitOptions opt;
  opt.k = 2.0;
  opt.eps = 0.05;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_NEAR(r.gamma, 2.0 * std::pow(2.0 / 0.05, 2.0), 1e-9);
}

TEST(DualFit, UnderloadedOnlyScheduleIsCertified) {
  // More machines than jobs throughout: every time step is underloaded.
  const Instance inst = Instance::batch(std::vector<Work>{1.0, 2.0, 3.0});
  const double k = 2.0, eps = 0.05;
  const Schedule s = run_rr(inst, theorem1_speed(k, eps), 8);
  DualFitOptions opt;
  opt.k = k;
  opt.eps = eps;
  const DualFitResult r = dual_fit_certificate(s, opt);
  EXPECT_TRUE(r.certificate_valid());
}

// The verifier as it was before its hot loops were rewritten: two pow calls
// per trace entry, a sort of every overloaded alive set and a binary search
// per job.  dual_fit_certificate must reproduce it bit for bit.
DualFitResult reference_dual_fit(const Schedule& schedule,
                                 const DualFitOptions& options) {
  const auto age_power_integral = [](double a, double b, double r, double k) {
    return std::pow(b - r, k) - std::pow(a - r, k);
  };
  const double k = options.k;
  const double eps = options.eps;
  DualFitResult res;
  res.k = k;
  res.eps = eps;
  res.delta = eps;
  res.gamma = options.gamma > 0.0 ? options.gamma : k * std::pow(k / eps, k);
  res.speed = schedule.speed();
  res.machines = schedule.machines();

  const std::size_t n = schedule.n();
  const int m = schedule.machines();

  std::vector<double> flow(n), fk(n), fkm1(n);
  for (std::size_t j = 0; j < n; ++j) {
    flow[j] = schedule.flow(static_cast<JobId>(j));
    fk[j] = std::pow(flow[j], k);
    fkm1[j] = std::pow(flow[j], k - 1.0);
    res.rr_power += fk[j];
  }

  std::vector<double> alpha(n, 0.0);
  std::vector<JobId> by_arrival;
  std::vector<double> prefix;
  for (const TraceIntervalView iv : schedule.trace()) {
    const std::size_t nt = iv.alive_count();
    if (nt == 0) continue;
    if (nt < static_cast<std::size_t>(m)) {
      for (const JobId job : iv.jobs()) {
        alpha[job] +=
            age_power_integral(iv.begin(), iv.end(), schedule.release(job), k);
      }
      continue;
    }
    by_arrival.assign(iv.jobs().begin(), iv.jobs().end());
    std::sort(by_arrival.begin(), by_arrival.end(), [&](JobId a, JobId b) {
      const Time ra = schedule.release(a), rb = schedule.release(b);
      if (ra != rb) return ra < rb;
      return a < b;
    });
    prefix.assign(nt + 1, 0.0);
    for (std::size_t i = 0; i < nt; ++i) {
      prefix[i + 1] =
          prefix[i] + age_power_integral(iv.begin(), iv.end(),
                                         schedule.release(by_arrival[i]), k);
    }
    for (std::size_t i = 0; i < nt; ++i) {
      alpha[by_arrival[i]] += prefix[i + 1] / static_cast<double>(nt);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] -= eps * fk[j];
    res.alpha_sum += alpha[j];
  }

  const double beta_coeff = (0.5 - 3.0 * eps) / static_cast<double>(m);
  struct BetaEvent {
    Time t;
    double delta_value;
  };
  std::vector<BetaEvent> events;
  for (std::size_t j = 0; j < n; ++j) {
    const Time start = schedule.release(static_cast<JobId>(j));
    const Time stop =
        schedule.completion(static_cast<JobId>(j)) + res.delta * flow[j];
    events.push_back(BetaEvent{start, beta_coeff * fkm1[j]});
    events.push_back(BetaEvent{stop, -beta_coeff * fkm1[j]});
  }
  std::sort(events.begin(), events.end(),
            [](const BetaEvent& a, const BetaEvent& b) { return a.t < b.t; });
  std::vector<std::pair<Time, double>> beta_pieces;
  double running = 0.0;
  std::size_t i = 0;
  double beta_integral = 0.0;
  Time prev_t = events.empty() ? 0.0 : events.front().t;
  while (i < events.size()) {
    const Time t = events[i].t;
    beta_integral += running * (t - prev_t);
    prev_t = t;
    while (i < events.size() && events[i].t == t) {
      running += events[i].delta_value;
      ++i;
    }
    beta_pieces.emplace_back(t, std::max(running, 0.0));
  }
  res.beta_term = static_cast<double>(m) * beta_integral;
  res.dual_objective = res.alpha_sum - res.beta_term;

  const double tol = 1e-7 * std::max(1.0, res.rr_power);
  res.lemma1_ok = res.alpha_sum >= (0.5 - eps) * res.rr_power - tol;
  res.lemma2_ok = res.beta_term <= (0.5 - 2.0 * eps) * res.rr_power + tol;
  {
    using lpsolve::Rational;
    const Rational half = Rational::from_ratio(1, 2);
    const Rational e = Rational::from_double(eps);
    const Rational rr = Rational::from_double(res.rr_power);
    res.lemmas_exact =
        Rational::from_double(res.alpha_sum) >= (half - e) * rr &&
        Rational::from_double(res.beta_term) <= (half - e - e) * rr;
  }

  res.min_slack = kInfiniteTime;
  res.max_relative_violation = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = schedule.size(static_cast<JobId>(j));
    const double rj = schedule.release(static_cast<JobId>(j));
    const double lhs = alpha[j] / pj;
    const double pjk = std::pow(pj, k);
    double job_min_slack = kInfiniteTime;
    auto base_at = [&](Time t) {
      return res.gamma * (std::pow(std::max(t - rj, 0.0), k) + pjk) / pj;
    };
    auto check = [&](double base, double beta_value) {
      const double rhs = base + beta_value;
      const double slack = rhs - lhs;
      job_min_slack = std::min(job_min_slack, slack);
      if (slack < 0.0) {
        const double scale = std::max({std::fabs(lhs), std::fabs(rhs), 1e-300});
        res.max_relative_violation =
            std::max(res.max_relative_violation, -slack / scale);
      }
    };
    if (beta_pieces.empty()) {
      check(base_at(rj), 0.0);
      res.min_slack = std::min(res.min_slack, job_min_slack);
      continue;
    }
    const auto q = std::upper_bound(
        beta_pieces.begin(), beta_pieces.end(), rj,
        [](Time t, const std::pair<Time, double>& piece) {
          return t < piece.first;
        });
    const std::size_t p0 =
        q == beta_pieces.begin()
            ? 0
            : static_cast<std::size_t>(q - beta_pieces.begin()) - 1;
    bool cut_off = false;
    for (std::size_t p = p0; p < beta_pieces.size(); ++p) {
      const double base = base_at(std::max(beta_pieces[p].first, rj));
      if (p > p0 &&
          base - lhs > job_min_slack + 1e-9 * (std::fabs(base) + std::fabs(lhs))) {
        cut_off = true;
        break;
      }
      check(base, beta_pieces[p].second);
    }
    if (!cut_off) {
      check(base_at(std::max(beta_pieces.back().first, rj)), 0.0);
    }
    res.min_slack = std::min(res.min_slack, job_min_slack);
  }
  res.feasible = res.max_relative_violation <= 1e-7;

  if (res.rr_power > 0.0) {
    res.objective_ratio = res.dual_objective / res.rr_power;
  }
  res.objective_ok = res.objective_ratio >= eps - 1e-9;
  if (res.feasible && res.objective_ratio > 0.0) {
    res.implied_lk_ratio =
        std::pow(2.0 * res.gamma / res.objective_ratio, 1.0 / k);
  }
  return res;
}

/// Every field of the verifier's result, doubles compared by their bits.
void expect_bit_identical(const DualFitResult& got, const DualFitResult& want,
                          const std::string& label) {
  SCOPED_TRACE(label);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::pair<const char*, std::pair<double, double>> doubles[] = {
      {"k", {got.k, want.k}},
      {"eps", {got.eps, want.eps}},
      {"delta", {got.delta, want.delta}},
      {"gamma", {got.gamma, want.gamma}},
      {"speed", {got.speed, want.speed}},
      {"rr_power", {got.rr_power, want.rr_power}},
      {"alpha_sum", {got.alpha_sum, want.alpha_sum}},
      {"beta_term", {got.beta_term, want.beta_term}},
      {"dual_objective", {got.dual_objective, want.dual_objective}},
      {"min_slack", {got.min_slack, want.min_slack}},
      {"max_relative_violation",
       {got.max_relative_violation, want.max_relative_violation}},
      {"objective_ratio", {got.objective_ratio, want.objective_ratio}},
      {"implied_lk_ratio", {got.implied_lk_ratio, want.implied_lk_ratio}},
  };
  for (const auto& [name, values] : doubles) {
    EXPECT_EQ(bits(values.first), bits(values.second))
        << name << ": " << values.first << " vs " << values.second;
  }
  EXPECT_EQ(got.machines, want.machines);
  EXPECT_EQ(got.lemma1_ok, want.lemma1_ok);
  EXPECT_EQ(got.lemma2_ok, want.lemma2_ok);
  EXPECT_EQ(got.lemmas_exact, want.lemmas_exact);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.objective_ok, want.objective_ok);
}

void expect_matches_reference(const Schedule& s, double k,
                              const std::string& label) {
  DualFitOptions opt;
  opt.k = k;
  opt.eps = 0.05;
  expect_bit_identical(dual_fit_certificate(s, opt), reference_dual_fit(s, opt),
                       label + " k=" + std::to_string(k));
}

TEST(DualFit, MatchesReferenceVerifier) {
  const double eps = 0.05;
  const std::pair<const char*, workload::SizeDist> families[] = {
      {"poisson-exp", workload::ExponentialSize{1.0}},
      {"pareto", workload::ParetoSize{1.8, 0.5, 50.0}},
  };
  const double ks[] = {1.0, 1.5, 2.0, 3.0};
  // Poisson releases and continuous sizes: all 2n beta event times are
  // distinct, so every certificate merges instead of sorting all events.
  obs::Sink poisson_sink;
  std::uint64_t seed = 31;
  for (const auto& [family, dist] : families) {
    for (const std::size_t n : {std::size_t{300}, std::size_t{3000}}) {
      for (const int m : {1, 3}) {
        const Instance inst = workload::make_instance(
            workload::WorkloadSpec::poisson(n, 0.9, dist, seed++, m));
        const std::string cell = std::string(family) + " n=" +
                                 std::to_string(n) + " m=" + std::to_string(m);
        const Schedule slow = run_rr(inst, 1.0, m);
        const obs::ScopedSink scope(&poisson_sink);
        for (const double k : ks) {
          expect_matches_reference(slow, k, cell + " speed=1");
          expect_matches_reference(run_rr(inst, theorem1_speed(k, eps), m), k,
                                   cell + " speed=eta");
        }
      }
    }
  }
  EXPECT_EQ(poisson_sink.value("dualfit.certificates"), 64u);
  EXPECT_EQ(poisson_sink.value("dualfit.beta_full_sorts"), 0u);

  // Other policies' alive sets: SRPT and LAPS keep jobs waiting at rate 0.
  const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
      1000, 0.95, workload::ParetoSize{1.8, 0.5, 50.0}, 41, 2));
  for (const char* policy : {"srpt", "laps:0.5"}) {
    RunRequest req;
    req.policy = policy;
    req.machines = 2;
    const Schedule s = tempofair::run(inst, req).schedule;
    for (const double k : ks) expect_matches_reference(s, k, policy);
  }

  // Releases decreasing in id: every multi-job alive set needs the sort and
  // every job the binary search.
  {
    std::vector<std::pair<Time, Work>> pairs;
    for (int j = 0; j < 200; ++j) {
      pairs.emplace_back(0.5 * (199 - j) + 0.25 * (j % 3), 1.0 + (j % 7));
    }
    const Instance reversed = Instance::from_pairs(pairs);
    const Schedule s = run_rr(reversed, 1.0);
    obs::Sink sink;
    {
      const obs::ScopedSink scope(&sink);
      for (const double k : ks) expect_matches_reference(s, k, "reversed");
    }
    EXPECT_GT(sink.value("dualfit.resorted_intervals"), 0u);
    EXPECT_EQ(sink.value("dualfit.beta_full_sorts"), 4u);
  }

  // Equal beta event times leave the order of equal events to the full
  // sort: every case below must take it, and still match bit for bit.
  const auto expect_full_sorts = [&](const Schedule& s, const char* label) {
    obs::Sink sink;
    {
      const obs::ScopedSink scope(&sink);
      for (const double k : ks) expect_matches_reference(s, k, label);
    }
    EXPECT_EQ(sink.value("dualfit.beta_full_sorts"), std::size(ks)) << label;
  };
  // Batch releases: start times tie.
  {
    std::vector<std::pair<Time, Work>> pairs;
    for (const Time batch : {0.0, 10.0, 25.0}) {
      for (int j = 0; j < 20; ++j) pairs.emplace_back(batch, 0.5 + 0.37 * j);
    }
    const Instance batches = Instance::from_pairs(pairs);
    for (const int m : {1, 3}) {
      expect_full_sorts(run_rr(batches, 1.0, m), "batches");
      expect_full_sorts(run_rr(batches, theorem1_speed(2.0, eps), m),
                        "batches at eta");
    }
  }
  // A stop C_0 + delta F_0 that equals a later release exactly.
  {
    const Time stop0 = 2.0 + eps * 2.0;
    Schedule s(Instance::from_pairs(std::vector<std::pair<Time, Work>>{
                   {0.0, 2.0}, {stop0, 1.0}, {stop0 + 0.5, 1.0}}),
               /*machines=*/1, /*speed=*/1.0);
    s.push_interval(0.0, 2.0, {RateShare{0, 1.0}});
    s.push_interval(stop0, stop0 + 0.5, {RateShare{1, 1.0}});
    s.push_interval(stop0 + 0.5, stop0 + 1.5,
                    {RateShare{1, 0.5}, RateShare{2, 0.5}});
    s.push_interval(stop0 + 1.5, stop0 + 2.0, {RateShare{2, 1.0}});
    s.set_completion(0, 2.0);
    s.set_completion(1, stop0 + 1.5);
    s.set_completion(2, stop0 + 2.0);
    s.set_trace_recorded(true);
    expect_full_sorts(s, "stop at a release");
  }
  // Nondecreasing releases whose only tie is between the last two jobs:
  // the merge runs almost to the end before it has to give up.
  {
    const Instance poisson =
        workload::make_instance(workload::WorkloadSpec::poisson(
            500, 0.9, workload::ExponentialSize{1.0}, 77));
    std::vector<std::pair<Time, Work>> pairs;
    for (const Job& job : poisson.jobs()) {
      pairs.emplace_back(job.release, job.size);
    }
    pairs.back().first = pairs[pairs.size() - 2].first;
    expect_full_sorts(run_rr(Instance::from_pairs(pairs), 1.0),
                      "tie at the end");
  }

  // Job 0 leaves the alive set during [1, 2) and re-enters at 2, so its
  // begin term at t = 2 must not come from its interval ending at t = 1.
  {
    Schedule s(Instance::from_pairs(std::vector<std::pair<Time, Work>>{
                   {0.0, 2.0}, {0.5, 1.0}}),
               /*machines=*/1, /*speed=*/1.0);
    s.push_interval(0.0, 0.5, {RateShare{0, 1.0}});
    s.push_interval(0.5, 1.0, {RateShare{0, 0.5}, RateShare{1, 0.5}});
    s.push_interval(1.0, 2.0, {RateShare{1, 0.75}});
    s.push_interval(2.0, 3.25, {RateShare{0, 1.0}});
    s.set_completion(0, 3.25);
    s.set_completion(1, 2.0);
    s.set_trace_recorded(true);
    for (const double k : ks) expect_matches_reference(s, k, "re-entry");
  }

  // F_j^k comes from the alpha cache only when the job's last row ends
  // exactly at C_j; here job 0's completion lies past its last row.
  {
    Schedule s(Instance::from_pairs(std::vector<std::pair<Time, Work>>{
                   {0.0, 1.5}, {0.5, 1.0}}),
               /*machines=*/1, /*speed=*/1.0);
    s.push_interval(0.0, 0.5, {RateShare{0, 1.0}});
    s.push_interval(0.5, 1.5, {RateShare{0, 0.5}, RateShare{1, 0.5}});
    s.push_interval(1.5, 2.5, {RateShare{0, 0.5}, RateShare{1, 0.5}});
    s.set_completion(0, 2.75);
    s.set_completion(1, 2.5);
    s.set_trace_recorded(true);
    for (const double k : ks) expect_matches_reference(s, k, "late completion");
  }
}

TEST(DualFit, PowOfExponentOneIsExact) {
  // The verifier skips pow(v, k) at k == 1 (and pow(v, k - 1) at k == 2).
  // That is bit-identical only if this platform's pow returns v exactly.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_exact = [&](double x) {
    const double p = std::pow(x, 1.0);
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(p)) << bits(x);
    } else {
      EXPECT_EQ(bits(p), bits(x)) << x;
    }
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, -0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0, -DBL_MIN / 3.0,
        DBL_MIN, -DBL_MIN, 1.0, -1.0, DBL_MAX, -DBL_MAX, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()}) {
    expect_exact(x);
  }
  // Random bit patterns cover every exponent and sign, NaNs included.
  std::mt19937_64 gen(20261017);
  for (int i = 0; i < 1'000'000; ++i) expect_exact(std::bit_cast<double>(gen()));
  // The alpha cache starts each job at (t - r_j)^k = pow(+0, k) = +0.
  for (const double k : {1.0, 1.5, 2.0, 3.0, 7.25}) {
    EXPECT_EQ(bits(std::pow(0.0, k)), bits(0.0)) << k;
  }
}

TEST(DualFit, PowOfExponentZeroIsOne) {
  // The verifier skips pow(F_j, k - 1) at k == 1.  C Annex F requires
  // pow(x, +-0) == 1 for every x, NaN included; pin it on this platform.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_one = [&](double x) {
    EXPECT_EQ(bits(std::pow(x, 0.0)), bits(1.0)) << bits(x);
    EXPECT_EQ(bits(std::pow(x, -0.0)), bits(1.0)) << bits(x);
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, -0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN, -DBL_MIN, 1.0, -1.0,
        DBL_MAX, -DBL_MAX, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::signaling_NaN()}) {
    expect_one(x);
  }
  // Random bit patterns cover every exponent and sign, NaNs included.
  std::mt19937_64 gen(20261018);
  for (int i = 0; i < 1'000'000; ++i) expect_one(std::bit_cast<double>(gen()));
}

}  // namespace
}  // namespace tempofair::analysis
