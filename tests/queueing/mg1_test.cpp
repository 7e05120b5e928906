#include "queueing/mg1.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/engine.h"
#include "core/metrics.h"
#include "policies/registry.h"

namespace tempofair::queueing {
namespace {

TEST(Integrate, PolynomialExact) {
  // Simpson is exact for cubics.
  EXPECT_NEAR(integrate([](double x) { return x * x * x; }, 0.0, 2.0), 4.0, 1e-12);
  EXPECT_NEAR(integrate([](double x) { return 3.0 * x * x; }, 0.0, 1.0), 1.0, 1e-12);
}

TEST(Integrate, AdaptsToCurvature) {
  EXPECT_NEAR(integrate([](double x) { return std::exp(-x); }, 0.0, 20.0), 1.0, 1e-6);
  EXPECT_NEAR(integrate([](double x) { return std::sin(x); }, 0.0, M_PI), 2.0, 1e-8);
}

TEST(Integrate, EmptyInterval) {
  EXPECT_DOUBLE_EQ(integrate([](double) { return 1.0; }, 1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(integrate([](double) { return 1.0; }, 2.0, 1.0), 0.0);
}

TEST(Moments, ExponentialClosedForms) {
  const auto m = make_moments(workload::SizeDist{workload::ExponentialSize{2.0}});
  EXPECT_DOUBLE_EQ(m->mean(), 2.0);
  EXPECT_DOUBLE_EQ(m->second_moment(), 8.0);
  EXPECT_NEAR(m->cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  // partial moments converge to the full ones.
  EXPECT_NEAR(m->partial_mean(100.0), 2.0, 1e-9);
  EXPECT_NEAR(m->partial_second(200.0), 8.0, 1e-9);
  EXPECT_TRUE(m->continuous());
  // Cross-check partial_mean against numeric integration of t f(t).
  const double numeric = integrate(
      [](double t) { return t * 0.5 * std::exp(-t / 2.0); }, 0.0, 3.0);
  EXPECT_NEAR(m->partial_mean(3.0), numeric, 1e-7);
}

TEST(Moments, UniformClosedForms) {
  const auto m = make_moments(workload::SizeDist{workload::UniformSize{1.0, 3.0}});
  EXPECT_DOUBLE_EQ(m->mean(), 2.0);
  EXPECT_NEAR(m->second_moment(), 13.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(m->cdf(2.0), 0.5);
  EXPECT_NEAR(m->partial_mean(3.0), 2.0, 1e-12);
  EXPECT_NEAR(m->partial_mean(2.0), (4.0 - 1.0) / 4.0, 1e-12);
  EXPECT_TRUE(m->continuous());
}

TEST(Moments, FixedIsAtomic) {
  const auto m = make_moments(workload::SizeDist{workload::FixedSize{3.0}});
  EXPECT_DOUBLE_EQ(m->mean(), 3.0);
  EXPECT_DOUBLE_EQ(m->second_moment(), 9.0);
  EXPECT_FALSE(m->continuous());
}

TEST(Moments, UnsupportedDistributionsThrow) {
  EXPECT_THROW((void)make_moments(workload::SizeDist{workload::ParetoSize{}}),
               std::invalid_argument);
  EXPECT_THROW((void)make_moments(workload::SizeDist{workload::BimodalSize{}}),
               std::invalid_argument);
}

TEST(Mg1, PsFormulaAndInsensitivity) {
  // E[T]_PS = E[S]/(1-rho) regardless of the distribution shape.
  const auto exp_m = make_moments(workload::SizeDist{workload::ExponentialSize{1.0}});
  const auto uni_m = make_moments(workload::SizeDist{workload::UniformSize{0.5, 1.5}});
  Mg1 a{0.8, exp_m.get()};
  Mg1 b{0.8, uni_m.get()};
  EXPECT_NEAR(a.mean_response_ps(), 5.0, 1e-12);
  EXPECT_NEAR(b.mean_response_ps(), 5.0, 1e-12);
}

TEST(Mg1, FcfsPollaczekKhinchine) {
  // M/M/1-FCFS: E[T] = 1/(mu - lambda) with mu = 1/E[S].
  const auto m = make_moments(workload::SizeDist{workload::ExponentialSize{1.0}});
  Mg1 q{0.7, m.get()};
  EXPECT_NEAR(q.mean_response_fcfs(), 1.0 / (1.0 - 0.7), 1e-9);
  // M/D/1 waits exactly half of M/M/1's queueing delay.
  const auto d = make_moments(workload::SizeDist{workload::FixedSize{1.0}});
  Mg1 qd{0.7, d.get()};
  const double mm1_wait = q.mean_response_fcfs() - 1.0;
  const double md1_wait = qd.mean_response_fcfs() - 1.0;
  EXPECT_NEAR(md1_wait, 0.5 * mm1_wait, 1e-9);
}

TEST(Mg1, SrptBeatsPsBeatsFcfsUnderExponential) {
  const auto m = make_moments(workload::SizeDist{workload::ExponentialSize{1.0}});
  Mg1 q{0.8, m.get()};
  const double srpt = q.mean_response_srpt();
  const double ps = q.mean_response_ps();
  const double fcfs = q.mean_response_fcfs();
  EXPECT_LT(srpt, ps);        // SRPT is optimal
  EXPECT_NEAR(ps, fcfs, 1e-9);  // M/M/1: PS and FCFS tie in the mean
  EXPECT_GT(srpt, m->mean());   // but can't beat the bare service time
}

TEST(Mg1, SrptPerSizeIsMonotone) {
  const auto m = make_moments(workload::SizeDist{workload::ExponentialSize{1.0}});
  Mg1 q{0.8, m.get()};
  double prev = 0.0;
  for (double x : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const double t = q.mean_response_srpt(x);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Mg1, AtomicSizesRejectSrptAndFb) {
  const auto d = make_moments(workload::SizeDist{workload::FixedSize{1.0}});
  Mg1 q{0.5, d.get()};
  EXPECT_THROW((void)q.mean_response_srpt(), std::invalid_argument);
  EXPECT_THROW((void)q.mean_response_fb(1.0), std::invalid_argument);
}

TEST(Mg1, OverloadRejected) {
  const auto m = make_moments(workload::SizeDist{workload::ExponentialSize{1.0}});
  Mg1 q{1.2, m.get()};
  EXPECT_THROW((void)q.mean_response_ps(), std::invalid_argument);
  EXPECT_THROW((void)q.mean_response_fcfs(), std::invalid_argument);
}

// ---- simulator-vs-theory convergence ---------------------------------------

struct OracleCase {
  const char* policy;
  double (*oracle)(const Mg1&);
  double tolerance;  // relative
};

// Without this, gtest names the parameter by its raw bytes, which include
// ASLR-randomised pointers, so the test's listed name changed on every build.
void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.policy << " tol=" << c.tolerance;
}

double ps_oracle(const Mg1& q) { return q.mean_response_ps(); }
double fcfs_oracle(const Mg1& q) { return q.mean_response_fcfs(); }
double srpt_oracle(const Mg1& q) { return q.mean_response_srpt(); }
double fb_oracle(const Mg1& q) { return q.mean_response_fb(); }

class SimulatorVsTheory : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SimulatorVsTheory, MeanFlowMatchesMg1) {
  const auto [policy_name, oracle, tolerance] = GetParam();
  const workload::SizeDist dist = workload::ExponentialSize{1.0};
  const auto moments = make_moments(dist);
  const double load = 0.7;
  Mg1 q{load, moments.get()};
  const double predicted = oracle(q);

  // Average several long runs; drop a warmup prefix to approach steady state.
  double measured_sum = 0.0;
  const int runs = 3;
  const std::size_t n = 6000, warmup = 500;
  for (int r = 0; r < runs; ++r) {
    workload::Rng rng(1000 + r);
    const Instance inst =
        workload::detail::poisson_load(n, 1, load, dist, rng);
    auto policy = make_policy(policy_name);
    RunRequest req;
    req.record_trace = false;
    const Schedule s = run(inst, *policy, req).schedule;
    double sum = 0.0;
    for (JobId j = static_cast<JobId>(warmup); j < n - warmup; ++j) {
      sum += s.flow(j);
    }
    measured_sum += sum / static_cast<double>(n - 2 * warmup);
  }
  const double measured = measured_sum / runs;
  EXPECT_NEAR(measured, predicted, tolerance * predicted)
      << policy_name << ": theory " << predicted << " vs sim " << measured;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimulatorVsTheory,
    ::testing::Values(OracleCase{"rr", &ps_oracle, 0.10},
                      OracleCase{"srpt", &srpt_oracle, 0.10},
                      OracleCase{"fcfs", &fcfs_oracle, 0.10},
                      OracleCase{"setf", &fb_oracle, 0.12}),
    [](const auto& param_info) { return std::string(param_info.param.policy); });

}  // namespace
}  // namespace tempofair::queueing
