#include "workload/generators.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tempofair::workload {
namespace {

TEST(SizeDist, FixedAlwaysSameValue) {
  Rng rng(1);
  const SizeDist d = FixedSize{2.5};
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(draw_size(d, rng), 2.5);
  EXPECT_DOUBLE_EQ(mean_size(d), 2.5);
}

TEST(SizeDist, UniformWithinBounds) {
  Rng rng(2);
  const SizeDist d = UniformSize{1.0, 3.0};
  for (int i = 0; i < 1000; ++i) {
    const double v = draw_size(d, rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_DOUBLE_EQ(mean_size(d), 2.0);
}

TEST(SizeDist, ExponentialMean) {
  Rng rng(3);
  const SizeDist d = ExponentialSize{4.0};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += draw_size(d, rng);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
  EXPECT_DOUBLE_EQ(mean_size(d), 4.0);
}

TEST(SizeDist, ParetoCapTruncates) {
  Rng rng(4);
  const SizeDist d = ParetoSize{1.2, 1.0, 50.0};
  for (int i = 0; i < 5000; ++i) EXPECT_LE(draw_size(d, rng), 50.0);
}

TEST(SizeDist, ParetoCappedMeanMatchesClosedForm) {
  Rng rng(5);
  const SizeDist d = ParetoSize{1.5, 1.0, 20.0};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += draw_size(d, rng);
  EXPECT_NEAR(sum / n, mean_size(d), 0.05);
}

TEST(SizeDist, ParetoUncappedMeanRequiresAlphaAboveOne) {
  EXPECT_THROW((void)mean_size(SizeDist{ParetoSize{1.0, 1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_NEAR(mean_size(SizeDist{ParetoSize{2.0, 1.0, 0.0}}), 2.0, 1e-12);
}

TEST(SizeDist, BimodalMean) {
  const SizeDist d = BimodalSize{0.9, 1.0, 50.0};
  EXPECT_DOUBLE_EQ(mean_size(d), 0.9 * 1.0 + 0.1 * 50.0);
}

TEST(SizeDist, NamesAreDescriptive) {
  EXPECT_EQ(dist_name(SizeDist{FixedSize{1.0}}), "fixed(1)");
  EXPECT_EQ(dist_name(SizeDist{ParetoSize{1.8, 0.5, 0.0}}), "pareto(1.8)");
  EXPECT_NE(dist_name(SizeDist{BimodalSize{}}).find("bimodal"), std::string::npos);
}

TEST(PoissonStream, ProducesRequestedCount) {
  Rng rng(6);
  const Instance inst = detail::poisson_stream(75, 1.0, FixedSize{1.0}, rng);
  EXPECT_EQ(inst.n(), 75u);
}

TEST(PoissonStream, ReleasesAreNonDecreasingInId) {
  Rng rng(7);
  const Instance inst = detail::poisson_stream(50, 2.0, FixedSize{1.0}, rng);
  for (JobId j = 1; j < inst.n(); ++j) {
    EXPECT_GE(inst.job(j).release, inst.job(j - 1).release);
  }
}

TEST(PoissonStream, InterarrivalMeanMatchesLambda) {
  Rng rng(8);
  const Instance inst =
      detail::poisson_stream(20000, 4.0, FixedSize{1.0}, rng);
  const double mean_gap = inst.max_release() / static_cast<double>(inst.n());
  EXPECT_NEAR(mean_gap, 0.25, 0.02);
}

TEST(PoissonStream, RejectsBadLambda) {
  Rng rng(9);
  EXPECT_THROW((void)detail::poisson_stream(10, 0.0, FixedSize{1.0}, rng),
               std::invalid_argument);
}

TEST(PoissonLoad, UtilizationCalibration) {
  // lambda * E[size] / m == utilization: check empirically via arrival rate.
  Rng rng(10);
  const Instance inst = detail::poisson_load(
      20000, 2, 0.8, ExponentialSize{2.0}, rng);
  const double lambda_hat = static_cast<double>(inst.n()) / inst.max_release();
  EXPECT_NEAR(lambda_hat * 2.0 / 2.0, 0.8, 0.05);
}

TEST(PoissonLoad, RejectsBadUtilization) {
  Rng rng(11);
  EXPECT_THROW((void)detail::poisson_load(10, 1, 0.0, FixedSize{1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)detail::poisson_load(10, 1, 2.0, FixedSize{1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)detail::poisson_load(10, 0, 0.5, FixedSize{1.0}, rng),
               std::invalid_argument);
}

TEST(BurstyStream, StructureIsCorrect) {
  Rng rng(12);
  const Instance inst = detail::bursty_stream(3, 4, 10.0, FixedSize{1.0}, rng);
  ASSERT_EQ(inst.n(), 12u);
  for (JobId j = 0; j < 12; ++j) {
    EXPECT_DOUBLE_EQ(inst.job(j).release, 10.0 * static_cast<double>(j / 4));
  }
}

TEST(UniformStream, EvenlySpaced) {
  const Instance inst = detail::uniform_stream(5, 2.0, 1.5, 1.0);
  ASSERT_EQ(inst.n(), 5u);
  for (JobId j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(inst.job(j).release, 1.0 + 2.0 * j);
    EXPECT_DOUBLE_EQ(inst.job(j).size, 1.5);
  }
}

TEST(Generators, DeterministicGivenSeed) {
  Rng a(99), b(99);
  const Instance ia = detail::poisson_stream(30, 1.0, ExponentialSize{1.0}, a);
  const Instance ib = detail::poisson_stream(30, 1.0, ExponentialSize{1.0}, b);
  for (JobId j = 0; j < 30; ++j) {
    EXPECT_DOUBLE_EQ(ia.job(j).release, ib.job(j).release);
    EXPECT_DOUBLE_EQ(ia.job(j).size, ib.job(j).size);
  }
}

}  // namespace
}  // namespace tempofair::workload
