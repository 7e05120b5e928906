#include "lpsolve/certify.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/simplex.h"

namespace tempofair::lpsolve {
namespace {

using Rel = LinearProgram::Rel;

TEST(Certify, ExactSolveMatchesKnownOptimum) {
  // min -(x+y) s.t. x + 2y <= 4, 3x + y <= 6: optimum -14/5.
  LinearProgram lp;
  lp.objective = {-1.0, -1.0};
  lp.rows.push_back({{1.0, 2.0}, Rel::kLe, 4.0});
  lp.rows.push_back({{3.0, 1.0}, Rel::kLe, 6.0});
  const CertifyResult r = solve_lp_exact(lp);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  EXPECT_EQ(r.exact_objective, Rational::from_ratio(-14, 5));
  EXPECT_TRUE(r.bound.certified);
  EXPECT_LE(r.bound.value, -2.8 + 1e-12);
}

TEST(Certify, WarmStartFromFloatBasis) {
  LinearProgram lp;
  lp.objective = {2.0, 3.0};
  lp.rows.push_back({{1.0, 1.0}, Rel::kGe, 4.0});
  lp.rows.push_back({{1.0, 0.0}, Rel::kGe, 1.0});
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  const CertifyResult r = solve_lp_exact(lp, &fl);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  EXPECT_TRUE(r.warm_start_used);
  EXPECT_EQ(r.exact_objective, Rational::from_int(8));
}

TEST(Certify, WarmStartInstallsBasisOutOfRowOrder) {
  // Case 613 of lp_fuzz's default seed.  The float basis {5, 4, 3, 1} is
  // nonsingular and feasible, but its first column is row 2's slack, an
  // exact 0 in row 0: an installer that pins basis[i] to row i stalls.
  LinearProgram lp;
  lp.objective = {0.5, -3.5, 3.5};
  lp.rows.push_back({{3.5, 2.5, -2.5}, Rel::kGe, 2.5});
  lp.rows.push_back({{1.0, -3.0, -2.5}, Rel::kLe, 1.5});
  lp.rows.push_back({{1.5, 0.5, 4.0}, Rel::kLe, 3.0});
  lp.rows.push_back({{2.5, 2.5, 2.5}, Rel::kLe, 4.0});
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  ASSERT_EQ(fl.basis, (std::vector<std::size_t>{5, 4, 3, 1}));
  const CertifyResult r = solve_lp_exact(lp, &fl);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  EXPECT_TRUE(r.warm_start_used);
  const CertifyResult cold = solve_lp_exact(lp);
  ASSERT_EQ(cold.exact_status, SolveStatus::kOptimal);
  EXPECT_EQ(r.exact_objective, cold.exact_objective);
  EXPECT_EQ(r.exact_objective, Rational::from_ratio(-28, 5));
}

TEST(Certify, DuplicateBasisColumnFallsBackToColdSolve) {
  // min x s.t. x >= 1, x <= 1, with a basis that lists x twice.  Installing
  // x once would leave row 1's artificial basic at exactly 0, a state the
  // warm path otherwise accepts; the duplicate must send it to the cold
  // solve instead.
  LinearProgram lp;
  lp.objective = {1.0};
  lp.rows.push_back({{1.0}, Rel::kGe, 1.0});
  lp.rows.push_back({{1.0}, Rel::kLe, 1.0});
  LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  fl.basis = {0, 0};
  const CertifyResult r = solve_lp_exact(lp, &fl);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  EXPECT_FALSE(r.warm_start_used);
  EXPECT_EQ(r.exact_objective, Rational::from_int(1));
  EXPECT_TRUE(r.bound.certified);
}

TEST(Certify, VerifyCertificateOnOptimalSolution) {
  LinearProgram lp;
  lp.objective = {1.0, 2.0};
  lp.rows.push_back({{1.0, 1.0}, Rel::kEq, 3.0});
  lp.rows.push_back({{1.0, 0.0}, Rel::kLe, 2.0});
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  const CertifiedBound cert = verify_certificate(lp, fl);
  EXPECT_TRUE(cert.certified);
  // Certified value bounds the optimum (4) from below, and is tight here.
  EXPECT_LE(cert.value, 4.0 + 1e-12);
  EXPECT_NEAR(cert.value, 4.0, 1e-9);
}

TEST(Certify, NonOptimalSolutionIsUncertified) {
  LinearProgram lp;
  lp.objective = {1.0};
  lp.rows.push_back({{1.0}, Rel::kLe, 1.0});
  lp.rows.push_back({{1.0}, Rel::kGe, 2.0});
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kInfeasible);
  EXPECT_FALSE(verify_certificate(lp, fl).certified);
}

TEST(Certify, ExactInfeasibilityAndUnboundedness) {
  LinearProgram infeas;
  infeas.objective = {1.0};
  infeas.rows.push_back({{1.0}, Rel::kLe, 1.0});
  infeas.rows.push_back({{1.0}, Rel::kGe, 2.0});
  EXPECT_EQ(solve_lp_exact(infeas).exact_status, SolveStatus::kInfeasible);

  LinearProgram unbdd;
  unbdd.objective = {-1.0};
  unbdd.rows.push_back({{-1.0}, Rel::kLe, 0.0});
  EXPECT_EQ(solve_lp_exact(unbdd).exact_status, SolveStatus::kUnbounded);
}

TEST(Certify, BealeExampleExactOptimum) {
  // Beale's cycling LP, x3 column scaled by 100 so inputs are dyadic;
  // exact optimum is -1/20 (see simplex_test for the float side).
  LinearProgram lp;
  lp.objective = {-0.75, 150.0, -2.0, 6.0};
  lp.rows.push_back({{0.25, -60.0, -4.0, 9.0}, Rel::kLe, 0.0});
  lp.rows.push_back({{0.5, -90.0, -2.0, 3.0}, Rel::kLe, 0.0});
  lp.rows.push_back({{0.0, 0.0, 100.0, 0.0}, Rel::kLe, 1.0});
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  const CertifyResult r = solve_lp_exact(lp, &fl);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  EXPECT_EQ(r.exact_objective, Rational::from_ratio(-1, 20));
  EXPECT_TRUE(r.bound.certified);
}

TEST(Certify, RedundantAndNegativeRhsEqualityRows) {
  // Redundant doubled equality plus a negative-rhs equality; the exact
  // phase-1 must drive artificials out (or prove the leftover rows
  // redundant) without declaring infeasibility.
  LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.rows.push_back({{1.0, 1.0}, Rel::kEq, 2.0});
  lp.rows.push_back({{2.0, 2.0}, Rel::kEq, 4.0});
  lp.rows.push_back({{-1.0, -1.0}, Rel::kEq, -2.0});
  const CertifyResult r = solve_lp_exact(lp);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  EXPECT_EQ(r.exact_objective, Rational::from_int(2));
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  EXPECT_TRUE(verify_certificate(lp, fl).certified);
}

TEST(Certify, OverflowDegradesToUncertified) {
  // Coefficients outside from_double's exponent window poison the exact
  // conversion: the result must be "uncertified", never a wrong bound.
  LinearProgram lp;
  lp.objective = {1e-300};
  lp.rows.push_back({{1e-300}, Rel::kGe, 1.0});
  const CertifyResult r = solve_lp_exact(lp);
  EXPECT_TRUE(r.overflow);
  EXPECT_FALSE(r.bound.certified);
  EXPECT_NE(r.exact_status, SolveStatus::kOptimal);
}

TEST(Certify, DualExtractionCrossCheckVsMinCostFlow) {
  // Discretized flow-time instance: the dense simplex's exact certificate
  // and the MCMF potential-derived certificate must both certify the SAME
  // LP, each from an independent derivation, at values <= its optimum.
  const std::vector<std::pair<Time, Work>> pairs{
      {0.0, 2.0}, {0.0, 1.0}, {1.0, 3.0}, {2.0, 1.0}};
  const Instance inst = Instance::from_pairs(pairs);
  FlowtimeLpOptions opts;
  opts.k = 2.0;
  opts.slot = 1.0;
  const FlowtimeLpResult mcmf = solve_flowtime_lp(inst, opts);
  ASSERT_TRUE(mcmf.certificate.certified);
  EXPECT_LE(mcmf.certificate.value, mcmf.lp_value + 1e-9 * (1.0 + mcmf.lp_value));
  // The potential-derived dual should be essentially tight.
  EXPECT_NEAR(mcmf.certificate.value, mcmf.lp_value,
              1e-6 * (1.0 + mcmf.lp_value));

  const LinearProgram lp = build_flowtime_lp(inst, opts);
  const LpSolution fl = solve_lp(lp);
  ASSERT_EQ(fl.status, SolveStatus::kOptimal);
  const CertifyResult r = solve_lp_exact(lp, &fl);
  ASSERT_EQ(r.exact_status, SolveStatus::kOptimal);
  ASSERT_TRUE(r.bound.certified);
  // Same LP, so the exact simplex optimum equals the MCMF value (to float
  // tolerance) and both certificates sit below it.
  EXPECT_NEAR(r.exact_objective.to_double(), mcmf.lp_value,
              1e-6 * (1.0 + mcmf.lp_value));
  EXPECT_LE(mcmf.certificate.value, r.exact_objective.upper_double() + 1e-12);

  // Cross-check the float duals row by row against the exact ones.
  ASSERT_EQ(fl.duals.size(), r.duals.size());
  for (std::size_t i = 0; i < fl.duals.size(); ++i) {
    EXPECT_NEAR(fl.duals[i], r.duals[i], 1e-6 * (1.0 + std::fabs(r.duals[i])))
        << "row " << i;
  }
}

TEST(Certify, PivotBudgetReportsIterLimit) {
  LinearProgram lp;
  lp.objective = {-1.0, -1.0};
  lp.rows.push_back({{1.0, 2.0}, Rel::kLe, 4.0});
  lp.rows.push_back({{3.0, 1.0}, Rel::kLe, 6.0});
  CertifyOptions opts;
  opts.max_pivots = 1;
  const CertifyResult r = solve_lp_exact(lp, nullptr, opts);
  EXPECT_EQ(r.exact_status, SolveStatus::kIterLimit);
  EXPECT_FALSE(r.bound.certified);
}

}  // namespace
}  // namespace tempofair::lpsolve
