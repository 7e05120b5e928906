#include "lpsolve/lp_fuzz.h"

#include <gtest/gtest.h>

namespace tempofair::lpsolve {
namespace {

TEST(LpFuzz, NoDisagreementsOnDefaultSeed) {
  LpFuzzOptions opt;
  opt.count = 1000;
  const LpFuzzReport rep = run_lp_fuzz(opt);
  EXPECT_TRUE(rep.ok());
  for (const auto& d : rep.disagreements) {
    ADD_FAILURE() << "case " << d.case_index << ": " << d.what;
  }
  // A fuzz run that never exercises the optimal path proves nothing.
  EXPECT_GT(rep.optimal, 0u);
  EXPECT_GT(rep.certified, 0u);
  EXPECT_GT(rep.flow_cases, 0u);
  // Some flow cases repeat a job, so the class graph is checked against the
  // per-job LP.
  EXPECT_GT(rep.flow_merged_cases, 0u);
  // Every float basis that certifies is installed exactly, with no cold
  // two-phase fallback.
  EXPECT_EQ(rep.warm_starts, rep.certified);
}

TEST(LpFuzz, DeterministicForFixedSeed) {
  LpFuzzOptions opt;
  opt.count = 100;
  opt.seed = 42;
  const LpFuzzReport a = run_lp_fuzz(opt);
  const LpFuzzReport b = run_lp_fuzz(opt);
  EXPECT_EQ(a.optimal, b.optimal);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.unbounded, b.unbounded);
  EXPECT_EQ(a.iter_limit, b.iter_limit);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.flow_merged_cases, b.flow_merged_cases);
  EXPECT_EQ(a.disagreements.size(), b.disagreements.size());
}

}  // namespace
}  // namespace tempofair::lpsolve
