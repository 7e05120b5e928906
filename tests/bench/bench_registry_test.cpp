#include "registry.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/thread_pool.h"

namespace tempofair::bench {
namespace {

TEST(NaturalIdLess, NumericSuffixesSortNumerically) {
  EXPECT_TRUE(natural_id_less("f2", "f10"));
  EXPECT_FALSE(natural_id_less("f10", "f2"));
  EXPECT_TRUE(natural_id_less("t9", "t10"));
  EXPECT_TRUE(natural_id_less("a1", "f1"));   // alpha prefix first
  EXPECT_TRUE(natural_id_less("f1", "t1"));
  EXPECT_FALSE(natural_id_less("t1", "t1"));
}

TEST(ExperimentRegistry, AllSuiteExperimentsRegistered) {
  const auto& registry = ExperimentRegistry::instance();
  const std::set<std::string> expected{
      "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9",
      "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10",
      "a1", "a2", "a3", "a4",
      "s1"};
  std::set<std::string> actual;
  for (const ExperimentSpec* spec : registry.all()) actual.insert(spec->id);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(registry.size(), expected.size());
}

TEST(ExperimentRegistry, AllReturnsNaturalSuiteOrder) {
  const auto all = ExperimentRegistry::instance().all();
  ASSERT_GE(all.size(), 2u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(natural_id_less(all[i - 1]->id, all[i]->id))
        << all[i - 1]->id << " !< " << all[i]->id;
  }
}

TEST(ExperimentRegistry, FindById) {
  const auto& registry = ExperimentRegistry::instance();
  const ExperimentSpec* spec = registry.find("t1");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->id, "t1");
  EXPECT_FALSE(spec->title.empty());
  EXPECT_FALSE(spec->claim.empty());
  EXPECT_NE(spec->run, nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(RunContext, SmokeScalesSizeParamsDown) {
  const ParamOverrides none;
  harness::ThreadPool pool(1);
  std::ostringstream out;
  RunContext smoke_ctx(none, pool, out, /*smoke=*/true, /*csv=*/false);
  EXPECT_EQ(smoke_ctx.size_param("n", 800), 100u);  // fallback / 8
  EXPECT_EQ(smoke_ctx.size_param("trials", 8, 2), 2u);  // floored
  RunContext full_ctx(none, pool, out, /*smoke=*/false, /*csv=*/false);
  EXPECT_EQ(full_ctx.size_param("n", 800), 800u);
}

TEST(RunContext, ExplicitFlagBeatsSmokeScaling) {
  const ParamOverrides overrides{{"n", "640"}};
  harness::ThreadPool pool(1);
  std::ostringstream out;
  RunContext ctx(overrides, pool, out, /*smoke=*/true, /*csv=*/false);
  EXPECT_EQ(ctx.size_param("n", 800), 640u);
}

TEST(RunExperiment, ProducesOutputAndArtifactFields) {
  // Run the cheapest registered experiment end to end through the same
  // entry point tempofair_bench uses.
  const auto& registry = ExperimentRegistry::instance();
  const ExperimentSpec* spec = registry.find("f1");
  ASSERT_NE(spec, nullptr);
  const ParamOverrides none;
  harness::ThreadPool pool(2);
  const RunOutcome outcome =
      run_experiment(*spec, none, pool, /*smoke=*/true, /*csv=*/false);
  EXPECT_EQ(outcome.id, "f1");
  EXPECT_EQ(outcome.status, "ok");
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.output.empty());
  EXPECT_GT(outcome.wall_s, 0.0);

  const std::string json = outcome_json(outcome, "abc1234", true);
  EXPECT_NE(json.find("\"id\": \"f1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"git_rev\": \"abc1234\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  EXPECT_NE(json.find("\"wall_s\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST(RunExperiment, CapturesCountersPerRun) {
  const auto& registry = ExperimentRegistry::instance();
  const ExperimentSpec* spec = registry.find("f1");
  ASSERT_NE(spec, nullptr);
  const ParamOverrides none;
  harness::ThreadPool pool(2);
  const RunOutcome outcome =
      run_experiment(*spec, none, pool, /*smoke=*/true, /*csv=*/false);
  // Per-run CPU accounting must have been attributed to this run's sink
  // (not the global one) despite the shared pool.
  EXPECT_TRUE(outcome.counters.count("cpu_ns"));
  EXPECT_FALSE(outcome.counters.empty());
}

TEST(RunExperiment, ErrorsAreCapturedNotThrown) {
  ExperimentSpec spec;
  spec.id = "boom";
  spec.title = "throws";
  spec.claim = "n/a";
  spec.run = [](RunContext&) -> int {
    throw std::runtime_error("experiment exploded");
  };
  const ParamOverrides none;
  harness::ThreadPool pool(1);
  const RunOutcome outcome =
      run_experiment(spec, none, pool, /*smoke=*/false, /*csv=*/false);
  EXPECT_EQ(outcome.status, "error");
  EXPECT_EQ(outcome.error, "experiment exploded");
  EXPECT_FALSE(outcome.ok());
  const std::string json = outcome_json(outcome, "x", false);
  EXPECT_NE(json.find("experiment exploded"), std::string::npos);
}

TEST(RunContext, ParamsAreRecordedForArtifacts) {
  // An empty override (tempofair_bench --trace "") takes the fallback.
  const ParamOverrides overrides{{"seed", "99"}, {"trace", ""}};
  harness::ThreadPool pool(1);
  std::ostringstream out;
  RunContext ctx(overrides, pool, out, /*smoke=*/false, /*csv=*/false);
  (void)ctx.size_param("n", 100);
  (void)ctx.seed_param(5);
  EXPECT_EQ(ctx.string_param("trace", "default.csv"), "default.csv");
  const auto params = ctx.params();
  EXPECT_EQ(params.at("n"), "100");
  EXPECT_EQ(params.at("seed"), "99");  // command-line override recorded
}

}  // namespace
}  // namespace tempofair::bench
