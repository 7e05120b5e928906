// WorkloadSpec grammar: parse / to_string round trips, the trace-path
// escape, typed parameter access, and the canonical builders.  Semantic
// validation (unknown kinds, bad ranges) lives in source_test.cpp, where
// make_source() is under test.
#include "workload/spec.h"

#include <gtest/gtest.h>

#include <string>

namespace tempofair::workload {
namespace {

TEST(WorkloadSpec, ParsesKindAndParams) {
  const WorkloadSpec spec =
      WorkloadSpec::parse("poisson:n=100,load=0.9,dist=exp(1.5),seed=7");
  EXPECT_EQ(spec.kind, "poisson");
  ASSERT_EQ(spec.params.size(), 4u);
  EXPECT_EQ(spec.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(spec.get_double("load", 0.0), 0.9);
  EXPECT_EQ(spec.seed(), 7u);
  EXPECT_TRUE(std::holds_alternative<ExponentialSize>(spec.dist()));
}

TEST(WorkloadSpec, BareKindHasNoParams) {
  const WorkloadSpec spec = WorkloadSpec::parse("adv-staircase");
  EXPECT_EQ(spec.kind, "adv-staircase");
  EXPECT_TRUE(spec.params.empty());
}

TEST(WorkloadSpec, ToStringRoundTripsPreservingOrder) {
  for (const std::string& text :
       {std::string("poisson:n=100,load=0.9,dist=pareto(1.8,0.5),seed=3"),
        std::string("adv-overload-pulse:pulses=4,burst=32,machines=2"),
        std::string("uniform:n=10,gap=1,size=2,start=0.5"),
        std::string("bursty:bursts=4,per=8,gap=10,dist=bimodal(0.9,1,50)"),
        std::string("adv-rr-l2-hard:n=40")}) {
    const WorkloadSpec spec = WorkloadSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(WorkloadSpec::parse(spec.to_string()), spec);
  }
}

TEST(WorkloadSpec, TracePathIsTakenVerbatim) {
  // Paths may contain '=' and ',' -- everything after the first ':' is the
  // path, so trace specs survive the round trip unsplit.
  const std::string text = "trace:/data/runs/a=1,b=2/trace.v1.csv";
  const WorkloadSpec spec = WorkloadSpec::parse(text);
  EXPECT_EQ(spec.kind, "trace");
  ASSERT_TRUE(spec.has("path"));
  EXPECT_EQ(*spec.find("path"), "/data/runs/a=1,b=2/trace.v1.csv");
  EXPECT_EQ(spec.to_string(), text);
}

TEST(WorkloadSpec, EmptyKindRejected) {
  EXPECT_THROW((void)WorkloadSpec::parse(""), SpecError);
  EXPECT_THROW((void)WorkloadSpec::parse(":n=1"), SpecError);
}

TEST(WorkloadSpec, ParamWithoutEqualsRejected) {
  EXPECT_THROW((void)WorkloadSpec::parse("poisson:n"), SpecError);
}

TEST(WorkloadSpec, DuplicateKeyRejected) {
  EXPECT_THROW((void)WorkloadSpec::parse("poisson:n=1,n=2"), SpecError);
}

TEST(WorkloadSpec, MalformedTypedValueNamesTheKey) {
  const WorkloadSpec spec = WorkloadSpec::parse("poisson:n=abc,load=x");
  try {
    (void)spec.get_int("n", 0);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("n"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)spec.get_double("load", 0.0), SpecError);
}

TEST(WorkloadSpec, DefaultsSeedOneAndExpDist) {
  const WorkloadSpec spec = WorkloadSpec::parse("poisson:n=10,load=0.5");
  EXPECT_EQ(spec.seed(), 1u);
  const SizeDist dist = spec.dist();
  ASSERT_TRUE(std::holds_alternative<ExponentialSize>(dist));
  EXPECT_DOUBLE_EQ(std::get<ExponentialSize>(dist).mean, 1.0);
}

TEST(WorkloadSpec, SetReplacesInPlace) {
  WorkloadSpec spec = WorkloadSpec::parse("poisson:n=10,load=0.5,seed=1");
  spec.set("load", 0.9);
  spec.set("seed", 42L);
  EXPECT_DOUBLE_EQ(spec.get_double("load", 0.0), 0.9);
  EXPECT_EQ(spec.seed(), 42u);
  // Replacement keeps the original spelling position.
  EXPECT_EQ(spec.params[1].first, "load");
  EXPECT_EQ(spec.params.size(), 3u);
}

TEST(WorkloadSpec, BuildersRoundTripThroughParse) {
  const WorkloadSpec poisson =
      WorkloadSpec::poisson(100, 0.9, ParetoSize{1.8, 0.5}, 7, 2);
  EXPECT_EQ(WorkloadSpec::parse(poisson.to_string()), poisson);
  EXPECT_EQ(poisson.kind, "poisson");
  EXPECT_EQ(poisson.get_int("machines", 1), 2);

  const WorkloadSpec trace = WorkloadSpec::trace("dir/with,comma/t.bin");
  EXPECT_EQ(WorkloadSpec::parse(trace.to_string()), trace);
}

TEST(SizeDistSpec, EveryDistributionRoundTrips) {
  const SizeDist dists[] = {
      FixedSize{2.0},         UniformSize{0.5, 1.5}, ExponentialSize{3.0},
      ParetoSize{1.8, 0.5},   ParetoSize{2.0, 1.0, 100.0},
      BimodalSize{0.9, 1.0, 50.0}};
  for (const SizeDist& dist : dists) {
    const std::string text = size_dist_spec(dist);
    const SizeDist back = parse_size_dist(text);
    EXPECT_EQ(back.index(), dist.index()) << text;
    EXPECT_EQ(size_dist_spec(back), text);
  }
}

TEST(SizeDistSpec, BadDistributionRejected) {
  EXPECT_THROW((void)parse_size_dist("gaussian(0,1)"), SpecError);
  EXPECT_THROW((void)parse_size_dist("exp()"), SpecError);
  EXPECT_THROW((void)parse_size_dist("pareto(1.8"), SpecError);
  EXPECT_THROW((void)parse_size_dist(""), SpecError);
}

}  // namespace
}  // namespace tempofair::workload
