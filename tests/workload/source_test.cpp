// WorkloadSource factory: spec-built workloads are bitwise-identical to the
// legacy generator calls they subsume, stream() and instance() agree, the
// one SpecError path covers unknown kinds/params/values, and run_spec()
// produces identical schedules through the streaming fast path and the
// materialized event loop.  The bundled sample trace (path injected by
// CMake through TEMPOFAIR_SAMPLE_TRACE) pins replay determinism against a
// checked-in artifact.
#include "workload/source.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/invariants.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

namespace tempofair::workload {
namespace {

void expect_same_jobs(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.n(), b.n());
  for (JobId j = 0; j < static_cast<JobId>(a.n()); ++j) {
    EXPECT_EQ(a.job(j).release, b.job(j).release) << "job " << j;
    EXPECT_EQ(a.job(j).size, b.job(j).size) << "job " << j;
    EXPECT_EQ(a.job(j).weight, b.job(j).weight) << "job " << j;
  }
}

[[nodiscard]] Instance drain(JobStream& stream) {
  std::vector<Job> jobs;
  jobs.reserve(stream.n());
  for (std::size_t i = 0; i < stream.n(); ++i) jobs.push_back(stream.next());
  return Instance::from_jobs(std::move(jobs));
}

// --- spec <-> legacy generator equivalence -----------------------------------

TEST(WorkloadSource, PoissonSpecMatchesDeprecatedGenerator) {
  const SizeDist dist = ParetoSize{1.8, 0.5};
  Rng rng(7);
  const Instance legacy = detail::poisson_load(200, 2, 0.9, dist, rng);
  const Instance via_spec =
      make_instance(WorkloadSpec::poisson(200, 0.9, dist, 7, 2));
  expect_same_jobs(legacy, via_spec);
}

TEST(WorkloadSource, BurstySpecMatchesDeprecatedGenerator) {
  const SizeDist dist = ExponentialSize{2.0};
  Rng rng(5);
  const Instance legacy = detail::bursty_stream(6, 9, 12.0, dist, rng);
  const Instance via_spec =
      make_instance(WorkloadSpec::bursty(6, 9, 12.0, dist, 5));
  expect_same_jobs(legacy, via_spec);
}

TEST(WorkloadSource, UniformSpecMatchesDeprecatedGenerator) {
  const Instance legacy = detail::uniform_stream(30, 1.5, 2.0, 0.25);
  const Instance via_spec =
      make_instance(WorkloadSpec::uniform(30, 1.5, 2.0, 0.25));
  expect_same_jobs(legacy, via_spec);
}

// --- stream() / instance() agreement ----------------------------------------

TEST(WorkloadSource, StreamAndInstanceAgreeBitwise) {
  for (const std::string& spec :
       {std::string("poisson:n=150,load=0.8,dist=exp(1.5),seed=3"),
        std::string("mmpp:n=150,load=0.8,burst=8,on=5,off=20,seed=3"),
        std::string("uniform:n=50,gap=1,size=2")}) {
    const std::unique_ptr<WorkloadSource> source = make_source(spec);
    ASSERT_TRUE(source->streamable()) << spec;
    const auto stream = source->stream();
    expect_same_jobs(drain(*stream), source->instance());
  }
}

TEST(WorkloadSource, SourcesAreReusable) {
  // Two stream() calls from one source re-derive the same jobs -- the
  // property that lets a spec mean the same workload in every run.
  const std::unique_ptr<WorkloadSource> source =
      make_source("poisson:n=100,load=0.9,seed=11");
  const auto first = source->stream();
  const auto second = source->stream();
  expect_same_jobs(drain(*first), drain(*second));
}

TEST(WorkloadSource, WeightsParamDisablesStreamingButMatchesWithWeights) {
  const std::unique_ptr<WorkloadSource> source =
      make_source("poisson:n=50,load=0.9,seed=4,weights=inv-size");
  EXPECT_FALSE(source->streamable());
  EXPECT_THROW((void)source->stream(), std::logic_error);
  const Instance weighted = source->instance();
  const Instance plain = make_instance("poisson:n=50,load=0.9,seed=4");
  ASSERT_EQ(weighted.n(), plain.n());
  for (JobId j = 0; j < static_cast<JobId>(plain.n()); ++j) {
    EXPECT_EQ(weighted.job(j).size, plain.job(j).size);
    EXPECT_DOUBLE_EQ(weighted.job(j).weight, 1.0 / plain.job(j).size);
  }
}

// --- the one validation path -------------------------------------------------

TEST(WorkloadSource, UnknownKindListsKnownKinds) {
  try {
    (void)make_source("zipf:n=10");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown kind"), std::string::npos) << what;
    EXPECT_NE(what.find("poisson"), std::string::npos) << what;
    EXPECT_NE(what.find("trace"), std::string::npos) << what;
  }
}

TEST(WorkloadSource, UnknownParameterNamesTheAccepted) {
  try {
    (void)make_source("poisson:n=10,lod=0.9");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'lod'"), std::string::npos) << what;
    EXPECT_NE(what.find("load"), std::string::npos) << what;
  }
}

TEST(WorkloadSource, BadRangesRejected) {
  EXPECT_THROW((void)make_source("poisson:n=10,load=0"), SpecError);
  EXPECT_THROW((void)make_source("poisson:n=10,load=2"), SpecError);
  EXPECT_THROW((void)make_source("poisson:n=-5"), SpecError);
  EXPECT_THROW((void)make_source("uniform:n=10,gap=-1"), SpecError);
  EXPECT_THROW((void)make_source("adv-geometric:levels=0"), SpecError);
}

TEST(WorkloadSource, MissingTraceFileIsSpecError) {
  EXPECT_THROW((void)make_source("trace:/nonexistent/trace.csv"), SpecError);
}

TEST(WorkloadSource, BuiltinKindsAllConstruct) {
  for (const std::string& kind : builtin_workload_kinds()) {
    if (kind == "trace") continue;  // needs a real file
    const std::unique_ptr<WorkloadSource> source = make_source(kind);
    EXPECT_GT(source->n(), 0u) << kind;
    EXPECT_GT(source->instance().n(), 0u) << kind;
  }
}

// --- run_spec ----------------------------------------------------------------

TEST(RunSpec, EmptyWorkloadRejected) {
  RunRequest req;
  EXPECT_THROW((void)run_spec(req), SpecError);
}

TEST(RunSpec, FastAndSlowPathsAgreeBitwise) {
  for (const std::string& policy : {std::string("rr"), std::string("srpt")}) {
    RunRequest req;
    req.policy = policy;
    req.workload = "poisson:n=300,load=0.9,dist=exp(1),seed=21";
    req.invariants = InvariantMode::kExhaustive;
    req.use_fast_path = false;
    const RunResult slow = run_spec(req);
    req.use_fast_path = true;
    const RunResult fast = run_spec(req);
    ASSERT_EQ(slow.schedule.n(), fast.schedule.n());
    for (JobId j = 0; j < static_cast<JobId>(slow.schedule.n()); ++j) {
      ASSERT_EQ(slow.schedule.completion(j), fast.schedule.completion(j))
          << policy << " job " << j;
    }
    EXPECT_EQ(slow.stats.l2, fast.stats.l2);
  }
}

// The bundled trace under tests/data/: replaying it must give bitwise-equal
// schedules through the generic event loop and the epoch-coalesced fast
// path, with the exhaustive invariant battery on -- the PR's acceptance
// criterion for trace ingestion.
TEST(RunSpec, BundledSampleTraceReplaysBitwiseIdentically) {
  const std::string spec = "trace:" TEMPOFAIR_SAMPLE_TRACE;
  const TraceInfo info = probe_trace_file(TEMPOFAIR_SAMPLE_TRACE);
  ASSERT_GT(info.n, 0u);
  for (const std::string& policy : {std::string("rr"), std::string("srpt"),
                                   std::string("fcfs")}) {
    RunRequest req;
    req.policy = policy;
    req.workload = spec;
    req.invariants = InvariantMode::kExhaustive;
    req.use_fast_path = false;
    const RunResult slow = run_spec(req);
    req.use_fast_path = true;
    const RunResult fast = run_spec(req);
    const RunResult again = run_spec(req);  // same request -> same schedule
    ASSERT_EQ(slow.schedule.n(), info.n);
    ASSERT_EQ(fast.schedule.n(), info.n);
    for (JobId j = 0; j < static_cast<JobId>(info.n); ++j) {
      ASSERT_EQ(slow.schedule.completion(j), fast.schedule.completion(j))
          << policy << " job " << j;
      ASSERT_EQ(fast.schedule.completion(j), again.schedule.completion(j))
          << policy << " job " << j;
    }
    EXPECT_EQ(slow.stats.l1, fast.stats.l1);
    EXPECT_EQ(slow.stats.linf, fast.stats.linf);
  }
}

TEST(RunSpec, TraceRoundTripsThroughBothFormatsToTheSameSchedule) {
  // spec -> instance -> CSV and binary files -> replay: all three name the
  // same workload, so all three schedules are identical.
  const Instance inst =
      make_instance("poisson:n=80,load=0.85,dist=bimodal(0.8,0.5,4),seed=9");
  const auto csv_path =
      std::filesystem::temp_directory_path() / "tempofair_source_rt.csv";
  const auto bin_path =
      std::filesystem::temp_directory_path() / "tempofair_source_rt.bin";
  write_csv_file(inst, csv_path.string());
  write_binary_file(inst, bin_path.string());

  RunRequest req;
  req.policy = "rr";
  req.invariants = InvariantMode::kExhaustive;
  req.workload = "poisson:n=80,load=0.85,dist=bimodal(0.8,0.5,4),seed=9";
  const RunResult direct = run_spec(req);
  req.workload = "trace:" + csv_path.string();
  const RunResult via_csv = run_spec(req);
  req.workload = "trace:" + bin_path.string();
  const RunResult via_bin = run_spec(req);
  ASSERT_EQ(direct.schedule.n(), via_csv.schedule.n());
  ASSERT_EQ(direct.schedule.n(), via_bin.schedule.n());
  for (JobId j = 0; j < static_cast<JobId>(direct.schedule.n()); ++j) {
    ASSERT_EQ(direct.schedule.completion(j), via_csv.schedule.completion(j));
    ASSERT_EQ(direct.schedule.completion(j), via_bin.schedule.completion(j));
  }
  std::filesystem::remove(csv_path);
  std::filesystem::remove(bin_path);
}

}  // namespace
}  // namespace tempofair::workload
