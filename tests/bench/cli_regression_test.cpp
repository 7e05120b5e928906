// CLI regression tests against the real binaries (paths injected by CMake
// through TEMPOFAIR_BENCH_BIN / PERF_GATE_BIN / TEMPOFAIR_SIM_BIN /
// LP_FUZZ_BIN):
//
//  * tempofair_bench --filter with an unknown id must hard-error (exit 2)
//    and list every valid id, instead of silently running nothing; --eps
//    must reach the experiment undigested, as its artifact records it.
//  * perf_gate must exit 1 when a case regresses past --fail-ratio, exit 0
//    within tolerance, and exit 2 on unusable input -- the contract the CI
//    perf-smoke step relies on.
//  * tempofair-sim must reject a malformed --workload spec at parse time
//    with a nonzero exit and a message that names the bad input, and run
//    end-to-end from a valid spec -- the shared-flag contract every tool
//    using harness::add_run_flags() inherits.
//  * lp_fuzz must reject a malformed or non-positive --count with exit 2
//    instead of running a truncated, aborting or endless fuzz.
#include <sys/wait.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

[[nodiscard]] CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  ASSERT_TRUE(file.is_open()) << path;
  file << content;
}

// A minimal tempofair-perf-v1 report with one case at `median_s` seconds.
[[nodiscard]] std::string report_with(double median_s) {
  return std::string("{\n  \"schema\": \"tempofair-perf-v1\",\n"
                     "  \"git_rev\": \"test\",\n  \"cases\": [\n    {\n"
                     "      \"name\": \"rr_fast\",\n      \"repeats\": 5,\n"
                     "      \"median_s\": ") +
         std::to_string(median_s) +
         ",\n      \"mad_s\": 0.0,\n      \"min_s\": 0.0,\n"
         "      \"max_s\": 1.0,\n      \"stats\": {}\n    }\n  ]\n}\n";
}

TEST(TempofairBenchCli, UnknownFilterIdIsHardError) {
  const CommandResult result = run_command(
      std::string(TEMPOFAIR_BENCH_BIN) + " --filter nope --no-artifacts");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("unknown experiment id 'nope'"),
            std::string::npos)
      << result.output;
  // The error must list the valid ids so the fix is discoverable in CI logs.
  EXPECT_NE(result.output.find("valid ids:"), std::string::npos);
  EXPECT_NE(result.output.find("t1"), std::string::npos);
  EXPECT_NE(result.output.find("f1"), std::string::npos);
}

TEST(TempofairBenchCli, UnknownIdAmongValidOnesStillFails) {
  const CommandResult result = run_command(
      std::string(TEMPOFAIR_BENCH_BIN) + " --filter t1,bogus --no-artifacts");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("'bogus'"), std::string::npos);
}

TEST(TempofairBenchCli, EpsReachesTheExperimentAtFullPrecision) {
  // Ten significant digits: a default-precision stream would forward
  // 0.0512346 and T4 would run at that eps instead.
  const std::string dir = temp_path("tempofair_bench_eps");
  const CommandResult result = run_command(
      std::string(TEMPOFAIR_BENCH_BIN) +
      " --filter t4 --smoke --quiet --jobs 1 --eps 0.0512345678 --out-dir " +
      dir);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::ifstream file(dir + "/t4.json");
  ASSERT_TRUE(file.is_open()) << "missing artifact " << dir << "/t4.json";
  const std::string json((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"eps\": \"0.0512345678\""), std::string::npos)
      << json;
  std::remove((dir + "/t4.json").c_str());
  std::remove((dir + "/suite.json").c_str());
  std::remove(dir.c_str());
}

TEST(TempofairBenchCli, ListExitsZero) {
  const CommandResult result =
      run_command(std::string(TEMPOFAIR_BENCH_BIN) + " --list");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("t1"), std::string::npos);
}

TEST(PerfGateCli, SyntheticRegressionFailsTheGate) {
  const std::string baseline = temp_path("perf_gate_base.json");
  const std::string current = temp_path("perf_gate_cur_3x.json");
  write_file(baseline, report_with(0.100));
  write_file(current, report_with(0.300));  // 3x the baseline median
  const CommandResult result =
      run_command(std::string(PERF_GATE_BIN) + " --baseline " + baseline +
                  " --current " + current);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("FAIL"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("rr_fast"), std::string::npos);
}

TEST(PerfGateCli, WithinTolerancePasses) {
  const std::string baseline = temp_path("perf_gate_base2.json");
  const std::string current = temp_path("perf_gate_cur_ok.json");
  write_file(baseline, report_with(0.100));
  write_file(current, report_with(0.105));
  const CommandResult result =
      run_command(std::string(PERF_GATE_BIN) + " --baseline " + baseline +
                  " --current " + current);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("PASS"), std::string::npos) << result.output;
}

TEST(PerfGateCli, BreachedSelfBudgetFailsEvenWhenBaselinePasses) {
  // The self-gate holds without any baseline movement: identical medians,
  // but the current report's overhead stat breaks its own declared budget.
  const std::string baseline = temp_path("perf_gate_base_sg.json");
  const std::string current = temp_path("perf_gate_cur_sg.json");
  write_file(baseline, report_with(0.100));
  std::string breached = report_with(0.100);
  const std::string needle = "\"stats\": {}";
  const std::size_t pos = breached.find(needle);
  ASSERT_NE(pos, std::string::npos);
  breached.replace(pos, needle.size(),
                   "\"stats\": {\"overhead_vs_inv_off\": 1.08, "
                   "\"overhead_vs_inv_off_budget\": 1.03}");
  write_file(current, breached);
  const CommandResult result =
      run_command(std::string(PERF_GATE_BIN) + " --baseline " + baseline +
                  " --current " + current);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("SELF-GATE: FAIL"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("VERDICT: PASS"), std::string::npos)
      << "baseline comparison itself should pass; the budget is what fails";
}

TEST(PerfGateCli, WritesComparisonJsonArtifact) {
  const std::string baseline = temp_path("perf_gate_base3.json");
  const std::string current = temp_path("perf_gate_cur3.json");
  const std::string artifact = temp_path("perf_gate_artifact.json");
  write_file(baseline, report_with(0.100));
  write_file(current, report_with(0.300));
  const CommandResult result = run_command(
      std::string(PERF_GATE_BIN) + " --baseline " + baseline + " --current " +
      current + " --json " + artifact);
  EXPECT_EQ(result.exit_code, 1);
  std::ifstream file(artifact);
  ASSERT_TRUE(file.is_open()) << "missing artifact " << artifact;
  std::string json((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"FAIL\""), std::string::npos) << json;
}

TEST(PerfGateCli, MalformedBaselineIsUsageError) {
  const std::string baseline = temp_path("perf_gate_bad.json");
  const std::string current = temp_path("perf_gate_cur4.json");
  write_file(baseline, "{ this is not json");
  write_file(current, report_with(0.100));
  const CommandResult result =
      run_command(std::string(PERF_GATE_BIN) + " --baseline " + baseline +
                  " --current " + current);
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(PerfGateCli, NoArgumentsIsUsageError) {
  const CommandResult result = run_command(std::string(PERF_GATE_BIN));
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(TempofairSimCli, MalformedWorkloadSpecFailsWithUsableMessage) {
  // An unknown kind must die at flag-parse time, before any run starts,
  // and the message must echo the offending spec so the fix is obvious.
  const CommandResult result =
      run_command(std::string(TEMPOFAIR_SIM_BIN) +
                  " run --workload 'zipf:n=10' --policy rr");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("--workload"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("zipf"), std::string::npos) << result.output;
}

TEST(TempofairSimCli, MalformedWorkloadParamValueFails) {
  const CommandResult result =
      run_command(std::string(TEMPOFAIR_SIM_BIN) +
                  " run --workload 'poisson:n=abc' --policy rr");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("n"), std::string::npos) << result.output;
}

TEST(TempofairSimCli, WorkloadAndInstanceAreExclusive) {
  const CommandResult result = run_command(
      std::string(TEMPOFAIR_SIM_BIN) +
      " run --workload 'poisson:n=10' --instance /tmp/x.csv --policy rr");
  EXPECT_NE(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("exclusive"), std::string::npos)
      << result.output;
}

TEST(TempofairSimCli, RunsEndToEndFromASpecString) {
  const CommandResult result = run_command(
      std::string(TEMPOFAIR_SIM_BIN) +
      " run --workload 'poisson:n=50,load=0.8,seed=3' --policy rr");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("rr"), std::string::npos) << result.output;
}

TEST(TempofairSimCli, GenerateRoundTripsThroughRun) {
  const std::string trace = temp_path("tempofair_cli_trace.bin");
  const CommandResult gen = run_command(
      std::string(TEMPOFAIR_SIM_BIN) + " generate --out " + trace +
      " --workload 'uniform:n=20,gap=1,size=2' --format binary");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const CommandResult replay =
      run_command(std::string(TEMPOFAIR_SIM_BIN) + " run --workload 'trace:" +
                  trace + "' --policy srpt");
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  std::remove(trace.c_str());
}

TEST(LpFuzzCli, MalformedOrNonPositiveCountIsUsageError) {
  for (const char* count : {"12abc", "abc", "0", "-1"}) {
    const CommandResult result =
        run_command(std::string(LP_FUZZ_BIN) + " --count " + count);
    EXPECT_EQ(result.exit_code, 2) << count << ": " << result.output;
    EXPECT_NE(result.output.find("--count"), std::string::npos)
        << result.output;
  }
}

TEST(LpFuzzCli, CountAndSeedParse) {
  const CommandResult result =
      run_command(std::string(LP_FUZZ_BIN) + " --count 3 --seed 20260806");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("seed=20260806 cases=3"), std::string::npos)
      << result.output;
}

}  // namespace
