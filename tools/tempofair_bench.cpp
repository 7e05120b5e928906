// tempofair_bench -- the unified experiment runner.
//
// All experiments (bench/exp_*.cpp) self-register with the
// ExperimentRegistry; this binary lists them (--list), selects a subset
// (--filter t1,t4,f5), runs them in parallel on one shared work-stealing
// pool (--jobs N) and writes one JSON artifact per run (params, seed, git
// rev, wall/CPU time, obs counters) plus a suite.json under --out-dir
// (default runs/<timestamp>).  Experiment payloads go to stdout in suite
// order -- byte-identical to the old one-binary-per-experiment output for
// the same flags; runner chatter (progress, summary) goes to stderr.
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "harness/cli.h"
#include "harness/thread_pool.h"
#include "obs/obs.h"
#include "registry.h"

#ifndef TEMPOFAIR_GIT_REV
#define TEMPOFAIR_GIT_REV "unknown"
#endif

using namespace tempofair;

namespace {

std::string timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  localtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%d-%H%M%S", &tm);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Options options(
      "tempofair_bench",
      "Unified runner for the registered experiments (see EXPERIMENTS.md).\n"
      "Payloads print to stdout in suite order; progress and the summary\n"
      "table go to stderr; one JSON artifact per run lands in --out-dir.");
  options.flag("list", "list registered experiments and exit")
      .value("filter", std::string(),
             "comma-separated experiment ids to run (default: all)")
      .flag("csv", "emit CSV payloads instead of tables")
      .value("n", 0, "override every experiment's workload size")
      .value("eps", 0.05, "override eps where used (t2, t4)")
      .value("trials", 0, "override trial counts (t8, f5)")
      .value("trace", std::string(),
             "replay an external trace file where supported (s1)")
      .value("workload", std::string(),
             "override the workload spec where supported (s2, s3)")
      .value("grid-out", std::string(),
             "write a deterministic sweep-grid JSON where supported (f5); "
             "byte-identical for any --jobs value")
      .value("out-dir", std::string(),
             "artifact directory (default runs/<timestamp>)")
      .flag("no-artifacts", "skip writing JSON run artifacts");
  harness::add_jobs_flag(options);
  harness::add_smoke_flag(options);
  harness::add_quiet_flag(options);
  harness::add_seed_flag(options, 0);

  harness::Parsed parsed;
  try {
    parsed = options.parse(argc, argv);
  } catch (const harness::CliError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (parsed.help_requested()) {
    options.print_help(std::cout);
    return 0;
  }

  const auto& registry = bench::ExperimentRegistry::instance();
  const auto all = registry.all();

  if (parsed.flag("list")) {
    analysis::Table table(
        "registered experiments (" + std::to_string(all.size()) + ")",
        {"id", "title", "claim", "defaults"});
    for (const bench::ExperimentSpec* spec : all) {
      table.add_row({spec->id, spec->title, spec->claim, spec->defaults});
    }
    if (parsed.flag("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    return 0;
  }

  // Selection: --filter ids, validated, deduped, run in natural suite order.
  // An unknown id is a hard error that lists every valid id.
  std::vector<const bench::ExperimentSpec*> selected;
  try {
    selected = bench::select_experiments(registry, parsed.get_string("filter"));
  } catch (const std::invalid_argument& e) {
    std::cerr << "tempofair_bench: " << e.what() << " (see --list)\n";
    return 2;
  }
  if (selected.empty()) {
    std::cerr << "tempofair_bench: no experiments selected\n";
    return 2;
  }

  // Pass the explicitly-given overrides through to the experiments' param
  // lookups; defaults stay per-experiment.
  bench::ParamOverrides overrides;
  for (const char* name : {"seed", "n", "trials"}) {
    if (parsed.given(name)) {
      overrides[name] = std::to_string(parsed.get_int(name));
    }
  }
  if (parsed.given("eps")) {
    overrides["eps"] = harness::detail::format_double(parsed.get_double("eps"));
  }
  for (const char* name : {"trace", "workload", "grid-out"}) {
    if (parsed.given(name)) overrides[name] = parsed.get_string(name);
  }

  const bool smoke = parsed.flag("smoke");
  const bool csv = parsed.flag("csv");
  const bool quiet = parsed.flag("quiet");
  const bool write_artifacts = !parsed.flag("no-artifacts");
  const std::string git_rev = TEMPOFAIR_GIT_REV;

  std::string out_dir = parsed.get_string("out-dir");
  if (write_artifacts && out_dir.empty()) out_dir = "runs/" + timestamp();
  if (write_artifacts) std::filesystem::create_directories(out_dir);

  const long jobs_arg = parsed.get_int("jobs");
  harness::ThreadPool pool(jobs_arg <= 0 ? 0
                                         : static_cast<std::size_t>(jobs_arg));

  // One pool task per experiment; each experiment's inner parallel_for fans
  // out on the same pool (nested submits + helping joins keep every worker
  // busy).  The main thread blocks on futures in suite order, so stdout is
  // deterministic regardless of --jobs.
  obs::Progress progress("bench", selected.size());
  const auto suite_start = std::chrono::steady_clock::now();
  std::vector<std::future<bench::RunOutcome>> futures;
  futures.reserve(selected.size());
  for (const bench::ExperimentSpec* spec : selected) {
    futures.push_back(pool.submit([spec, &overrides, &pool, smoke, csv] {
      return bench::run_experiment(*spec, overrides, pool, smoke, csv);
    }));
  }

  std::vector<bench::RunOutcome> outcomes;
  outcomes.reserve(selected.size());
  for (std::future<bench::RunOutcome>& fut : futures) {
    outcomes.push_back(fut.get());
    std::cout << outcomes.back().output << std::flush;
    if (!quiet) progress.tick();
  }
  if (!quiet) progress.finish();
  const double suite_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    suite_start)
          .count();

  if (write_artifacts) {
    for (const bench::RunOutcome& outcome : outcomes) {
      std::ofstream file(out_dir + "/" + outcome.id + ".json");
      file << bench::outcome_json(outcome, git_rev, smoke);
    }
    std::ofstream suite(out_dir + "/suite.json");
    suite << "{\n  \"git_rev\": \"" << git_rev << "\",\n"
          << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
          << "  \"jobs\": " << pool.size() << ",\n"
          << "  \"wall_s\": " << suite_wall << ",\n"
          << "  \"runs\": [";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const bench::RunOutcome& o = outcomes[i];
      suite << (i == 0 ? "\n" : ",\n") << "    {\"id\": \"" << o.id
            << "\", \"status\": \"" << o.status
            << "\", \"exit_code\": " << o.exit_code
            << ", \"wall_s\": " << o.wall_s << ", \"cpu_s\": " << o.cpu_s
            << "}";
    }
    suite << "\n  ]\n}\n";
  }

  bool all_ok = true;
  if (!quiet) {
    analysis::Table summary(
        "suite summary (jobs=" + std::to_string(pool.size()) +
            ", wall=" + analysis::Table::num(suite_wall, 2) + "s)",
        {"id", "status", "wall_s", "cpu_s", "engine_runs"});
    for (const bench::RunOutcome& o : outcomes) {
      all_ok = all_ok && o.ok();
      const auto it = o.counters.find("engine.runs");
      summary.add_row(
          {o.id, o.status + (o.error.empty() ? "" : " (" + o.error + ")"),
           analysis::Table::num(o.wall_s, 2), analysis::Table::num(o.cpu_s, 2),
           it == o.counters.end() ? "-" : std::to_string(it->second)});
    }
    summary.print(std::cerr);
    if (write_artifacts) std::cerr << "artifacts: " << out_dir << "\n";
  } else {
    for (const bench::RunOutcome& o : outcomes) all_ok = all_ok && o.ok();
  }
  return all_ok ? 0 : 1;
}
