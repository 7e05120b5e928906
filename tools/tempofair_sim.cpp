// tempofair-sim: command-line front end to the library.
//
//   tempofair-sim generate --out jobs.csv --workload poisson:n=100,load=0.9,dist=exp(1.5),seed=1
//                 [--format csv|binary|auto]
//   tempofair-sim run --workload poisson:n=100,load=0.9 --policy rr
//                 [--machines 1] [--speed 1] [--k 2] [--fairness]
//                 [--certificate] [--eps 0.05]
//   tempofair-sim run --instance jobs.csv --policy rr ...
//   tempofair-sim compare --workload trace:jobs.csv [--machines 1] [--k 2]
//
// All workload selection goes through the one WorkloadSpec grammar
// (workload/spec.h): the same string names the same jobs here and in
// tempofair_bench.  `--instance PATH` is
// shorthand for `--workload trace:PATH`.  `run` prints the flow-time
// statistics (and optionally the fairness report and the paper's
// dual-fitting certificate); `compare` tabulates every built-in policy.
// All three subcommands parse strictly (unknown flags are errors) and `run`
// speaks the shared run-flag vocabulary from harness/cli.h.
#include <iostream>
#include <limits>
#include <string>

#include "analysis/dualfit.h"
#include "analysis/report.h"
#include "core/engine.h"
#include "core/fairness.h"
#include "core/metrics.h"
#include "harness/cli.h"
#include "policies/registry.h"
#include "workload/source.h"
#include "workload/trace_io.h"

using namespace tempofair;

namespace {

int usage() {
  std::cerr << "usage: tempofair-sim generate|run|compare [options]\n"
               "       tempofair-sim COMMAND --help for the option listing\n"
               "policy specs: rr srpt sjf fcfs setf wrr mlfq hdf hrdf wprr "
               "laps:B qrr:Q[,CS]\n"
               "workload specs: poisson:n=..,load=..,dist=exp(1.5),seed=.. | "
               "mmpp:.. | uniform:.. | bursty:.. |\n"
               "                adv-rr-l2-hard:.. | adv-srpt-starvation:.. | "
               "adv-overload-pulse:.. |\n"
               "                adv-staircase:.. | adv-geometric:.. | "
               "adv-batch-stream:.. | trace:PATH\n";
  return 2;
}

/// Resolves the --workload / --instance pair shared by run and compare.
workload::WorkloadSpec workload_spec_from(const harness::Parsed& cli) {
  const std::string path = cli.get_string("instance");
  const std::string spec = cli.get_string("workload");
  if (!path.empty() && !spec.empty()) {
    throw harness::CliError("--instance and --workload are exclusive");
  }
  if (!path.empty()) return workload::WorkloadSpec::trace(path);
  if (spec.empty()) {
    throw harness::CliError("one of --workload or --instance is required");
  }
  return workload::WorkloadSpec::parse(spec);
}

int cmd_generate(int argc, const char* const* argv) {
  harness::Options options("tempofair-sim generate",
                           "materialize a workload spec as a trace file");
  options.value("out", std::string(), "output path (required)")
      .value("workload", std::string("poisson:n=100,load=0.9,dist=exp(1.5)"),
             "workload spec to materialize (see workload/spec.h)")
      .value("format", std::string("auto"),
             "csv | binary | auto (binary when --out ends in .bin)");
  const harness::Parsed cli = options.parse(argc, argv);
  if (cli.help_requested()) {
    options.print_help(std::cout);
    return 0;
  }
  const std::string out = cli.get_string("out");
  if (out.empty()) return usage();
  const std::string format = cli.get_string("format");
  bool binary = false;
  if (format == "binary") {
    binary = true;
  } else if (format == "auto") {
    binary = out.size() >= 4 && out.compare(out.size() - 4, 4, ".bin") == 0;
  } else if (format != "csv") {
    std::cerr << "unknown --format '" << format << "'\n";
    return 2;
  }
  const Instance inst = workload::make_instance(cli.get_string("workload"));
  if (binary) {
    workload::write_binary_file(inst, out);
  } else {
    workload::write_csv_file(inst, out);
  }
  std::cout << "wrote " << inst.summary() << " to " << out << " ("
            << (binary ? "binary" : "csv") << ")\n";
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  harness::Options options("tempofair-sim run",
                           "simulate one policy on a workload");
  options.value("instance", std::string(),
                "trace path (shorthand for --workload trace:PATH)")
      .value("k", 2.0, "l_k norm to report")
      .flag("fairness", "also print the fairness report")
      .flag("certificate", "also run the dual-fitting certificate")
      .value("eps", 0.05, "certificate eps (with --certificate)");
  harness::add_run_flags(options);
  const harness::Parsed cli = options.parse(argc, argv);
  if (cli.help_requested()) {
    options.print_help(std::cout);
    return 0;
  }
  RunRequest req = harness::run_request_from_flags(cli);
  req.workload = workload_spec_from(cli).to_string();
  const double k = cli.get_double("k");

  const RunResult result = workload::run_spec(req);
  result.schedule.validate();
  const FlowStats& st = result.stats;
  std::cout << req.workload << "\npolicy " << result.policy << ", m="
            << req.machines << ", speed=" << req.speed << "\n"
            << "  total flow (l1): " << st.l1 << "\n  l" << k
            << " norm:         " << flow_lk_norm(result.schedule, k)
            << "\n  mean / stddev:   " << st.mean << " / " << st.stddev
            << "\n  p95 / p99 / max: " << st.p95 << " / " << st.p99 << " / "
            << st.linf << "\n";
  if (result.invariants.mode != InvariantMode::kOff) {
    std::cout << "  invariants:      " << summarize(result.invariants) << "\n";
  }

  if (cli.flag("fairness")) {
    const FairnessReport fr = fairness_report(result.schedule);
    std::cout << "  jain (time-avg): " << fr.jain_time_avg
              << "\n  min-share avg:   " << fr.min_share_time_avg
              << "\n  max service lag: " << fr.max_service_lag
              << "\n  starved frac:    " << fr.starved_time_fraction << "\n";
  }
  if (cli.flag("certificate")) {
    analysis::DualFitOptions opt;
    opt.k = k;
    opt.eps = cli.get_double("eps");
    const auto cert = analysis::dual_fit_certificate(result.schedule, opt);
    std::cout << "  dual certificate: "
              << (cert.certificate_valid() ? "VALID" : "invalid")
              << " (objective ratio " << cert.objective_ratio
              << ", implied l" << k << " bound "
              << analysis::Table::num(cert.implied_lk_ratio, 1) << ")\n";
  }
  return 0;
}

int cmd_compare(int argc, const char* const* argv) {
  harness::Options options("tempofair-sim compare",
                           "tabulate every built-in policy on a workload");
  options.value("instance", std::string(),
                "trace path (shorthand for --workload trace:PATH)")
      .value("workload", std::string(), "workload spec")
      .value("machines", 1, "machine count")
      .value("k", 2.0, "l_k norm column");
  const harness::Parsed cli = options.parse(argc, argv);
  if (cli.help_requested()) {
    options.print_help(std::cout);
    return 0;
  }
  const Instance inst = workload::make_instance(workload_spec_from(cli));
  RunRequest req;
  req.machines = static_cast<int>(cli.get_int("machines"));
  const double k = cli.get_double("k");

  analysis::Table table("policies on " + inst.summary(),
                        {"policy", "l1", "l" + analysis::Table::num(k, 0), "max",
                         "jain"});
  for (const std::string& spec : builtin_policy_specs()) {
    req.policy = spec;
    const Schedule s = tempofair::run(inst, req).schedule;
    table.add_row({spec, analysis::Table::num(flow_lk_norm(s, 1.0)),
                   analysis::Table::num(flow_lk_norm(s, k)),
                   analysis::Table::num(
                       flow_lk_norm(s, std::numeric_limits<double>::infinity())),
                   analysis::Table::num(fairness_report(s).jain_time_avg, 3)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "run") return cmd_run(argc - 1, argv + 1);
    if (command == "compare") return cmd_compare(argc - 1, argv + 1);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
