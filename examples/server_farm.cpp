// Server farm scenario: an m-machine cluster serving a heavy-tailed request
// stream (the server-client setting of the paper's introduction).  Compares
// every built-in policy on latency (l1), temporal fairness (l2, p99, max)
// and instantaneous fairness (Jain index), then shows how much speed
// augmentation RR needs to match SRPT's l2.
//
//   ./server_farm [--machines M] [--requests N] [--load RHO] [--seed S]
#include <iostream>

#include "analysis/report.h"
#include "core/engine.h"
#include "core/fairness.h"
#include "core/metrics.h"
#include "harness/cli.h"
#include "policies/registry.h"
#include "workload/generators.h"
#include "workload/source.h"

using namespace tempofair;

int main(int argc, char** argv) {
  harness::Options options("server_farm");
  options.value("machines", 8, "identical machines")
      .value("requests", 400, "requests in the stream")
      .value("load", 0.9, "utilization rho")
      .value("seed", 1, "RNG seed");
  harness::Parsed cli;
  try {
    cli = options.parse(argc, argv);
  } catch (const harness::CliError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    options.print_help(std::cout);
    return 0;
  }
  const int machines = static_cast<int>(cli.get_int("machines"));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("requests"));
  const double load = cli.get_double("load");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const Instance requests = workload::make_instance(
      workload::WorkloadSpec::poisson(n, load,
                                      workload::ParetoSize{1.8, 0.5, 60.0},
                                      seed, machines));
  std::cout << "Cluster: " << machines << " machines, load " << load << "\n"
            << "Requests: " << requests.summary() << "\n";

  analysis::Table table("policy comparison on the request stream",
                        {"policy", "mean", "l2", "p99", "max", "jain"});
  for (const std::string& spec : builtin_policy_specs()) {
    RunRequest req;
    req.policy = spec;
    req.machines = machines;
    const Schedule s = run(requests, req).schedule;
    const FlowStats st = flow_stats(s);
    const FairnessReport fr = fairness_report(s);
    table.add_row({spec, analysis::Table::num(st.mean, 2),
                   analysis::Table::num(st.l2, 1),
                   analysis::Table::num(st.p99, 1),
                   analysis::Table::num(st.linf, 1),
                   analysis::Table::num(fr.jain_time_avg, 3)});
  }
  table.print(std::cout);

  // How much faster must the RR cluster be to match SRPT on BOTH norms?
  // (On heavy-tailed loads RR often already beats SRPT's l2 at speed 1 --
  // SRPT's starvation of large requests inflates the tail, which is the
  // paper's motivation; the mean (l1) is where SRPT's clairvoyance wins.)
  RunRequest base;
  base.policy = "srpt";
  base.machines = machines;
  base.record_trace = false;
  const Schedule srpt_sched = run(requests, base).schedule;
  const double srpt_l1 = flow_lk_norm(srpt_sched, 1.0);
  const double srpt_l2 = flow_lk_norm(srpt_sched, 2.0);

  std::cout << "\nRR vs SRPT (l1 " << analysis::Table::num(srpt_l1, 1)
            << ", l2 " << analysis::Table::num(srpt_l2, 1)
            << ") as the RR cluster gets faster:\n";
  for (double speed : {1.0, 1.25, 1.5, 2.0, 3.0}) {
    RunRequest req = base;
    req.policy = "rr";
    req.speed = speed;
    const Schedule rs = run(requests, req).schedule;
    const double l1_ratio = flow_lk_norm(rs, 1.0) / srpt_l1;
    const double l2_ratio = flow_lk_norm(rs, 2.0) / srpt_l2;
    std::cout << "  speed " << speed << ": RR l1 = "
              << analysis::Table::num(l1_ratio, 2) << "x SRPT, l2 = "
              << analysis::Table::num(l2_ratio, 2) << "x SRPT"
              << (l1_ratio <= 1.0 && l2_ratio <= 1.0 ? "   <-- dominates" : "")
              << "\n";
  }
  std::cout << "\nTakeaway: on heavy-tailed request streams the perfectly fair\n"
               "scheduler already wins the l2 (tail-sensitive) norm; a modest\n"
               "speed advantage buys back the mean as well -- the trade\n"
               "Theorem 1 quantifies in the worst case.\n";
  return 0;
}
