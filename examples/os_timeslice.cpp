// OS time-slice tuning: the bridge from the paper's fluid Round Robin to a
// real scheduler.  Sweeps the quantum with a fixed context-switch cost and
// reports mean flow, l2 and the overhead fraction -- showing the classic
// interior optimum (small quantum = fair but switch-bound; large quantum =
// cheap but FCFS-like), with ideal RR as the q -> 0, cs -> 0 limit.
//
//   ./os_timeslice [--switch-cost C] [--jobs N] [--seed S]
#include <iostream>

#include "analysis/report.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "harness/cli.h"
#include "workload/generators.h"
#include "workload/source.h"

using namespace tempofair;

int main(int argc, char** argv) {
  harness::Options options("os_timeslice");
  options.value("switch-cost", 0.01, "context-switch cost per quantum")
      .value("jobs", 250, "jobs in the workload")
      .value("seed", 3, "RNG seed");
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
  const double cs = cli.get_double("switch-cost");
  const std::size_t n = static_cast<std::size_t>(cli.get_int("jobs"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const Instance inst = workload::make_instance(
      workload::WorkloadSpec::poisson(n, 0.85, workload::UniformSize{0.5, 2.0},
                                      seed));

  RunRequest req;
  req.policy = "rr";
  req.record_trace = false;
  const Schedule ideal_sched = run(inst, req).schedule;
  const double ideal_mean = flow_stats(ideal_sched).mean;
  const double ideal_l2 = flow_lk_norm(ideal_sched, 2.0);

  std::cout << "Workload: " << inst.summary() << "\n"
            << "Context-switch cost: " << cs << " (per rotation)\n"
            << "Ideal (fluid) RR: mean flow " << analysis::Table::num(ideal_mean, 2)
            << ", l2 " << analysis::Table::num(ideal_l2, 1) << "\n";

  analysis::Table table("quantum sweep (QuantumRR with switch cost " +
                            analysis::Table::num(cs) + ")",
                        {"quantum", "mean_flow", "l2", "l2/ideal", "makespan"});
  double best_q = 0.0, best_l2 = std::numeric_limits<double>::infinity();
  for (double q : {20.0, 5.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02}) {
    req.policy = "qrr:" + std::to_string(q) + "," + std::to_string(cs);
    const Schedule s = run(inst, req).schedule;
    const double l2 = flow_lk_norm(s, 2.0);
    if (l2 < best_l2) {
      best_l2 = l2;
      best_q = q;
    }
    table.add_row({analysis::Table::num(q), analysis::Table::num(flow_stats(s).mean, 2),
                   analysis::Table::num(l2, 1),
                   analysis::Table::num(l2 / ideal_l2, 3),
                   analysis::Table::num(s.makespan(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nBest quantum for l2 at this switch cost: " << best_q
            << " (l2 " << analysis::Table::num(best_l2, 1) << ", "
            << analysis::Table::num(best_l2 / ideal_l2, 2)
            << "x the fluid-RR ideal)\n"
            << "With --switch-cost 0 the sweep converges to the ideal as the\n"
               "quantum shrinks -- the fluid model the paper analyzes is the\n"
               "honest limit of the deployable scheduler.\n";
  return 0;
}
