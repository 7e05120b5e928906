// Quickstart: simulate Round Robin on a small hand-made instance, print the
// schedule, the l_k norms of flow time, and the fairness report.
//
//   ./quickstart [--machines M] [--speed S]
//
// This is the 60-second tour of the library: build an Instance, describe
// the run with a RunRequest, call run(), and read the RunResult.
#include <iostream>

#include "core/engine.h"
#include "core/fairness.h"
#include "core/metrics.h"
#include "harness/cli.h"

using namespace tempofair;

int main(int argc, char** argv) {
  harness::Options options("quickstart");
  options.value("machines", 1, "identical machines")
      .value("speed", 1.0, "speed augmentation s");
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
  RunRequest request;
  request.policy = "rr";
  request.machines = static_cast<int>(cli.get_int("machines"));
  request.speed = cli.get_double("speed");

  // Five jobs: (release, size).  Job 2 is long; jobs 3-4 arrive late.
  const Instance instance = Instance::from_pairs(
      std::vector<std::pair<Time, Work>>{
          {0.0, 2.0}, {0.0, 1.0}, {1.0, 6.0}, {3.0, 1.0}, {3.0, 2.0}});

  std::cout << "Instance: " << instance.summary() << "\n";
  std::cout << "Policy:   Round Robin (the paper's algorithm), m="
            << request.machines << ", speed=" << request.speed << "\n\n";

  const RunResult result = run(instance, request);
  const Schedule& schedule = result.schedule;
  schedule.validate();

  std::cout << "job  release  size  completion  flow\n";
  for (JobId j = 0; j < instance.n(); ++j) {
    std::cout << j << "    " << instance.job(j).release << "        "
              << instance.job(j).size << "     " << schedule.completion(j)
              << "       " << schedule.flow(j) << "\n";
  }

  const FlowStats stats = flow_stats(schedule);
  std::cout << "\nl1 (total flow)   = " << stats.l1
            << "\nl2 norm of flow   = " << stats.l2
            << "\nmax flow (l_inf)  = " << stats.linf
            << "\nmean / stddev     = " << stats.mean << " / " << stats.stddev
            << "\n";

  const FairnessReport fairness = fairness_report(schedule);
  std::cout << "\nJain index (time-avg) = " << fairness.jain_time_avg
            << "   (RR is 1.0 by construction)\n"
            << "max service lag       = " << fairness.max_service_lag << "\n";
  return 0;
}
