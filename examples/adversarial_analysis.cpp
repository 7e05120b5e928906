// Adversarial analysis walkthrough: builds the hard families, measures RR's
// competitive-ratio bracket against the LP lower bound, and then runs the
// paper's dual-fitting construction on the actual RR schedule, printing the
// full certificate -- the closest thing to "watching the proof execute".
//
//   ./adversarial_analysis [--depth L] [--k K] [--eps E]
#include <iostream>

#include "analysis/competitive.h"
#include "analysis/dualfit.h"
#include "analysis/report.h"
#include "core/engine.h"
#include "harness/cli.h"
#include "policies/round_robin.h"
#include "workload/adversarial.h"

using namespace tempofair;

int main(int argc, char** argv) {
  harness::Options options("adversarial_analysis");
  options.value("depth", 9, "adversarial family depth")
      .value("k", 2.0, "l_k norm exponent")
      .value("eps", 0.05, "dual-fitting epsilon");
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
  const int depth = static_cast<int>(cli.get_int("depth"));
  const double k = cli.get_double("k");
  const double eps = cli.get_double("eps");

  const Instance inst = workload::geometric_levels(depth);
  std::cout << "Adversarial family: geometric_levels(" << depth << ") -- "
            << inst.summary() << "\n";

  // 1. Ratio bracket across speeds.
  analysis::Table ratios("RR l" + analysis::Table::num(k, 0) +
                             " competitive-ratio bracket",
                         {"speed", "ratio_vs_lb", "ratio_vs_proxy"});
  lpsolve::OptBoundsOptions bo;
  bo.k = k;
  const auto bounds = lpsolve::opt_bounds(inst, bo);
  for (double speed : {1.0, 1.5, 2.0, 3.0, 4.4}) {
    RoundRobin rr;
    analysis::RatioOptions opt;
    opt.k = k;
    opt.speed = speed;
    const auto m = analysis::measure_ratio(inst, rr, opt, bounds);
    ratios.add_row({analysis::Table::num(speed, 1),
                    analysis::Table::num(m.ratio_vs_lb, 2),
                    analysis::Table::num(m.ratio_vs_proxy, 2)});
  }
  ratios.print(std::cout);

  // 2. The dual-fitting certificate at the theorem speed.
  const double eta = analysis::theorem1_speed(k, eps);
  RunRequest req;
  req.policy = "rr";
  req.speed = eta;
  const Schedule schedule = run(inst, req).schedule;
  analysis::DualFitOptions dopt;
  dopt.k = k;
  dopt.eps = eps;
  const auto cert = analysis::dual_fit_certificate(schedule, dopt);

  std::cout << "\nDual-fitting certificate at eta = 2k(1+10eps) = " << eta
            << " (k=" << k << ", eps=" << eps << ", gamma=" << cert.gamma
            << "):\n"
            << "  RR^k (sum of F_j^k)        = " << cert.rr_power << "\n"
            << "  sum alpha_j                = " << cert.alpha_sum << "\n"
            << "  m * integral beta_t dt     = " << cert.beta_term << "\n"
            << "  dual objective             = " << cert.dual_objective << "\n"
            << "  Lemma 1 (alpha >= (1/2-eps)RR^k)  : "
            << (cert.lemma1_ok ? "HOLDS" : "FAILS") << "\n"
            << "  Lemma 2 (beta <= (1/2-2eps)RR^k)  : "
            << (cert.lemma2_ok ? "HOLDS" : "FAILS") << "\n"
            << "  dual feasibility (Lemmas 3-4)     : "
            << (cert.feasible ? "HOLDS" : "FAILS")
            << "  (min slack " << cert.min_slack << ")\n"
            << "  objective >= eps * RR^k           : "
            << (cert.objective_ok ? "HOLDS" : "FAILS")
            << "  (ratio " << cert.objective_ratio << ")\n"
            << "  => certificate " << (cert.certificate_valid() ? "VALID" : "INVALID")
            << "; implied l_k ratio bound at this speed: "
            << analysis::Table::num(cert.implied_lk_ratio, 1) << "\n";

  std::cout << "\n(The implied bound is loose -- gamma = k(k/eps)^k -- but it\n"
               "is a *proof*, verified numerically on this very schedule; the\n"
               "measured table above shows the actual ratios.)\n";
  return 0;
}
