// Speed-up curves walkthrough: why the paper's Theorem 1 was a surprise.
//
// In the arbitrary speed-up curves setting (jobs alternate parallelizable
// and sequential phases), EQUI -- Round Robin's counterpart -- fails for the
// l2 norm no matter the constant speed [15], and the fix known before this
// paper was to re-weight shares toward the latest arrivals (WLAPS [12]).
// This example builds the hard stream, lets you watch EQUI's ratio grow,
// and shows the WLAPS fix -- then contrasts with the standard setting where
// plain RR is fine (Theorem 1).
//
//   ./speedup_curves [--n N] [--seq S] [--gap G]
#include <iostream>

#include "analysis/report.h"
#include "core/metrics.h"
#include "harness/cli.h"
#include "parsim/parsim.h"

using namespace tempofair;
using namespace tempofair::parsim;

int main(int argc, char** argv) {
  harness::Options options("speedup_curves");
  options.value("n", 120, "jobs in the hard stream")
      .value("seq", 3.0, "sequential phase length")
      .value("gap", 1.3, "release gap");
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
  const std::size_t n = static_cast<std::size_t>(cli.get_int("n"));
  const double seq = cli.get_double("seq");
  const double gap = cli.get_double("gap");

  std::cout << "Stream of " << n << " jobs: parallel(1.0) then sequential("
            << seq << "), arriving every " << gap << ".\n"
            << "A sequential phase runs at rate 1 no matter how many\n"
            << "processors it holds -- EQUI cannot see that and keeps feeding\n"
            << "it an equal share.\n";

  const auto jobs = par_seq_stream(n, 1.0, seq, gap);
  ParOptProxy proxy;
  ParSimOptions opt;
  const double proxy_l2 = lk_norm(simulate_par(jobs, proxy, opt).flows(), 2.0);

  analysis::Table table("l2 norm of flow vs the clairvoyant proxy (" +
                            analysis::Table::num(proxy_l2, 1) + ")",
                        {"policy", "l2", "ratio"});
  auto report = [&](ParPolicy& p) {
    const double l2 = lk_norm(simulate_par(jobs, p, opt).flows(), 2.0);
    table.add_row({std::string(p.name()), analysis::Table::num(l2, 1),
                   analysis::Table::num(l2 / proxy_l2, 2)});
  };
  Equi equi;
  Wequi wequi;
  LapsPar laps(0.5);
  WlapsPar wlaps(0.5);
  report(equi);
  report(wequi);
  report(laps);
  report(wlaps);
  table.print(std::cout);

  std::cout << "\nRe-run with larger --n: equi's ratio keeps growing, wlaps'\n"
               "stays flat.  In the STANDARD setting of the paper (no\n"
               "sequential phases) the same Round Robin needs no weighting at\n"
               "all -- that is Theorem 1; see ./adversarial_analysis.\n";
  return 0;
}
