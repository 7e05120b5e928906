// Packet fairness on a shared link: the application domain in which the
// paper situates Round Robin's practical use ([8] Chaskar-Madhow, [17]
// Hahne, [25] Shreedhar-Varghese).  A few flows with very different packet
// sizes share one link; compare FIFO, DRR and (weighted) SCFQ.
//
//   ./packet_fairness [--flows F] [--rate R]
#include <cmath>
#include <iostream>

#include "analysis/report.h"
#include "harness/cli.h"
#include "netsim/schedulers.h"

using namespace tempofair;
using namespace tempofair::netsim;

namespace {

std::vector<Packet> backlogged(FlowId flows, double bytes_per_flow) {
  std::vector<Packet> packets;
  for (FlowId f = 0; f < flows; ++f) {
    const double size = std::pow(2.0, f);  // sizes 1, 2, 4, ...
    const auto count = static_cast<std::size_t>(bytes_per_flow / size);
    for (std::size_t i = 0; i < count; ++i) packets.push_back(Packet{f, size, 0.0});
  }
  return packets;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Options options("packet_fairness");
  options.value("flows", 4, "flows sharing the link")
      .value("rate", 1.0, "link rate");
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
  const FlowId flows = static_cast<FlowId>(cli.get_int("flows"));
  const double rate = cli.get_double("rate");

  const auto packets = backlogged(flows, 2048.0);
  const double window = 2048.0;  // every flow stays backlogged this long

  std::cout << flows << " backlogged flows, packet sizes 1, 2, 4, ... share a"
            << " rate-" << rate << " link.\n"
            << "A fair scheduler gives each flow an equal share of BYTES, no\n"
            << "matter how its traffic is packetized.\n";

  analysis::Table table("scheduler fairness over the backlogged window",
                        {"scheduler", "jain_index", "min/max_share"});
  {
    FifoScheduler fifo;
    const auto r = simulate_link(packets, fifo, rate, window);
    table.add_row({"fifo", analysis::Table::num(r.jain_throughput, 4),
                   analysis::Table::num(r.min_max_share, 3)});
  }
  {
    DrrScheduler drr(std::pow(2.0, flows - 1));  // quantum >= max packet
    const auto r = simulate_link(packets, drr, rate, window);
    table.add_row({"drr", analysis::Table::num(r.jain_throughput, 4),
                   analysis::Table::num(r.min_max_share, 3)});
  }
  {
    ScfqScheduler wfq;
    const auto r = simulate_link(packets, wfq, rate, window);
    table.add_row({"wfq(scfq)", analysis::Table::num(r.jain_throughput, 4),
                   analysis::Table::num(r.min_max_share, 3)});
  }
  table.print(std::cout);

  std::cout << "\nDRR is the packetized Round Robin: the instantaneous-"
               "fairness\nproperty the paper starts from, realized with O(1) "
               "work per packet.\n";
  return 0;
}
