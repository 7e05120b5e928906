// Differential LP fuzz runner for CI smoke jobs.
//
//   lp_fuzz [--count N] [--seed S] [--out file.json]
//
// Runs run_lp_fuzz() (float simplex vs exact-rational solver vs min-cost
// flow, see src/lpsolve/lp_fuzz.h), prints a summary, optionally writes a
// JSON artifact recording the seed, and exits nonzero on any disagreement.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/cli.h"
#include "lpsolve/lp_fuzz.h"

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using tempofair::harness::CliError;
  using tempofair::lpsolve::LpFuzzOptions;
  using tempofair::lpsolve::LpFuzzReport;

  LpFuzzOptions options;
  tempofair::harness::Options cli(
      "lp_fuzz",
      "Differential LP fuzz: float simplex vs exact-rational solver vs\n"
      "min-cost flow.  Exits 1 on any disagreement.");
  cli.value("count", static_cast<long>(options.count), "random LPs to solve")
      .value("out", std::string(), "write a JSON artifact here");
  tempofair::harness::add_seed_flag(cli, static_cast<long>(options.seed));

  std::string out_path;
  try {
    const tempofair::harness::Parsed parsed = cli.parse(argc, argv);
    if (parsed.help_requested()) {
      cli.print_help(std::cout);
      return 0;
    }
    if (!parsed.positional().empty()) {
      throw CliError("lp_fuzz: unexpected argument " + parsed.positional()[0]);
    }
    const long count = parsed.get_int("count");
    if (count < 1) throw CliError("--count: must be >= 1");
    const long seed = parsed.get_int("seed");
    if (seed < 0) throw CliError("--seed: must be >= 0");
    options.count = static_cast<std::size_t>(count);
    options.seed = static_cast<std::uint64_t>(seed);
    out_path = parsed.get_string("out");
  } catch (const CliError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const LpFuzzReport rep = tempofair::lpsolve::run_lp_fuzz(options);

  std::cout << "lp_fuzz: seed=" << rep.seed << " cases=" << rep.count
            << " (optimal=" << rep.optimal << " infeasible=" << rep.infeasible
            << " unbounded=" << rep.unbounded
            << " iter_limit=" << rep.iter_limit << ")"
            << " certified=" << rep.certified
            << " warm_starts=" << rep.warm_starts
            << " flow_cases=" << rep.flow_cases
            << " flow_merged_cases=" << rep.flow_merged_cases
            << " disagreements=" << rep.disagreements.size() << "\n";
  for (const auto& d : rep.disagreements) {
    std::cout << "  case " << d.case_index << ": " << d.what << "\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "lp_fuzz: cannot write " << out_path << "\n";
      return 2;
    }
    out << "{\n"
        << "  \"seed\": " << rep.seed << ",\n"
        << "  \"count\": " << rep.count << ",\n"
        << "  \"optimal\": " << rep.optimal << ",\n"
        << "  \"infeasible\": " << rep.infeasible << ",\n"
        << "  \"unbounded\": " << rep.unbounded << ",\n"
        << "  \"iter_limit\": " << rep.iter_limit << ",\n"
        << "  \"certified\": " << rep.certified << ",\n"
        << "  \"warm_starts\": " << rep.warm_starts << ",\n"
        << "  \"flow_cases\": " << rep.flow_cases << ",\n"
        << "  \"flow_merged_cases\": " << rep.flow_merged_cases << ",\n"
        << "  \"disagreements\": [";
    bool first = true;
    for (const auto& d : rep.disagreements) {
      out << (first ? "\n" : ",\n") << "    {\"case\": " << d.case_index
          << ", \"what\": \"" << json_escape(d.what) << "\"}";
      first = false;
    }
    out << (first ? "]" : "\n  ]") << ",\n"
        << "  \"ok\": " << (rep.ok() ? "true" : "false") << "\n"
        << "}\n";
  }

  return rep.ok() ? 0 : 1;
}
