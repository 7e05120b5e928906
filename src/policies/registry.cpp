#include "policies/registry.h"

#include <charconv>
#include <stdexcept>

#include "policies/mlfq.h"
#include "policies/priority_policies.h"
#include "policies/quantum_rr.h"
#include "policies/round_robin.h"
#include "policies/setf.h"
#include "policies/weighted_policies.h"
#include "policies/weighted_rr.h"

namespace tempofair {

namespace {

double parse_double(std::string_view s, std::string_view what) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("make_policy: bad " + std::string(what) +
                                " value '" + std::string(s) + "'");
  }
  return v;
}

}  // namespace

std::unique_ptr<Policy> make_policy(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  const std::string_view args =
      colon == std::string_view::npos ? std::string_view{} : spec.substr(colon + 1);

  std::unique_ptr<Policy> plain;  // the policies that take no argument
  if (name == "rr") plain = std::make_unique<RoundRobin>();
  if (name == "srpt") plain = std::make_unique<Srpt>();
  if (name == "sjf") plain = std::make_unique<Sjf>();
  if (name == "fcfs") plain = std::make_unique<Fcfs>();
  if (name == "setf") plain = std::make_unique<Setf>();
  if (name == "wrr") plain = std::make_unique<WeightedRoundRobin>();
  if (name == "mlfq") plain = std::make_unique<Mlfq>();
  if (name == "hdf") plain = std::make_unique<Hdf>();
  if (name == "hrdf") plain = std::make_unique<Hrdf>();
  if (name == "wprr") plain = std::make_unique<WeightProportionalRoundRobin>();
  if (plain != nullptr) {
    if (colon != std::string_view::npos) {
      throw std::invalid_argument("make_policy: policy '" + std::string(name) +
                                  "' takes no arguments (spec '" +
                                  std::string(spec) + "')");
    }
    return plain;
  }
  if (name == "laps") {
    const double beta = args.empty() ? 0.5 : parse_double(args, "laps beta");
    return std::make_unique<Laps>(beta);
  }
  if (name == "qrr") {
    if (args.empty()) return std::make_unique<QuantumRoundRobin>(1.0);
    const std::size_t comma = args.find(',');
    const double quantum =
        parse_double(args.substr(0, comma), "qrr quantum");
    const double cs = comma == std::string_view::npos
                          ? 0.0
                          : parse_double(args.substr(comma + 1), "qrr switch_cost");
    return std::make_unique<QuantumRoundRobin>(quantum, cs);
  }
  throw std::invalid_argument("make_policy: unknown policy spec '" +
                              std::string(spec) + "'");
}

std::vector<std::string> builtin_policy_specs() {
  return {"rr",   "srpt", "sjf",  "fcfs", "setf",    "wrr",
          "mlfq", "laps:0.5", "hdf",  "hrdf", "wprr", "qrr:0.5"};
}

}  // namespace tempofair
