#include "harness/cli.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <ostream>

#include "workload/source.h"

namespace tempofair::harness {

namespace detail {

long parse_long(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw CliError("--" + flag + ": expected an integer, got '" + text + "'");
  }
  if (errno == ERANGE) {
    throw CliError("--" + flag + ": integer out of range: '" + text + "'");
  }
  return parsed;
}

double parse_double(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw CliError("--" + flag + ": expected a number, got '" + text + "'");
  }
  if (errno == ERANGE) {
    throw CliError("--" + flag + ": number out of range: '" + text + "'");
  }
  return parsed;
}

std::string format_double(double v) {
  std::array<char, 32> buf;  // the longest shortest form is 24 characters
  const std::to_chars_result r =
      std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), r.ptr);
}

}  // namespace detail

Options::Options(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Options& Options::flag(const std::string& name, std::string help) {
  Spec spec;
  spec.kind = Kind::kFlag;
  spec.help = std::move(help);
  spec.fallback = false;
  add_spec(name, std::move(spec));
  return *this;
}

void Options::add_spec(const std::string& name, Spec spec) {
  if (name.empty() || name == "help" || find(name) != nullptr) {
    throw std::logic_error("Options: bad or duplicate option --" + name);
  }
  specs_.emplace_back(name, std::move(spec));
}

const Options::Spec* Options::find(const std::string& name) const {
  for (const auto& [n, spec] : specs_) {
    if (n == name) return &spec;
  }
  return nullptr;
}

Parsed Options::parse(int argc, const char* const* argv) const {
  Parsed parsed;
  for (const auto& [name, spec] : specs_) {
    parsed.values_[name] = spec.fallback;
    parsed.kinds_[name] = spec.kind;
  }
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      parsed.positional_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    std::string name = token;
    std::string inline_value;
    bool has_inline = false;
    if (const std::size_t eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
      has_inline = true;
    }
    if (name == "help") {
      parsed.help_ = true;
      continue;
    }
    const Spec* spec = find(name);
    if (spec == nullptr) {
      throw CliError(program_ + ": unknown option --" + name +
                     " (try --help)");
    }
    if (spec->kind == Kind::kFlag) {
      if (has_inline) {
        throw CliError("--" + name + " is a flag and takes no value");
      }
      parsed.values_[name] = true;
      parsed.given_.insert(name);
      continue;
    }
    // A separate value never starts with "--": "--out --csv" is a missing
    // value, not out="--csv".  "--out=--csv" still passes it inline.
    std::string text;
    if (has_inline) {
      text = std::move(inline_value);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      text = argv[++i];
    } else {
      throw CliError("--" + name + ": missing value");
    }
    switch (spec->kind) {
      case Kind::kInt:
        parsed.values_[name] = detail::parse_long(name, text);
        break;
      case Kind::kDouble:
        parsed.values_[name] = detail::parse_double(name, text);
        break;
      default:
        parsed.values_[name] = std::move(text);
        break;
    }
    parsed.given_.insert(name);
  }
  return parsed;
}

void Options::print_help(std::ostream& out) const {
  out << "usage: " << program_ << " [options]\n";
  if (!summary_.empty()) out << "\n" << summary_ << "\n";
  out << "\noptions:\n";
  auto left_column = [](const std::string& name, Kind kind) {
    std::string left = "--" + name;
    switch (kind) {
      case Kind::kInt: left += " <int>"; break;
      case Kind::kDouble: left += " <num>"; break;
      case Kind::kString: left += " <str>"; break;
      case Kind::kFlag: break;
    }
    return left;
  };
  std::size_t width = std::string("--help").size();
  for (const auto& [name, spec] : specs_) {
    width = std::max(width, left_column(name, spec.kind).size());
  }
  for (const auto& [name, spec] : specs_) {
    out << "  " << std::left << std::setw(static_cast<int>(width) + 2)
        << left_column(name, spec.kind) << spec.help;
    switch (spec.kind) {
      case Kind::kInt:
        out << " (default: " << std::get<long>(spec.fallback) << ")";
        break;
      case Kind::kDouble:
        out << " (default: " << std::get<double>(spec.fallback) << ")";
        break;
      case Kind::kString:
        if (!std::get<std::string>(spec.fallback).empty()) {
          out << " (default: " << std::get<std::string>(spec.fallback) << ")";
        }
        break;
      case Kind::kFlag:
        break;
    }
    out << "\n";
  }
  out << "  " << std::left << std::setw(static_cast<int>(width) + 2)
      << "--help" << "print this help\n";
}

const Options::Value& Parsed::lookup(const std::string& name,
                                     Options::Kind want) const {
  const auto kind_it = kinds_.find(name);
  if (kind_it == kinds_.end()) {
    throw CliError("Parsed: option --" + name + " was never registered");
  }
  if (kind_it->second != want) {
    throw CliError("Parsed: option --" + name +
                   " accessed with the wrong type");
  }
  return values_.at(name);
}

bool Parsed::flag(const std::string& name) const {
  return std::get<bool>(lookup(name, Options::Kind::kFlag));
}

bool Parsed::given(const std::string& name) const {
  return given_.count(name) > 0;
}

long Parsed::get_int(const std::string& name) const {
  return std::get<long>(lookup(name, Options::Kind::kInt));
}

double Parsed::get_double(const std::string& name) const {
  return std::get<double>(lookup(name, Options::Kind::kDouble));
}

const std::string& Parsed::get_string(const std::string& name) const {
  return std::get<std::string>(lookup(name, Options::Kind::kString));
}

Options& add_run_flags(Options& options) {
  const RunRequest defaults;
  return options
      .value("policy", defaults.policy,
             "policy spec (rr srpt sjf fcfs setf wrr mlfq hdf hrdf wprr "
             "laps:B qrr:Q[,CS])")
      .value("workload", defaults.workload,
             "workload spec (poisson:n=..,load=.. | mmpp:.. | uniform:.. | "
             "bursty:.. | adv-* | trace:PATH); empty = workload supplied "
             "out-of-band")
      .value("machines", static_cast<long>(defaults.machines),
             "identical machines")
      .value("speed", defaults.speed, "speed augmentation s (OPT at speed 1)")
      .flag("no-trace", "skip recording the rate trace (metrics-only runs)")
      .flag("hide-sizes", "hide job sizes from the policy (non-clairvoyant)")
      .value("max-steps", static_cast<long>(defaults.max_steps),
             "abort after this many engine iterations")
      .value("max-time", 0.0, "abort if the simulated clock passes this (0 = off)")
      .flag("no-fast-path", "force the generic event loop")
      .value("invariants", to_string(defaults.invariants),
             "invariant checking mode (off sampled exhaustive)")
      .value("invariant-period",
             static_cast<long>(defaults.invariant_sample_period),
             "check every Nth epoch in sampled mode");
}

RunRequest run_request_from_flags(const Parsed& parsed) {
  RunRequest request;
  request.policy = parsed.get_string("policy");
  const long machines = parsed.get_int("machines");
  if (machines < 1) throw CliError("--machines: must be >= 1");
  request.machines = static_cast<int>(machines);
  request.speed = parsed.get_double("speed");
  if (!(request.speed > 0.0)) throw CliError("--speed: must be > 0");
  request.record_trace = !parsed.flag("no-trace");
  request.hide_sizes = parsed.flag("hide-sizes");
  const long max_steps = parsed.get_int("max-steps");
  if (max_steps < 1) throw CliError("--max-steps: must be >= 1");
  request.max_steps = static_cast<std::size_t>(max_steps);
  const double max_time = parsed.get_double("max-time");
  if (max_time < 0.0) throw CliError("--max-time: must be >= 0");
  if (max_time > 0.0) request.max_time = max_time;
  request.use_fast_path = !parsed.flag("no-fast-path");
  try {
    request.invariants = parse_invariant_mode(parsed.get_string("invariants"));
  } catch (const std::invalid_argument&) {
    throw CliError("--invariants: expected off, sampled or exhaustive, got '" +
                   parsed.get_string("invariants") + "'");
  }
  const long invariant_period = parsed.get_int("invariant-period");
  if (invariant_period < 1) throw CliError("--invariant-period: must be >= 1");
  request.invariant_sample_period = static_cast<std::size_t>(invariant_period);
  request.workload = parsed.get_string("workload");
  if (!request.workload.empty()) {
    // Parse + resolve now so a typo dies at flag-parsing time with a usable
    // message, not deep inside the run.
    try {
      (void)workload::make_source(request.workload);
    } catch (const workload::SpecError& e) {
      throw CliError("--workload: " + std::string(e.what()));
    }
  }
  return request;
}

Options& add_jobs_flag(Options& options) {
  return options.value("jobs", 0L,
                       "worker threads (0 = hardware concurrency)");
}

Options& add_quiet_flag(Options& options) {
  return options.flag("quiet", "suppress progress and summary output on stderr");
}

Options& add_smoke_flag(Options& options) {
  return options.flag("smoke", "scale workloads down for a fast CI smoke run");
}

Options& add_seed_flag(Options& options, long fallback) {
  return options.value("seed", fallback, "RNG seed for generated workloads");
}

}  // namespace tempofair::harness
