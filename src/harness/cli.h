// Command-line parsing shared by the tools and examples.
//
// Options / Parsed is the one typed API.  Options are registered up front
// (opt.flag("csv"), opt.value<double>("speed", 4.4, "help")), --help is
// generated from the registrations, unknown flags, missing values and
// malformed values are hard CliError-s, and Parsed hands back typed values
// with the registered fallback filled in.
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/engine.h"

namespace tempofair::harness {

/// Parse failure: unknown option, missing or malformed value.  Derives from
/// std::invalid_argument so legacy catch sites keep working.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {
/// Strict numeric parses: the whole token must be consumed and in range;
/// errors name the offending flag.  Used by Options and by callers that
/// parse numeric text of their own.
[[nodiscard]] long parse_long(const std::string& flag, const std::string& text);
[[nodiscard]] double parse_double(const std::string& flag,
                                  const std::string& text);
/// The shortest decimal text that parse_double() reads back as exactly `v`,
/// for handing a parsed number on as text without rounding it.
[[nodiscard]] std::string format_double(double v);
}  // namespace detail

class Parsed;

/// Typed option registration; parse() validates argv against it.
class Options {
 public:
  explicit Options(std::string program, std::string summary = "");

  /// Registers a boolean flag (--name, no value).
  Options& flag(const std::string& name, std::string help = "");

  /// Registers a valued option with a typed fallback.  T must be an
  /// integral type (stored as long), double, or a string type.
  template <typename T>
  Options& value(const std::string& name, T fallback, std::string help = "") {
    Spec spec;
    spec.help = std::move(help);
    if constexpr (std::is_same_v<std::decay_t<T>, double> ||
                  std::is_same_v<std::decay_t<T>, float>) {
      spec.kind = Kind::kDouble;
      spec.fallback = static_cast<double>(fallback);
    } else if constexpr (std::is_integral_v<std::decay_t<T>>) {
      spec.kind = Kind::kInt;
      spec.fallback = static_cast<long>(fallback);
    } else {
      spec.kind = Kind::kString;
      spec.fallback = std::string(std::move(fallback));
    }
    add_spec(name, std::move(spec));
    return *this;
  }

  /// Parses argv.  Throws CliError on an unknown option, a flag given a
  /// value, a missing value, or a value that fails its type's parse.  A
  /// value given as the next argument must not start with "--" (that is
  /// the next flag); pass such a value inline, as --name=--text.
  /// --help sets Parsed::help_requested() instead of failing.
  [[nodiscard]] Parsed parse(int argc, const char* const* argv) const;

  /// The generated usage/option listing (what --help should print).
  void print_help(std::ostream& out) const;

 private:
  friend class Parsed;
  enum class Kind { kFlag, kInt, kDouble, kString };
  using Value = std::variant<bool, long, double, std::string>;
  struct Spec {
    Kind kind = Kind::kFlag;
    std::string help;
    Value fallback = false;
  };

  void add_spec(const std::string& name, Spec spec);
  [[nodiscard]] const Spec* find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::vector<std::pair<std::string, Spec>> specs_;  // registration order
};

/// The result of Options::parse: every registered option resolved to a
/// typed value (given on the command line, or the registered fallback).
class Parsed {
 public:
  /// True if the registered flag --name was passed.
  [[nodiscard]] bool flag(const std::string& name) const;
  /// True if --name appeared on the command line (flag or valued).
  [[nodiscard]] bool given(const std::string& name) const;
  [[nodiscard]] long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] bool help_requested() const noexcept { return help_; }

 private:
  friend class Options;
  [[nodiscard]] const Options::Value& lookup(const std::string& name,
                                             Options::Kind want) const;

  std::map<std::string, Options::Value> values_;
  std::map<std::string, Options::Kind> kinds_;
  std::set<std::string> given_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

// --- Shared flag vocabulary -------------------------------------------------
//
// Every tool in the family (tempofair-sim, tempofair_bench, perf_gate,
// lp_fuzz) registers its flags from these helpers, so
// a flag spelled the same always means the same thing, with the same
// default and the same strict parsing, everywhere.  Tools opt into the
// groups they support.

/// --policy --workload --machines --speed --no-trace --hide-sizes
/// --max-steps --max-time --no-fast-path --invariants --invariant-period:
/// everything needed to describe one engine run.  --workload takes a
/// WorkloadSpec string (workload/spec.h) and replaces the per-tool bespoke
/// generator flags; it is validated at parse time so typos exit nonzero
/// with the spec error message.
Options& add_run_flags(Options& options);

/// Builds a RunRequest from flags registered by add_run_flags.
[[nodiscard]] RunRequest run_request_from_flags(const Parsed& parsed);

/// --jobs N: worker threads for the shared pool (0 = hardware concurrency).
Options& add_jobs_flag(Options& options);

/// --quiet: suppress progress/summary chatter on stderr.
Options& add_quiet_flag(Options& options);

/// --smoke: scale workloads down for a fast CI smoke run.
Options& add_smoke_flag(Options& options);

/// --seed N: RNG seed for generated workloads.
Options& add_seed_flag(Options& options, long fallback = 1);

}  // namespace tempofair::harness
