// WorkloadSpec: the declarative description of a workload.
//
// Every workload in the system -- synthetic generator, adversarial family,
// real-trace replay -- is named by one spec, written as a single string so
// it can ride a RunRequest, a CLI flag, or a JSON artifact unchanged:
//
//   kind[:param=value[,param=value...]]
//
//   poisson:n=1000,load=0.9,dist=exp(1),seed=7      Poisson arrivals
//   uniform:n=100,gap=1,size=1                      deterministic stream
//   bursty:bursts=10,per=10,gap=10,dist=exp(1)      batched arrivals
//   adv-rr-l2-hard:n=40                             hard families
//   adv-srpt-starvation:stream=200,big=2,gap=1
//   adv-overload-pulse:pulses=4,burst=32,machines=2
//   adv-staircase:n=16
//   adv-geometric:levels=8,spacing=1.05
//   trace:path/to/file.csv                          replay a recorded trace
//
// Distribution values use the parenthesized form (`dist=pareto(1.8,0.5)`) so
// the top-level comma stays unambiguous.  parse() and to_string() round-trip;
// semantic validation (unknown kinds/params, bad ranges) happens in
// make_source() (workload/source.h), so one error path covers flags and
// programmatic construction alike.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/generators.h"

namespace tempofair::workload {

/// Malformed or semantically invalid workload spec.  Derives from
/// std::invalid_argument so CLI layers can map it onto their usage errors.
class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct WorkloadSpec {
  std::string kind;
  /// key=value pairs in spelling order (order is preserved by to_string()
  /// so a spec echoes back the way the caller wrote it).
  std::vector<std::pair<std::string, std::string>> params;

  /// Parses `kind:params`.  Throws SpecError on empty kind, a parameter
  /// without '=', or a duplicate key.  For `trace:` everything after the
  /// first ':' is the path, verbatim (paths may contain ',' and '=').
  [[nodiscard]] static WorkloadSpec parse(std::string_view text);

  /// The canonical one-string form; parse(to_string()) == *this.
  [[nodiscard]] std::string to_string() const;

  // --- parameter access -----------------------------------------------------
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;
  [[nodiscard]] bool has(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  /// Typed lookups; throw SpecError naming the key on a malformed value.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] long get_int(std::string_view key, long fallback) const;
  /// The `seed` parameter (default 1): every randomized source derives all
  /// of its randomness from this, so equal specs yield equal workloads.
  [[nodiscard]] std::uint64_t seed() const;
  /// The `dist` parameter parsed as a size distribution (default exp(1)).
  [[nodiscard]] SizeDist dist() const;

  /// Sets `key` to `value`, replacing an existing entry in place.
  WorkloadSpec& set(std::string key, std::string value);
  WorkloadSpec& set(std::string key, double value);
  WorkloadSpec& set(std::string key, long value);

  // --- canonical builders (the programmatic spelling of the grammar) --------
  [[nodiscard]] static WorkloadSpec poisson(std::size_t n, double load,
                                            const SizeDist& dist,
                                            std::uint64_t seed = 1,
                                            int machines = 1);
  [[nodiscard]] static WorkloadSpec uniform(std::size_t n, double gap,
                                            double size, double start = 0.0);
  [[nodiscard]] static WorkloadSpec bursty(std::size_t bursts,
                                           std::size_t per_burst, double gap,
                                           const SizeDist& dist,
                                           std::uint64_t seed = 1);
  [[nodiscard]] static WorkloadSpec trace(std::string path);

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// Parses `name(args...)` (or bare `name`) as a size distribution:
/// fixed(S) uniform(LO,HI) exp(MEAN) pareto(ALPHA,XMIN[,CAP])
/// bimodal(P,SMALL,LARGE).  Throws SpecError on anything else.
[[nodiscard]] SizeDist parse_size_dist(std::string_view text);

/// The canonical spec spelling of a distribution;
/// parse_size_dist(size_dist_spec(d)) == d.
[[nodiscard]] std::string size_dist_spec(const SizeDist& dist);

}  // namespace tempofair::workload
