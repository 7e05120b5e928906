// Adversary-search records: the instance-plus-certificate archive format.
//
// One record is one searched instance together with everything needed to
// re-verify it from scratch on another day (or another machine): the
// (policy, k, machines, speed) cell it stresses, the exact instance
// (releases and sizes serialized with %.17g so every double round-trips
// bit-for-bit), the LP discretization the certificate used, and the measured
// numbers.  The re-verification invariant (enforced by verify_record in
// adversary.h, the search tests, and the nightly CI job): an archived record
// is never trusted beyond what a fresh policy run plus lpsolve's exact
// certificate machinery (verify_certificate) re-confirms.
//
// Format "tempofair-adversary-v1": a flat JSON object of numbers, strings
// and number arrays.  record_from_json accepts exactly what record_to_json
// emits plus insignificant whitespace; anything else throws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"

namespace tempofair::search {

inline constexpr const char* kRecordFormat = "tempofair-adversary-v1";

struct AdversaryRecord {
  std::string policy = "rr";  ///< policy spec (policies/registry.h)
  double k = 2.0;
  int machines = 1;
  double speed = 1.0;          ///< policy runs at this speed; OPT at speed 1
  std::uint64_t seed = 0;      ///< search seed that produced the record
  std::uint64_t budget = 0;    ///< screening-eval budget of that search
  std::uint64_t evals = 0;     ///< screening evals spent when this was found
  std::string family;          ///< seed family / "search" for mutated finds
  std::vector<double> releases;
  std::vector<double> sizes;
  /// LP discretization width the certificate used (the exact double, so
  /// re-verification rebuilds the identical grid).
  double lp_slot = 1.0;
  double cost_power = 0.0;     ///< sum_j F_j^k under `policy` at `speed`
  double certified_lb = 0.0;   ///< exact-certified lower bound on OPT^k
  /// (cost_power / certified_lb)^(1/k): an upper bound on the policy's
  /// l_k ratio on this instance, since certified_lb <= OPT^k.
  double ratio = 0.0;
};

/// Serializes `record` as the v1 JSON object (stable key order, %.17g
/// doubles): byte-identical output for identical records.
[[nodiscard]] std::string record_to_json(const AdversaryRecord& record);

/// Parses a v1 record.  Throws std::invalid_argument on malformed JSON, a
/// wrong/missing format marker, missing keys, or mismatched array lengths.
[[nodiscard]] AdversaryRecord record_from_json(const std::string& text);

/// The record's instance (ids in array order).  Throws std::invalid_argument
/// if the stored releases/sizes do not form a valid instance.
[[nodiscard]] Instance record_instance(const AdversaryRecord& record);

}  // namespace tempofair::search
