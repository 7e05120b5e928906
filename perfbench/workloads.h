// The benchmark's workloads.  Each one builds its inputs from the seed in
// setup(), then runs items in a fixed order: item i is the same call on the
// same inputs in every pass, so a traced pass can replay an untraced one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tracer.h"

namespace perfbench {

struct ItemResult {
  std::string label;  ///< the item's cell, e.g. "rr" or "k2-m4-eta"
  /// Simulation outputs (flow norms, dual-fit objective ratios): compared
  /// bit for bit between traced and untraced passes, and against the
  /// committed reference for the default seed.
  std::vector<double> outputs;
  /// Bound values (certified lower bounds, proxy upper bounds, certified
  /// ratios): compared bit for bit between traced and untraced passes, but
  /// not pinned to the reference, so a tighter LP can land.
  std::vector<double> bounds;
  /// proxy_ub / certified_lb for items that bracket OPT; 0 otherwise.
  double bracket = 0.0;
  std::string error;  ///< first failed check; empty when the item passed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs for `seed`, replacing any earlier ones.  Throws on a
  /// failed set-up check.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  /// Items per cycle.  The timed loop runs whole cycles so every run weighs
  /// the cells alike.
  [[nodiscard]] virtual std::size_t cycle() const = 0;
  /// Runs item `index`, checking its outputs.
  [[nodiscard]] virtual ItemResult run(std::size_t index, Tracer* tracer) = 0;
};

/// The named workload at full size, or at smoke size for the self-test.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      bool smoke);

}  // namespace perfbench
