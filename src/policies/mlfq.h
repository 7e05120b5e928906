// MLFQ -- Multi-Level Feedback Queue, the classic OS approximation of SETF.
//
// Non-clairvoyant.  Level thresholds grow geometrically: a job is in level
// L(a) = number of thresholds T_i = base * growth^i that its attained service
// a has passed.  The m alive jobs of lexicographically least (level, release,
// id) run at full speed; a running job is demoted (re-queried via the
// breakpoint) when its attained service crosses its current threshold.
//
// The allocation rule lives in core/share_rules.h (mlfq_rates, with levels
// read from an MlfqThresholds table of T_0..T_63 instead of a log per job):
// rates() computes levels, partially sorts and calls mlfq_select, the one
// body FastForwardCore's kLevelPriority kernel also calls over its kept
// order, so the fast path is bitwise-equal to the event loop.
#pragma once

#include "core/policy.h"
#include "core/share_rules.h"

namespace tempofair {

class Mlfq final : public Policy {
 public:
  explicit Mlfq(double base_quantum = 1.0, double growth = 2.0);

  [[nodiscard]] std::string_view name() const noexcept override { return "mlfq"; }
  [[nodiscard]] bool clairvoyant() const noexcept override { return false; }
  [[nodiscard]] RateDecision rates(const SchedulerContext& ctx) override;

  /// Epoch-coalescing closed form: the kernel runs the same
  /// share_rules::mlfq_select over its kept level order (contract C1).
  [[nodiscard]] FastForward fast_forward() const noexcept override;

  /// Threshold above which a job leaves `level` (T_level).
  [[nodiscard]] double threshold(int level) const noexcept;
  /// Level of a job with attained service `attained`.
  [[nodiscard]] int level_of(double attained) const noexcept;

 private:
  double base_;
  double growth_;
  // Buffers plus the threshold table of (base_, growth_); no rule state (C2).
  share_rules::MlfqScratch scratch_;
};

}  // namespace tempofair
