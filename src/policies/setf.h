// SETF -- Shortest Elapsed Time First (a.k.a. LAS / foreground-background).
//
// Non-clairvoyant: priorities are by *attained* service, least first.  On m
// machines, machines are handed out to jobs in increasing order of attained
// service; a group of jobs tied at the same attained level shares whatever
// machines remain so the tie is preserved (the exact fluid SETF of
// Barcelo-Im-Moseley-Pruhs, MedAlg'12).
//
// Between events the lowest group catches up to the next attained level, so
// the policy reports a breakpoint at the earliest catch-up time -- the engine
// then re-queries and the groups merge.  This makes the simulation exact.
//
// The allocation rule itself lives in core/share_rules.h: rates() sorts
// (setf_rates) and calls setf_grant, the one body FastForwardCore's
// kEqualAttained kernel also calls over its kept order -- which is what
// makes the fast path bitwise-equal.
#pragma once

#include "core/policy.h"
#include "core/share_rules.h"

namespace tempofair {

class Setf final : public Policy {
 public:
  /// `level_tolerance` is the relative tolerance under which two attained-
  /// service values count as the same level (ties must be grouped or the
  /// simulation degenerates into infinitely many tiny steps).
  explicit Setf(double level_tolerance = 1e-9);

  [[nodiscard]] std::string_view name() const noexcept override { return "setf"; }
  [[nodiscard]] bool clairvoyant() const noexcept override { return false; }
  [[nodiscard]] RateDecision rates(const SchedulerContext& ctx) override;

  /// Epoch-coalescing closed form: the kernel runs the same
  /// share_rules::setf_grant over its kept attained order (contract C1).
  [[nodiscard]] FastForward fast_forward() const noexcept override;

 private:
  double tol_;
  share_rules::SetfScratch scratch_;  // buffers only; no rule state (C2)
};

}  // namespace tempofair
