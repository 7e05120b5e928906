// FastForward: the epoch-coalescing capability a policy can opt into.
//
// Between consecutive arrivals ("an epoch") many policies allocate rates by
// a closed-form rule -- Round Robin serves every alive job at the same
// share, FCFS/SJF/SRPT dedicate whole machines to the top-m jobs of a fixed
// priority order, weight-proportional RR water-fills static weights.  Under
// such a rule the whole epoch is determined by one sorted structure over
// the alive set: completions happen in sorted remaining(-per-rate) order
// and every event is resolved analytically, with no per-event policy query,
// rate validation, completion-candidate scan, or RateDecision allocation.
//
// A policy opts in by overriding Policy::fast_forward() to return a
// descriptor of its closed form.  The engine then routes the run through
// FastForwardCore instead of the generic event loop.  The contract:
//
//   C1. The descriptor must produce *bitwise* the rates the policy's own
//       rates() would return for every alive set the run can reach.  The
//       kernel replays the generic loop's floating-point operations in the
//       same order (shared share formulas, min-by-monotone-division,
//       identical completion thresholds), so schedules -- completion times
//       and the full trace -- are byte-identical between the two paths.
//   C2. Either the policy is stateless across engine callbacks (on_arrival /
//       on_completion / rates() carry no state the allocation rule depends
//       on), or its state machine is replicated exactly inside the kernel
//       and the descriptor carries its parameters (kQuantumRR: the kernel
//       mirrors QuantumRoundRobin's queue/phase transitions event for
//       event).  The fast path never invokes the callbacks.
//   C3. The rule may depend only on the alive jobs' (id, release, size,
//       remaining, weight, attained -- the kernel maintains an attained
//       column with the generic loop's exact per-job arithmetic), the run
//       constants (machines, speed), and -- for kQuantumRR -- the
//       replicated queue/phase state.  Breakpoints are allowed only when
//       the kernel reproduces them bit for bit (the quantum/switch
//       expiries of kQuantumRR, the shared-rule breakpoints of
//       kEqualAttained/kLevelPriority).
//
// Attained-service and arrival-order rules (SETF, LAPS, MLFQ) qualify via
// core/share_rules.h: the one rule body is a template both the policy's
// rates() and the kernel instantiate, so the two paths execute identical
// floating-point programs.  For SETF and MLFQ the policy sorts and the
// kernel keeps the sorted order; both then call the same grant / select.  Policies with breakpoints the kernel does not
// model or with genuinely dynamic allocation state (age-weighted WRR) keep
// kind = kNone and run on the generic loop unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tempofair {

enum class FastForwardKind : std::uint8_t {
  /// No closed form; the generic event loop is used.
  kNone = 0,
  /// Every alive job receives the same rate, given by uniform_share()
  /// (Round Robin: speed * min(1, m / n)).  Completions happen in sorted
  /// remaining-work order.
  kUniformShare,
  /// Rates are waterfill(static weights, s*m, s) -- weight-proportional RR.
  /// Shares only change at events; completions in sorted remaining/rate
  /// order, recomputed per event via the same waterfill the policy calls.
  kWeightedShare,
  /// The m highest-priority alive jobs each run on a full machine (rate =
  /// speed), the rest wait at rate 0.  Priority is one of PriorityOrder;
  /// only the running jobs' remaining work changes, so the sorted order is
  /// maintained incrementally across events.
  kTopPriority,
  /// Time-sliced Round Robin (QuantumRoundRobin): the kernel replicates the
  /// policy's ready-queue/phase state machine -- first min(m, queue) jobs
  /// run at full speed for one quantum, rotate to the back, optionally
  /// separated by an all-idle context switch -- using the `quantum` /
  /// `switch_cost` fields below.  Epochs between quantum expiries are
  /// closed-form, so the run never queries the policy.
  kQuantumRR,
  /// Fluid SETF: machines go to jobs in increasing attained-service order,
  /// groups tied within `level_tolerance` share.  The kernel keeps the
  /// alive jobs sorted by share_rules::setf_before and runs
  /// share_rules::setf_grant -- the grant the policy's rates() runs after
  /// its sort -- each event, breakpoints (group catch-up) included.  The
  /// order is exact because (attained, id) is a strict total order and only
  /// the running jobs' attained changes (F3); those jobs are re-placed
  /// after each advance.  "Running" is every group the grant visits, which
  /// covers any group a rounding remainder of machines_left reaches.
  kEqualAttained,
  /// LAPS(beta): the ceil(beta*n) latest arrivals split the machines
  /// equally (share_rules::laps_rates); event-driven only, no breakpoint.
  kLatestArrival,
  /// MLFQ(base, growth): the m jobs of least (level, release, id) run at
  /// full speed, with level-crossing breakpoints.  The kernel keeps every
  /// alive job's level and the (level, release, id) order
  /// (share_rules::mlfq_before, a strict total order), refreshes the level
  /// of the jobs that ran, re-places those that crossed a threshold, and
  /// runs share_rules::mlfq_select -- as the policy's rates() does after
  /// its partial sort -- over the first m.
  kLevelPriority,
};

/// Priority orders for FastForwardKind::kTopPriority; each is the exact
/// strict weak order the corresponding policy's rates() uses, including
/// tie-breaks.
enum class FastForwardPriority : std::uint8_t {
  kReleaseThenId,           ///< FCFS: (release, id)
  kSizeThenReleaseThenId,   ///< SJF:  (size, release, id)
  kRemainingThenReleaseThenId,  ///< SRPT: (remaining, release, id)
};

/// The descriptor a policy returns from Policy::fast_forward().
struct FastForward {
  FastForwardKind kind = FastForwardKind::kNone;
  /// Only read when kind == kTopPriority.
  FastForwardPriority priority = FastForwardPriority::kReleaseThenId;
  /// Only read when kind == kUniformShare: the exact share formula, shared
  /// with the policy's rates() so both paths compute identical doubles.
  double (*uniform_share)(std::size_t n_alive, int machines,
                          double speed) = nullptr;
  /// Only read when kind == kWeightedShare: rates for the alive weights (in
  /// job-id order), again the very function the policy's rates() calls.
  std::vector<double> (*weighted_rates)(std::span<const double> weights,
                                        int machines, double speed) = nullptr;
  /// Only read when kind == kQuantumRR: the exact doubles the policy was
  /// constructed with, so the replicated state machine computes identical
  /// phase boundaries.
  double quantum = 0.0;
  double switch_cost = 0.0;
  /// Only read when kind == kEqualAttained: Setf's level_tolerance, verbatim.
  double level_tolerance = 0.0;
  /// Only read when kind == kLatestArrival: Laps's beta, verbatim.
  double beta = 0.0;
  /// Only read when kind == kLevelPriority: Mlfq's construction parameters,
  /// verbatim.
  double mlfq_base = 0.0;
  double mlfq_growth = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return kind != FastForwardKind::kNone;
  }
};

namespace obs_counters {
/// Epochs (maximal arrival-to-arrival segments) resolved by the kernel.
inline constexpr const char* kFastForwardEpochs = "engine.fastforward.epochs";
/// Events the kernel resolved analytically; each would have cost a policy
/// rates() query (vector allocation + validation + candidate scan) on the
/// generic loop.
inline constexpr const char* kFastForwardEvents = "engine.fastforward.events";
/// Runs that took the fast path end to end.
inline constexpr const char* kFastForwardRuns = "engine.fastforward.runs";
/// Jobs the kernel advanced, summed over events: Sigma alive for the
/// all-alive kinds, Sigma running for the kinds that advance only the
/// running jobs (kTopPriority, kQuantumRR, kEqualAttained, kLevelPriority).
inline constexpr const char* kFastForwardTouched =
    "engine.fastforward.touched";
}  // namespace obs_counters

}  // namespace tempofair
