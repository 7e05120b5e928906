// Adversarial instance families.
//
// Competitive analysis is a worst-case guarantee, so the experiment suite
// exercises the known hard families:
//
//  * rr_l2_hard(n): the batch-plus-stream family behind the cited lower
//    bound (Bansal-Pruhs'10): RR is Omega(n^{2*eps_p})-competitive for the
//    l2 norm at (1+eps)-speed, i.e. not O(1)-competitive below speed 3/2.
//    A batch of n unit jobs arrives at time 0; a long stream of unit jobs
//    then arrives at (just under) the machine's service rate.  RR splits the
//    machine over the whole population so *every* stream job ages ~n, while
//    OPT finishes each stream job immediately and drains the batch with the
//    leftover capacity.  Squaring the per-job flows makes RR's cost blow up
//    with n; extra speed lets RR drain the batch and the effect vanishes --
//    exactly the crossover Theorem 1 vs. [4] predicts (experiments F1/F4).
//
//  * srpt_starvation(n): one large job plus a near-saturating stream of unit
//    jobs.  SRPT (and SJF) starve the large job for the whole stream -- the
//    l_infinity / variance pathology motivating temporal fairness (F3) --
//    while RR keeps serving it.
//
//  * overload_pulse(...): repeated overload bursts into an otherwise idle
//    system; stresses the overloaded/underloaded case split (T_o vs T_u) of
//    the paper's dual construction on multiple machines.
//
//  * staircase(n): n jobs with geometrically shrinking sizes arriving
//    back-to-back; a classic instance separating size-aware policies from
//    oblivious ones.
#pragma once

#include "core/instance.h"

namespace tempofair::workload {

/// Batch of `batch` unit jobs at time 0, then `stream` unit jobs arriving
/// every `gap` time units, the first at time `gap` (gap slightly above 1 keeps
/// a speed-1 machine barely able to serve the stream alone).
[[nodiscard]] Instance batch_plus_stream(std::size_t batch, std::size_t stream,
                                         double gap, double job_size = 1.0);

/// The RR l2 lower-bound family, parameterized by n (batch n, stream 4n,
/// gap 1.05).  Ratio vs OPT grows with n for speeds below ~1.5.
[[nodiscard]] Instance rr_l2_hard(std::size_t n);

/// One job of size `big` at time 0, then `stream` unit jobs every `gap`.
/// With gap = 1 (zero slack) SRPT never runs the big job while any unit job
/// is present, so F_big = stream + big; RR finishes it after ~big^2/2 time
/// (it only mildly snowballs the unit-job backlog).  The starvation contrast
/// is sharpest when `big` is only slightly larger than the unit jobs --
/// still always last in SRPT's order, but cheap for RR to absorb.  (A much
/// larger `big` absorbs all the slack under EVERY work-conserving policy and
/// the max-flow contrast disappears; see the adversarial tests.)
[[nodiscard]] Instance srpt_starvation(std::size_t stream, double big = 2.0,
                                       double gap = 1.0);

/// `pulses` bursts of `burst` unit jobs, spaced so the system fully drains
/// between bursts on `machines` speed-1 machines (alternates overloaded and
/// underloaded periods).
[[nodiscard]] Instance overload_pulse(std::size_t pulses, std::size_t burst,
                                      int machines);

/// n jobs at times 0, 1, 2, ... with sizes n, n/2, n/4, ... (minimum 1).
[[nodiscard]] Instance staircase(std::size_t n);

/// Geometric level family (the shape behind the cited Omega(n^{2 eps_p})
/// lower bound [4], which nests job classes of geometrically varying size):
/// level l in [0, levels) releases 2^l jobs of size 2^-l (unit work per
/// level) at time l * spacing.  RR keeps all levels diluted simultaneously;
/// SRPT clears each level before the next.  Under speed 1 the measured
/// RR-vs-SRPT l2 ratio grows monotonically with `levels` (slowly -- the
/// published exponent 2 eps_p vanishes as the speed advantage does), and at
/// speed >= 4 it is flat and far below 1, the crossover Theorem 1 predicts.
[[nodiscard]] Instance geometric_levels(int levels, double spacing = 1.05);

}  // namespace tempofair::workload
