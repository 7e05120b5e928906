// Adversary-instance search against the certified lower bounds on OPT.
//
// An optimizer that *searches* for instances maximizing
//
//     measured_ratio = (cost_power / certified_lb)^(1/k)
//
// per (policy, k, machines, speed) cell.  Which side of the bracket this is:
// certified_lb <= OPT^k, so measured_ratio is an *upper* bound on the
// policy's l_k ratio on the recorded instance, (cost_power / OPT^k)^(1/k),
// not a lower bound on its competitive ratio.  A certified lower bound on
// the ratio needs a certified upper bound on OPT^k (a feasible schedule's
// exact cost) in the denominator instead; until the search objective and the
// record format carry that, read every record as "RR's ratio on this
// instance is at most measured_ratio".
//
// Architecture (all deterministic under SearchOptions::seed):
//
//  1. Seeding.  The known hard families start the search: the Bansal-Pruhs
//     batch-plus-stream staircase behind the cited l2 lower bound, geometric
//     size levels, the SRPT-starvation shape from the Kuo
//     starvation-mitigation tradeoff, and dual-fitting stress pulses
//     (Angelopoulos-Lucarelli-Thang adversaries saturate capacity, then
//     spike) -- see PAPERS.md.  Every seed is fully certified up front, so
//     the search result is never worse than the hand-built baseline.
//
//  2. Screening (obs span "search.screen").  Local-search mutations (arrival
//     jitter, size scaling, gap stretch, batchify, duplicate/drop/collide)
//     are ranked by the *cheap* side of the ratio bracket -- cost vs the
//     SRPT/SJF proxy, three FastForwardCore runs per candidate -- with
//     evolutionary restarts from a fresh seed family after a stall.
//     lb-degenerate candidates (RatioMeasurement::lb_degenerate) are
//     skipped, never scored.
//
//  3. Certification (obs span "search.certify").  A candidate that screens
//     better than the incumbent champion did is promoted to the exact
//     denominator, computed exactly as opt_bounds computes it: the certified
//     trivial bound max'd with half the discretized flow-time LP, solved by
//     min-cost flow on the lpsolve::auto_lp_slot grid (<= 602 slots) and
//     certified by its repaired dual in exact rational arithmetic
//     (lpsolve::solve_flowtime_lp's certificate).  Only a certified ratio
//     may become the new record.
//
// Every record re-verifies from its JSON alone (verify_record): re-run the
// policy, rebuild the identical LP grid from the recorded slot width, and
// re-certify in exact arithmetic.  The nightly CI job does exactly this for
// the committed records before comparing new search results against them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "search/record.h"

namespace tempofair::search {

struct SearchOptions {
  std::string policy = "rr";
  double k = 2.0;
  int machines = 1;
  double speed = 1.0;
  std::uint64_t seed = 1;
  /// Screening evaluations (the budget unit: one mutation scored).
  std::size_t budget = 2000;
  /// Instance-size cap; keeps the search's instances small and the LP
  /// certification cheap.
  std::size_t max_jobs = 12;
  /// Consecutive non-improving screens before an evolutionary restart.
  std::size_t restart_after = 60;
  /// Cap on full LP certifications (0 = derived from budget).
  std::size_t max_certifications = 0;
};

struct SearchStats {
  std::size_t evals = 0;            ///< screening evaluations performed
  std::size_t certifications = 0;   ///< full certified-LP promotions
  std::size_t improvements = 0;     ///< certified record improvements
  std::size_t skipped_degenerate = 0;  ///< lb-degenerate candidates skipped
  std::size_t restarts = 0;
};

struct SearchResult {
  AdversaryRecord best;
  SearchStats stats;
  /// False only when no candidate (not even a seed) certified.
  bool found = false;
};

/// One fully-certified evaluation of an instance in a search cell.
struct CertifiedEval {
  double cost_power = 0.0;
  double certified_lb = 0.0;
  double ratio = 0.0;      ///< (cost_power / certified_lb)^(1/k)
  double lp_slot = 0.0;    ///< grid width the certificate used
  bool ok = false;         ///< certified and non-degenerate
};

struct VerifyReport {
  bool ok = false;
  std::string error;  ///< first failed check, empty when ok
};

/// Full certified evaluation: policy run at `speed` for the numerator; the
/// certified trivial bound max'd with the MCMF dual certificate of the
/// flow-time LP, halved, for the denominator.  `lp_slot` = 0 picks
/// lpsolve::auto_lp_slot; the width used is returned (and recorded) so
/// re-verification rebuilds the identical grid.  An LP whose grid holds more
/// slots than an auto_lp_slot grid can (lpsolve::kAutoLpMaxSlots) or more
/// job->slot arcs than the search's 16 MiB memory budget is refused before
/// anything is allocated (counter "search.certify.oversized_lp") and leaves
/// the trivial bound.
/// ok == false when nothing certifies or the denominator is degenerate.
[[nodiscard]] CertifiedEval evaluate_certified(const Instance& instance,
                                               const SearchOptions& options,
                                               double lp_slot = 0.0);

/// The search's screening objective, the cheap side of the ratio bracket:
/// (cost / proxy)^(1/k) for the policy's cost against the SRPT/SJF upper
/// bound (three fast-path runs, no LP).  Negative for an unusable candidate.
[[nodiscard]] double screen_ratio(const Instance& instance,
                                  const SearchOptions& options);

/// The hard families seeding the search, adapted to options.max_jobs.
[[nodiscard]] std::vector<std::pair<std::string, Instance>> seed_instances(
    const SearchOptions& options);

/// The hand-built baseline: the certified ratio of the Bansal-Pruhs
/// batch-plus-stream family in this cell (the committed reference the k=2
/// search must match or beat).
[[nodiscard]] CertifiedEval baseline_hard_family(const SearchOptions& options);

/// Runs the search.  Deterministic: identical options (seed and budget
/// included) produce a byte-identical best record.
[[nodiscard]] SearchResult search_adversary(const SearchOptions& options);

/// Re-verifies an archived record from its JSON content alone: re-runs the
/// policy, re-certifies the denominator on the recorded grid, and checks
/// every recorded number (relative tolerance 1e-9 -- the certificate itself
/// is exact; the tolerance only absorbs cross-libm pow differences).
[[nodiscard]] VerifyReport verify_record(const AdversaryRecord& record);

}  // namespace tempofair::search
