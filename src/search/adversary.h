// Adversary-instance search against the certified lower bounds.
//
// PR 4 made lower bounds exact (lpsolve's rational certificates) and PR 5
// made simulation nearly free (FastForwardCore).  This module closes the
// ROADMAP's loop: an optimizer that *searches* for instances maximizing
//
//     measured_ratio = (cost_power / certified_lb)^(1/k)
//
// per (policy, k, machines, speed) cell -- the tightest known empirical
// constants for Theorem 1's O(k/eps^k) bound at k in {1, 2, 3}.
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
//  2. Screening.  Local-search mutations (arrival jitter, size scaling, gap
//     stretch, batchify, duplicate/drop/collide) are ranked by the *cheap*
//     side of the ratio bracket -- cost vs the SRPT/SJF proxy, three
//     FastForwardCore runs per candidate -- with evolutionary restarts from
//     a fresh seed family after a stall.  lb-degenerate candidates
//     (RatioMeasurement::lb_degenerate) are skipped, never scored.
//
//  3. Certification.  A candidate that screens better than the incumbent
//     champion did is promoted to the exact denominator: the certified
//     trivial bound plus the discretized flow-time LP solved by the float
//     simplex and re-verified by verify_certificate's warm-started exact
//     re-solve.  Only a certified ratio may become the new record.
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
  /// Instance-size cap; keeps the exact LP certification tractable.
  std::size_t max_jobs = 12;
  /// Consecutive non-improving screens before an evolutionary restart.
  std::size_t restart_after = 60;
  /// Cap on full LP certifications (0 = derived from budget).
  std::size_t max_certifications = 0;
};

struct SearchStats {
  std::size_t evals = 0;            ///< screening evaluations performed
  std::size_t certifications = 0;   ///< full exact-LP promotions
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

/// The deterministic LP slot width the search certifies with: fine enough
/// for a meaningful bound, coarse enough that the dense exact tableau stays
/// small in memory.  Recorded per record so re-verification
/// rebuilds the identical grid.
[[nodiscard]] double pick_lp_slot(const Instance& instance, int machines);

/// Full certified evaluation: policy run at `speed` for the numerator; the
/// certified trivial bound max'd with the dense flow-time LP certified by
/// verify_certificate (warm-started exact re-solve) for the denominator.
/// ok == false when nothing certifies or the denominator is degenerate.
[[nodiscard]] CertifiedEval evaluate_certified(const Instance& instance,
                                               const SearchOptions& options,
                                               double lp_slot = 0.0);

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
