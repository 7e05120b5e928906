// The standard fast-path perf case suite behind tools/perf_gate and the
// committed BENCH_fastpath.json baseline.
//
// Each case times one whole engine run (workload construction is excluded
// for materialized instances; the streaming case deliberately includes
// generation, because "million jobs end to end without materializing the
// instance" is exactly the claim being measured).  Event-loop/fast-path
// pairs run on the identical instance so the derived
// `speedup_vs_event_loop` stat is apples to apples.  run_small_6 and
// search_screen_6 time batches of 6-job runs and search screens, where the
// fixed per-call cost, not the jobs, sets the time.  Five cases leave the
// engine: make_instance_* times workload::make_instance on a Poisson spec
// (generation plus instance construction), flow_stats_* times the metrics
// summary of a finished run,
// opt_bounds_lp_* times the OPT bracket with its LP lower bound on two
// fixed T2 families (a Poisson stream and the batch-shaped adv-geometric),
// so the min-cost flow and the certificate are gated too,
// certify_search_lp_* times the adversary search's certified denominator
// (the MCMF solve and its exact dual check), and dual_fit_* times the
// dual-fitting verifier on a traced RR schedule.
#pragma once

#include <cstddef>

#include "perf_harness.h"

namespace tempofair::perf {

struct CaseOptions {
  /// Scale workloads down for a CI smoke run (shared runners, minutes not
  /// tens of minutes).  Smoke numbers are comparable only to smoke
  /// baselines; perf_gate never mixes the two (the case names differ).
  bool smoke = false;
  /// Timed runs per case (one extra untimed warmup run each).
  std::size_t repeats = 5;
};

/// Runs the full case suite and returns the report (git_rev left for the
/// caller to stamp).  Case names are suffixed "_smoke" in smoke mode.
[[nodiscard]] Report run_fastpath_cases(const CaseOptions& options = {});

}  // namespace tempofair::perf
