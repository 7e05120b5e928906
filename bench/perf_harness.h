// Perf measurement harness behind tools/perf_gate and BENCH_fastpath.json.
//
// Adaptive-iteration microbenchmark libraries make a poor CI gate: run time
// is unpredictable and their JSON says nothing about how noisy the machine
// was.  This harness is the boring, auditable alternative: run each case a
// fixed number of times, report the median wall time plus the median
// absolute deviation (MAD -- a robust noise estimate that one scheduling
// hiccup cannot inflate), and serialize to a small stable JSON schema
// ("tempofair-perf-v1") that a committed baseline can be diffed against
// with explicit relative tolerances.
//
// Verdict model (compare_reports):
//   FAIL  median grew past fail_ratio (default 2x), or a baseline case
//         vanished from the current report -- the gate exits nonzero.
//   WARN  median grew past warn_ratio + measured noise; visible in the
//         report but does not fail CI (perf-smoke runs on shared runners).
//   OK    within tolerance (improvements are reported as OK with ratio < 1).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace tempofair::perf {

/// One measured case: `repeats` timed runs of the same body.
struct CaseResult {
  std::string name;
  std::size_t repeats = 0;
  double median_s = 0.0;
  double mad_s = 0.0;  ///< median absolute deviation of the run times
  double min_s = 0.0;
  double max_s = 0.0;
  /// Case-reported facts (jobs, events, derived speedups, ...); carried
  /// through the JSON verbatim.
  std::map<std::string, double> stats;
};

/// Times `body` `repeats` times (after one untimed warmup run when
/// `warmup` is true) and fills median/MAD/min/max.  `repeats` must be >= 1.
[[nodiscard]] CaseResult measure(const std::string& name, std::size_t repeats,
                                 const std::function<void()>& body,
                                 bool warmup = true);

/// A perf report: what BENCH_fastpath.json holds.
struct Report {
  std::string schema = "tempofair-perf-v1";
  std::string git_rev = "unknown";
  std::vector<CaseResult> cases;

  [[nodiscard]] const CaseResult* find(const std::string& name) const;
};

/// Serializes `report` as pretty-printed JSON (stable key order).
[[nodiscard]] std::string report_json(const Report& report);
/// Parses report_json output (or a hand-edited baseline).  Throws
/// std::invalid_argument on malformed JSON or a wrong/missing schema tag.
[[nodiscard]] Report parse_report(const std::string& json);

// --- gate comparison --------------------------------------------------------

struct GateOptions {
  /// WARN when current/baseline median exceeds this plus measured noise.
  double warn_ratio = 1.25;
  /// FAIL (nonzero exit) only past this: perf-smoke runs on noisy shared
  /// CI runners, so the hard gate is deliberately generous.
  double fail_ratio = 2.0;
};

struct CaseVerdict {
  std::string name;
  std::string verdict;  // "OK" | "WARN" | "FAIL" | "NEW"
  double baseline_s = 0.0;
  double current_s = 0.0;
  double ratio = 0.0;   // current / baseline (0 when not comparable)
  std::string note;
};

struct GateResult {
  std::vector<CaseVerdict> verdicts;
  bool failed = false;

  [[nodiscard]] const CaseVerdict* find(const std::string& name) const;
};

/// Compares `current` against `baseline` case by case (see the verdict
/// model above).  Baseline cases missing from `current` FAIL; cases only in
/// `current` are reported as NEW and never fail.
[[nodiscard]] GateResult compare_reports(const Report& baseline,
                                         const Report& current,
                                         const GateOptions& options = {});

/// Checks the budgets a report declares about itself: a case stat named
/// "X_budget" asserts that the same case also reports stat "X" with
/// X <= X_budget.  Unlike compare_reports this needs no committed baseline,
/// so it gates *ratios measured within one run* -- e.g. the sampled
/// invariant-mode overhead case records overhead_vs_inv_off (its median
/// over the invariants-off median) next to overhead_vs_inv_off_budget, and
/// a breach fails perf_gate even on a machine with no baseline file.
/// A declared budget whose stat is missing also FAILs.  In each verdict,
/// baseline_s holds the budget and current_s the measured stat.
[[nodiscard]] GateResult self_gate(const Report& report);

/// Human-readable self-gate table (same shape as format_gate).
[[nodiscard]] std::string format_self_gate(const GateResult& result);

/// Human-readable verdict table, one line per case plus a summary line.
[[nodiscard]] std::string format_gate(const GateResult& result,
                                      const GateOptions& options);

/// compare_reports + format_gate serialized as JSON (the CI artifact).
[[nodiscard]] std::string gate_json(const GateResult& result,
                                    const GateOptions& options);

}  // namespace tempofair::perf
