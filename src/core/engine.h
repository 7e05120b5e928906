// Event-driven continuous-time scheduling engine.
//
// Simulates an online policy on m identical machines with speed augmentation
// s, exactly (up to floating-point rounding): between consecutive events
// (arrival, completion, policy breakpoint) all rates are constant, so the
// engine advances analytically to the next event rather than stepping a
// clock.  The full piecewise-constant rate trace can be recorded for the
// fairness and dual-fitting analyses.
//
// Public entry point: the RunRequest/RunResult facade (`run(...)` below).
// One request struct describes a run completely -- policy spec,
// machine/speed configuration, safety valves -- and one result struct
// carries everything a caller consumes, so the CLI tools, the bench
// registry, the analyses and the tests all speak the same API.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/fast_forward.h"
#include "core/instance.h"
#include "core/invariants.h"
#include "core/job_stream.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "core/schedule.h"
#include "core/share_rules.h"

namespace tempofair {

/// Livelock guard: a run fails with a diagnostic after this many
/// consecutive engine iterations that make no progress at all (the clock
/// did not advance, no job completed, none arrived) -- e.g. a policy whose
/// breakpoint is too small to move the clock in floating point -- instead
/// of silently burning RunRequest::max_steps.
inline constexpr std::size_t kMaxZeroProgressSteps = 1000;

/// One simulation run, described completely.
///
/// This is THE public way to run the engine: the CLI tools build one from
/// flags (harness/cli.h's shared vocabulary) and the bench experiments
/// build one per measurement -- identical semantics everywhere.  The
/// workload itself (an Instance or a JobStream) travels alongside the
/// request, since workloads have their own storage formats (CSV files,
/// generator specs).
struct RunRequest {
  /// Policy spec, resolved through policies/registry.h ("rr", "srpt",
  /// "laps:0.5", ...).  Ignored by the overloads that take an explicit
  /// Policy object.
  std::string policy = "rr";
  /// Optional workload spec string ("poisson:n=1000,load=0.9", "trace:f.csv",
  /// ...; see workload/spec.h).  The engine itself never reads it -- the
  /// field exists so one request can *name* its workload, which
  /// workload::run_spec() resolves.  Empty means the workload travels
  /// alongside (an Instance/JobStream).
  std::string workload;
  int machines = 1;
  /// Speed augmentation s (OPT is always measured at speed 1).
  double speed = 1.0;
  /// Record the full rate trace (fairness + dual-fitting analyses need it;
  /// metrics-only runs can turn it off and skip the trace memory).
  bool record_trace = true;
  /// Hide sizes from the policy (AliveJob::size/remaining = NaN); refused
  /// for clairvoyant policies.
  bool hide_sizes = false;
  /// Safety valve: abort if the simulated clock passes this.
  Time max_time = kInfiniteTime;
  /// Safety valve: abort after this many engine iterations (guards against
  /// a policy that returns pathological breakpoints).
  std::size_t max_steps = 50'000'000;
  /// Route the run through the epoch-coalesced fast path when the policy
  /// advertises a FastForward capability (see core/fast_forward.h).
  /// Results are byte-identical to the generic event loop; disable to force
  /// the generic loop, e.g. for equivalence testing.
  bool use_fast_path = true;
  /// Invariant checking mode + sampling period (core/invariants.h); both
  /// are set through the CLI flag vocabulary.  The process default is
  /// kSampled -- every invariant_sample_period'th epoch gets the full
  /// checker battery, end-of-run checks always run -- overridable via the
  /// TEMPOFAIR_INVARIANTS environment variable.  kExhaustive additionally
  /// fails the run (std::runtime_error) on any violation.
  InvariantMode invariants = default_invariant_mode();
  std::size_t invariant_sample_period = default_invariant_sample_period();
};

/// Everything one run produces: the schedule (completions + optional trace),
/// the resolved policy name, ready-made flow statistics and what the
/// invariant layer saw.  Analyses needing more than FlowStats read
/// `schedule` directly.
struct RunResult {
  Schedule schedule;
  /// The policy that ran (resolved name, e.g. "laps:0.50" -> "laps").
  std::string policy;
  /// Flow-time summary of the completed schedule.
  FlowStats stats;
  /// What the invariant layer observed (mode, epochs checked, violations,
  /// capped structured reports); see core/invariants.h.
  InvariantStats invariants;
};

/// The epoch-coalescing kernel behind RunRequest::use_fast_path.
///
/// Resolves a whole run for a FastForward-capable policy without ever
/// querying the policy: between consecutive arrivals the closed-form rule
/// fixes all rates, so the kernel keeps one sorted completion order over
/// the alive set and advances event to event analytically -- no
/// RateDecision allocation, rate validation, candidate scan, or policy
/// virtual call per event.  It replays the generic loop's floating-point
/// operations in the same order (shared share formulas, per-job division
/// before min, identical completion thresholds), so completion times and
/// the full trace are byte-identical to the generic path.
///
/// Buffers persist across runs, like EngineCore's.  Not thread-safe.  Only
/// EngineCore runs it, after validating the request.
class FastForwardCore {
  friend class EngineCore;

  /// Runs `instance` under the descriptor `ff` and hands the run's
  /// invariant statistics back in `invariants`.
  [[nodiscard]] Schedule run(const Instance& instance, const FastForward& ff,
                             const RunRequest& request,
                             std::string_view policy_name,
                             const PolicyInvariantTraits& traits,
                             InvariantStats& invariants);
  /// Streaming variant: admits arrivals straight from `stream` (see
  /// core/job_stream.h) so the run never materializes all n jobs at once.
  [[nodiscard]] Schedule run(JobStream& stream, const FastForward& ff,
                             const RunRequest& request,
                             std::string_view policy_name,
                             const PolicyInvariantTraits& traits,
                             InvariantStats& invariants);

  template <typename Arrivals>
  Schedule run_impl(Arrivals& arrivals, Schedule schedule,
                    const FastForward& ff, const RunRequest& request,
                    std::string_view policy_name,
                    const PolicyInvariantTraits& traits,
                    InvariantStats& invariants);

  // Alive set: parallel arrays sorted by job id (trace rows want id order).
  // kUniformShare and the ranked kinds (kEqualAttained / kLevelPriority)
  // maintain ids_ only when a trace is recorded and leave the other four
  // untouched; their primary storage is the ord_* arrays and ranked_.
  std::vector<JobId> ids_;
  std::vector<Work> rem_;
  std::vector<Work> size_;
  std::vector<Time> release_;
  std::vector<double> weight_;
  /// kLatestArrival: attained service, maintained with the generic loop's
  /// exact per-job arithmetic for the attained-accounting invariant.
  std::vector<Work> attained_;
  /// Alive ids sorted by the policy's completion/priority key: remaining
  /// work DESCENDING for kUniformShare (parallel to ord_rem_/ord_thr_),
  /// priority order for kTopPriority; the ranked kinds' invariant-epoch
  /// job column.
  std::vector<JobId> order_;
  /// kUniformShare: remaining work, descending (next completer at back).
  std::vector<Work> ord_rem_;
  /// kUniformShare: per-job completion threshold kRelEps*size + kAbsEps,
  /// parallel to ord_rem_.
  std::vector<Work> ord_thr_;
  /// Per-alive rates in id order (trace rows of the kinds that advance only
  /// the running jobs; kLatestArrival's rule output).
  std::vector<double> rates_;
  std::vector<JobId> completing_;
  /// Ids of alive jobs admitted already under their completion threshold
  /// (degenerate sizes); almost always empty.
  std::vector<JobId> degen_ids_;
  /// kQuantumRR: the replicated ready queue (rotation order), mirroring
  /// QuantumRoundRobin::queue_ event for event.
  std::deque<JobId> rr_queue_;
  /// kEqualAttained / kLevelPriority: one alive job, keyed by SETF's
  /// (attained, id) or MLFQ's (level, release, id).
  struct RankedJob {
    Work attained;
    Work remaining;
    Work size;
    Time release;
    JobId id;
    int level;  ///< MLFQ level of `attained`; refreshed whenever it changes
  };
  /// kEqualAttained / kLevelPriority primary storage: the alive jobs in
  /// priority order, WORST first, so the running jobs are the back.
  std::vector<RankedJob> ranked_;
  /// Rates of the running jobs, best first (ranked_'s back, reversed).
  std::vector<double> run_rates_;
  /// kLevelPriority: the thresholds of the run's (base, growth).
  share_rules::MlfqThresholds mlfq_thresholds_;
  /// kLatestArrival scratch for share_rules::laps_rates.
  std::vector<std::size_t> laps_idx_;
  /// Per-run invariant battery (core/invariants.h), reused across runs.
  InvariantSet inv_;
};

/// The engine's inner loop with persistent, reusable buffers.
///
/// One EngineCore can run many simulations back to back; the alive-set
/// arrays, the policy-facing AliveJob views, and the completion-candidate
/// scratch are kept across runs, so repeated simulations (sweeps,
/// competitive-ratio measurements) do not reallocate per run.  The alive
/// views are maintained incrementally on arrival/completion and updated in
/// place as work is processed -- never rebuilt from scratch per event --
/// and trace rows are emitted directly into the Schedule's columnar arena.
///
/// Not thread-safe; use one EngineCore per thread.
class EngineCore {
 public:
  /// Runs the request's policy spec on `instance`.  Throws
  /// std::invalid_argument for a bad request or unknown policy spec,
  /// std::runtime_error if the policy misbehaves (invalid rates, deadlock,
  /// livelock, step explosion).
  [[nodiscard]] RunResult run(const Instance& instance,
                              const RunRequest& request);
  /// Streaming variant: jobs are pulled from `stream` in release order and
  /// the instance is never materialized.  Requires a FastForward-capable
  /// policy and request.use_fast_path (throws std::invalid_argument
  /// otherwise); use workload::materialize(stream) for generic policies.
  [[nodiscard]] RunResult run(JobStream& stream, const RunRequest& request);
  /// As above with an explicit policy object (request.policy is ignored);
  /// for callers that construct parameterized policies directly.
  [[nodiscard]] RunResult run(const Instance& instance, Policy& policy,
                              const RunRequest& request);
  [[nodiscard]] RunResult run(JobStream& stream, Policy& policy,
                              const RunRequest& request);

 private:
  /// The generic event loop: queries the policy at every event.  Hands the
  /// run's invariant statistics back in `invariants`.
  [[nodiscard]] Schedule run_generic(const Instance& instance, Policy& policy,
                                     const RunRequest& request,
                                     InvariantStats& invariants);
  struct LiveJob {
    JobId id;
    Time release;
    Work size;
    Work remaining;
    Work attained;
    double weight;
  };

  std::vector<LiveJob> alive_;   // sorted by id
  std::vector<AliveJob> views_;  // parallel to alive_; handed to the policy
  std::vector<JobId> ids_;       // parallel to alive_; trace-row emission
  /// Near-minimum predicted-completion candidates collected during the
  /// single rates pass (superset of the jobs that can complete this event).
  std::vector<std::size_t> candidates_;
  std::vector<std::size_t> completing_;  // indices into alive_
  FastForwardCore fast_;
  /// Per-run invariant battery for the generic loop (the fast path runs its
  /// own inside FastForwardCore).
  InvariantSet inv_;
};

/// Runs `request` on `instance`.  The single entry point shared by the CLI
/// tools and the bench registry.  The four facades below reuse one
/// EngineCore per thread, so back-to-back small runs skip rebuilding its
/// buffers; results are bit-identical to a fresh EngineCore's.  A run of
/// more than 1024 jobs, or one that throws, drops the thread's core
/// afterwards, and a facade re-entered from inside a run (a policy or
/// stream callback) runs on a core of its own.
[[nodiscard]] RunResult run(const Instance& instance,
                            const RunRequest& request = {});

/// Streaming facade run (fast-path-capable policy specs only).
[[nodiscard]] RunResult run(JobStream& stream, const RunRequest& request = {});

/// Facade run with an explicit policy object (request.policy ignored).
[[nodiscard]] RunResult run(const Instance& instance, Policy& policy,
                            const RunRequest& request = {});
[[nodiscard]] RunResult run(JobStream& stream, Policy& policy,
                            const RunRequest& request = {});

}  // namespace tempofair
