// Always-on schedule invariant layer, in the style of rippled's
// InvariantCheck.cpp: a fixed battery of compiled-in checkers that verify the
// structural properties every valid schedule must satisfy -- the very
// properties the paper's guarantees rest on (Section 2's feasible-schedule
// characterization) plus the no-starvation/temporal-fairness witness that
// the dual-fitting analyses of the related work need for RR.
//
// Checkers observe the run through its *epoch structure*: an epoch is a
// maximal interval during which the alive set and all rates are constant,
// which is exactly the granularity at which the engine (generic loop and
// FastForwardCore alike) advances.  Three modes:
//
//   kOff        no checkers are built; zero cost.
//   kSampled    the release default: every Nth epoch (N =
//               invariant_sample_period) gets the full per-epoch battery,
//               end-of-run checks always execute.  Cost is one predictable
//               branch per event plus O(alive) work every Nth event --
//               near-zero on the fast path (see bench/perf_cases.cpp's
//               rr_fast_inv_* pair, gated < 3%).
//   kExhaustive every epoch is checked and a violation fails the run with
//               std::runtime_error (sanitize preset + tests).
//
// Violations never mutate the run: checkers record structured
// InvariantViolation diagnostics into InvariantStats, which the engine
// surfaces through RunResult::invariants and obs:: counters
// ("invariants.*"), so callers see corrupt-run signals per run without log
// scraping.
//
// The battery is fixed: rate_bounds, capacity, work_conservation,
// monotone_remaining, completion_consistency, no_starvation,
// attained_accounting and temporal_fairness, in that order.  Each
// InvariantSet holds one instance of each and reconfigures them from the
// run's profile at begin_run; three are gated by policy traits.  Adding a
// checker means adding it to InvariantSet::Battery in invariants.cpp.  See
// DESIGN.md section 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/time_types.h"

namespace tempofair {

class Schedule;

enum class InvariantMode : std::uint8_t {
  kOff = 0,
  kSampled = 1,
  kExhaustive = 2,
};

[[nodiscard]] std::string_view to_string(InvariantMode mode) noexcept;
/// Parses "off" | "sampled" | "exhaustive"; throws std::invalid_argument.
[[nodiscard]] InvariantMode parse_invariant_mode(std::string_view text);

/// Process-wide defaults: kSampled with period 256, overridable once via the
/// TEMPOFAIR_INVARIANTS environment variable ("off", "sampled",
/// "sampled:N", "exhaustive") -- how the sanitize CI preset switches the
/// whole ctest suite to exhaustive checking without touching call sites.
[[nodiscard]] InvariantMode default_invariant_mode();
[[nodiscard]] std::size_t default_invariant_sample_period();

/// One structural violation, as recorded by a checker.
struct InvariantViolation {
  std::string check;   ///< checker name ("capacity", "no_starvation", ...)
  std::string detail;  ///< human-readable diagnostic
  Time time = 0.0;     ///< simulation time of the offending epoch/event
  JobId job = kInvalidJob;  ///< offending job, when one is identifiable
};

/// What one run's invariant checking observed; carried in RunResult.
struct InvariantStats {
  InvariantMode mode = InvariantMode::kOff;
  std::uint64_t epochs_seen = 0;     ///< epochs the run produced
  std::uint64_t epochs_checked = 0;  ///< epochs the battery actually ran on
  std::uint64_t checks_run = 0;      ///< checker x epoch invocations
  std::uint64_t violations = 0;      ///< total found (reports are capped)
  /// First kMaxInvariantReports violations, in discovery order.
  std::vector<InvariantViolation> reports;

  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
};

/// Cap on stored diagnostics; the violation *count* is never capped.
inline constexpr std::size_t kMaxInvariantReports = 16;

/// One-line summary of a stats object ("3 violation(s); first: ..."),
/// used by the exhaustive-mode failure message and the CLI tools.
[[nodiscard]] std::string summarize(const InvariantStats& stats);

/// Structural facts a policy declares about its allocation rule, consumed
/// by the profile-gated checkers below.  The defaults are the safe common
/// case; policies override Policy::invariant_traits() to widen or narrow.
struct PolicyInvariantTraits {
  /// Sum of rates reaches speed * min(n_alive, machines) whenever jobs are
  /// alive (false for LAPS with beta*n < m and quantum-RR with a nonzero
  /// switch cost, which idle capacity by design).
  bool work_conserving = true;
  /// Every alive job receives a strictly positive rate in every epoch --
  /// the RR-family no-starvation witness.
  bool shares_all_alive = false;
  /// All alive jobs receive the same rate speed * min(1, m/n) -- the
  /// temporal-fairness witness of plain Round Robin.
  bool equal_share = false;
};

/// Everything a checker may condition on: the run constants, the resolved
/// policy name, and the policy's declared traits.
struct InvariantRunProfile {
  int machines = 1;
  double speed = 1.0;
  std::string policy;
  PolicyInvariantTraits traits;
};

/// One epoch as seen by the checkers: the alive set (in any stable order),
/// the parallel rates (or one uniform rate), and -- when the caller's data
/// layout has them -- the parallel remaining-work and size columns.
/// Checkers must tolerate empty remaining/sizes spans (the kUniformShare
/// fast path keeps neither in id order).
struct InvariantEpoch {
  Time begin = 0.0;
  Time end = 0.0;
  std::span<const JobId> jobs;
  std::span<const double> rates;  ///< parallel to jobs; empty when uniform
  double uniform_rate = 0.0;
  bool uniform = false;
  std::span<const Work> remaining;  ///< before the epoch; may be empty
  std::span<const Work> sizes;      ///< may be empty
  /// Attained service before the epoch, parallel to jobs; empty when the
  /// caller's layout does not track it.  Enables the attained-accounting
  /// witness the attained-dependent fast-forward kernels register.
  std::span<const Work> attained;
  /// True when `remaining` is sorted descending (the kUniformShare fast
  /// path's primary layout): with a uniform rate the per-epoch monotone
  /// checks collapse to the minimum element, keeping checked epochs O(1).
  bool remaining_sorted_descending = false;

  [[nodiscard]] std::size_t n() const noexcept { return jobs.size(); }
  [[nodiscard]] double rate(std::size_t i) const noexcept {
    return uniform ? uniform_rate : rates[i];
  }
  [[nodiscard]] Time length() const noexcept { return end - begin; }
};

/// Context for the end-of-run checks.
struct InvariantFinalizeContext {
  /// The finished schedule (always present on engine-driven runs).
  const Schedule* schedule = nullptr;
  /// Per-job traced work, indexed by JobId; empty when the caller did not
  /// accumulate it (the inline engine path).  Only meaningful together
  /// with trace_complete.
  std::span<const Work> traced_done;
  /// True when every epoch of the run was observed (exhaustive mode /
  /// offline trace replay), enabling the lost-work accounting check.
  bool trace_complete = false;
};

class InvariantSet;

/// Base class of one compiled-in checker.  Hooks are only invoked while a
/// run is active; implementations report violations via report().  One
/// instance serves every run of its InvariantSet, reconfigured from the
/// run's profile at begin_run.
class InvariantCheck {
 public:
  virtual ~InvariantCheck() = default;
  InvariantCheck() = default;
  InvariantCheck(const InvariantCheck&) = delete;
  InvariantCheck& operator=(const InvariantCheck&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Called for every checked epoch (every epoch in exhaustive mode, every
  /// Nth in sampled mode).
  virtual void on_epoch(const InvariantEpoch& epoch) = 0;
  /// Called once at end of run (any mode but kOff).
  virtual void finalize(const InvariantFinalizeContext& ctx) { (void)ctx; }

 protected:
  /// Records a violation against this checker's name.
  void report(std::string detail, Time time, JobId job = kInvalidJob);

 private:
  friend class InvariantSet;
  InvariantSet* set_ = nullptr;
};

/// The per-run harness the engine (and the offline battery) drives.  Usage:
///
///   set.begin_run(profile, mode, period, &schedule);
///   per event with dt > 0:  if (set.epoch_due()) set.check_epoch(epoch);
///   set.finish(ctx);   // end-of-run checks + obs counters
///
/// Reusable across runs; not thread-safe.
class InvariantSet {
 public:
  InvariantSet();
  ~InvariantSet();
  InvariantSet(InvariantSet&&) noexcept;
  InvariantSet& operator=(InvariantSet&&) noexcept;

  /// The built-in battery's checker names, in the order they run.
  [[nodiscard]] static std::span<const std::string_view> check_names() noexcept;

  void begin_run(const InvariantRunProfile& profile, InvariantMode mode,
                 std::size_t sample_period, const Schedule* schedule);

  /// True when any checker is active this run.
  [[nodiscard]] bool active() const noexcept { return !checks_.empty(); }

  /// One call per clock-advancing event; counts the epoch and decides
  /// whether it is due the full battery.  Kept inline: this is the only
  /// per-event cost the layer adds to the engine's hot loops.
  [[nodiscard]] bool epoch_due() noexcept {
    if (checks_.empty()) return false;
    ++stats_.epochs_seen;
    if (mode_ == InvariantMode::kExhaustive) return true;
    if (--countdown_ > 0) return false;
    countdown_ = period_;
    return true;
  }

  /// Runs every checker on `epoch`.  Only call after epoch_due().
  void check_epoch(const InvariantEpoch& epoch);

  /// Runs the end-of-run checks and flushes the obs:: counters.
  void finish(std::span<const Work> traced_done = {});

  [[nodiscard]] const InvariantStats& stats() const noexcept { return stats_; }
  /// Moves the stats out (leaves the set finished-empty until begin_run).
  [[nodiscard]] InvariantStats take_stats() noexcept {
    return std::move(stats_);
  }

  /// Scratch buffers callers may use to gather remaining/size columns for
  /// check_epoch without allocating per checked epoch.
  [[nodiscard]] std::vector<Work>& scratch_remaining() noexcept {
    return scratch_rem_;
  }
  [[nodiscard]] std::vector<Work>& scratch_sizes() noexcept {
    return scratch_size_;
  }
  [[nodiscard]] std::vector<double>& scratch_rates() noexcept {
    return scratch_rates_;
  }
  [[nodiscard]] std::vector<Work>& scratch_attained() noexcept {
    return scratch_att_;
  }

 private:
  friend class InvariantCheck;
  void record(std::string_view check, std::string detail, Time time,
              JobId job);

  /// The eight built-in checkers, built on the first begin_run that checks
  /// and reconfigured by every later one.
  struct Battery;
  std::unique_ptr<Battery> battery_;
  /// The battery's checkers that apply to this run, in battery order.
  std::vector<InvariantCheck*> checks_;
  InvariantStats stats_;
  InvariantMode mode_ = InvariantMode::kOff;
  std::size_t period_ = 1;
  std::size_t countdown_ = 1;
  const Schedule* schedule_ = nullptr;
  bool trace_complete_ = false;
  std::vector<Work> scratch_rem_;
  std::vector<Work> scratch_size_;
  std::vector<double> scratch_rates_;
  std::vector<Work> scratch_att_;
};

/// Offline battery: replays a recorded schedule (trace + completions)
/// through the full checker set, exhaustively.  This is what the
/// engine/fast-forward equivalence harness and the corrupted-schedule
/// negative tests feed; an engine-produced schedule must come back clean.
[[nodiscard]] InvariantStats check_schedule(const Schedule& schedule,
                                            const InvariantRunProfile& profile);

/// Throws std::runtime_error describing the first violation when stats is
/// not ok(); the exhaustive-mode teeth.
void throw_if_violated(const InvariantStats& stats,
                       std::string_view policy_name);

namespace obs_counters {
inline constexpr const char* kInvariantRuns = "invariants.runs";
inline constexpr const char* kInvariantEpochsChecked =
    "invariants.epochs_checked";
inline constexpr const char* kInvariantViolations = "invariants.violations";
}  // namespace obs_counters

}  // namespace tempofair
