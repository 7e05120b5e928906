#include "core/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/schedule.h"
#include "obs/obs.h"

namespace tempofair {

namespace {

/// The engine's rate tolerance (engine.cpp uses the same formula); every
/// per-epoch rate comparison below is made against it so a schedule the
/// engine accepts never trips a checker.
[[nodiscard]] double rate_tolerance(const InvariantRunProfile& p) noexcept {
  return 1e-7 * std::max(1.0, p.speed * static_cast<double>(p.machines));
}

// --- built-in checkers ------------------------------------------------------

/// rate in [0, speed]: per-job machine shares m_j(t) in [0,1] scaled by s
/// (the paper's feasibility condition, per job).
class RateBoundsCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile& p) {
    speed_ = p.speed;
    tol_ = rate_tolerance(p);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rate_bounds";
  }
  void on_epoch(const InvariantEpoch& e) override {
    if (e.uniform) {
      check_one(e, e.uniform_rate, e.n() > 0 ? e.jobs[0] : kInvalidJob);
      return;
    }
    for (std::size_t i = 0; i < e.n(); ++i) check_one(e, e.rates[i], e.jobs[i]);
  }

 private:
  void check_one(const InvariantEpoch& e, double r, JobId job) {
    if (!std::isfinite(r) || r < -tol_) {
      report("rate " + std::to_string(r) + " is negative or non-finite",
             e.begin, job);
    } else if (r > speed_ + tol_) {
      report("rate " + std::to_string(r) + " exceeds per-machine speed " +
                 std::to_string(speed_),
             e.begin, job);
    }
  }
  double speed_ = 1.0;
  double tol_ = 0.0;
};

/// sum of rates <= s*m (the paper's aggregate feasibility condition).
class CapacityCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile& p) {
    cap_ = p.speed * static_cast<double>(p.machines);
    tol_ = rate_tolerance(p);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "capacity";
  }
  void on_epoch(const InvariantEpoch& e) override {
    double sum = 0.0;
    if (e.uniform) {
      sum = e.uniform_rate * static_cast<double>(e.n());
    } else {
      for (const double r : e.rates) sum += r;
    }
    if (sum > cap_ + tol_) {
      report("rates sum " + std::to_string(sum) + " exceeds capacity " +
                 std::to_string(cap_),
             e.begin);
    }
  }

 private:
  double cap_ = 1.0;
  double tol_ = 0.0;
};

/// sum of rates >= s*min(n, m) while jobs are alive; gated on the policy's
/// work_conserving trait (LAPS and costly-switch quantum-RR idle by design).
class WorkConservationCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile& p) {
    machines_ = p.machines;
    speed_ = p.speed;
    tol_ = rate_tolerance(p);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "work_conservation";
  }
  void on_epoch(const InvariantEpoch& e) override {
    if (e.n() == 0) return;
    double sum = 0.0;
    if (e.uniform) {
      sum = e.uniform_rate * static_cast<double>(e.n());
    } else {
      for (const double r : e.rates) sum += r;
    }
    const double expected =
        speed_ * static_cast<double>(
                     std::min(e.n(), static_cast<std::size_t>(machines_)));
    if (sum < expected - tol_) {
      report("rates sum " + std::to_string(sum) + " idles capacity (expected " +
                 std::to_string(expected) + " with " + std::to_string(e.n()) +
                 " alive)",
             e.begin);
    }
  }

 private:
  int machines_ = 1;
  double speed_ = 1.0;
  double tol_ = 0.0;
};

/// Remaining work stays in [0, size] and cannot go negative within the
/// epoch: service never exceeds what was requested, and the engine must
/// have completed a job before over-advancing it.  Needs the caller to
/// supply the remaining column (the uniform fast path supplies remaining
/// but not sizes; the size-bound half is skipped there and covered by the
/// offline exhaustive replay).
class MonotoneRemainingCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile&) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "monotone_remaining";
  }
  void on_epoch(const InvariantEpoch& e) override {
    if (e.remaining.empty()) return;
    const bool have_sizes = !e.sizes.empty();
    const Time len = e.length();
    if (e.uniform && !have_sizes && e.remaining_sorted_descending) {
      // Descending order + one shared rate: the minimum element decides all
      // three bounds, so the battery costs O(1) on the RR fast path.
      check_one(e, e.n() - 1, have_sizes, len);
      return;
    }
    for (std::size_t i = 0; i < e.n(); ++i) {
      check_one(e, i, have_sizes, len);
    }
  }

 private:
  void check_one(const InvariantEpoch& e, std::size_t i, bool have_sizes,
                 Time len) {
    const Work rem = e.remaining[i];
    const double ref = have_sizes ? e.sizes[i] : std::fabs(rem);
    const Work tol = 4.0 * (kRelEps * ref + kAbsEps);
    // The served-work bound subtracts rate * (end - begin); at late epochs
    // the interval bounds dominate the rounding error (one ulp of `end`
    // scales with the absolute clock, not with the epoch length), so the
    // tolerance needs a time-magnitude term.
    const Work served_tol =
        tol + 16.0 * std::numeric_limits<double>::epsilon() *
                  std::fabs(e.end) * std::max(1.0, e.rate(i));
    if (rem < -tol) {
      report("remaining " + std::to_string(rem) +
                 " negative at epoch start (job served past completion)",
             e.begin, e.jobs[i]);
    } else if (have_sizes && rem > e.sizes[i] + tol) {
      report("remaining " + std::to_string(rem) + " exceeds size " +
                 std::to_string(e.sizes[i]),
             e.begin, e.jobs[i]);
    } else if (rem - e.rate(i) * len < -served_tol) {
      report("job over-served: remaining " + std::to_string(rem) + " minus " +
                 std::to_string(e.rate(i) * len) +
                 " served this epoch goes negative",
             e.begin, e.jobs[i]);
    }
  }
};

/// Completion times exist, respect releases, and are not faster than a
/// dedicated machine at speed s allows; with a complete traced-work
/// accounting, flags jobs marked complete that never received their size
/// (lost work).
class CompletionConsistencyCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile& p) { speed_ = p.speed; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "completion_consistency";
  }
  void on_epoch(const InvariantEpoch&) override {}
  void finalize(const InvariantFinalizeContext& ctx) override {
    if (ctx.schedule == nullptr) return;
    const Schedule& s = *ctx.schedule;
    for (JobId id = 0; id < static_cast<JobId>(s.n()); ++id) {
      const Time c = s.completion(id);
      const Time release = s.release(id);
      const Work size = s.size(id);
      if (!std::isfinite(c)) {
        report("job never completed", release, id);
        continue;
      }
      const Time earliest = release + size / speed_;
      const Time slack = 2.0 * (kRelEps * size + kAbsEps) / speed_ +
                         kRelEps * std::fabs(earliest) + kAbsEps;
      if (c < release - slack) {
        report("completion " + std::to_string(c) + " precedes release " +
                   std::to_string(release),
               c, id);
      } else if (c + slack < earliest) {
        report("completion " + std::to_string(c) +
                   " beats the dedicated-machine bound " +
                   std::to_string(earliest),
               c, id);
      }
      if (ctx.trace_complete && id < ctx.traced_done.size()) {
        const Work done = ctx.traced_done[id];
        if (done + 1e-6 * size + 1e-9 < size) {
          report("lost work: trace shows " + std::to_string(done) +
                     " of size " + std::to_string(size),
                 c, id);
        }
      }
    }
  }

 private:
  double speed_ = 1.0;
};

/// Every alive job makes progress in every epoch -- the no-starvation
/// witness the RR family advertises via the shares_all_alive trait.
class NoStarvationCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile&) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "no_starvation";
  }
  void on_epoch(const InvariantEpoch& e) override {
    if (e.uniform) {
      if (e.n() > 0 && !(e.uniform_rate > 0.0)) {
        report("alive jobs receive zero rate", e.begin,
               e.n() > 0 ? e.jobs[0] : kInvalidJob);
      }
      return;
    }
    for (std::size_t i = 0; i < e.n(); ++i) {
      if (!(e.rates[i] > 0.0)) {
        report("alive job starved (rate " + std::to_string(e.rates[i]) + ")",
               e.begin, e.jobs[i]);
      }
    }
  }
};

/// All alive jobs receive the equal share s*min(1, m/n) -- plain RR's
/// temporal-fairness witness (equal_share trait).
class TemporalFairnessCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile& p) {
    machines_ = p.machines;
    speed_ = p.speed;
    tol_ = rate_tolerance(p);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "temporal_fairness";
  }
  void on_epoch(const InvariantEpoch& e) override {
    if (e.n() == 0) return;
    const double expected =
        speed_ * std::min(1.0, static_cast<double>(machines_) /
                                   static_cast<double>(e.n()));
    if (e.uniform) {
      check_one(e, e.uniform_rate, expected, e.jobs[0]);
      return;
    }
    for (std::size_t i = 0; i < e.n(); ++i) {
      check_one(e, e.rates[i], expected, e.jobs[i]);
    }
  }

 private:
  void check_one(const InvariantEpoch& e, double r, double expected,
                 JobId job) {
    if (std::fabs(r - expected) > tol_) {
      report("rate " + std::to_string(r) + " deviates from the equal share " +
                 std::to_string(expected) + " (" + std::to_string(e.n()) +
                 " alive)",
             e.begin, job);
    }
  }
  int machines_ = 1;
  double speed_ = 1.0;
  double tol_ = 0.0;
};

/// attained + remaining == size for every alive job -- the accounting
/// witness of the attained-dependent fast-forward kernels (SETF / MLFQ).
/// Both the generic loop and FastForwardCore expose their attained column
/// when they track one; epochs without the column are skipped (the witness
/// is then covered by monotone_remaining plus completion_consistency).
/// The tolerance is generous (1e-6 relative) because attained accumulates
/// one rounding error per epoch over the whole run.
class AttainedAccountingCheck final : public InvariantCheck {
 public:
  void configure(const InvariantRunProfile&) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "attained_accounting";
  }
  void on_epoch(const InvariantEpoch& e) override {
    if (e.attained.empty() || e.remaining.empty() || e.sizes.empty()) return;
    for (std::size_t i = 0; i < e.n(); ++i) {
      const Work att = e.attained[i];
      const Work size = e.sizes[i];
      const Work tol = 1e-6 * std::max(1.0, size) + 1e-9;
      if (att < -tol) {
        report("attained service " + std::to_string(att) + " is negative",
               e.begin, e.jobs[i]);
      } else if (std::fabs(att + e.remaining[i] - size) > tol) {
        report("attained " + std::to_string(att) + " + remaining " +
                   std::to_string(e.remaining[i]) + " drifts from size " +
                   std::to_string(size),
               e.begin, e.jobs[i]);
      }
    }
  }
};

}  // namespace

// --- modes and defaults -----------------------------------------------------

std::string_view to_string(InvariantMode mode) noexcept {
  switch (mode) {
    case InvariantMode::kOff:
      return "off";
    case InvariantMode::kSampled:
      return "sampled";
    case InvariantMode::kExhaustive:
      return "exhaustive";
  }
  return "off";
}

InvariantMode parse_invariant_mode(std::string_view text) {
  if (text == "off") return InvariantMode::kOff;
  if (text == "sampled") return InvariantMode::kSampled;
  if (text == "exhaustive") return InvariantMode::kExhaustive;
  throw std::invalid_argument(
      "invariants: unknown mode '" + std::string(text) +
      "' (expected off, sampled, or exhaustive)");
}

namespace {

struct InvariantDefaults {
  InvariantMode mode = InvariantMode::kSampled;
  std::size_t period = 256;
};

const InvariantDefaults& process_defaults() {
  static const InvariantDefaults defaults = [] {
    InvariantDefaults d;
    const char* env = std::getenv("TEMPOFAIR_INVARIANTS");
    if (env == nullptr || *env == '\0') return d;
    std::string_view text(env);
    std::string_view mode_text = text;
    const std::size_t colon = text.find(':');
    if (colon != std::string_view::npos) mode_text = text.substr(0, colon);
    try {
      d.mode = parse_invariant_mode(mode_text);
      if (colon != std::string_view::npos) {
        const long period = std::stol(std::string(text.substr(colon + 1)));
        if (period < 1) throw std::invalid_argument("period must be >= 1");
        d.period = static_cast<std::size_t>(period);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "tempofair: ignoring TEMPOFAIR_INVARIANTS='%s' (%s); "
                   "using sampled:256\n",
                   env, e.what());
      d = InvariantDefaults{};
    }
    return d;
  }();
  return defaults;
}

}  // namespace

InvariantMode default_invariant_mode() { return process_defaults().mode; }

std::size_t default_invariant_sample_period() {
  return process_defaults().period;
}

std::string summarize(const InvariantStats& stats) {
  if (stats.ok()) {
    return "ok (" + std::to_string(stats.epochs_checked) + " of " +
           std::to_string(stats.epochs_seen) + " epochs checked, mode " +
           std::string(to_string(stats.mode)) + ")";
  }
  std::string out = std::to_string(stats.violations) + " violation(s) in " +
                    std::to_string(stats.epochs_checked) + " checked epoch(s)";
  if (!stats.reports.empty()) {
    const InvariantViolation& v = stats.reports.front();
    out += "; first: [" + v.check + "] " + v.detail + " at t=" +
           std::to_string(v.time);
    if (v.job != kInvalidJob) out += " job=" + std::to_string(v.job);
  }
  return out;
}

void throw_if_violated(const InvariantStats& stats,
                       std::string_view policy_name) {
  if (stats.ok()) return;
  throw std::runtime_error("tempofair::invariants: policy " +
                           std::string(policy_name) + ": " + summarize(stats));
}

// --- the fixed battery ------------------------------------------------------

/// The built-in checkers, one of each, reconfigured for every run.  The
/// order here is the order they run and report in.
struct InvariantSet::Battery {
  RateBoundsCheck rate_bounds;
  CapacityCheck capacity;
  WorkConservationCheck work_conservation;
  MonotoneRemainingCheck monotone_remaining;
  CompletionConsistencyCheck completion_consistency;
  NoStarvationCheck no_starvation;
  AttainedAccountingCheck attained_accounting;
  TemporalFairnessCheck temporal_fairness;
};

std::span<const std::string_view> InvariantSet::check_names() noexcept {
  static constexpr std::string_view kNames[] = {
      "rate_bounds",         "capacity",
      "work_conservation",   "monotone_remaining",
      "completion_consistency",
      "no_starvation",       "attained_accounting",
      "temporal_fairness"};
  return kNames;
}

InvariantSet::InvariantSet() = default;
InvariantSet::~InvariantSet() = default;
InvariantSet::InvariantSet(InvariantSet&&) noexcept = default;
InvariantSet& InvariantSet::operator=(InvariantSet&&) noexcept = default;

// --- the per-run harness ----------------------------------------------------

void InvariantCheck::report(std::string detail, Time time, JobId job) {
  if (set_ != nullptr) set_->record(name(), std::move(detail), time, job);
}

void InvariantSet::record(std::string_view check, std::string detail,
                          Time time, JobId job) {
  ++stats_.violations;
  if (stats_.reports.size() < kMaxInvariantReports) {
    stats_.reports.push_back(InvariantViolation{
        std::string(check), std::move(detail), time, job});
  }
}

void InvariantSet::begin_run(const InvariantRunProfile& profile,
                             InvariantMode mode, std::size_t sample_period,
                             const Schedule* schedule) {
  stats_ = InvariantStats{};
  stats_.mode = mode;
  mode_ = mode;
  period_ = std::max<std::size_t>(1, sample_period);
  countdown_ = period_;
  schedule_ = schedule;
  checks_.clear();
  if (mode == InvariantMode::kOff) return;
  if (!battery_) battery_ = std::make_unique<Battery>();
  Battery& b = *battery_;
  const PolicyInvariantTraits& traits = profile.traits;
  const auto use = [&](auto& check, bool applies) {
    if (!applies) return;
    check.configure(profile);
    check.set_ = this;
    checks_.push_back(&check);
  };
  use(b.rate_bounds, true);
  use(b.capacity, true);
  use(b.work_conservation, traits.work_conserving);
  use(b.monotone_remaining, true);
  use(b.completion_consistency, true);
  use(b.no_starvation, traits.shares_all_alive);
  use(b.attained_accounting, true);
  use(b.temporal_fairness, traits.equal_share);
}

void InvariantSet::check_epoch(const InvariantEpoch& epoch) {
  ++stats_.epochs_checked;
  for (InvariantCheck* check : checks_) {
    ++stats_.checks_run;
    check->on_epoch(epoch);
  }
}

void InvariantSet::finish(std::span<const Work> traced_done) {
  if (checks_.empty()) return;
  InvariantFinalizeContext ctx;
  ctx.schedule = schedule_;
  ctx.traced_done = traced_done;
  ctx.trace_complete = !traced_done.empty();
  for (InvariantCheck* check : checks_) {
    ++stats_.checks_run;
    check->finalize(ctx);
  }
  obs::add(obs_counters::kInvariantRuns, 1);
  obs::add(obs_counters::kInvariantEpochsChecked, stats_.epochs_checked);
  if (stats_.violations > 0) {
    obs::add(obs_counters::kInvariantViolations, stats_.violations);
  }
}

// --- offline battery --------------------------------------------------------

InvariantStats check_schedule(const Schedule& schedule,
                              const InvariantRunProfile& profile) {
  InvariantSet set;
  set.begin_run(profile, InvariantMode::kExhaustive, 1, &schedule);
  std::vector<Work> done(schedule.n(), 0.0);
  if (schedule.has_trace()) {
    std::vector<Work> rem;
    std::vector<Work> sizes;
    std::vector<double> rates;
    for (const TraceIntervalView iv : schedule.trace()) {
      const std::span<const JobId> jobs = iv.jobs();
      const std::size_t n = jobs.size();
      rem.resize(n);
      sizes.resize(n);
      rates.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const JobId id = jobs[i];
        sizes[i] = schedule.size(id);
        rem[i] = sizes[i] - done[id];
        rates[i] = iv.rate(i);
      }
      if (set.epoch_due()) {
        InvariantEpoch epoch;
        epoch.begin = iv.begin();
        epoch.end = iv.end();
        epoch.jobs = jobs;
        epoch.rates = rates;
        epoch.remaining = rem;
        epoch.sizes = sizes;
        set.check_epoch(epoch);
      }
      const Time len = iv.length();
      for (std::size_t i = 0; i < n; ++i) done[jobs[i]] += rates[i] * len;
    }
  }
  set.finish(schedule.has_trace() ? std::span<const Work>(done)
                                  : std::span<const Work>{});
  return set.take_stats();
}

}  // namespace tempofair
