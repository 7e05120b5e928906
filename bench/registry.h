// The experiment registry behind `tempofair_bench`.
//
// Each exp_*.cpp registers an ExperimentSpec (id, title, claim, default
// params and a run function) with a file-scope Registration object instead
// of defining main().  The runner looks experiments up by id, hands each
// run an isolated RunContext (output stream, shared thread pool, recorded
// params, smoke scaling) and collects a RunOutcome: status, wall/CPU time
// and the obs counter snapshot, serialized as one JSON artifact per run.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "harness/thread_pool.h"

namespace tempofair::bench {

/// Param overrides given on the runner's command line: param name -> value
/// text (e.g. "seed" -> "7").  An experiment reads each param with its own
/// fallback; a name absent here (or mapped to "") takes that fallback.
using ParamOverrides = std::map<std::string, std::string>;

/// Everything an experiment's run function needs from the runner.  Params
/// read through the typed accessors are recorded for the run artifact.
class RunContext {
 public:
  RunContext(const ParamOverrides& overrides, harness::ThreadPool& pool,
             std::ostream& out, bool smoke, bool csv);

  /// Where all experiment output goes (buffered by the runner so parallel
  /// runs do not interleave; printed in suite order).
  [[nodiscard]] std::ostream& out() noexcept { return *out_; }
  /// The shared work-stealing pool.  Nested parallel_for is safe.
  [[nodiscard]] harness::ThreadPool& pool() noexcept { return *pool_; }
  [[nodiscard]] bool csv() const noexcept { return csv_; }
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }

  /// The override for `name` (strictly parsed; a malformed number throws
  /// harness::CliError), or `fallback`; recorded as a run param.
  [[nodiscard]] long int_param(const std::string& name, long fallback);
  [[nodiscard]] double double_param(const std::string& name, double fallback);
  /// String-valued param (trace paths, policy specs, output paths);
  /// recorded verbatim.
  [[nodiscard]] std::string string_param(const std::string& name,
                                         const std::string& fallback);
  /// The experiment's RNG seed: --seed, or `fallback`; recorded.
  [[nodiscard]] std::uint64_t seed_param(std::uint64_t fallback);
  /// A workload-size param (--name, else `fallback`), scaled down to
  /// max(fallback / 8, floor) under --smoke when not given explicitly.
  [[nodiscard]] std::size_t size_param(const std::string& name,
                                       std::size_t fallback,
                                       std::size_t floor = 4);

  /// Prints the standard experiment banner to out().
  void banner(const std::string& id, const std::string& claim,
              const std::string& expectation);
  /// Prints `table` to out() as text, or CSV under --csv.
  void emit(const analysis::Table& table);

  /// Params read so far, as name -> value text (for the artifact).
  [[nodiscard]] const std::map<std::string, std::string>& params() const noexcept {
    return params_;
  }

 private:
  /// The override text for `name`, or nullptr.
  [[nodiscard]] const std::string* override_for(const std::string& name) const;

  const ParamOverrides* overrides_;
  harness::ThreadPool* pool_;
  std::ostream* out_;
  bool smoke_;
  bool csv_;
  std::map<std::string, std::string> params_;
};

/// One registered experiment.
struct ExperimentSpec {
  std::string id;        // short key ("t1", "f10", ...)
  std::string title;     // banner heading ("T1 (Theorem 1, l2)")
  std::string claim;     // one-line claim, shown by --list
  std::string defaults;  // default-param summary, shown by --list
  std::function<int(RunContext&)> run;  // 0 = ok, nonzero = check failed
};

/// Process-wide id -> spec map in natural id order ("f2" before "f10").
class ExperimentRegistry {
 public:
  [[nodiscard]] static ExperimentRegistry& instance();

  /// Registers `spec`; throws std::logic_error on an empty/duplicate id or
  /// a missing run function.
  void add(ExperimentSpec spec);
  /// Spec for `id`, or nullptr.
  [[nodiscard]] const ExperimentSpec* find(const std::string& id) const;
  /// All specs in natural id order.
  [[nodiscard]] std::vector<const ExperimentSpec*> all() const;
  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }

 private:
  ExperimentRegistry() = default;
  std::map<std::string, ExperimentSpec> specs_;  // keyed by id
};

/// File-scope registrar: `const Registration reg{spec};` in each exp_*.cpp.
struct Registration {
  explicit Registration(ExperimentSpec spec);
};

/// Natural id ordering: alphabetic prefix, then numeric suffix ("f2" <
/// "f10" < "t1").  Exposed for the runner's --filter validation and tests.
[[nodiscard]] bool natural_id_less(const std::string& a, const std::string& b);

/// Resolves a comma-separated --filter string against the registry: dedupes
/// and returns specs in natural suite order; an empty filter selects every
/// experiment.  Throws std::invalid_argument naming the offending id AND
/// listing all valid ids when the filter mentions an unregistered
/// experiment, so a typo on the command line is self-correcting.
[[nodiscard]] std::vector<const ExperimentSpec*> select_experiments(
    const ExperimentRegistry& registry, const std::string& filter);

/// The result of one experiment run, ready for the artifact writer.
struct RunOutcome {
  std::string id;
  std::string status;  // "ok" | "check_failed" | "error"
  int exit_code = 0;
  std::string error;   // exception text when status == "error"
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::string> params;
  std::string output;  // everything the experiment printed

  [[nodiscard]] bool ok() const noexcept { return status == "ok"; }
};

///// Runs one experiment against a private obs::Sink: installs the sink,
/// accounts wall/CPU time, captures output and converts exceptions into
/// status = "error".  Safe to call from a pool task (nested parallelism).
[[nodiscard]] RunOutcome run_experiment(const ExperimentSpec& spec,
                                        const ParamOverrides& overrides,
                                        harness::ThreadPool& pool, bool smoke,
                                        bool csv);

/// Serializes `outcome` as a JSON object (the per-run artifact payload).
/// `git_rev` and `smoke` describe the producing build/run.
[[nodiscard]] std::string outcome_json(const RunOutcome& outcome,
                                       const std::string& git_rev, bool smoke);

}  // namespace tempofair::bench
