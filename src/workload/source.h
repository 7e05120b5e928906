// WorkloadSource: the one interface every workload plugs into.
//
// A source is factory-constructed from a declarative WorkloadSpec
// (workload/spec.h) and can hand back the workload two ways:
//
//   * instance()  -- materialize everything (always available);
//   * stream()    -- a fresh JobStream drawing jobs lazily, when the kind
//                    supports it (streamable()), so the engine's fast path
//                    admits arrivals without ever holding the full instance.
//
// Sources are reusable: every stream()/instance() call re-derives the same
// jobs from the spec's seed, so two calls agree bitwise.  This is what lets
// a spec string ride RunRequest.workload through bench experiments and the
// CLI tools and mean the same workload everywhere.
//
// Supported kinds (see builtin_workload_kinds() for the live list):
//
//   poisson:n=..,load=..,dist=..,seed=..[,machines=..][,weights=..]
//   mmpp:n=..,load=..,burst=..,on=..,off=..[,dist=..,seed=..,machines=..]
//   uniform:n=..,gap=..,size=..[,start=..]
//   bursty:bursts=..,per=..,gap=..[,dist=..,seed=..][,weights=..]
//   adv-rr-l2-hard:n=..            adv-srpt-starvation:stream=..[,big=..,gap=..]
//   adv-batch-stream:batch=..,stream=..[,gap=..,size=..]
//   adv-overload-pulse:pulses=..,burst=..[,machines=..]
//   adv-staircase:n=..             adv-geometric:levels=..[,spacing=..]
//   trace:<path>                   (CSV or binary columnar, sniffed)
//
// `weights=random|inv-size|prop-size` reweights a materialized kind via
// with_weights() (forces streamable() false).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "core/job_stream.h"
#include "workload/spec.h"

namespace tempofair::workload {

class WorkloadSource {
 public:
  explicit WorkloadSource(WorkloadSpec spec) : spec_(std::move(spec)) {}
  virtual ~WorkloadSource() = default;
  WorkloadSource(const WorkloadSource&) = delete;
  WorkloadSource& operator=(const WorkloadSource&) = delete;

  /// The spec this source was built from.
  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }

  /// Exact job count (JobStream contract S1).
  [[nodiscard]] virtual std::size_t n() const = 0;

  /// Whether stream() is supported without materializing.
  [[nodiscard]] virtual bool streamable() const noexcept { return false; }

  /// A fresh lazily-drawing JobStream over the whole workload.  Throws
  /// std::logic_error when !streamable().
  [[nodiscard]] virtual std::unique_ptr<JobStream> stream();

  /// Materializes the workload (always available; streamable sources
  /// materialize by draining a fresh stream).
  [[nodiscard]] virtual Instance instance() = 0;

 private:
  WorkloadSpec spec_;
};

/// Builds the source named by `spec`.  Throws SpecError on an unknown kind,
/// an unknown parameter, or a semantically invalid value -- this is the one
/// validation path shared by CLI flags, SUBMIT frames, and programmatic
/// callers.
[[nodiscard]] std::unique_ptr<WorkloadSource> make_source(
    const WorkloadSpec& spec);
[[nodiscard]] std::unique_ptr<WorkloadSource> make_source(
    std::string_view spec_string);

/// Shorthand: make_source(spec)->instance().
[[nodiscard]] Instance make_instance(const WorkloadSpec& spec);
[[nodiscard]] Instance make_instance(std::string_view spec_string);

/// The kinds make_source() accepts, for usage messages.
[[nodiscard]] std::vector<std::string> builtin_workload_kinds();

/// Runs `request` on the workload named by request.workload: streams into
/// the fast path when the source and the request's policy both support it,
/// otherwise materializes and runs the generic loop; both paths produce
/// identical schedules.  Throws SpecError when request.workload is empty or
/// invalid.
[[nodiscard]] RunResult run_spec(const RunRequest& request);

}  // namespace tempofair::workload
