// Spans recorded by the benchmark around its calls into each layer.
//
// A Span measures one call from the outside: wall time from steady_clock,
// plus the deltas of the counters the library records while the span is
// open (engine.run.ns, engine.events, dualfit.*, simplex.*, lpcert.*,
// search.*).  Each span installs its own obs::Sink as the thread's override,
// so a counter lands in exactly one span: the innermost one open when it was
// recorded.  With a null Tracer a Span does nothing at all, which keeps the
// traced and untraced code paths identical.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

struct SpanRecord {
  /// workload, core, metrics, lpsolve, analysis, search or bench
  std::string layer;
  std::string name;   ///< the call, e.g. "lpsolve.opt_bounds"
  std::int64_t item = -1;  ///< item index; -1 for set-up
  int parent = -1;         ///< index into Tracer::spans(); -1 for a root
  double start_s = 0.0;    ///< seconds since the tracer was created
  double end_s = 0.0;
  std::map<std::string, std::uint64_t> counters;  ///< deltas inside the span
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

 private:
  friend class Span;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  int open_ = -1;
};

class Span {
 public:
  Span(Tracer* tracer, std::string_view layer, std::string_view name,
       std::int64_t item);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Adds a benchmark-side count (e.g. jobs generated) to this span.
  void note(std::string_view counter, std::uint64_t delta);

 private:
  Tracer* tracer_;
  int index_ = -1;
  int parent_ = -1;
  tempofair::obs::Sink sink_;
  std::optional<tempofair::obs::ScopedSink> scope_;
};

/// Per-layer metrics from the spans of one traced pass whose wall time was
/// `traced_wall_s`.  Engine time inside any span (the engine.run.ns counter)
/// is charged to the core layer; the rest of a core.run span is flow_stats
/// plus result packaging and is charged to metrics.  The time of
/// workload.stream_jobs spans is also moved from core to workload, as the
/// estimate of the job generation inside streamed runs.  Whatever no layer
/// span covers is bench.unattributed_share.
[[nodiscard]] std::map<std::string, double> layer_metrics(
    const std::vector<SpanRecord>& spans, double traced_wall_s);

/// Writes the spans as Chrome trace-event JSON (Perfetto, chrome://tracing).
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::string_view workload, std::ostream& out);

}  // namespace perfbench
