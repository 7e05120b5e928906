#include "tracer.h"

#include <iomanip>
#include <ostream>

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::uint64_t counter(const SpanRecord& span, const std::string& name) {
  const auto it = span.counters.find(name);
  return it == span.counters.end() ? 0 : it->second;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// Layers whose self time the benchmark reports; "bench" (the item and set-up
// roots) is what remains unattributed.
constexpr const char* kLayers[] = {"workload", "core",     "metrics",
                                   "lpsolve",  "analysis", "search"};

}  // namespace

Span::Span(Tracer* tracer, std::string_view layer, std::string_view name,
           std::int64_t item)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  SpanRecord record;
  record.layer = layer;
  record.name = name;
  record.item = item;
  record.parent = tracer_->open_;
  record.start_s = seconds_since(tracer_->origin_);
  parent_ = tracer_->open_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(record));
  tracer_->open_ = index_;
  scope_.emplace(&sink_);
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  scope_.reset();
  SpanRecord& record = tracer_->spans_[static_cast<std::size_t>(index_)];
  record.end_s = seconds_since(tracer_->origin_);
  for (const auto& [name, value] : sink_.snapshot()) {
    record.counters[name] += value;
  }
  tracer_->open_ = parent_;
}

void Span::note(std::string_view counter_name, std::uint64_t delta) {
  if (tracer_ != nullptr) sink_.add(counter_name, delta);
}

std::map<std::string, double> layer_metrics(
    const std::vector<SpanRecord>& spans, double traced_wall_s) {
  std::map<std::string, double> out;
  std::map<std::string, double> self;
  std::map<std::string, std::uint64_t> totals;

  // Layer spans sit directly under a bench root and never nest, so a layer
  // span's self time is its duration minus the engine time inside it.
  for (const SpanRecord& span : spans) {
    for (const auto& [name, value] : span.counters) totals[name] += value;
    if (span.layer == "bench") continue;

    const double duration = span.end_s - span.start_s;
    const double engine = 1e-9 * static_cast<double>(
                                     counter(span, "engine.run.ns"));
    const double own = duration - engine;
    out[span.name + ".s"] += duration;
    out[span.name + ".calls"] += 1.0;
    out[span.name + ".self_s"] += own;
    self["core"] += engine;
    self[span.name == "core.run" ? "metrics" : span.layer] += own;
  }
  // A streamed run generates its jobs inside the engine; the drain of the
  // same stream (workload.stream_jobs) estimates how much of that engine
  // time was job generation.
  self["core"] -= out["workload.stream_jobs.s"];
  self["workload"] += out["workload.stream_jobs.s"];

  const auto total = [&](const char* name) {
    return static_cast<double>(totals[name]);
  };
  out["core.finish.s"] = out["core.run.self_s"];
  out["core.engine.s"] = 1e-9 * total("engine.run.ns");
  out["core.engine.events"] = total("engine.events");
  out["core.engine.jobs"] = total("engine.jobs");
  out["core.engine.trace_intervals"] = total("engine.trace_intervals");
  out["core.invariants.violations"] = total("invariants.violations");
  out["workload.jobs"] = total("bench.jobs");

  out["lpsolve.flow.certified_share"] =
      share(total("lpcert.flow.certified"),
            total("lpcert.flow.certified") + total("lpcert.flow.uncertified"));
  out["lpsolve.lb.certified_share"] =
      share(total("lpcert.lb_certified"),
            total("lpcert.lb_certified") + total("lpcert.lb_uncertified"));
  out["lpsolve.simplex.pivots"] = total("simplex.pivots");
  out["lpsolve.simplex.solves"] = total("simplex.solves");
  out["lpsolve.exact.certified_share"] =
      share(total("lpcert.certified"),
            total("lpcert.certified") + total("lpcert.uncertified"));

  out["analysis.dual_fit.beta_pieces"] = total("dualfit.beta_pieces");
  out["analysis.dual_fit.feasibility_checks"] =
      total("dualfit.feasibility_checks");
  out["analysis.dual_fit.valid_share"] =
      share(total("bench.dual_fit.valid"), out["analysis.dual_fit.calls"]);

  out["search.evals"] = total("search.evals");
  out["search.certifications"] = total("search.certifications");
  out["search.certify.ok_share"] =
      share(total("search.certify.ok"),
            total("search.certify.ok") + total("search.certify.failed"));

  double attributed = 0.0;
  for (const char* layer : kLayers) {
    const double s = self[layer];
    attributed += s;
    out[std::string("layer.") + layer + ".self_s"] = s;
    out[std::string("layer.") + layer + ".share"] = share(s, traced_wall_s);
  }
  out["bench.traced_wall_s"] = traced_wall_s;
  out["bench.unattributed_share"] =
      share(traced_wall_s - attributed, traced_wall_s);
  return out;
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::string_view workload, std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
      << workload << "\"},\"traceEvents\":[";
  out << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << span.start_s * 1e6
        << ",\"dur\":" << (span.end_s - span.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"item\":" << span.item;
    for (const auto& [name, value] : span.counters) {
      out << ",\"" << name << "\":" << value;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
