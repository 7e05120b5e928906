// The repo benchmark's measuring program; perfbench/run.py builds it and
// turns its output into the benchmark's result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-out FILE]
//
// One process, one thread, closed loop: each item starts when the previous
// one ends, items run in a fixed order, and the timed phase stops at the
// first cycle boundary after S seconds.
//
//   --trace 0  sets up, then times the loop, setting up again and sampling
//              the host-speed kernel at every cycle boundary (setup_s is
//              the median set-up), and reports the end-to-end metrics,
//              timing metrics scaled to the reference host speed.
//   --trace 1  times an untraced loop for S/2 seconds, then sets up again
//              and replays the same items with spans around every layer
//              call.  Reports the per-layer metrics, checks that the traced
//              items produced bit-identical outputs, and writes the spans
//              as Chrome trace-event JSON to FILE when given.
//
// Prints one JSON object on stdout: attempted, failed, errors, metrics,
// notes (figures printed for the reader only: the host speed and the
// unscaled timing metrics), and first_cycle (the outputs of the first
// cycle, which run.py compares with perfbench/reference.json for the
// default seed).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "hostspeed.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

// In the end-to-end run, every cycle boundary re-runs the set-up until the
// set-ups have taken this share of the cycle just run (at least once).  The
// set-ups are spread over the whole run, like the cycles, so a burst of
// contention from other processes moves the median set-up time no more than
// it moves the median cycle.
constexpr double kSetupShare = 0.1;

// Likewise, every cycle boundary samples the host-speed kernel until the
// samples have taken this share of the cycle just run (at least once).
constexpr double kHostShare = 0.03;

// The host-speed kernel's median time on the baseline machine when the host
// was quiet.  Timing metrics are scaled by this over the run's median kernel
// time, so they read as on that host at that speed.
constexpr double kReferenceHostS = 0.0024;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/selftest.py checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"items_per_s", "1/s"},
    {"item_p50_ms", "ms"},    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},    {"bracket_width", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.make_instance.s", "s"},
    {"workload.make_instance.calls", "count"},
    {"workload.jobs", "count"},
    {"workload.stream_jobs.s", "s"},
    {"core.run.s", "s"},
    {"core.run.calls", "count"},
    {"core.engine.s", "s"},
    {"core.engine.events", "count"},
    {"core.engine.jobs", "count"},
    {"core.engine.trace_intervals", "count"},
    {"core.invariants.violations", "count"},
    {"core.finish.s", "s"},
    {"metrics.flow_lk_norm.s", "s"},
    {"lpsolve.opt_bounds.s", "s"},
    {"lpsolve.opt_bounds.calls", "count"},
    {"lpsolve.opt_bounds.self_s", "s"},
    {"lpsolve.flow.certified_share", "share"},
    {"lpsolve.lb.certified_share", "share"},
    {"lpsolve.simplex.pivots", "count"},
    {"lpsolve.simplex.solves", "count"},
    {"lpsolve.exact.certified_share", "share"},
    {"analysis.dual_fit.s", "s"},
    {"analysis.dual_fit.calls", "count"},
    {"analysis.dual_fit.beta_pieces", "count"},
    {"analysis.dual_fit.feasibility_checks", "count"},
    {"analysis.dual_fit.valid_share", "share"},
    {"search.adversary.s", "s"},
    {"search.adversary.self_s", "s"},
    {"search.evals", "count"},
    {"search.certifications", "count"},
    {"search.certify.ok_share", "share"},
    {"search.verify_record.s", "s"},
    {"layer.workload.self_s", "s"},
    {"layer.core.self_s", "s"},
    {"layer.metrics.self_s", "s"},
    {"layer.lpsolve.self_s", "s"},
    {"layer.analysis.self_s", "s"},
    {"layer.search.self_s", "s"},
    {"layer.workload.share", "share"},
    {"layer.core.share", "share"},
    {"layer.metrics.share", "share"},
    {"layer.lpsolve.share", "share"},
    {"layer.analysis.share", "share"},
    {"layer.search.share", "share"},
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_share", "share"},
};

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

struct Pass {
  std::vector<ItemResult> items;
  std::vector<double> item_s;
  std::vector<double> cycle_s;      ///< wall time of each whole cycle
  std::vector<double> cycle_cpu_s;  ///< process CPU time of each whole cycle
  double wall_s = 0.0;
};

// What the end-to-end pass times at each cycle boundary, outside the cycle
// and item times: set-ups for `seed` and host-speed samples.
struct Boundary {
  explicit Boundary(std::uint64_t setup_seed) : seed(setup_seed) {}

  std::uint64_t seed;
  std::vector<double> setup_s;
  HostSpeed host;
  std::vector<double> host_s;

  // Sets up until the set-ups have taken kSetupShare of `cycle_s`, then
  // samples the host until the samples have taken kHostShare of it; each
  // at least once.
  void run(Workload& workload, double cycle_s) {
    Clock::time_point start = Clock::now();
    do {
      const Clock::time_point one = Clock::now();
      workload.setup(seed, nullptr);
      setup_s.push_back(since(one));
    } while (since(start) < kSetupShare * cycle_s);
    start = Clock::now();
    do {
      host_s.push_back(host.sample());
    } while (since(start) < kHostShare * cycle_s);
  }
};

// Runs items 0, 1, 2, ... back to back: exactly `items` of them, or (when
// `items` is 0) whole cycles until `seconds` have passed.  With `boundary`
// given, it runs at every cycle boundary.
Pass run_pass(Workload& workload, double seconds, std::size_t items,
              Tracer* tracer, Boundary* boundary = nullptr) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  Clock::time_point cycle_start = start;
  double cycle_cpu_start = process_cpu_s();
  for (std::size_t i = 0;; ++i) {
    const bool at_boundary = i > 0 && i % workload.cycle() == 0;
    if (at_boundary) {
      pass.cycle_s.push_back(since(cycle_start));
      pass.cycle_cpu_s.push_back(process_cpu_s() - cycle_cpu_start);
    }
    const bool done =
        items > 0 ? i == items : at_boundary && since(start) >= seconds;
    if (done) break;
    if (at_boundary) {
      if (boundary != nullptr) boundary->run(workload, pass.cycle_s.back());
      cycle_start = Clock::now();
      cycle_cpu_start = process_cpu_s();
    }
    const Clock::time_point item_start = Clock::now();
    ItemResult result;
    {
      Span span(tracer, "bench", "bench.item", static_cast<std::int64_t>(i));
      try {
        result = workload.run(i, tracer);
      } catch (const std::exception& e) {
        result.error = e.what();
      }
    }
    pass.item_s.push_back(since(item_start));
    pass.items.push_back(std::move(result));
  }
  pass.wall_s = since(start);
  return pass;
}

// The median item time of each cell (position in the cycle), averaged over
// the cells: a median per cell is robust to stray slow items, and the
// average keeps a mix of cheap and costly cells from flipping the result
// between them.
double cell_median_s(const std::vector<double>& item_s, std::size_t cycle) {
  double sum = 0.0;
  for (std::size_t cell = 0; cell < cycle; ++cell) {
    std::vector<double> times;
    for (std::size_t i = cell; i < item_s.size(); i += cycle) {
      times.push_back(item_s[i]);
    }
    sum += median(std::move(times));
  }
  return sum / static_cast<double>(cycle);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double geometric_mean_bracket(const std::vector<ItemResult>& items) {
  double log_sum = 0.0;
  std::size_t count = 0;
  for (const ItemResult& item : items) {
    if (item.bracket > 0.0 && std::isfinite(item.bracket)) {
      log_sum += std::log(item.bracket);
      ++count;
    }
  }
  // Workloads that bracket nothing report the empty bracket, 1.
  return count == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(count));
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

using Metrics = std::vector<std::pair<MetricSpec, double>>;

void print_metrics(std::ostream& out, const Metrics& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << json_string(metrics[i].first.name)
        << ":{\"value\":" << json_number(metrics[i].second)
        << ",\"unit\":" << json_string(metrics[i].first.unit) << "}";
  }
  out << "}";
}

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;
  Metrics notes;
  std::vector<ItemResult> first_cycle;

  void count(const std::vector<ItemResult>& items) {
    for (const ItemResult& item : items) {
      ++attempted;
      if (!item.error.empty()) fail(item.label + ": " + item.error);
    }
  }
  void fail(std::string error) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(error));
  }

  void print(std::ostream& out) const {
    out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      out << (i ? "," : "") << json_string(errors[i]);
    }
    out << "],\"metrics\":";
    print_metrics(out, metrics);
    out << ",\"notes\":";
    print_metrics(out, notes);
    out << ",\"first_cycle\":[";
    for (std::size_t i = 0; i < first_cycle.size(); ++i) {
      out << (i ? "," : "") << "{\"label\":"
          << json_string(first_cycle[i].label) << ",\"outputs\":[";
      for (std::size_t j = 0; j < first_cycle[i].outputs.size(); ++j) {
        out << (j ? "," : "") << json_number(first_cycle[i].outputs[j]);
      }
      out << "]}";
    }
    out << "]}\n";
  }
};

void keep_first_cycle(Report& report, const Pass& pass, std::size_t cycle) {
  const std::size_t n = std::min(cycle, pass.items.size());
  report.first_cycle.assign(pass.items.begin(),
                            pass.items.begin() + static_cast<long>(n));
}

void measure_end_to_end(Workload& workload, std::uint64_t seed,
                        double seconds, Report& report) {
  Boundary boundary(seed);
  boundary.run(workload, 0.0);
  const Pass pass = run_pass(workload, seconds, 0, nullptr, &boundary);
  report.count(pass.items);
  keep_first_cycle(report, pass, workload.cycle());

  // Rates come from the median cycle: a cycle weighs every cell once, and
  // the median keeps a burst of contention from other processes on the
  // machine out of the result.  Most of a slow spell that outlasts the run
  // is taken out by the host-speed scale: below 1 when the kernel ran slower
  // than on the quiet reference host.
  const double host_s = median(boundary.host_s);
  const double scale = kReferenceHostS / host_s;
  const double setup_s = median(boundary.setup_s);
  const double items_per_s =
      static_cast<double>(workload.cycle()) / median(pass.cycle_s);
  const double item_p50_ms =
      1e3 * cell_median_s(pass.item_s, workload.cycle());
  const double cpu_s = median(pass.cycle_cpu_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double values[] = {
      setup_s * scale,
      items_per_s / scale,
      item_p50_ms * scale,
      cpu_s * scale,
      static_cast<double>(usage.ru_maxrss) / 1024.0,
      geometric_mean_bracket(pass.items),
  };
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    report.metrics.emplace_back(kEndToEnd[i], values[i]);
  }
  report.notes = {
      {{"host.kernel_ms", "ms"}, 1e3 * host_s},
      {{"host.scale", "ratio"}, scale},
      {{"host.samples", "count"}, static_cast<double>(boundary.host_s.size())},
      {{"unscaled.setup_s", "s"}, setup_s},
      {{"unscaled.items_per_s", "1/s"}, items_per_s},
      {{"unscaled.item_p50_ms", "ms"}, item_p50_ms},
      {{"unscaled.cpu_s", "s"}, cpu_s},
  };
}

void measure_layers(Workload& workload, std::string_view name,
                    std::uint64_t seed, double seconds,
                    const std::string& trace_out, Report& report) {
  workload.setup(seed, nullptr);
  const Pass untraced = run_pass(workload, seconds / 2.0, 0, nullptr);
  report.count(untraced.items);
  keep_first_cycle(report, untraced, workload.cycle());

  Tracer tracer;
  const Clock::time_point start = Clock::now();
  {
    Span span(&tracer, "bench", "bench.setup", -1);
    workload.setup(seed, &tracer);
  }
  const double setup_s = since(start);
  Pass traced = run_pass(workload, 0.0, untraced.items.size(), &tracer);
  for (std::size_t i = 0; i < traced.items.size(); ++i) {
    ItemResult& item = traced.items[i];
    if (item.error.empty() &&
        (!same_bits(item.outputs, untraced.items[i].outputs) ||
         !same_bits(item.bounds, untraced.items[i].bounds))) {
      item.error = "traced outputs differ from the untraced run";
    }
  }
  report.count(traced.items);

  std::map<std::string, double> layers =
      layer_metrics(tracer.spans(), setup_s + traced.wall_s);
  layers["bench.trace_overhead"] = traced.wall_s / untraced.wall_s;
  for (const MetricSpec& spec : kPerLayer) {
    report.metrics.emplace_back(spec, layers[spec.name]);
  }

  if (!trace_out.empty()) {
    std::ofstream file(trace_out);
    write_chrome_trace(tracer.spans(), name, file);
    if (!file) report.fail("could not write " + trace_out);
  }
}

int usage(const char* error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        name = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = value != "0";
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (name.empty()) return usage("--workload is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");

  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(name, smoke);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  Report report;
  try {
    if (trace) {
      measure_layers(*workload, name, seed, seconds, trace_out, report);
    } else {
      measure_end_to_end(*workload, seed, seconds, report);
    }
  } catch (const std::exception& e) {
    // Set-up checks throw; count the failed set-up as an attempted item.
    ++report.attempted;
    report.fail(std::string("set-up: ") + e.what());
  }
  report.print(std::cout);
  return report.failed == 0 ? 0 : 1;
}
