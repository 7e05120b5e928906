#include "workloads.h"

#include <cmath>
#include <stdexcept>

#include "analysis/dualfit.h"
#include "common.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "harness/sweep.h"
#include "lpsolve/lower_bounds.h"
#include "search/adversary.h"
#include "workload/source.h"

namespace perfbench {

namespace {

using namespace tempofair;

constexpr double kEps = 0.05;
const std::vector<double> kKs{1.0, 2.0, 3.0};

// Workload specs carry their seed as a signed integer and
// bench::standard_workloads adds small offsets to it, so derived seeds drop
// the top two bits.
std::uint64_t spec_seed(std::uint64_t seed, std::uint64_t stream) {
  return harness::derive_seed(seed, stream) >> 2;
}

std::string k_label(double k) {
  std::string label = "k";
  label += std::to_string(static_cast<int>(k));
  return label;
}

// The checks every simulation must pass: all jobs finish and the engine's
// invariant layer (sampled by default) saw no violation.
std::string check_run(const RunResult& result, std::size_t jobs) {
  if (result.schedule.n() != jobs) return "schedule lost jobs";
  for (const Time c : result.schedule.completions()) {
    if (!std::isfinite(c)) return "a job never finished";
  }
  if (result.invariants.violations != 0) {
    return std::to_string(result.invariants.violations) +
           " invariant violation(s)";
  }
  return {};
}

RunResult traced_run(Tracer* tracer, std::size_t item,
                     const Instance& instance, const RunRequest& request) {
  Span span(tracer, "core", "core.run", static_cast<std::int64_t>(item));
  return run(instance, request);
}

Instance traced_make_instance(Tracer* tracer,
                              const workload::WorkloadSpec& spec) {
  Span span(tracer, "workload", "workload.make_instance", -1);
  Instance instance = workload::make_instance(spec);
  span.note("bench.jobs", instance.n());
  return instance;
}

// --- sim_zoo -----------------------------------------------------------------
// Trace-off runs of the policy zoo on materialized Poisson load-0.9
// instances, one per policy, plus one streamed RR run.

class SimZoo final : public Workload {
 public:
  SimZoo(std::size_t jobs, std::size_t stream_jobs)
      : jobs_(jobs), stream_jobs_(stream_jobs) {}

  void setup(std::uint64_t seed, Tracer* tracer) override {
    instances_.clear();
    for (std::size_t i = 0; i < kPolicies.size(); ++i) {
      instances_.push_back(traced_make_instance(
          tracer, workload::WorkloadSpec::poisson(
                      jobs_, 0.9, workload::ExponentialSize{1.0},
                      spec_seed(seed, i))));
    }
    stream_spec_ = workload::WorkloadSpec::poisson(
        stream_jobs_, 0.9, workload::ExponentialSize{1.0},
        spec_seed(seed, kPolicies.size()));
  }

  [[nodiscard]] std::size_t cycle() const override {
    return kPolicies.size() + 1;
  }

  [[nodiscard]] ItemResult run(std::size_t index, Tracer* tracer) override {
    const std::size_t cell = index % cycle();
    RunRequest request;
    request.record_trace = false;
    ItemResult out;
    RunResult result;
    std::size_t jobs = 0;
    if (cell < kPolicies.size()) {
      request.policy = kPolicies[cell];
      out.label = kPolicies[cell];
      jobs = instances_[cell].n();
      result = traced_run(tracer, index, instances_[cell], request);
    } else {
      out.label = "rr-stream";
      if (tracer != nullptr) {
        // The engine draws a stream's jobs lazily inside run(), so the
        // engine time of this run includes job generation.  A traced pass
        // first drains a fresh stream of the same spec under its own span;
        // layer_metrics moves that much of the run's engine time to the
        // workload layer.
        Span span(tracer, "workload", "workload.stream_jobs",
                  static_cast<std::int64_t>(index));
        const std::unique_ptr<JobStream> drain =
            workload::make_source(stream_spec_)->stream();
        for (std::size_t j = drain->n(); j > 0; --j) (void)drain->next();
      }
      std::unique_ptr<JobStream> stream;
      {
        Span span(tracer, "workload", "workload.make_stream",
                  static_cast<std::int64_t>(index));
        stream = workload::make_source(stream_spec_)->stream();
      }
      jobs = stream->n();
      Span span(tracer, "core", "core.run", static_cast<std::int64_t>(index));
      result = tempofair::run(*stream, request);
    }
    out.outputs = {result.stats.l1, result.stats.l2, result.stats.l3,
                   result.stats.linf};
    out.error = check_run(result, jobs);
    return out;
  }

 private:
  inline static const std::vector<std::string> kPolicies{
      "rr", "srpt", "sjf", "fcfs", "setf", "laps:0.5", "mlfq"};
  std::size_t jobs_;
  std::size_t stream_jobs_;
  std::vector<Instance> instances_;
  workload::WorkloadSpec stream_spec_;
};

// --- dualfit_trace -----------------------------------------------------------
// RR with the trace recorded, then the dual-fitting certificate and the l_k
// norm, over k x machines x {speed 1, eta}.

class DualfitTrace final : public Workload {
 public:
  explicit DualfitTrace(std::size_t jobs) : jobs_(jobs) {}

  void setup(std::uint64_t seed, Tracer* tracer) override {
    instances_.clear();
    for (const int m : kMachines) {
      instances_.push_back(traced_make_instance(
          tracer, workload::WorkloadSpec::poisson(
                      jobs_, 0.8, workload::ParetoSize{1.8, 0.5, 50.0},
                      spec_seed(seed, static_cast<std::uint64_t>(m)),
                      m)));
    }
  }

  [[nodiscard]] std::size_t cycle() const override {
    return kKs.size() * kMachines.size() * 2;
  }

  [[nodiscard]] ItemResult run(std::size_t index, Tracer* tracer) override {
    const std::size_t cell = index % cycle();
    const double k = kKs[cell / 4];
    const std::size_t mi = (cell / 2) % 2;
    const bool at_eta = cell % 2 == 1;
    const Instance& instance = instances_[mi];

    RunRequest request;
    request.machines = kMachines[mi];
    request.speed = at_eta ? analysis::theorem1_speed(k, kEps) : 1.0;
    request.record_trace = true;

    ItemResult out;
    out.label = k_label(k) + "-m" + std::to_string(kMachines[mi]) +
                (at_eta ? "-eta" : "-s1");
    const RunResult result = traced_run(tracer, index, instance, request);
    out.error = check_run(result, instance.n());

    analysis::DualFitResult cert;
    {
      Span span(tracer, "analysis", "analysis.dual_fit",
                static_cast<std::int64_t>(index));
      cert = analysis::dual_fit_certificate(result.schedule,
                                            analysis::DualFitOptions{k, kEps});
      span.note("bench.dual_fit.valid", cert.certificate_valid() ? 1 : 0);
    }
    double norm = 0.0;
    {
      Span span(tracer, "metrics", "metrics.flow_lk_norm",
                static_cast<std::int64_t>(index));
      norm = flow_lk_norm(result.schedule, k);
    }
    out.outputs = {norm, cert.objective_ratio};
    if (out.error.empty() && at_eta && !cert.certificate_valid()) {
      out.error = "dual-fit certificate invalid at eta";
    }
    return out;
  }

 private:
  inline static const std::vector<int> kMachines{1, 4};
  std::size_t jobs_;
  std::vector<Instance> instances_;
};

// --- lp_bracket --------------------------------------------------------------
// The T2 cell: RR at eta plus the certified OPT bracket from the MCMF LP,
// for every standard workload family and k.

class LpBracket final : public Workload {
 public:
  explicit LpBracket(std::size_t jobs) : jobs_(jobs) {}

  void setup(std::uint64_t seed, Tracer* tracer) override {
    sets_.clear();
    for (std::size_t i = 0; i < kSets; ++i) {
      Span span(tracer, "workload", "workload.make_instance", -1);
      sets_.push_back(bench::standard_workloads(jobs_, 1, spec_seed(seed, i)));
      for (const auto& family : sets_.back()) {
        span.note("bench.jobs", family.instance.n());
      }
    }
  }

  [[nodiscard]] std::size_t cycle() const override {
    return sets_.front().size() * kKs.size();
  }

  [[nodiscard]] ItemResult run(std::size_t index, Tracer* tracer) override {
    const std::size_t families = sets_.front().size();
    const std::size_t block = index / families;
    const auto& family = sets_[index % kSets][index % families];
    const double k = kKs[block % kKs.size()];

    RunRequest request;
    request.speed = analysis::theorem1_speed(k, kEps);
    request.record_trace = false;

    ItemResult out;
    out.label = family.name + "-" + k_label(k);
    const RunResult result =
        traced_run(tracer, index, family.instance, request);
    out.error = check_run(result, family.instance.n());
    {
      Span span(tracer, "metrics", "metrics.flow_lk_norm",
                static_cast<std::int64_t>(index));
      out.outputs = {flow_lk_norm(result.schedule, k)};
    }

    lpsolve::OptBounds bounds;
    {
      Span span(tracer, "lpsolve", "lpsolve.opt_bounds",
                static_cast<std::int64_t>(index));
      lpsolve::OptBoundsOptions options;
      options.k = k;
      bounds = lpsolve::opt_bounds(family.instance, options);
    }
    out.bounds = {bounds.certified_lb, bounds.proxy_ub};
    out.bracket = bounds.proxy_ub / bounds.certified_lb;
    if (!out.error.empty()) return out;
    if (!bounds.lb_certified) {
      out.error = "lower bound not certified";
    } else if (!(bounds.certified_lb <= bounds.proxy_ub) ||
               !std::isfinite(out.bracket)) {
      out.error = "certified_lb above proxy_ub";
    }
    return out;
  }

 private:
  // Every item draws its family from a set of its own, and every six items
  // move to the next k: a cycle covers each (family, k) cell once, and a
  // run averages over many random instances of every family.  One set's
  // random families tend to be hard or easy for the LP together, so taking
  // a cycle's families from one set made whole cycles slow or fast.
  static constexpr std::size_t kSets = 288;
  std::size_t jobs_;
  std::vector<std::vector<bench::NamedInstance>> sets_;
};

// --- adversary_search --------------------------------------------------------
// A4 at a small budget: one search per item (k cycles 1, 2, 3; every item
// has its own search seed), then re-verification of the best record.

class AdversarySearch final : public Workload {
 public:
  AdversarySearch(std::size_t budget, std::size_t max_jobs)
      : budget_(budget), max_jobs_(max_jobs) {}

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    Span span(tracer, "search", "search.baseline", -1);
    baseline_k2_ = search::baseline_hard_family(options(2.0, seed));
    if (!baseline_k2_.ok) {
      throw std::runtime_error("k=2 baseline family did not certify");
    }
  }

  [[nodiscard]] std::size_t cycle() const override { return kKs.size(); }

  [[nodiscard]] ItemResult run(std::size_t index, Tracer* tracer) override {
    const double k = kKs[index % kKs.size()];
    const search::SearchOptions opts =
        options(k, harness::derive_seed(seed_, index));
    ItemResult out;
    out.label = k_label(k);

    search::SearchResult result;
    {
      Span span(tracer, "search", "search.adversary",
                static_cast<std::int64_t>(index));
      result = search::search_adversary(opts);
    }
    if (!result.found) {
      out.error = "search certified nothing";
      return out;
    }
    out.bounds = {result.best.cost_power, result.best.certified_lb,
                  result.best.ratio, result.best.lp_slot,
                  static_cast<double>(result.stats.evals),
                  static_cast<double>(result.stats.certifications)};
    search::VerifyReport report;
    {
      Span span(tracer, "search", "search.verify_record",
                static_cast<std::int64_t>(index));
      report = search::verify_record(result.best);
    }
    if (!report.ok) {
      out.error = "record failed verification: " + report.error;
    } else if (k == 2.0 &&
               result.best.ratio < baseline_k2_.ratio * (1.0 - 1e-9)) {
      out.error = "k=2 search below the hand-built baseline";
    }
    return out;
  }

 private:
  [[nodiscard]] search::SearchOptions options(double k,
                                              std::uint64_t seed) const {
    search::SearchOptions opts;
    opts.k = k;
    opts.seed = seed;
    opts.budget = budget_;
    opts.max_jobs = max_jobs_;
    return opts;
  }

  std::size_t budget_;
  std::size_t max_jobs_;
  std::uint64_t seed_ = 0;
  search::CertifiedEval baseline_k2_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, bool smoke) {
  if (name == "sim_zoo") {
    return smoke ? std::make_unique<SimZoo>(2000, 10000)
                 : std::make_unique<SimZoo>(200000, 1000000);
  }
  if (name == "dualfit_trace") {
    return std::make_unique<DualfitTrace>(smoke ? 1000 : 100000);
  }
  if (name == "lp_bracket") {
    return std::make_unique<LpBracket>(smoke ? 12 : 50);
  }
  if (name == "adversary_search") {
    return smoke ? std::make_unique<AdversarySearch>(4, 6)
                 : std::make_unique<AdversarySearch>(40, 6);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
