#include "workload/source.h"

#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "obs/obs.h"
#include "policies/registry.h"
#include "workload/adversarial.h"
#include "workload/stream.h"
#include "workload/trace_io.h"

namespace tempofair::workload {

namespace {

/// Rejects parameters no kind handler reads, so a typo ("laod=0.9") fails
/// loudly instead of silently running the default.
void check_keys(const WorkloadSpec& spec,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : spec.params) {
    bool ok = false;
    for (const std::string_view a : allowed) ok = ok || key == a;
    if (!ok) {
      std::string list;
      for (const std::string_view a : allowed) {
        if (!list.empty()) list += ' ';
        list += a;
      }
      throw SpecError("workload spec '" + spec.to_string() +
                      "': unknown parameter '" + key + "' (accepted: " + list +
                      ")");
    }
  }
}

[[nodiscard]] std::size_t spec_count(const WorkloadSpec& spec,
                                     std::string_view key, long fallback) {
  const long v = spec.get_int(key, fallback);
  if (v < 0) {
    throw SpecError("workload spec '" + spec.to_string() + "': " +
                    std::string(key) + " must be >= 0");
  }
  return static_cast<std::size_t>(v);
}

[[nodiscard]] double spec_positive(const WorkloadSpec& spec,
                                   std::string_view key, double fallback) {
  const double v = spec.get_double(key, fallback);
  if (!(v > 0.0)) {
    throw SpecError("workload spec '" + spec.to_string() + "': " +
                    std::string(key) + " must be > 0");
  }
  return v;
}

[[nodiscard]] int spec_machines(const WorkloadSpec& spec) {
  const long m = spec.get_int("machines", 1);
  if (m < 1) {
    throw SpecError("workload spec '" + spec.to_string() +
                    "': machines must be >= 1");
  }
  return static_cast<int>(m);
}

[[nodiscard]] double spec_load(const WorkloadSpec& spec) {
  const double load = spec.get_double("load", 0.9);
  if (!(load > 0.0) || load > 1.5) {
    throw SpecError("workload spec '" + spec.to_string() +
                    "': load outside (0, 1.5]");
  }
  return load;
}

/// The optional `weights=` parameter; kNone when absent.
enum class Weights { kNone, kRandom, kInverseSize, kProportionalSize };

[[nodiscard]] Weights spec_weights(const WorkloadSpec& spec) {
  const std::string* v = spec.find("weights");
  if (v == nullptr) return Weights::kNone;
  if (*v == "random") return Weights::kRandom;
  if (*v == "inv-size") return Weights::kInverseSize;
  if (*v == "prop-size") return Weights::kProportionalSize;
  throw SpecError("workload spec '" + spec.to_string() + "': weights must be "
                  "random, inv-size, or prop-size, got '" + *v + "'");
}

/// Reweighting draws from its own generator (seed XOR a fixed tag) so adding
/// `weights=` never perturbs the arrival/size sequence.
[[nodiscard]] Instance apply_weights(Instance inst, Weights w,
                                     std::uint64_t seed) {
  if (w == Weights::kNone) return inst;
  const WeightScheme scheme = w == Weights::kRandom ? WeightScheme::kRandom
                              : w == Weights::kInverseSize
                                  ? WeightScheme::kInverseSize
                                  : WeightScheme::kProportionalSize;
  Rng rng(seed ^ 0x7765696768747364ULL);
  return with_weights(inst, scheme, rng);
}

// --- streams owned by their randomness --------------------------------------

/// detail::PoissonStream plus the Rng/SizeDist it draws from, so a source
/// can hand out self-contained streams.
class OwningPoissonStream final : public JobStream {
 public:
  OwningPoissonStream(std::size_t n, double lambda, const SizeDist& dist,
                      std::uint64_t seed)
      : dist_(dist), rng_(seed), inner_(n, lambda, dist_, rng_) {}

  [[nodiscard]] std::size_t n() const noexcept override { return inner_.n(); }
  [[nodiscard]] Job next() override { return inner_.next(); }

 private:
  SizeDist dist_;
  Rng rng_;
  detail::PoissonStream inner_;
};

/// detail::InstanceRefStream plus shared ownership of the instance.
class OwningInstanceStream final : public JobStream {
 public:
  explicit OwningInstanceStream(std::shared_ptr<const Instance> instance)
      : instance_(std::move(instance)), inner_(*instance_) {}

  [[nodiscard]] std::size_t n() const noexcept override { return inner_.n(); }
  [[nodiscard]] Job next() override { return inner_.next(); }

 private:
  std::shared_ptr<const Instance> instance_;
  detail::InstanceRefStream inner_;
};

// --- sources -----------------------------------------------------------------

class PoissonSource final : public WorkloadSource {
 public:
  explicit PoissonSource(WorkloadSpec s) : WorkloadSource(std::move(s)) {
    check_keys(spec(), {"n", "load", "dist", "seed", "machines", "weights"});
    n_ = spec_count(spec(), "n", 1000);
    lambda_ = spec_load(spec()) * spec_machines(spec()) /
              mean_size(spec().dist());
    weights_ = spec_weights(spec());
  }

  [[nodiscard]] std::size_t n() const override { return n_; }
  [[nodiscard]] bool streamable() const noexcept override {
    return weights_ == Weights::kNone;
  }
  [[nodiscard]] std::unique_ptr<JobStream> stream() override {
    if (!streamable()) return WorkloadSource::stream();  // throws
    return std::make_unique<OwningPoissonStream>(n_, lambda_, spec().dist(),
                                                 spec().seed());
  }
  [[nodiscard]] Instance instance() override {
    OwningPoissonStream s(n_, lambda_, spec().dist(), spec().seed());
    return apply_weights(materialize(s), weights_, spec().seed());
  }

 private:
  std::size_t n_;
  double lambda_;
  Weights weights_;
};

/// Any kind whose construction is cheap enough to materialize eagerly
/// (deterministic streams, bursty batches, the adversarial families).
/// Streams by reference when the ids happen to be sequential in release
/// order, which all built-in builders guarantee.
class MaterializedSource final : public WorkloadSource {
 public:
  MaterializedSource(WorkloadSpec s, Instance instance)
      : WorkloadSource(std::move(s)),
        instance_(std::make_shared<const Instance>(std::move(instance))) {}

  [[nodiscard]] std::size_t n() const override { return instance_->n(); }
  [[nodiscard]] bool streamable() const noexcept override {
    return instance_->ids_in_release_order();
  }
  [[nodiscard]] std::unique_ptr<JobStream> stream() override {
    if (!streamable()) return WorkloadSource::stream();  // throws
    return std::make_unique<OwningInstanceStream>(instance_);
  }
  [[nodiscard]] Instance instance() override { return *instance_; }

 private:
  std::shared_ptr<const Instance> instance_;
};

class TraceSource final : public WorkloadSource {
 public:
  explicit TraceSource(WorkloadSpec s) : WorkloadSource(std::move(s)) {
    check_keys(spec(), {"path"});
    const std::string* path = spec().find("path");
    if (path == nullptr || path->empty()) {
      throw SpecError("workload spec 'trace:': missing path");
    }
    path_ = *path;
    try {
      const TraceInfo info = probe_trace_file(path_);
      n_ = info.n;
      binary_ = info.binary;
      streamable_ = info.streamable;
    } catch (const std::runtime_error& e) {
      // Missing file, bad header, truncation: surface as a spec error so
      // every caller reports it uniformly.
      throw SpecError(e.what());
    }
  }

  [[nodiscard]] std::size_t n() const override { return n_; }
  [[nodiscard]] bool streamable() const noexcept override {
    return streamable_;
  }
  [[nodiscard]] std::unique_ptr<JobStream> stream() override {
    if (!streamable_) return WorkloadSource::stream();  // throws
    if (binary_) return std::make_unique<BinaryTraceStream>(path_);
    return std::make_unique<CsvTraceStream>(path_);
  }
  [[nodiscard]] Instance instance() override {
    return read_trace_file(path_);
  }

 private:
  std::string path_;
  std::size_t n_ = 0;
  bool binary_ = false;
  bool streamable_ = false;
};

}  // namespace

std::unique_ptr<JobStream> WorkloadSource::stream() {
  throw std::logic_error("WorkloadSource: '" + spec_.to_string() +
                         "' is not streamable; call instance()");
}

std::unique_ptr<WorkloadSource> make_source(const WorkloadSpec& spec) {
  const std::string& kind = spec.kind;
  if (kind == "poisson") return std::make_unique<PoissonSource>(spec);
  if (kind == "trace") return std::make_unique<TraceSource>(spec);
  if (kind == "uniform") {
    check_keys(spec, {"n", "gap", "size", "start"});
    const double gap = spec.get_double("gap", 1.0);
    if (!(gap >= 0.0)) {
      throw SpecError("workload spec '" + spec.to_string() +
                      "': gap must be >= 0");
    }
    const double start = spec.get_double("start", 0.0);
    if (!(start >= 0.0)) {
      throw SpecError("workload spec '" + spec.to_string() +
                      "': start must be >= 0");
    }
    return std::make_unique<MaterializedSource>(
        spec, detail::uniform_stream(spec_count(spec, "n", 100), gap,
                                     spec_positive(spec, "size", 1.0), start));
  }
  if (kind == "bursty") {
    check_keys(spec, {"bursts", "per", "gap", "dist", "seed", "weights"});
    Rng rng(spec.seed());
    Instance inst = detail::bursty_stream(
        spec_count(spec, "bursts", 10), spec_count(spec, "per", 10),
        spec_positive(spec, "gap", 10.0), spec.dist(), rng);
    return std::make_unique<MaterializedSource>(
        spec, apply_weights(std::move(inst), spec_weights(spec), spec.seed()));
  }
  if (kind == "adv-rr-l2-hard") {
    check_keys(spec, {"n"});
    return std::make_unique<MaterializedSource>(
        spec, rr_l2_hard(spec_count(spec, "n", 40)));
  }
  if (kind == "adv-batch-stream") {
    check_keys(spec, {"batch", "stream", "gap", "size"});
    return std::make_unique<MaterializedSource>(
        spec, batch_plus_stream(spec_count(spec, "batch", 40),
                                spec_count(spec, "stream", 160),
                                spec_positive(spec, "gap", 1.05),
                                spec_positive(spec, "size", 1.0)));
  }
  if (kind == "adv-srpt-starvation") {
    check_keys(spec, {"stream", "big", "gap"});
    return std::make_unique<MaterializedSource>(
        spec, srpt_starvation(spec_count(spec, "stream", 200),
                              spec_positive(spec, "big", 2.0),
                              spec_positive(spec, "gap", 1.0)));
  }
  if (kind == "adv-overload-pulse") {
    check_keys(spec, {"pulses", "burst", "machines"});
    return std::make_unique<MaterializedSource>(
        spec, overload_pulse(spec_count(spec, "pulses", 4),
                             spec_count(spec, "burst", 32),
                             spec_machines(spec)));
  }
  if (kind == "adv-staircase") {
    check_keys(spec, {"n"});
    return std::make_unique<MaterializedSource>(
        spec, staircase(spec_count(spec, "n", 16)));
  }
  if (kind == "adv-geometric") {
    check_keys(spec, {"levels", "spacing"});
    const long levels = spec.get_int("levels", 8);
    if (levels < 1) {
      throw SpecError("workload spec '" + spec.to_string() +
                      "': levels must be >= 1");
    }
    return std::make_unique<MaterializedSource>(
        spec, geometric_levels(static_cast<int>(levels),
                               spec_positive(spec, "spacing", 1.05)));
  }
  std::string kinds;
  for (const std::string& k : builtin_workload_kinds()) {
    if (!kinds.empty()) kinds += ' ';
    kinds += k;
  }
  throw SpecError("workload spec '" + spec.to_string() + "': unknown kind '" +
                  kind + "' (known: " + kinds + ")");
}

std::unique_ptr<WorkloadSource> make_source(std::string_view spec_string) {
  return make_source(WorkloadSpec::parse(spec_string));
}

Instance make_instance(const WorkloadSpec& spec) {
  const obs::ScopedTimer timer("workload.generate");
  return make_source(spec)->instance();
}

Instance make_instance(std::string_view spec_string) {
  const obs::ScopedTimer timer("workload.generate");
  return make_source(spec_string)->instance();
}

std::vector<std::string> builtin_workload_kinds() {
  return {"poisson",             "uniform",
          "bursty",              "trace",
          "adv-rr-l2-hard",      "adv-batch-stream",
          "adv-srpt-starvation", "adv-overload-pulse",
          "adv-staircase",       "adv-geometric"};
}

RunResult run_spec(const RunRequest& request) {
  if (request.workload.empty()) {
    throw SpecError("run_spec: request.workload is empty");
  }
  const std::unique_ptr<WorkloadSource> source = make_source(request.workload);
  // The fast path admits arrivals lazily only for FastForward-capable
  // policies with visible sizes.
  const bool fast_capable = make_policy(request.policy)->fast_forward().enabled();
  if (source->streamable() && request.use_fast_path && fast_capable &&
      !request.hide_sizes) {
    const std::unique_ptr<JobStream> stream = source->stream();
    return tempofair::run(*stream, request);
  }
  return tempofair::run(source->instance(), request);
}

}  // namespace tempofair::workload
