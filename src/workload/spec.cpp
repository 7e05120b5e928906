#include "workload/spec.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

namespace tempofair::workload {

namespace {

[[nodiscard]] double parse_num(std::string_view text, std::string_view what) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size() ||
      !std::isfinite(v)) {
    throw SpecError("workload spec: bad number '" + std::string(text) +
                    "' for " + std::string(what));
  }
  return v;
}

[[nodiscard]] std::string num_text(double v) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

/// Splits on top-level commas: commas inside a '(...)' group (distribution
/// arguments) do not separate parameters.
[[nodiscard]] std::vector<std::string_view> split_params(std::string_view text) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') --depth;
    if (text[i] == ',' && depth == 0) {
      parts.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  parts.push_back(text.substr(start));
  return parts;
}

}  // namespace

WorkloadSpec WorkloadSpec::parse(std::string_view text) {
  if (text.empty()) throw SpecError("workload spec: empty string");
  WorkloadSpec spec;
  const std::size_t colon = text.find(':');
  spec.kind = std::string(text.substr(0, colon));
  if (spec.kind.empty()) {
    throw SpecError("workload spec '" + std::string(text) + "': empty kind");
  }
  if (colon == std::string_view::npos) return spec;
  const std::string_view rest = text.substr(colon + 1);
  if (spec.kind == "trace") {
    // The remainder is a filesystem path, taken verbatim.
    if (rest.empty()) throw SpecError("workload spec 'trace:': missing path");
    spec.params.emplace_back("path", std::string(rest));
    return spec;
  }
  if (rest.empty()) return spec;
  for (const std::string_view part : split_params(rest)) {
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw SpecError("workload spec '" + std::string(text) +
                      "': expected key=value, got '" + std::string(part) + "'");
    }
    std::string key(part.substr(0, eq));
    if (spec.find(key) != nullptr) {
      throw SpecError("workload spec '" + std::string(text) +
                      "': duplicate parameter '" + key + "'");
    }
    spec.params.emplace_back(std::move(key), std::string(part.substr(eq + 1)));
  }
  return spec;
}

std::string WorkloadSpec::to_string() const {
  std::string out = kind;
  if (kind == "trace") {
    if (const std::string* path = find("path")) out += ":" + *path;
    return out;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += (i == 0 ? ':' : ',');
    out += params[i].first + "=" + params[i].second;
  }
  return out;
}

const std::string* WorkloadSpec::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string WorkloadSpec::get_string(std::string_view key,
                                     std::string fallback) const {
  const std::string* v = find(key);
  return v != nullptr ? *v : std::move(fallback);
}

double WorkloadSpec::get_double(std::string_view key, double fallback) const {
  const std::string* v = find(key);
  return v != nullptr ? parse_num(*v, key) : fallback;
}

long WorkloadSpec::get_int(std::string_view key, long fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  const double num = parse_num(*v, key);
  const long as_long = static_cast<long>(num);
  if (static_cast<double>(as_long) != num) {
    throw SpecError("workload spec: parameter '" + std::string(key) +
                    "' must be an integer, got '" + *v + "'");
  }
  return as_long;
}

std::uint64_t WorkloadSpec::seed() const {
  const long seed = get_int("seed", 1);
  if (seed < 0) {
    throw SpecError("workload spec: seed must be >= 0");
  }
  return static_cast<std::uint64_t>(seed);
}

SizeDist WorkloadSpec::dist() const {
  const std::string* v = find("dist");
  return v != nullptr ? parse_size_dist(*v) : SizeDist(ExponentialSize{1.0});
}

WorkloadSpec& WorkloadSpec::set(std::string key, std::string value) {
  for (auto& [k, v] : params) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  params.emplace_back(std::move(key), std::move(value));
  return *this;
}

WorkloadSpec& WorkloadSpec::set(std::string key, double value) {
  return set(std::move(key), num_text(value));
}

WorkloadSpec& WorkloadSpec::set(std::string key, long value) {
  return set(std::move(key), std::to_string(value));
}

WorkloadSpec WorkloadSpec::poisson(std::size_t n, double load,
                                   const SizeDist& dist, std::uint64_t seed,
                                   int machines) {
  WorkloadSpec spec;
  spec.kind = "poisson";
  spec.set("n", static_cast<long>(n));
  spec.set("load", load);
  spec.set("dist", size_dist_spec(dist));
  spec.set("seed", static_cast<long>(seed));
  if (machines != 1) spec.set("machines", static_cast<long>(machines));
  return spec;
}

WorkloadSpec WorkloadSpec::uniform(std::size_t n, double gap, double size,
                                   double start) {
  WorkloadSpec spec;
  spec.kind = "uniform";
  spec.set("n", static_cast<long>(n));
  spec.set("gap", gap);
  spec.set("size", size);
  if (start != 0.0) spec.set("start", start);
  return spec;
}

WorkloadSpec WorkloadSpec::bursty(std::size_t bursts, std::size_t per_burst,
                                  double gap, const SizeDist& dist,
                                  std::uint64_t seed) {
  WorkloadSpec spec;
  spec.kind = "bursty";
  spec.set("bursts", static_cast<long>(bursts));
  spec.set("per", static_cast<long>(per_burst));
  spec.set("gap", gap);
  spec.set("dist", size_dist_spec(dist));
  spec.set("seed", static_cast<long>(seed));
  return spec;
}

WorkloadSpec WorkloadSpec::mmpp(std::size_t n, double load, double burst,
                                double on, double off, const SizeDist& dist,
                                std::uint64_t seed, int machines) {
  WorkloadSpec spec;
  spec.kind = "mmpp";
  spec.set("n", static_cast<long>(n));
  spec.set("load", load);
  spec.set("burst", burst);
  spec.set("on", on);
  spec.set("off", off);
  spec.set("dist", size_dist_spec(dist));
  spec.set("seed", static_cast<long>(seed));
  if (machines != 1) spec.set("machines", static_cast<long>(machines));
  return spec;
}

WorkloadSpec WorkloadSpec::trace(std::string path) {
  WorkloadSpec spec;
  spec.kind = "trace";
  spec.params.emplace_back("path", std::move(path));
  return spec;
}

SizeDist parse_size_dist(std::string_view text) {
  std::string_view name = text;
  std::vector<double> args;
  if (const std::size_t open = text.find('('); open != std::string_view::npos) {
    if (text.back() != ')') {
      throw SpecError("size distribution '" + std::string(text) +
                      "': missing ')'");
    }
    name = text.substr(0, open);
    std::string_view body = text.substr(open + 1, text.size() - open - 2);
    if (body.empty()) {
      throw SpecError("size distribution '" + std::string(text) +
                      "': empty argument list (write the bare name '" +
                      std::string(name) + "' for defaults)");
    }
    while (!body.empty()) {
      std::size_t comma = body.find(',');
      if (comma == std::string_view::npos) comma = body.size();
      args.push_back(parse_num(body.substr(0, comma), "distribution argument"));
      body.remove_prefix(comma == body.size() ? comma : comma + 1);
    }
  }
  auto arg = [&](std::size_t i, double fallback) {
    return i < args.size() ? args[i] : fallback;
  };
  if (name == "fixed") return FixedSize{arg(0, 1.0)};
  if (name == "uniform") return UniformSize{arg(0, 0.5), arg(1, 1.5)};
  if (name == "exp") return ExponentialSize{arg(0, 1.0)};
  if (name == "pareto") return ParetoSize{arg(0, 1.8), arg(1, 0.5), arg(2, 0.0)};
  if (name == "bimodal") return BimodalSize{arg(0, 0.9), arg(1, 1.0), arg(2, 50.0)};
  throw SpecError("size distribution '" + std::string(text) +
                  "': unknown name '" + std::string(name) +
                  "' (fixed uniform exp pareto bimodal)");
}

std::string size_dist_spec(const SizeDist& dist) {
  struct Visitor {
    std::string operator()(const FixedSize& d) const {
      return "fixed(" + num_text(d.value) + ")";
    }
    std::string operator()(const UniformSize& d) const {
      return "uniform(" + num_text(d.lo) + "," + num_text(d.hi) + ")";
    }
    std::string operator()(const ExponentialSize& d) const {
      return "exp(" + num_text(d.mean) + ")";
    }
    std::string operator()(const ParetoSize& d) const {
      std::string out = "pareto(" + num_text(d.alpha) + "," + num_text(d.xmin);
      if (d.cap != 0.0) {
        // Two appends, not "," + temporary: g++ 12 at -O3 reports a false
        // -Wrestrict on the latter.
        out += ',';
        out += num_text(d.cap);
      }
      return out + ")";
    }
    std::string operator()(const BimodalSize& d) const {
      return "bimodal(" + num_text(d.p_small) + "," + num_text(d.small) + "," +
             num_text(d.large) + ")";
    }
  };
  return std::visit(Visitor{}, dist);
}

}  // namespace tempofair::workload
