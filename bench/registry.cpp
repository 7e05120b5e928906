#include "registry.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common.h"
#include "harness/cli.h"
#include "obs/obs.h"

namespace tempofair::bench {

namespace {

/// Splits "f10" into ("f", 10).  Ids without a numeric suffix compare by
/// the whole string with suffix rank 0.
std::pair<std::string, long> split_natural(const std::string& id) {
  std::size_t digits = 0;
  while (digits < id.size() &&
         std::isdigit(static_cast<unsigned char>(id[id.size() - 1 - digits]))) {
    ++digits;
  }
  if (digits == 0) return {id, 0};
  return {id.substr(0, id.size() - digits),
          std::stol(id.substr(id.size() - digits))};
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

RunContext::RunContext(const ParamOverrides& overrides,
                       harness::ThreadPool& pool, std::ostream& out,
                       bool smoke, bool csv)
    : overrides_(&overrides), pool_(&pool), out_(&out), smoke_(smoke),
      csv_(csv) {}

const std::string* RunContext::override_for(const std::string& name) const {
  const auto it = overrides_->find(name);
  if (it == overrides_->end() || it->second.empty()) return nullptr;
  return &it->second;
}

long RunContext::int_param(const std::string& name, long fallback) {
  const std::string* given = override_for(name);
  const long v =
      given != nullptr ? harness::detail::parse_long(name, *given) : fallback;
  params_[name] = std::to_string(v);
  return v;
}

double RunContext::double_param(const std::string& name, double fallback) {
  const std::string* given = override_for(name);
  const double v = given != nullptr
                       ? harness::detail::parse_double(name, *given)
                       : fallback;
  params_[name] = harness::detail::format_double(v);
  return v;
}

std::string RunContext::string_param(const std::string& name,
                                     const std::string& fallback) {
  const std::string* given = override_for(name);
  const std::string v = given != nullptr ? *given : fallback;
  params_[name] = v;
  return v;
}

std::uint64_t RunContext::seed_param(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      int_param("seed", static_cast<long>(fallback)));
}

std::size_t RunContext::size_param(const std::string& name,
                                   std::size_t fallback, std::size_t floor) {
  std::size_t dflt = fallback;
  if (smoke_ && overrides_->count(name) == 0) {
    dflt = std::max(fallback / 8, std::min(floor, fallback));
  }
  return static_cast<std::size_t>(int_param(name, static_cast<long>(dflt)));
}

void RunContext::banner(const std::string& id, const std::string& claim,
                        const std::string& expectation) {
  bench::banner(*out_, id, claim, expectation);
}

void RunContext::emit(const analysis::Table& table) {
  bench::emit(*out_, table, csv_);
}

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(ExperimentSpec spec) {
  if (spec.id.empty() || !spec.run) {
    throw std::logic_error("ExperimentRegistry: spec needs an id and a run fn");
  }
  if (specs_.count(spec.id) > 0) {
    throw std::logic_error("ExperimentRegistry: duplicate experiment id '" +
                           spec.id + "'");
  }
  specs_.emplace(spec.id, std::move(spec));
}

const ExperimentSpec* ExperimentRegistry::find(const std::string& id) const {
  const auto it = specs_.find(id);
  return it == specs_.end() ? nullptr : &it->second;
}

std::vector<const ExperimentSpec*> ExperimentRegistry::all() const {
  std::vector<const ExperimentSpec*> out;
  out.reserve(specs_.size());
  for (const auto& [id, spec] : specs_) out.push_back(&spec);
  std::sort(out.begin(), out.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) {
              return natural_id_less(a->id, b->id);
            });
  return out;
}

Registration::Registration(ExperimentSpec spec) {
  ExperimentRegistry::instance().add(std::move(spec));
}

bool natural_id_less(const std::string& a, const std::string& b) {
  const auto [pa, na] = split_natural(a);
  const auto [pb, nb] = split_natural(b);
  if (pa != pb) return pa < pb;
  if (na != nb) return na < nb;
  return a < b;
}

std::vector<const ExperimentSpec*> select_experiments(
    const ExperimentRegistry& registry, const std::string& filter) {
  std::vector<const ExperimentSpec*> selected;
  if (filter.empty()) return registry.all();

  std::string id;
  std::istringstream in(filter);
  while (std::getline(in, id, ',')) {
    if (id.empty()) continue;
    const ExperimentSpec* spec = registry.find(id);
    if (spec == nullptr) {
      std::string valid;
      for (const ExperimentSpec* s : registry.all()) {
        if (!valid.empty()) valid += ", ";
        valid += s->id;
      }
      throw std::invalid_argument("unknown experiment id '" + id +
                                  "'; valid ids: " + valid);
    }
    if (std::find(selected.begin(), selected.end(), spec) == selected.end()) {
      selected.push_back(spec);
    }
  }
  std::sort(selected.begin(), selected.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) {
              return natural_id_less(a->id, b->id);
            });
  return selected;
}

RunOutcome run_experiment(const ExperimentSpec& spec,
                          const ParamOverrides& overrides,
                          harness::ThreadPool& pool, bool smoke, bool csv) {
  RunOutcome outcome;
  outcome.id = spec.id;

  obs::Sink sink;
  std::ostringstream buffer;
  RunContext ctx(overrides, pool, buffer, smoke, csv);

  const auto wall_start = std::chrono::steady_clock::now();
  {
    obs::ScopedSink scope(&sink);
    obs::CpuAccount cpu(sink, "cpu_ns");
    try {
      outcome.exit_code = spec.run(ctx);
      outcome.status = outcome.exit_code == 0 ? "ok" : "check_failed";
    } catch (const std::exception& e) {
      outcome.status = "error";
      outcome.error = e.what();
      outcome.exit_code = 1;
    }
  }
  outcome.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  outcome.counters = sink.snapshot();
  // Total CPU = this thread's self time plus everything the pool ran on the
  // experiment's behalf (chunks stolen by other workers included).
  outcome.cpu_s =
      static_cast<double>(sink.value("cpu_ns") + sink.value("pool.cpu_ns")) /
      1e9;
  outcome.params = ctx.params();
  outcome.output = buffer.str();
  return outcome;
}

std::string outcome_json(const RunOutcome& outcome, const std::string& git_rev,
                         bool smoke) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"id\": \"" << json_escape(outcome.id) << "\",\n";
  js << "  \"status\": \"" << json_escape(outcome.status) << "\",\n";
  js << "  \"exit_code\": " << outcome.exit_code << ",\n";
  if (!outcome.error.empty()) {
    js << "  \"error\": \"" << json_escape(outcome.error) << "\",\n";
  }
  js << "  \"git_rev\": \"" << json_escape(git_rev) << "\",\n";
  js << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  js << "  \"wall_s\": " << outcome.wall_s << ",\n";
  js << "  \"cpu_s\": " << outcome.cpu_s << ",\n";
  js << "  \"params\": {";
  bool first = true;
  for (const auto& [name, value] : outcome.params) {
    js << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": \""
       << json_escape(value) << "\"";
    first = false;
  }
  js << (first ? "" : "\n  ") << "},\n";
  js << "  \"counters\": {";
  first = true;
  for (const auto& [name, value] : outcome.counters) {
    js << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << value;
    first = false;
  }
  js << (first ? "" : "\n  ") << "}\n";
  js << "}\n";
  return js.str();
}

}  // namespace tempofair::bench
