#include "search/adversary.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "analysis/competitive.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/lower_bounds.h"
#include "obs/obs.h"
#include "policies/registry.h"
#include "workload/adversarial.h"
#include "workload/rng.h"

namespace tempofair::search {

namespace {

/// Memory budget for one certification's LP.  solve_flowtime_lp holds at
/// most 128 bytes per LP variable (job->slot arc): the 24-byte edge, its two
/// residual arcs in MCMF's cap/cost/head/rev arrays (48), its flow (8), its
/// unit cost (8) and its share of the arc runs (at most 8); the edge list
/// and the costs are sized up front.  Each slot adds at most 256 bytes (a
/// node's eight per-node entries, 64; its slot->sink edge, 128; its handle,
/// 8; beta_t as a Rational and a double, 48), so the grid is capped at the
/// kAutoLpMaxSlots the search's own grids never exceed (about 150 KiB).
/// 16 MiB of arcs is 131072 variables, over 200 jobs on a full grid; the
/// rest of the LP (a node, a source edge and alpha_j per job, again under
/// 256 bytes) grows with the instance itself.  An LP above either cap --
/// reachable only through a record's untrusted lp_slot -- is never built:
/// the denominator falls back to the certified trivial bound.
constexpr std::size_t kLpMemoryBudgetBytes = std::size_t{16} << 20;
constexpr std::size_t kLpBytesPerVar = 128;
constexpr std::size_t kMaxLpVars = kLpMemoryBudgetBytes / kLpBytesPerVar;

/// Mutated-size clamp: keeps every candidate inside Instance validation and
/// clear of the kMinLpJobSize drop threshold.
constexpr double kMinSize = 1e-6;
constexpr double kMaxSize = 1e6;

struct Candidate {
  std::vector<double> releases;
  std::vector<double> sizes;
  std::string family;
};

Candidate candidate_of(const Instance& instance, std::string family) {
  Candidate c;
  c.family = std::move(family);
  c.releases.reserve(instance.n());
  c.sizes.reserve(instance.n());
  for (const Job& j : instance.jobs()) {
    c.releases.push_back(j.release);
    c.sizes.push_back(j.size);
  }
  return c;
}

Instance instance_of(const Candidate& c) {
  std::vector<std::pair<Time, Work>> pairs;
  pairs.reserve(c.releases.size());
  for (std::size_t i = 0; i < c.releases.size(); ++i) {
    pairs.emplace_back(c.releases[i], c.sizes[i]);
  }
  return Instance::from_pairs(pairs);
}

void validate(const SearchOptions& options) {
  if (!(options.k >= 1.0) || !std::isfinite(options.k)) {
    throw std::invalid_argument("search: k must be finite and >= 1");
  }
  if (options.machines < 1) {
    throw std::invalid_argument("search: machines must be >= 1");
  }
  if (!(options.speed > 0.0) || !std::isfinite(options.speed)) {
    throw std::invalid_argument("search: speed must be finite and > 0");
  }
  if (options.budget == 0) {
    throw std::invalid_argument("search: budget must be >= 1");
  }
  if (options.max_jobs < 4) {
    throw std::invalid_argument("search: max_jobs must be >= 4");
  }
  (void)make_policy(options.policy);  // throws on an unknown spec
}

/// The Bansal-Pruhs batch-plus-stream shape scaled into the job cap; the
/// designated hand-built baseline family.
Instance baseline_instance(const SearchOptions& options) {
  const std::size_t n = options.max_jobs;
  const std::size_t batch = std::max<std::size_t>(2, n / 3);
  return workload::batch_plus_stream(batch, n - batch, 1.05);
}

}  // namespace

CertifiedEval evaluate_certified(const Instance& instance,
                                 const SearchOptions& options, double lp_slot) {
  const obs::ScopedTimer timer("search.certify");
  CertifiedEval out;
  if (instance.empty()) return out;

  RunRequest request;
  request.policy = options.policy;
  request.machines = options.machines;
  request.speed = options.speed;
  request.record_trace = false;
  out.cost_power = flow_lk_power(run(instance, request).schedule, options.k);

  const double slot = lp_slot > 0.0
                          ? lp_slot
                          : lpsolve::auto_lp_slot(instance, options.machines);
  out.lp_slot = slot;

  const lpsolve::CertifiedBound trivial =
      lpsolve::certified_trivial_bound(instance, options.k);
  double lb = trivial.certified ? trivial.value : 0.0;
  bool certified = trivial.certified;

  // The LP denominator, exactly as opt_bounds certifies it: min-cost flow
  // on the discretized LP, whose repaired dual is checked in exact
  // arithmetic.  Failures of any kind leave the trivial bound in place --
  // never a wrong bound.
  lpsolve::FlowtimeLpOptions lp_options;
  lp_options.k = options.k;
  lp_options.machines = options.machines;
  lp_options.slot = slot;
  try {
    // Size the LP from its grid before building it: a record's lp_slot is
    // untrusted input.
    const std::size_t slots =
        lpsolve::flowtime_lp_num_slots(instance, lp_options);
    const std::size_t vars =
        lpsolve::flowtime_lp_num_vars(instance, lp_options);
    if (slots > lpsolve::kAutoLpMaxSlots || vars > kMaxLpVars) {
      obs::add("search.certify.oversized_lp", 1);
    } else if (vars > 0) {
      const lpsolve::CertifiedBound cert =
          lpsolve::solve_flowtime_lp(instance, lp_options).certificate;
      if (cert.certified) {
        // LP optimum <= 2 OPT^k, so half of it lower-bounds OPT^k.
        lb = std::max(lb, cert.value / 2.0);
        certified = true;
      }
    }
  } catch (const std::exception&) {
    // Grid construction refused the instance; the trivial bound stands.
  }

  out.certified_lb = lb;
  const bool lb_usable =
      std::isfinite(lb) && lb >= std::numeric_limits<double>::min();
  const bool cost_usable =
      std::isfinite(out.cost_power) && out.cost_power > 0.0;
  if (certified && lb_usable && cost_usable) {
    out.ratio = std::pow(out.cost_power / lb, 1.0 / options.k);
    out.ok = std::isfinite(out.ratio);
  }
  obs::add(out.ok ? "search.certify.ok" : "search.certify.failed", 1);
  return out;
}

double screen_ratio(const Instance& instance, const SearchOptions& options) {
  const obs::ScopedTimer timer("search.screen");
  lpsolve::OptBoundsOptions bo;
  bo.k = options.k;
  bo.machines = options.machines;
  bo.with_lp = false;
  const lpsolve::OptBounds bounds = lpsolve::opt_bounds(instance, bo);
  const auto policy = make_policy(options.policy);
  analysis::RatioOptions ro;
  ro.k = options.k;
  ro.machines = options.machines;
  ro.speed = options.speed;
  ro.with_lp = false;
  const analysis::RatioMeasurement m =
      analysis::measure_ratio(instance, *policy, ro, bounds);
  if (m.lb_degenerate || !(m.ratio_vs_proxy > 0.0) ||
      !std::isfinite(m.ratio_vs_proxy)) {
    return -1.0;
  }
  return m.ratio_vs_proxy;
}

std::vector<std::pair<std::string, Instance>> seed_instances(
    const SearchOptions& options) {
  const std::size_t n = options.max_jobs;
  std::vector<std::pair<std::string, Instance>> seeds;
  seeds.emplace_back("batch_plus_stream", baseline_instance(options));
  // Geometric size levels: the nested-classes shape behind the cited
  // Omega(n^{2 eps_p}) bound; deepest level count fitting the cap.
  int levels = 2;
  while ((std::size_t{1} << (levels + 1)) - 1 <= n) ++levels;
  seeds.emplace_back("geometric_levels", workload::geometric_levels(levels));
  seeds.emplace_back("staircase", workload::staircase(n));
  // Kuo's SRPT-vs-FCFS starvation shape: one slightly-larger job starved by
  // a zero-slack unit stream.
  seeds.emplace_back("srpt_starvation",
                     workload::srpt_starvation(n - 1, 2.0, 1.0));
  // Dual-fitting stress (Angelopoulos-Lucarelli-Thang adversaries alternate
  // saturation and overload): bursts that fully drain in between.
  seeds.emplace_back(
      "overload_pulse",
      workload::overload_pulse(2, std::max<std::size_t>(2, n / 2),
                               options.machines));
  return seeds;
}

CertifiedEval baseline_hard_family(const SearchOptions& options) {
  return evaluate_certified(baseline_instance(options), options);
}

SearchResult search_adversary(const SearchOptions& options) {
  validate(options);
  workload::Rng rng(options.seed);
  SearchResult res;

  const std::size_t max_certs =
      options.max_certifications != 0
          ? options.max_certifications
          : std::max<std::size_t>(8, options.budget / 16);

  auto set_best = [&](const Instance& instance, const CertifiedEval& eval,
                      const std::string& family) {
    AdversaryRecord rec;
    rec.policy = options.policy;
    rec.k = options.k;
    rec.machines = options.machines;
    rec.speed = options.speed;
    rec.seed = options.seed;
    rec.budget = options.budget;
    rec.evals = res.stats.evals;
    rec.family = family;
    for (const Job& j : instance.jobs()) {
      rec.releases.push_back(j.release);
      rec.sizes.push_back(j.size);
    }
    rec.lp_slot = eval.lp_slot;
    rec.cost_power = eval.cost_power;
    rec.certified_lb = eval.certified_lb;
    rec.ratio = eval.ratio;
    res.best = std::move(rec);
    res.found = true;
  };

  // Stage 0: fully certify every hard-family seed, so the result is never
  // worse than the hand-built baselines.
  const auto seeds = seed_instances(options);
  for (const auto& [family, instance] : seeds) {
    const CertifiedEval eval = evaluate_certified(instance, options);
    ++res.stats.certifications;
    if (eval.ok && (!res.found || eval.ratio > res.best.ratio)) {
      set_best(instance, eval, family);
    }
  }

  auto mutate = [&](Candidate c) -> Candidate {
    const std::size_t n = c.releases.size();
    const auto pick = [&](std::size_t count) -> std::size_t {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    };
    const double span = std::max(
        1.0, *std::max_element(c.releases.begin(), c.releases.end()));
    switch (rng.uniform_int(0, 6)) {
      case 0: {  // jitter one arrival
        const std::size_t i = pick(n);
        c.releases[i] =
            std::max(0.0, c.releases[i] + rng.uniform(-0.25, 0.25) * span);
        break;
      }
      case 1: {  // rescale one size
        const std::size_t i = pick(n);
        c.sizes[i] = std::clamp(c.sizes[i] * std::exp(rng.uniform(-0.5, 0.5)),
                                kMinSize, kMaxSize);
        break;
      }
      case 2: {  // stretch or compress every inter-arrival gap
        const double f = std::exp(rng.uniform(-0.25, 0.25));
        for (double& r : c.releases) r *= f;
        break;
      }
      case 3: {  // batchify: pull one arrival to time 0
        c.releases[pick(n)] = 0.0;
        break;
      }
      case 4: {  // duplicate a job (slightly delayed copy)
        const std::size_t i = pick(n);
        if (n < options.max_jobs) {
          c.releases.push_back(c.releases[i] + rng.uniform(0.0, 1.0));
          c.sizes.push_back(c.sizes[i]);
        } else {
          c.releases[i] += rng.uniform(0.0, 1.0);
        }
        break;
      }
      case 5: {  // drop a job
        const std::size_t i = pick(n);
        if (n > 4) {
          c.releases.erase(c.releases.begin() + static_cast<std::ptrdiff_t>(i));
          c.sizes.erase(c.sizes.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          c.sizes[i] = std::clamp(c.sizes[i] * 0.5, kMinSize, kMaxSize);
        }
        break;
      }
      default: {  // collide two arrivals
        c.releases[pick(n)] = c.releases[pick(n)];
        break;
      }
    }
    c.family = "search";
    return c;
  };

  // Stage 1: greedy local search on the screening objective, certifying a
  // candidate only when it screens better than the champion did when it was
  // crowned, with evolutionary restarts from a fresh seed family on stall.
  Candidate cur = res.found
                      ? Candidate{res.best.releases, res.best.sizes, "search"}
                      : candidate_of(seeds.front().second, "search");
  double cur_screen = screen_ratio(instance_of(cur), options);
  ++res.stats.evals;
  double champ_screen = cur_screen;
  std::size_t stale = 0;

  while (res.stats.evals < options.budget) {
    const Candidate cand = mutate(cur);
    const Instance instance = instance_of(cand);
    const double s = screen_ratio(instance, options);
    ++res.stats.evals;
    if (s < 0.0) {
      ++res.stats.skipped_degenerate;
      ++stale;
    } else if (s > cur_screen) {
      cur = cand;
      cur_screen = s;
      stale = 0;
      if (s > champ_screen && res.stats.certifications < max_certs) {
        const CertifiedEval eval = evaluate_certified(instance, options);
        ++res.stats.certifications;
        if (eval.ok && (!res.found || eval.ratio > res.best.ratio)) {
          set_best(instance, eval, "search");
          ++res.stats.improvements;
        }
        // Whether or not it certified better, require a strictly better
        // screen before paying for the next exact solve.
        champ_screen = s;
      }
    } else {
      ++stale;
    }
    if (stale >= options.restart_after && res.stats.evals < options.budget) {
      ++res.stats.restarts;
      stale = 0;
      const auto& [family, seed_inst] = seeds[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
      cur = mutate(candidate_of(seed_inst, family));
      cur_screen = screen_ratio(instance_of(cur), options);
      ++res.stats.evals;
      if (cur_screen < 0.0) cur_screen = 0.0;
    }
  }

  obs::add("search.evals", res.stats.evals);
  obs::add("search.certifications", res.stats.certifications);
  return res;
}

namespace {

bool rel_close(double a, double b, double tol = 1e-9) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::isfinite(a) && std::isfinite(b) && std::abs(a - b) <= tol * scale;
}

}  // namespace

VerifyReport verify_record(const AdversaryRecord& record) {
  VerifyReport rep;
  Instance instance;
  try {
    instance = record_instance(record);
  } catch (const std::exception& e) {
    rep.error = std::string("invalid instance: ") + e.what();
    return rep;
  }
  if (!(record.lp_slot > 0.0) || !std::isfinite(record.lp_slot)) {
    rep.error = "invalid lp_slot";
    return rep;
  }

  SearchOptions options;
  options.policy = record.policy;
  options.k = record.k;
  options.machines = record.machines;
  options.speed = record.speed;
  CertifiedEval eval;
  try {
    validate(options);
    eval = evaluate_certified(instance, options, record.lp_slot);
  } catch (const std::exception& e) {
    rep.error = std::string("re-evaluation failed: ") + e.what();
    return rep;
  }
  if (!eval.ok) {
    rep.error = "denominator did not re-certify";
    return rep;
  }
  if (!rel_close(eval.cost_power, record.cost_power)) {
    rep.error = "cost_power mismatch";
    return rep;
  }
  if (!rel_close(eval.certified_lb, record.certified_lb)) {
    rep.error = "certified_lb mismatch";
    return rep;
  }
  if (!rel_close(eval.ratio, record.ratio)) {
    rep.error = "ratio mismatch";
    return rep;
  }
  rep.ok = true;
  return rep;
}

}  // namespace tempofair::search
