#include "perf_cases.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dualfit.h"
#include "common.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "harness/sweep.h"
#include "harness/thread_pool.h"
#include "lpsolve/flowtime_lp.h"
#include "lpsolve/lower_bounds.h"
#include "obs/obs.h"
#include "policies/mlfq.h"
#include "policies/priority_policies.h"
#include "policies/round_robin.h"
#include "policies/setf.h"
#include "search/adversary.h"
#include "workload/generators.h"
#include "workload/rng.h"
#include "workload/source.h"
#include "workload/stream.h"

namespace tempofair::perf {

namespace {

constexpr std::uint64_t kSeed = 20260806;

/// One engine run of `policy` over `instance` through the RunRequest
/// facade, trace off, timing only the engine.  The result's completion
/// count is read back so the optimizer cannot elide the run.
CaseResult time_engine(const std::string& name, std::size_t repeats,
                       const Instance& instance, Policy& policy,
                       bool fast_path,
                       InvariantMode invariants = default_invariant_mode()) {
  RunRequest req;
  req.record_trace = false;
  req.use_fast_path = fast_path;
  req.invariants = invariants;
  std::size_t finished = 0;
  CaseResult r = measure(name, repeats, [&] {
    finished += tempofair::run(instance, policy, req).schedule.n();
  });
  r.stats["jobs"] = static_cast<double>(instance.n());
  r.stats["finished_total"] = static_cast<double>(finished);
  return r;
}

[[nodiscard]] double median_of_sorted_copy(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Builds a CaseResult from externally collected run times (for paired
/// measurements that measure() cannot express).
[[nodiscard]] CaseResult case_from_times(const std::string& name,
                                         const std::vector<double>& times) {
  CaseResult r;
  r.name = name;
  r.repeats = times.size();
  r.median_s = median_of_sorted_copy(times);
  std::vector<double> dev;
  dev.reserve(times.size());
  for (const double t : times) dev.push_back(std::abs(t - r.median_s));
  r.mad_s = median_of_sorted_copy(dev);
  r.min_s = *std::min_element(times.begin(), times.end());
  r.max_s = *std::max_element(times.begin(), times.end());
  return r;
}

}  // namespace

Report run_fastpath_cases(const CaseOptions& options) {
  const bool smoke = options.smoke;
  const std::size_t repeats = options.repeats;
  const std::string suffix = smoke ? "_smoke" : "";

  const std::size_t n_pair = smoke ? 10'000 : 100'000;
  const std::size_t n_stream = smoke ? 100'000 : 1'000'000;
  const std::size_t n_trace = smoke ? 5'000 : 50'000;

  Report report;

  // --- RR: generic event loop vs epoch-coalesced fast path, same jobs ------
  {
    const Instance inst = workload::make_instance(
        workload::WorkloadSpec::poisson(n_pair, 0.9,
                                        workload::ExponentialSize{1.5}, kSeed));
    RoundRobin rr;
    CaseResult slow = time_engine("rr_event_loop_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, rr, false);
    CaseResult fast = time_engine("rr_fast_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, rr, true);
    if (fast.median_s > 0.0) {
      fast.stats["speedup_vs_event_loop"] = slow.median_s / fast.median_s;
    }
    report.cases.push_back(std::move(slow));
    report.cases.push_back(std::move(fast));
  }

  // --- RR fast path: invariants off vs sampled (the release default) --------
  // The sampled checkers ride the same epoch loop as the fast path, so this
  // pair IS the cost model of the always-on invariant layer.  Off and
  // sampled runs are interleaved back-to-back and the overhead is the
  // median of per-round ratios of *process CPU time*: pairing cancels
  // slow machine drift, and CPU time is blind to the preemption noise
  // that makes wall-clock ratios on a shared single core wobble by more
  // than the effect being measured.  The sampled case declares a 3%
  // overhead budget about itself; perf_gate's self-gate fails the run on
  // a breach, baseline file or not.
  {
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_pair, 0.9, workload::ExponentialSize{1.5}, kSeed + 4));
    RoundRobin rr;
    RunRequest req;
    req.record_trace = false;
    req.use_fast_path = true;
    std::size_t finished = 0;
    const auto cpu_now = [] {
      timespec ts{};
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    // Returns {wall seconds, CPU seconds} for one engine run.
    struct RunTimes {
      double wall;
      double cpu;
    };
    const auto time_once = [&](InvariantMode mode) {
      req.invariants = mode;
      const auto wall_start = std::chrono::steady_clock::now();
      const double cpu_start = cpu_now();
      finished += tempofair::run(inst, rr, req).schedule.n();
      const double cpu = cpu_now() - cpu_start;
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
      return RunTimes{wall, cpu};
    };
    (void)time_once(InvariantMode::kOff);  // warm both variants
    (void)time_once(InvariantMode::kSampled);
    const std::size_t rounds = std::max<std::size_t>(repeats, 9);
    std::vector<double> off_times, sampled_times, ratios;
    for (std::size_t r = 0; r < rounds; ++r) {
      const RunTimes a = time_once(InvariantMode::kOff);
      const RunTimes b = time_once(InvariantMode::kSampled);
      off_times.push_back(a.wall);
      sampled_times.push_back(b.wall);
      if (a.cpu > 0.0) ratios.push_back(b.cpu / a.cpu);
    }
    CaseResult off = case_from_times(
        "rr_fast_inv_off_" + std::to_string(n_pair) + suffix, off_times);
    CaseResult sampled = case_from_times(
        "rr_fast_inv_sampled_" + std::to_string(n_pair) + suffix,
        sampled_times);
    off.stats["jobs"] = static_cast<double>(n_pair);
    sampled.stats["jobs"] = static_cast<double>(n_pair);
    sampled.stats["finished_total"] = static_cast<double>(finished);
    if (!ratios.empty()) {
      sampled.stats["overhead_vs_inv_off"] = median_of_sorted_copy(ratios);
      // The budget is an acceptance bound on the 100k case; the ~3ms smoke
      // run is too short for even a paired ratio to be a measurement.
      if (!smoke) sampled.stats["overhead_vs_inv_off_budget"] = 1.03;
    }
    report.cases.push_back(std::move(off));
    report.cases.push_back(std::move(sampled));
  }

  // --- SRPT: same pairing on the top-priority rule --------------------------
  {
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_pair, 0.9, workload::ExponentialSize{1.5}, kSeed + 1));
    Srpt srpt;
    CaseResult slow = time_engine("srpt_event_loop_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, srpt, false);
    CaseResult fast = time_engine("srpt_fast_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, srpt, true);
    if (fast.median_s > 0.0) {
      fast.stats["speedup_vs_event_loop"] = slow.median_s / fast.median_s;
    }
    report.cases.push_back(std::move(slow));
    report.cases.push_back(std::move(fast));
  }

  // --- SETF / LAPS / MLFQ: the shared-rule fast-forward kernels -------------
  // Each pairs the generic event loop against its kEqualAttained /
  // kLatestArrival / kLevelPriority descriptor (core/share_rules.h rule
  // bodies over the kernel's SoA columns, SIMD advance + completion scan).
  {
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_pair, 0.9, workload::ExponentialSize{1.5}, kSeed + 5));
    Setf setf;
    CaseResult slow = time_engine(
        "setf_event_loop_" + std::to_string(n_pair) + suffix, repeats, inst,
        setf, false);
    CaseResult fast = time_engine("setf_fast_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, setf, true);
    if (fast.median_s > 0.0) {
      fast.stats["speedup_vs_event_loop"] = slow.median_s / fast.median_s;
    }
    report.cases.push_back(std::move(slow));
    report.cases.push_back(std::move(fast));
  }
  {
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_pair, 0.9, workload::ExponentialSize{1.5}, kSeed + 6));
    Laps laps(0.5);
    CaseResult slow = time_engine(
        "laps_event_loop_" + std::to_string(n_pair) + suffix, repeats, inst,
        laps, false);
    CaseResult fast = time_engine("laps_fast_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, laps, true);
    if (fast.median_s > 0.0) {
      fast.stats["speedup_vs_event_loop"] = slow.median_s / fast.median_s;
    }
    report.cases.push_back(std::move(slow));
    report.cases.push_back(std::move(fast));
  }
  {
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_pair, 0.9, workload::ExponentialSize{1.5}, kSeed + 7));
    Mlfq mlfq;
    CaseResult slow = time_engine(
        "mlfq_event_loop_" + std::to_string(n_pair) + suffix, repeats, inst,
        mlfq, false);
    CaseResult fast = time_engine("mlfq_fast_" + std::to_string(n_pair) + suffix,
                                  repeats, inst, mlfq, true);
    if (fast.median_s > 0.0) {
      fast.stats["speedup_vs_event_loop"] = slow.median_s / fast.median_s;
    }
    report.cases.push_back(std::move(slow));
    report.cases.push_back(std::move(fast));
  }

  // --- sharded sweep: per-shard EngineCore reuse over a policy grid ---------
  // Times harness::run_sweep_sharded end to end (instance generation +
  // engine) on the process pool.  On the one-core CI runner this measures
  // the sequential sharded path; the determinism tests cover the parallel
  // merge property.
  {
    const std::size_t grid = smoke ? 16 : 64;
    const std::size_t n_cell = smoke ? 500 : 2'000;
    harness::ThreadPool pool(0);
    std::vector<std::size_t> cells(grid);
    for (std::size_t i = 0; i < grid; ++i) cells[i] = i;
    double l2_total = 0.0;
    CaseResult c = measure(
        "sweep_rr_sharded_" + std::to_string(grid) + "x" +
            std::to_string(n_cell) + suffix,
        repeats, [&] {
          const std::vector<double> norms = harness::run_sweep_sharded(
              pool, cells, kSeed + 8, [] { return EngineCore{}; },
              [&](EngineCore& engine, std::size_t cell, std::uint64_t stream) {
                // stream >> 1: WorkloadSpec seeds round-trip through a long.
                const Instance inst = workload::make_instance(
                    workload::WorkloadSpec::poisson(
                        n_cell, 0.5 + 0.4 * static_cast<double>(cell) /
                                          static_cast<double>(grid),
                        workload::ExponentialSize{1.5}, stream >> 1));
                RunRequest req;
                req.record_trace = false;
                return engine.run(inst, req).stats.l2;
              });
          for (const double v : norms) l2_total += v;
        });
    c.stats["cells"] = static_cast<double>(grid);
    c.stats["jobs_per_cell"] = static_cast<double>(n_cell);
    c.stats["l2_total"] = l2_total;
    report.cases.push_back(std::move(c));
  }

  // --- Instance construction: the workload layer on its own ----------------
  // Draws the Poisson jobs and builds the validated, release-indexed
  // instance; the generators hand over ordered jobs, so no sort should run.
  {
    std::size_t built = 0;
    CaseResult c = measure(
        "make_instance_" + std::to_string(n_stream) + suffix, repeats, [&] {
          built += workload::make_instance(workload::WorkloadSpec::poisson(
                                               n_stream, 0.9,
                                               workload::ExponentialSize{1.5},
                                               kSeed))
                       .n();
        });
    c.stats["jobs"] = static_cast<double>(n_stream);
    c.stats["built_total"] = static_cast<double>(built);
    report.cases.push_back(std::move(c));
  }

  // --- RR streaming: generation + simulation, nothing materialized ----------
  // This is the headline million-job number: the body builds the generator
  // and simulates, so the time is the true end-to-end cost of the run.
  {
    std::size_t finished = 0;
    CaseResult c = measure(
        "rr_fast_stream_" + std::to_string(n_stream) + suffix, repeats, [&] {
          const auto source =
              workload::make_source(workload::WorkloadSpec::poisson(
                  n_stream, 0.9, workload::ExponentialSize{1.5}, kSeed + 2));
          const std::unique_ptr<JobStream> stream = source->stream();
          RoundRobin rr;
          RunRequest req;
          req.record_trace = false;
          finished += tempofair::run(*stream, rr, req).schedule.n();
        });
    c.stats["jobs"] = static_cast<double>(n_stream);
    c.stats["finished_total"] = static_cast<double>(finished);
    report.cases.push_back(std::move(c));
  }

  // --- flow_stats on the streamed RR run's flows ----------------------------
  // The metrics half of every run: finish_run's flow_stats (sums, l2/l3
  // norms and the selected p50/p95/p99) over the schedule of the stream
  // case's spec, simulated once outside the timed body.
  {
    const auto source = workload::make_source(workload::WorkloadSpec::poisson(
        n_stream, 0.9, workload::ExponentialSize{1.5}, kSeed + 2));
    const std::unique_ptr<JobStream> stream = source->stream();
    RunRequest req;
    req.record_trace = false;
    const Schedule schedule = tempofair::run(*stream, req).schedule;
    FlowStats stats;
    CaseResult c = measure("flow_stats_" + std::to_string(n_stream) + suffix,
                           repeats, [&] { stats = flow_stats(schedule); });
    c.stats["jobs"] = static_cast<double>(stats.n);
    c.stats["p99"] = stats.p99;
    report.cases.push_back(std::move(c));
  }

  // --- RR fast path with the trace arena + an l2 read-back ------------------
  // Covers the uniform-rate compressed trace rows and the analysis side of
  // the pipeline, which the trace-off cases above skip entirely.
  {
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_trace, 0.9, workload::ExponentialSize{1.5}, kSeed + 3));
    RoundRobin rr;
    RunRequest req;
    double norms = 0.0;
    std::size_t trace_bytes = 0;
    std::size_t trace_entries = 0;
    CaseResult c = measure(
        "rr_fast_trace_l2_" + std::to_string(n_trace) + suffix, repeats, [&] {
          const RunResult result = tempofair::run(inst, rr, req);
          norms += flow_lk_norm(result.schedule, 2.0);
          trace_bytes = result.schedule.trace_memory_bytes();
          trace_entries = result.schedule.trace().entry_count();
        });
    c.stats["jobs"] = static_cast<double>(n_trace);
    c.stats["l2_norm_total"] = norms;
    c.stats["trace_bytes"] = static_cast<double>(trace_bytes);
    c.stats["trace_entries"] = static_cast<double>(trace_entries);
    report.cases.push_back(std::move(c));
  }

  // --- Dual-fit certificate on a traced RR schedule -------------------------
  // Configured like the perfbench dualfit_trace workload's k=2, m=1,
  // speed-1 cell: 100k Pareto jobs at load 0.8, RR with the trace on.  The
  // instance and its traced run are built once outside the timed body; only
  // dual_fit_certificate is timed.
  {
    const std::size_t n_dual = smoke ? 5'000 : 100'000;
    const Instance inst = workload::make_instance(workload::WorkloadSpec::poisson(
        n_dual, 0.8, workload::ParetoSize{1.8, 0.5, 50.0}, kSeed + 4));
    RunRequest req;
    req.record_trace = true;
    const Schedule schedule = tempofair::run(inst, req).schedule;
    analysis::DualFitOptions opt;
    opt.k = 2.0;
    opt.eps = 0.05;
    obs::Sink counters;
    analysis::DualFitResult cert;
    CaseResult c = measure(
        "dual_fit_" + std::to_string(n_dual) + suffix, repeats, [&] {
          const obs::ScopedSink scope(&counters);
          cert = analysis::dual_fit_certificate(schedule, opt);
        });
    const auto per_call = [&](const char* counter) {
      return static_cast<double>(counters.value(counter)) /
             static_cast<double>(counters.value("dualfit.certificates"));
    };
    c.stats["jobs"] = static_cast<double>(n_dual);
    c.stats["beta_pieces"] = per_call("dualfit.beta_pieces");
    c.stats["feasibility_checks"] = per_call("dualfit.feasibility_checks");
    c.stats["beta_full_sorts"] = per_call("dualfit.beta_full_sorts");
    c.stats["objective_ratio"] = cert.objective_ratio;
    report.cases.push_back(std::move(c));
  }

  // --- OPT bracket with the LP: opt_bounds on fixed T2 families ---------
  // The Section 3.1 LP (min-cost flow), its exact dual certificate and the
  // SRPT/SJF proxy runs at k=2, on standard_workloads' poisson-exp-0.9
  // family and on adv-geometric (255 jobs in 8 classes of identical jobs,
  // the same at every n).  The library's own counters split the run between
  // the min-cost flow and the certificate repair, count the flow graph's job
  // classes and the arcs its Dijkstra tested, and give the share of
  // class->slot arcs the certificate had to evaluate in Rational.
  {
    const std::size_t n_lp = smoke ? 20 : 50;
    const std::vector<bench::NamedInstance> families =
        bench::standard_workloads(n_lp, 1, kSeed);
    const auto time_opt_bounds = [&](const std::string& name,
                                     const std::string& family_name) {
      const auto family = std::find_if(
          families.begin(), families.end(),
          [&](const bench::NamedInstance& f) { return f.name == family_name; });
      lpsolve::OptBoundsOptions opt;
      opt.k = 2.0;
      obs::Sink counters;
      lpsolve::OptBounds bounds;
      CaseResult c = measure(name + suffix, repeats, [&] {
        const obs::ScopedSink scope(&counters);
        bounds = lpsolve::opt_bounds(family->instance, opt);
      });
      const auto per_solve = [&](const char* counter) {
        return static_cast<double>(counters.value(counter)) /
               static_cast<double>(counters.value("lpsolve.mcmf.calls"));
      };
      c.stats["jobs"] = static_cast<double>(family->instance.n());
      c.stats["lp_lb"] = bounds.lp_lb;
      c.stats["certified_lb"] = bounds.certified_lb;
      c.stats["mcmf_s"] = 1e-9 * per_solve("lpsolve.mcmf.ns");
      c.stats["certify_s"] = 1e-9 * per_solve("lpsolve.certify.ns");
      c.stats["job_classes"] = per_solve("mcmf.job_classes");
      c.stats["augmentations"] = per_solve("mcmf.augmentations");
      c.stats["settled"] = per_solve("mcmf.settled");
      c.stats["arc_scans"] = per_solve("mcmf.arc_scans");
      c.stats["exact_arc_share"] =
          static_cast<double>(counters.value("lpcert.flow.exact_arcs")) /
          static_cast<double>(counters.value("lpcert.flow.arcs"));
      report.cases.push_back(std::move(c));
    };
    time_opt_bounds("opt_bounds_lp_" + std::to_string(n_lp),
                    "poisson-exp-0.9");
    time_opt_bounds("opt_bounds_lp_geometric", "adv-geometric");
  }

  // --- Search LP certificate: the adversary search's denominator ---------
  // search::evaluate_certified on A4's k=2 batch+stream baseline: the RR
  // run, the certified trivial bound, and the MCMF solve plus its exact dual
  // certificate on the lpsolve::auto_lp_slot grid.
  {
    search::SearchOptions so;
    so.k = 2.0;
    so.max_jobs = smoke ? 8 : 12;
    const Instance inst = search::seed_instances(so).front().second;
    obs::Sink counters;
    search::CertifiedEval eval;
    CaseResult c = measure(
        "certify_search_lp_" + std::to_string(so.max_jobs) + suffix, repeats,
        [&] {
          const obs::ScopedSink scope(&counters);
          eval = search::evaluate_certified(inst, so);
        });
    const auto per_solve = [&](const char* counter) {
      return static_cast<double>(counters.value(counter)) /
             static_cast<double>(counters.value("lpsolve.mcmf.calls"));
    };
    lpsolve::FlowtimeLpOptions lp_opt;
    lp_opt.k = so.k;
    lp_opt.slot = eval.lp_slot;
    c.stats["jobs"] = static_cast<double>(so.max_jobs);
    c.stats["lp_slot"] = eval.lp_slot;
    c.stats["vars"] =
        static_cast<double>(lpsolve::flowtime_lp_num_vars(inst, lp_opt));
    c.stats["certified"] = eval.ok ? 1.0 : 0.0;
    c.stats["certified_lb"] = eval.certified_lb;
    c.stats["mcmf_s"] = 1e-9 * per_solve("lpsolve.mcmf.ns");
    c.stats["certify_s"] = 1e-9 * per_solve("lpsolve.certify.ns");
    c.stats["augmentations"] = per_solve("mcmf.augmentations");
    report.cases.push_back(std::move(c));
  }

  // --- Small runs: the fixed per-call cost the adversary search pays -------
  // The search's inner loop is hundreds of run() calls and screens on
  // instances of a few jobs, so what one call costs beyond its jobs --
  // result packaging, counters, timers, the invariant battery -- sets its
  // speed.  run_small_6 times run() of the 6-job batch+stream seed under
  // rr, srpt and sjf; search_screen_6 times one search screen on it (the
  // SRPT/SJF proxy runs, the certified trivial bound and the RR run).  Each
  // body makes kSmallRounds rounds, so the per-call time is median_s
  // divided by the call count in the stats.
  {
    constexpr std::size_t kSmallRounds = 200;
    search::SearchOptions so;
    so.k = 2.0;
    so.max_jobs = 6;
    const Instance inst = search::seed_instances(so).front().second;
    double total_flow = 0.0;
    RunRequest req;
    req.record_trace = false;
    CaseResult runs = measure("run_small_6" + suffix, repeats, [&] {
      for (std::size_t r = 0; r < kSmallRounds; ++r) {
        for (const char* policy : {"rr", "srpt", "sjf"}) {
          req.policy = policy;
          total_flow += tempofair::run(inst, req).stats.l1;
        }
      }
    });
    runs.stats["jobs"] = static_cast<double>(inst.n());
    runs.stats["runs_per_body"] = static_cast<double>(3 * kSmallRounds);
    runs.stats["flow_total"] = total_flow;
    report.cases.push_back(std::move(runs));

    double screened = 0.0;
    CaseResult screen = measure("search_screen_6" + suffix, repeats, [&] {
      for (std::size_t r = 0; r < kSmallRounds; ++r) {
        screened = search::screen_ratio(inst, so);
      }
    });
    screen.stats["jobs"] = static_cast<double>(inst.n());
    screen.stats["screens_per_body"] = static_cast<double>(kSmallRounds);
    screen.stats["screen_ratio"] = screened;
    report.cases.push_back(std::move(screen));
  }

  return report;
}

}  // namespace tempofair::perf
