// Performance microbenchmarks (google-benchmark): simulator event throughput
// per policy and scaling in n and m.  These guard the engine's
// O(events * n_alive) behaviour -- regressions here make the experiment
// suite unusable at scale.  The LP solver's cost is gated by perf_gate
// (bench/perf_cases.cpp) instead.
#include <benchmark/benchmark.h>

#include "analysis/dualfit.h"
#include "core/engine.h"
#include "policies/registry.h"
#include "workload/generators.h"
#include "workload/source.h"

namespace {

using namespace tempofair;

Instance make_instance(std::size_t n, int machines, std::uint64_t seed) {
  return workload::make_instance(workload::WorkloadSpec::poisson(
      n, 0.9, workload::ExponentialSize{1.5}, seed, machines));
}

// FastForward-capable policies silently take the epoch-coalesced fast path
// by default; benchmark both routes explicitly so a regression in either
// one is attributable (tools/perf_gate tracks the same pairs against
// BENCH_fastpath.json).
void BM_SimulatePolicy(benchmark::State& state, const char* spec,
                       bool fast_path) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, 1, 42);
  RunRequest req;
  req.record_trace = false;
  req.use_fast_path = fast_path;
  for (auto _ : state) {
    auto policy = make_policy(spec);
    benchmark::DoNotOptimize(tempofair::run(inst, *policy, req).schedule);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_SimulateRrMultiMachine(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Instance inst = make_instance(2000, m, 7);
  RunRequest req;
  req.record_trace = false;
  req.machines = m;
  for (auto _ : state) {
    auto policy = make_policy("rr");
    benchmark::DoNotOptimize(tempofair::run(inst, *policy, req).schedule);
  }
}

void BM_SimulateRrWithTrace(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, 1, 42);
  RunRequest req;
  for (auto _ : state) {
    auto policy = make_policy("rr");
    benchmark::DoNotOptimize(tempofair::run(inst, *policy, req).schedule);
  }
}

// End-to-end sim -> dual-fit certificate pipeline at heavy traffic (speed
// 1.0, load 0.9), the configuration BENCH_trace_arena.json tracks.  Counters
// report the trace arena's footprint: final/peak column bytes and flat
// (interval, job) entries.
void BM_PipelineSimDualfit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, 1, 42);
  RunRequest req;
  analysis::DualFitOptions dopt;
  dopt.k = 2.0;
  dopt.eps = 0.1;
  EngineCore core;  // reused across iterations so trace buffers persist
  for (auto _ : state) {
    auto policy = make_policy("rr");
    const Schedule s = core.run(inst, *policy, req).schedule;
    benchmark::DoNotOptimize(analysis::dual_fit_certificate(s, dopt));
    state.counters["trace_bytes"] = static_cast<double>(s.trace_memory_bytes());
    state.counters["trace_peak_bytes"] =
        static_cast<double>(s.trace().peak_memory_bytes());
    state.counters["entries"] = static_cast<double>(s.trace().entry_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Per-job traced-work queries via the per-job CSR index: O(intervals
// containing j) per query after a one-time O(entries) index build, where the
// AoS layout scanned the whole trace per job.
void BM_TracedWorkPerJob(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(n, 1, 42);
  RunRequest req;
  auto policy = make_policy("rr");
  const Schedule s = tempofair::run(inst, *policy, req).schedule;
  for (auto _ : state) {
    double total = 0.0;
    for (JobId j = 0; j < inst.n(); ++j) total += s.traced_work(j);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

}  // namespace

BENCHMARK_CAPTURE(BM_SimulatePolicy, rr_fast, "rr", true)
    ->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK_CAPTURE(BM_SimulatePolicy, rr_event_loop, "rr", false)
    ->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK_CAPTURE(BM_SimulatePolicy, srpt_fast, "srpt", true)
    ->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK_CAPTURE(BM_SimulatePolicy, srpt_event_loop, "srpt", false)
    ->Arg(500)->Arg(2000)->Arg(8000);
// No FastForward capability: both routes are the generic loop.
BENCHMARK_CAPTURE(BM_SimulatePolicy, setf, "setf", true)->Arg(500)->Arg(2000);
BENCHMARK_CAPTURE(BM_SimulatePolicy, wrr, "wrr", true)->Arg(500)->Arg(2000);
BENCHMARK_CAPTURE(BM_SimulatePolicy, qrr, "qrr:0.5", true)->Arg(500)->Arg(2000);
BENCHMARK_CAPTURE(BM_SimulatePolicy, mlfq, "mlfq", true)->Arg(500)->Arg(2000);
BENCHMARK(BM_SimulateRrMultiMachine)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_SimulateRrWithTrace)->Arg(500)->Arg(2000);
BENCHMARK(BM_PipelineSimDualfit)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TracedWorkPerJob)->Arg(2000)->Arg(20000);
