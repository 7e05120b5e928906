#!/usr/bin/env python3
"""Smoke-size self-test of the repo benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at smoke size and the default seed:
  * --trace 0 prints every end_to_end metric, and --trace 1 every per_layer
    metric, each by name with its unit, in the human lines and in the final
    JSON line, which has exactly the keys correct/attempted/failed/metrics;
    --trace 0 also prints the host-speed and unscaled lines;
  * --trace 1 writes a Chrome trace-event file whose spans cover the run.
Then checks that a corrupted reference makes the command fail, and that the
command fails without printing a result where no repository sources exist.
Scratch files go under the build directory.  Exits 0 when all checks pass.
"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark command itself)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    command = [sys.executable, str(script), "--workload", workload, "--seed",
               str(run.DEFAULT_SEED), "--seconds", "0.2", "--trace", str(trace),
               "--smoke", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1]
    except (IndexError, json.JSONDecodeError):
        return None, lines


def check_metrics(workload, trace, specs):
    proc = bench(workload, trace)
    label = f"{workload} --trace {trace}"
    result, human = result_line(proc)
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    if result is None:
        check(False, f"{label}: no JSON result line")
        return
    check(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0,
          f"{label}: checks failed: {human}")
    metrics = result.get("metrics", {})
    check(set(metrics) == {s["name"] for s in specs},
          f"{label}: metric names differ from BENCHMARK.json")
    for spec in specs:
        got = metrics.get(spec["name"], {})
        check(got.get("unit") == spec["unit"] and
              isinstance(got.get("value"), (int, float)),
              f"{label}: {spec['name']} printed as {got}")
        check(any(line.split()[:1] == [spec["name"]] and
                  line.split()[-1] == spec["unit"] for line in human),
              f"{label}: no human line for {spec['name']} [{spec['unit']}]")
    notes = ["failed_share", "item_samples"]
    if not trace:
        notes += ["host.kernel_ms", "host.scale", "host.samples",
                  "unscaled.setup_s", "unscaled.items_per_s",
                  "unscaled.item_p50_ms", "unscaled.cpu_s"]
    for name in notes:
        check(any(line.split()[:1] == [name] for line in human),
              f"{label}: no human line for {name}")
    if trace:
        trace_file = run.build_dir() / f"trace-{workload}-smoke-seed{run.DEFAULT_SEED}.json"
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            check(False, f"{label}: unreadable span file {trace_file}: {e}")
            return
        check(any(e["name"] == "bench.item" for e in events) and
              all({"ts", "dur", "cat", "args"} <= set(e) for e in events),
              f"{label}: span file lacks item spans or fields")


def check_corrupted_reference(workload):
    reference = json.loads(run.REFERENCE.read_text())
    first_label = sorted(reference["smoke"][workload])[0]
    reference["smoke"][workload][first_label][0] *= 1.0 + 1e-6
    corrupt = run.build_dir() / "corrupt-reference.json"
    corrupt.write_text(json.dumps(reference))
    proc = bench(workload, 0, "--reference", str(corrupt))
    result, _ = result_line(proc)
    check(proc.returncode != 0 and result is not None and
          result["correct"] is False and result["failed"] >= 1,
          f"corrupted reference for {workload}/{first_label} was not caught")


def check_fails_without_sources():
    bare = run.build_dir() / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name)
    proc = bench("sim_zoo", 0, cwd=bare, script=bare / HERE.name / "run.py")
    result, _ = result_line(proc)
    check(proc.returncode != 0 and result is None,
          "run.py without repository sources did not fail cleanly")
    shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(workload, 0, spec["end_to_end"])
        check_metrics(workload, 1, spec["per_layer"])
    check_corrupted_reference("sim_zoo")
    check_corrupted_reference("dualfit_trace")
    check_fails_without_sources()
    print("selftest:", "FAILED" if failures else "ok",
          f"({len(failures)} failure(s))")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
