#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--reference FILE] [--write-reference]

Builds the library and perfbench/main.cpp in Release under $CARGO_TARGET_DIR
(default .bench_build), runs one measuring process, compares the simulation
outputs of the first cycle with perfbench/reference.json when the seed is the
default seed, prints every metric as "name value unit", and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  Exits 0 only when
every check passed.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
REL_TOL = 1e-9
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    try:
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=600)
        subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                       stdout=sys.stderr, check=True, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    return out / "perfbench"


def close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def reference_errors(reference, first_cycle):
    """One message per item whose outputs differ from the reference."""
    errors = [f"{label}: missing from this run" for label in reference
              if label not in {item["label"] for item in first_cycle}]
    for item in first_cycle:
        expected = reference.get(item["label"])
        got = item["outputs"]
        if expected is None:
            errors.append(f"{item['label']}: not in the reference")
        elif len(expected) != len(got) or not all(map(close, expected, got)):
            errors.append(f"{item['label']}: outputs {got} differ from "
                          f"reference {expected}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--reference", type=pathlib.Path, default=REFERENCE)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's first-cycle outputs in the "
                             "--reference file instead of checking them "
                             "(default seed only)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    profile = "smoke" if args.smoke else "full"
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    trace_file = build_dir() / f"trace-{args.workload}-{profile}-seed{args.seed}.json"
    if args.trace:
        command += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measuring process ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"measuring process exited {proc.returncode} without a report")
    if proc.returncode not in (0, 1):
        fail(f"measuring process exited {proc.returncode}")

    errors = list(report["errors"])
    mismatches = []
    if args.seed == DEFAULT_SEED:
        if args.write_reference:
            path = args.reference
            stored = json.loads(path.read_text()) if path.exists() else {}
            stored.setdefault(profile, {})[args.workload] = {
                item["label"]: item["outputs"] for item in report["first_cycle"]}
            path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        else:
            try:
                reference = json.loads(args.reference.read_text())[profile][args.workload]
            except (OSError, ValueError, KeyError) as e:
                fail(f"no {profile} reference for {args.workload} in {args.reference}: {e}")
            mismatches = reference_errors(reference, report["first_cycle"])
    errors += [f"reference: {e}" for e in mismatches]
    attempted = report["attempted"]
    failed = min(attempted, report["failed"] + len(mismatches))

    print(f"perfbench {args.workload} ({profile}) seed={args.seed} "
          f"trace={args.trace}: {attempted} items attempted, {failed} failed")
    for message in errors:
        print(f"  FAILED {message}")
    metrics = report["metrics"]
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!r:>24} {metric['unit']}")
    print(f"  {'failed_share':40s} {failed / attempted!r:>24} share")
    print(f"  {'item_samples':40s} {attempted!r:>24} count")
    for name, metric in report["notes"].items():
        print(f"  {name:40s} {metric['value']!r:>24} {metric['unit']}")
    if args.trace:
        print(f"  spans written to {trace_file}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
