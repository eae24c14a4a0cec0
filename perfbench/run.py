#!/usr/bin/env python3
"""Platform benchmark: upload and clinic-read through the facade.

Run from the repository root:

    python3 perfbench/run.py --workload upload --seed 1 --seconds 15 --trace 0

Builds `perfbench/` (a Cargo package of its own that depends on the
repository's crates by path) in release mode, then runs one workload in a
fresh process and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
seeded op stream twice, untraced and then traced, and reports the per-layer
metrics plus the tracing overhead (traced `op_p50_ms` against untraced).

Each run does a fixed amount of work, so faster code finishes sooner
instead of doing more work on a bigger state: `ROUNDS` rounds
(`TRACE_ROUNDS` when traced), each on a freshly set-up platform, of
`--seconds` times the workload's nominal rate below divided by `ROUNDS`
ops (never fewer than `MIN_OPS`). `perfbench/design.json` records the
workloads, the metrics and what each layer should move.
"""

import argparse
import json
import os
import subprocess
import sys
import time

# Nominal ops per second of `--seconds`, measured on a 2-vCPU KVM guest.
NOMINAL_RATE = {"upload": 470, "clinic-read": 3600}
# Rounds per untraced run. `setup_s` is the median of their set-ups; each
# op figure is the best round's.
ROUNDS = 7
# Rounds per traced run, which reports no end-to-end figure but the
# tracing overhead, and runs twice.
TRACE_ROUNDS = 3
# Ops per round: a round's p99 needs at least ten samples beyond it.
MIN_OPS = 1000
# Wall-clock budget for one run, build excluded.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        fail("run from the repository root: crates/core/Cargo.toml not found")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"cargo build failed with exit code {result.returncode}")
    return os.path.join(root, target, "release", "hc-perfbench")


def metric_units(kind):
    """(name, unit) of each metric of `kind` listed in BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def run_once(binary, workload, seed, ops, rounds, trace, deadline):
    command = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--ops", str(ops),
        "--rounds", str(rounds),
    ] + (["--trace"] if trace else [])
    try:
        result = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded its {RUN_TIMEOUT_S} s budget")
    if result.returncode != 0:
        fail(f"{workload} run exited with code {result.returncode}")
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} run printed nothing")
    return json.loads(lines[-1])


def report(out):
    failure = out.get("first_failure")
    if failure or not out["correct"]:
        checks = ", ".join(k for k, ok in out["checks"].items() if not ok)
        print(f"perfbench: first failure: {failure}; failed checks: {checks or 'none'}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build(os.getcwd())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    ops = max(MIN_OPS, args.seconds * NOMINAL_RATE[args.workload] // ROUNDS)

    if args.trace == 0:
        result = run_once(binary, args.workload, args.seed, ops, ROUNDS, False, deadline)
        report(result)
        values = result["metrics"]
        units = metric_units("end_to_end")
    else:
        plain = run_once(binary, args.workload, args.seed, ops, TRACE_ROUNDS, False, deadline)
        report(plain)
        result = run_once(binary, args.workload, args.seed, ops, TRACE_ROUNDS, True, deadline)
        report(result)
        values = dict(result["layers"])
        values["trace.op_p50_ms"] = result["metrics"]["op_p50_ms"]
        values["trace.overhead_share"] = result["metrics"]["op_p50_ms"] / plain["metrics"]["op_p50_ms"] - 1
        # The traced stream must reproduce the untraced outputs and counts.
        same = result["digest"] == plain["digest"] and result["counts"] == plain["counts"]
        values["trace.same_outputs"] = int(same)
        result["correct"] = result["correct"] and plain["correct"] and same
        units = metric_units("per_layer")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
