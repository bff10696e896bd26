#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the TCP ordering stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list-metrics

Run from the repository root. The first call configures and builds
perfbench_run (perfbench/CMakeLists.txt, which compiles the repository's src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Its
progress lines are passed through; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    """Configures once, then builds `targets`; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("repository sources (src/) not found beside perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return out


def validate_result(line, metric_units):
    """Parses perfbench_run's result line; raises ValueError unless it has
    exactly the keys in RESULT_KEYS and exactly the metrics in `metric_units`,
    each with a finite number and its unit."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(metric_units):
        missing = sorted(set(metric_units) - set(metrics))
        extra = sorted(set(metrics) - set(metric_units))
        raise ValueError(f"metrics missing {missing} extra {extra}")
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"{name}: keys {sorted(metric)}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"{name}: value {value!r}")
        if metric["unit"] != metric_units[name]:
            raise ValueError(f"{name}: unit {metric['unit']} != {metric_units[name]}")
    return result


def list_metrics(binary):
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from perfbench_run."""
    out = subprocess.run([str(binary), "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout
    tables = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, unit = line.split()
        if not NAME_RE.match(name) or not UNIT_RE.match(unit):
            raise ValueError(f"bad metric name or unit: {line}")
        tables[kind][name] = unit
    return tables


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args()
    if not args.list_metrics and (args.workload is None or args.seed is None
                                  or args.seconds is None or args.seconds < 1):
        parser.error("--workload, --seed and --seconds are required")

    try:
        binary = build(["perfbench_run"]) / "perfbench_run"
        tables = list_metrics(binary)
    except (RuntimeError, subprocess.CalledProcessError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.list_metrics:
        print(json.dumps(tables, indent=2))
        return 0

    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: perfbench_run exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    try:
        validate_result(lines[-1], tables["per_layer" if args.trace else "end_to_end"])
    except ValueError as error:
        print(f"perfbench: malformed result: {error}", file=sys.stderr)
        return 5
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
