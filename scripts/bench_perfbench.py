#!/usr/bin/env python3
"""Writes BENCH_perfbench.json at the repo root: per-workload medians of the
wall-clock benchmark (perfbench/run.py) for two checkouts, a parent and a
change.

    scripts/bench_perfbench.py <parent-checkout> <change-checkout>

Each checkout is a repository root holding perfbench/run.py, which builds its
own Release tree under <checkout>/.bench_build on first use. For every
workload the two checkouts run in alternating pairs, each side first in every
other pair and both sides on the same seed, so host drift hits both alike.
PAIRS untraced runs give the end-to-end medians, with the host's CPU probe
and steal as each run printed them; TRACED_PAIRS traced runs give the
per-layer medians. Every run must report correct results; a failed run stops
the script. One row per workload and side.
"""
import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys

WORKLOADS = ["ecdsa_b10", "small_b100", "leader_crash"]
PAIRS = 10
TRACED_PAIRS = 1
SECONDS = 25
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perfbench.json"
PROBE_RE = re.compile(r"host\.cpu_probe_mops=([0-9.]+)")
STEAL_RE = re.compile(r"host_steal_pct=([0-9.]+)")


def describe(checkout):
    """Source revision and perfbench build type of a checkout."""
    sha = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty",
         "--abbrev=12"], capture_output=True, text=True, check=True).stdout.strip()
    cache = checkout / ".bench_build" / "perfbench" / "CMakeCache.txt"
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return sha, build_type


def run_once(checkout, workload, seed, trace):
    """One perfbench run: (result JSON, host CPU probe, host steal %)."""
    # Each checkout builds into its own .bench_build; a shared
    # CARGO_TARGET_DIR would make the two sides overwrite one binary.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: incorrect run\n"
                           + "\n".join(lines[:-1]))
    probe = PROBE_RE.search(proc.stdout)
    steal = STEAL_RE.search(proc.stdout)
    return (result, float(probe.group(1)) if probe else None,
            float(steal.group(1)) if steal else None)


def medians(samples):
    return {name: round(statistics.median(values), 4)
            for name, values in sorted(samples.items())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_checkout", type=pathlib.Path)
    parser.add_argument("change_checkout", type=pathlib.Path)
    args = parser.parse_args()

    checkouts = {"parent": args.parent_checkout.resolve(),
                 "change": args.change_checkout.resolve()}
    rows = []
    for workload in WORKLOADS:
        timed = {side: {} for side in checkouts}
        traced = {side: {} for side in checkouts}
        host = {side: {"host.cpu_probe_mops": [], "host.steal_pct": []}
                for side in checkouts}
        failed = {side: 0 for side in checkouts}
        for pair in range(PAIRS + TRACED_PAIRS):
            trace = 1 if pair >= PAIRS else 0
            seed = pair % PAIRS + 1
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                result, probe, steal = run_once(checkouts[side], workload, seed,
                                                trace)
                shown = {} if trace else {k: round(v["value"], 3) for k, v
                                          in result["metrics"].items()}
                print(f"{workload} {side} seed={seed} trace={trace}: "
                      + json.dumps(shown), file=sys.stderr)
                failed[side] += result["failed"]
                target = traced[side] if trace else timed[side]
                for name, metric in result["metrics"].items():
                    target.setdefault(name, []).append(metric["value"])
                if not trace:
                    if probe is not None:
                        host[side]["host.cpu_probe_mops"].append(probe)
                    if steal is not None:
                        host[side]["host.steal_pct"].append(steal)
        for side, checkout in checkouts.items():
            sha, build_type = describe(checkout)
            row = {"bench": "perfbench", "mode": "wall", "workload": workload,
                   "side": side, "git_sha": sha, "build_type": build_type,
                   "nproc": os.cpu_count(), "seconds": SECONDS, "pairs": PAIRS,
                   "traced_pairs": TRACED_PAIRS, "failed": failed[side]}
            row.update(medians({k: v for k, v in host[side].items() if v}))
            row["end_to_end"] = medians(timed[side])
            row["per_layer"] = medians(traced[side])
            rows.append(row)
    with open(OUT, "w") as f:
        f.write("[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()
