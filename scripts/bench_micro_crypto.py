#!/usr/bin/env python3
"""Writes BENCH_micro_crypto.json at the repo root: ns/op of the crypto
micro-benchmarks for two builds of bench_micro_crypto, a parent and a change.

    scripts/bench_micro_crypto.py <parent-build> <change-build>

Each build directory must hold bench/bench_micro_crypto (configure both with
the same CMAKE_BUILD_TYPE, normally Release). The two binaries run in
alternation, ROUNDS times each and each side first in every other round, so
host drift hits both alike; each row gives the median over the rounds of the
wall-clock ns/op.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess

BENCHMARKS = ["BM_EcdsaSign", "BM_EcdsaVerify", "BM_Sha256/64",
              "BM_Sha256/4096", "BM_HmacSha256"]
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
ROUNDS = 7
MIN_TIME_S = 0.5
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_micro_crypto.json"


def cache_value(build, key):
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def describe(build):
    """Source revision and build type of a configured build directory."""
    src = cache_value(build, "CMAKE_HOME_DIRECTORY")
    sha = subprocess.run(
        ["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True, text=True, check=True).stdout.strip()
    # The top-level CMakeLists.txt defaults an empty build type to Release.
    return sha, cache_value(build, "CMAKE_BUILD_TYPE") or "Release"


def run_once(build):
    pattern = "^(" + "|".join(BENCHMARKS) + ")$"
    out = subprocess.run(
        [str(build / "bench" / "bench_micro_crypto"), "--benchmark_format=json",
         "--benchmark_filter=" + pattern, "--benchmark_min_time=%g" % MIN_TIME_S],
        capture_output=True, text=True, check=True).stdout
    return {b["name"]: b["real_time"] * NS_PER_UNIT[b["time_unit"]]
            for b in json.loads(out)["benchmarks"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_build", type=pathlib.Path)
    parser.add_argument("change_build", type=pathlib.Path)
    args = parser.parse_args()

    builds = {"parent": args.parent_build.resolve(),
              "change": args.change_build.resolve()}
    info = {side: describe(build) for side, build in builds.items()}
    samples = {side: {name: [] for name in BENCHMARKS} for side in builds}
    for round_no in range(ROUNDS):
        order = ["parent", "change"] if round_no % 2 == 0 else ["change", "parent"]
        for side in order:
            for name, ns in run_once(builds[side]).items():
                samples[side][name].append(ns)

    rows = []
    for name in BENCHMARKS:
        parent = statistics.median(samples["parent"][name])
        change = statistics.median(samples["change"][name])
        rows.append({
            "bench": "micro_crypto", "mode": "wall", "benchmark": name,
            "parent_ns_per_op": round(parent, 1),
            "change_ns_per_op": round(change, 1),
            "speedup": round(parent / change, 2),
            "rounds": ROUNDS,
            "parent_git_sha": info["parent"][0], "git_sha": info["change"][0],
            "build_type": info["change"][1], "nproc": os.cpu_count()})
    with open(OUT, "w") as f:
        f.write("[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    main()
