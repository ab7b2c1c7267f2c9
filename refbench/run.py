#!/usr/bin/env python3
"""Build and run refbench, the reference-path benchmark.

    python3 refbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 refbench/run.py --smoke

Run from the root of a checkout. The benchmark is built from the checkout's
sources into .bench_build/refbench (CMake, Release). The last line of
standard output is the benchmark's JSON result; the exit code is the
benchmark's (0 only when every reply was right and every ledger balanced).

--smoke runs every workload of BENCHMARK.json for a fraction of a second,
untraced and traced, and checks that the checks and ledgers pass, that
every metric BENCHMARK.json names is printed with its unit, and that a
deliberately corrupted request makes the benchmark exit non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "refbench"
BINARY = BUILD / "refbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; exits non-zero on failure."""
    if not (ROOT / "src" / "dist" / "replicated_kv.hpp").is_file():
        sys.exit("refbench: no library sources under %s" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("refbench: build failed: %s" % " ".join(step))


def run(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("refbench: timed out after %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout or ""


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "0.2",
                    "--trace", str(trace), "--smoke"]
            code, out = run(args, capture=True)
            sys.stdout.write(out)
            label = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append("%s: last line is not JSON" % label)
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append("%s: exit %d, correct %s, failed %s" % (
                    label, code, result["correct"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metrics %s, want %s" % (
                    label, sorted(got.items()), sorted(wanted[trace].items())))
        code, out = run(["--workload", workload, "--seed", "7", "--seconds",
                         "0.2", "--trace", "0", "--smoke", "--inject-fault"],
                        capture=True)
        if code == 0 or '"correct": false' not in out:
            problems.append("%s: a corrupted request was not caught" % workload)
    for problem in problems:
        print("SMOKE FAILED " + problem)
    if problems:
        sys.exit(1)
    print("smoke ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        smoke()
        return
    if not args.workload:
        parser.error("--workload is required")
    bench_args = ["--workload", args.workload, "--seed", args.seed,
                  "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        bench_args += ["--spans-out", str(spans / (args.workload + ".tsv"))]
    code, _ = run(bench_args)
    sys.exit(code)


if __name__ == "__main__":
    main()
