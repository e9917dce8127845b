#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune, runs it, checks its result
line against BENCHMARK.json (every declared metric present, with its
unit; end-to-end values finite and non-zero) and prints that line last.
Exits non-zero without a result line if the checkout cannot be built,
the workload fails its correctness or determinism gate, or the result
does not match the declaration.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

TARGET = "perfbench/bin/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH", 2)


def check_result(line, trace, decl):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not a JSON result: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    if result["correct"] is not True:
        fail("the run reports correct = false")
    family = decl["per_layer"] if trace == 1 else decl["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in family}:
        fail("metric names differ from BENCHMARK.json")
    for m in family:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail("unit of %s is %r, expected %r" % (m["name"], got.get("unit"), m["unit"]))
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s is not a finite number" % m["name"])
        if trace == 0 and v == 0:
            fail("end-to-end metric %s is 0" % m["name"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (dune-project and lib/ not found)", 2)
    with open("BENCHMARK.json") as f:
        decl = json.load(f)
    if args.workload not in {w["name"] for w in decl["workloads"]}:
        fail("unknown workload " + args.workload, 2)

    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed", 3)

    try:
        run = subprocess.run(
            [
                EXE,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        fail("workload exited with code %d" % run.returncode)
    check_result(lines[-1], args.trace, decl)
    print(lines[-1])


if __name__ == "__main__":
    main()
