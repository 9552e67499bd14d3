#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test      # the benchmark's own unit tests

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build/, both relative to the current directory;
a traced run writes its spans under <build>/spans/. The last line of stdout
is the result JSON of the perfbench binary. When BENCHMARK.json is present
its metric names are checked against what the run printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result JSON.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def check_names(result, trace):
    """Names of the printed metrics must be exactly BENCHMARK.json's."""
    if not os.path.exists("BENCHMARK.json"):
        return True
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if want == got:
        return True
    print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
          % (sorted(want - got), sorted(got - want)), file=sys.stderr)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        out = build(["perfbench_tests"])
        if out is None:
            return 1
        return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    out = build(["perfbench"])
    if out is None:
        return 1
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    return 0 if check_names(result, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
