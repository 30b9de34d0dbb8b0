#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

One run:

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 15 --trace 0

builds perfbench into .bench_build/ from the checkout's sources, runs it
from the checkout root, and passes its output through. The last line is one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The exit code is the program's.

Repeat mode:

    python3 perfbench/run.py --workload oltp --repeat 10 --seed 1

runs one workload N times with seeds seed..seed+N-1 and prints each
end-to-end metric's median, quartiles and spread (interquartile range over
median, as statistics.quantiles(values, n=4) gives them) beside the bound
BENCHMARK.json records for it.

Everything the build and the runs write stays under .bench_build/ in the
checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "-buildvcs=false",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, "config"),
        "XDG_CACHE_HOME": os.path.join(home, "cache"),
    })
    return env


def find_go():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT", "")
    if goroot and os.path.isfile(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    sys.exit("perfbench: no go toolchain on PATH")


def run_child(cmd, cwd, env, timeout):
    """Run cmd, passing its output through; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        return 1, ""
    return proc.returncode, out


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    code, out = run_child([find_go(), "build", "-o", BINARY, "."],
                          os.path.join(ROOT, "perfbench"), env, BUILD_TIMEOUT)
    if out:
        sys.stderr.write(out)
    if code != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace):
    cmd = [BINARY, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace),
           "-spans", os.path.join(BUILD, "spans")]
    return run_child(cmd, ROOT, go_env(), RUN_TIMEOUT)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(args):
    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, 0)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            sys.exit("perfbench: run with seed %d failed (exit %d)" % (seed, code))
        res = json.loads(lines[-1])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%-20s %14s %14s %14s %8s %7s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for k in sorted(values):
        vs = values[k]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(k)
        if bound is None:
            verdict = "not in BENCHMARK.json"
        elif k == "setup_s":
            verdict = "spread not gated"
        elif spread <= bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY (> bound)"
        print("%-20s %14.6g %14.6g %14.6g %8.4f %7s  %s" % (
            k, med, q1, q3, spread, "-" if bound is None else "%.3g" % bound, verdict))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="measured seconds (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times with consecutive seeds and print medians and quartiles")
    args = p.parse_args()
    if args.repeat == 1:
        p.error("--repeat needs at least 2 runs to give quartiles")
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    build()
    if args.repeat > 0:
        repeat(args)
        return
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
