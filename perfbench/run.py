#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload vertex-k --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result printed by
perfbench/bench.ml. Build output goes to standard error. The benchmark
and everything it starts (the serve-cold daemon) run in their own
process group, which is killed if the run overstays its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
DECOMPOSE = "_build/default/bin/decompose.exe"
WORKLOADS = ["vertex-exact", "vertex-k", "edge-dist", "serve-cold"]
TIME_LIMIT_S = 170


def build():
    """Build the benchmark and the daemon binary; exit non-zero outside a checkout."""
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            sys.exit(f"run.py: {need} not found; run from the root of a full checkout")
    r = subprocess.run(
        # no shared dune cache: the build reads and writes only the checkout
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/bench.exe", "./bin/decompose.exe"],
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit(f"run.py: build failed (exit {r.returncode})")


def run_bench(args, timeout=TIME_LIMIT_S, capture=False):
    """Run bench.exe with [args]; kill its whole process group on timeout."""
    proc = subprocess.Popen(
        [BENCH, "--decompose", DECOMPOSE] + args,
        start_new_session=True,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.PIPE if capture else None,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # the daemon shares the group; make sure nothing outlives the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    build()
    try:
        code, _, _ = run_bench(
            ["--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)])
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {a.workload} exceeded {TIME_LIMIT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
