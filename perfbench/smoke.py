#!/usr/bin/env python3
"""Smoke test of the benchmark (seconds-long sizes), run from the repository root:

    python3 perfbench/smoke.py

Every workload must pass its gates untraced and traced and print exactly
the metrics BENCHMARK.json declares. Then every gate is driven to
failure once and must fail the run: degenerate inputs exit 2 with no
result; a digest mismatch, a packing under its floor and an unverified
daemon reply exit 1 with "correct": false; a failed drain exits 1.
Exits non-zero if any case misbehaves.
"""

import json
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# (case, bench.exe arguments, expected exit code, expects a result line)
GATES = [
    ("disconnected input", ["--workload", "edge-dist", "--spec", "er:n=48,deg=1"], 2, False),
    ("supplied k without a certificate",
     ["--workload", "vertex-k", "--spec", "random:n=48,k=6,extra=400"], 2, False),
    ("exact k below floor", ["--workload", "vertex-exact", "--spec", "hypercube:d=6"], 2, False),
    ("digest mismatch", ["--workload", "edge-dist", "--break", "digest"], 1, True),
    ("packing under its floor", ["--workload", "vertex-k", "--break", "size"], 1, True),
    ("unverified daemon reply", ["--workload", "serve-cold", "--break", "reply"], 1, True),
    ("failed drain", ["--workload", "serve-cold", "--break", "drain"], 1, False),
]


def last_json(out):
    lines = (out or "").strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def bench(args):
    return run.run_bench(["--smoke", "--seed", "7", "--seconds", "1"] + args,
                         timeout=170, capture=True)


def main():
    run.build()
    spec = json.load(open("BENCHMARK.json"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for w in run.WORKLOADS:
        for trace in (0, 1):
            code, out, err = bench(["--workload", w, "--trace", str(trace)])
            r = last_json(out)
            ok = (code == 0 and r is not None and r["correct"] and r["failed"] == 0
                  and r["attempted"] >= 1 and set(r["metrics"]) == names[trace])
            print(f"{'ok  ' if ok else 'FAIL'} {w} --trace {trace}", flush=True)
            if not ok:
                bad.append(f"{w} trace {trace}: exit {code}\n{err[-1500:]}")
    for case, args, want_code, want_result in GATES:
        code, out, err = bench(args + ["--trace", "0"])
        r = last_json(out)
        ok = code == want_code and (
            (r is not None and r["correct"] is False and r["failed"] >= 1)
            if want_result else r is None)
        print(f"{'ok  ' if ok else 'FAIL'} gate: {case} (exit {code})", flush=True)
        if not ok:
            bad.append(f"gate {case}: exit {code}, result {r}\n{err[-1500:]}")
    for b in bad:
        print(b, file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
