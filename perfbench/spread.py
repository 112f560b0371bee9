#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the benchmark's steadiness check.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [WORKLOAD ...]

Runs every named workload (default: all in BENCHMARK.json) once per seed
through perfbench/run.py and prints, per end-to-end metric, the median
and the distance between the first and third quartiles as a share of
the median, next to the metric's bound. A spread above a third of the
bound is flagged. The raw results are appended as JSON lines to
.perfbench-spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            res = json.loads(last)
            with open(".perfbench-spread.jsonl", "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{w:14s} {m['name']:14s} median {med:12.6g} {m['unit']:5s} "
                  f"spread {spread:6.3f} bound {m['bound']}{flag}", flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")

if __name__ == "__main__":
    main()
