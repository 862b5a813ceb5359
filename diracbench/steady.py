"""Measure how steady the benchmark is: run every workload over several seeds
and report, per end-to-end metric, the median, quartiles and spread against
the bound in BENCHMARK.json.

    python3 diracbench/steady.py --runs 10 --first-seed 1
    python3 diracbench/steady.py --workloads gadgets --runs 5

The spread is (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``; a metric is steady when its spread
stays under a third of its bound (``setup_s`` is exempt). The failed share
must be the same in every run. Runs go one at a time, from the root of the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, spec):
    rows = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                      "bound": bound, "values": values}
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, args.seconds)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        rows = summarize(results, spec)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: correct in every run: {correct}; failed shares: "
              + ", ".join(str(s) for s in sorted(shares)))
        ok &= correct and len(shares) == 1
        print(f"{'metric':14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}  verdict")
        for name, row in rows.items():
            steady = name == "setup_s" or row["spread"] < row["bound"] / 3
            verdict = "steady" if steady else "NOT STEADY"
            ok &= steady
            print(f"{name:14} {row['median']:10.4g} {row['q1']:10.4g} {row['q3']:10.4g} "
                  f"{row['spread']:8.2%} {row['bound']:6.2f}  {verdict}")
        print()
    print("all steady" if ok else "NOT all steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
