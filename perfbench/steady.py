"""Steadiness of the end-to-end metrics: runs each workload on several seeds.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]

The workloads and the length of a run are those of BENCHMARK.json.  For
each workload and end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median, against the metric's bound; then the share of failed operations of
each run.  Exits 1 if a spread is above its bound, a run is not correct or
the shares of failed operations differ.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"{workload}: {len(runs)} runs, seeds {args.first_seed}..{args.first_seed + args.seeds - 1}")
        print(f"  {'metric':18s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else ("  above a third of the bound" if spread <= bound else "  ABOVE BOUND")
            ok = ok and spread <= bound
            print(f"  {name:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bound:6.3f}{flag}")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        exact = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed/attempted: {', '.join(shares)} (share{'s differ' if len(exact) > 1 else ' identical'})")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}")
        ok = ok and all(r["correct"] for r in runs) and len(exact) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
