"""Steadiness check: repeat each workload over seeds and compare spreads with bounds.

    python3 perfbench/steady.py --runs 10

Runs ``run.py --trace 0`` for seeds 1 to --runs on every workload of
BENCHMARK.json, for its run_seconds each, one run after another, and
prints, for each end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. A spread above a third of the
bound is flagged: such a metric cannot show a regression of the bound's size.
It also prints the share of failed operations of every run, which must be
the same in all of them. The raw results go to perfbench/out/steady-*.json.
It exits 1 if any run fails or reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    bad = False
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                bad = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            bad = bad or not result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
        summary[workload] = runs
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  over a third of the bound"
            print(f"  {metric['name']:<12} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {metric['bound']:>6}{flag}")
        print(flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
