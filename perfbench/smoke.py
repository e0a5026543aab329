"""Smoke size of every workload: all operations and checks, in well under a minute.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size smoke`` untraced and traced and
checks the result line against BENCHMARK.json: the keys, the metric names
and units, ``correct``, no failed operations, and no end-to-end metric at 0.
Last, it copies BENCHMARK.json and perfbench/ alone into perfbench/out/ and
checks that the benchmark refuses to run there. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
            if {m["name"]: m["unit"] for m in wanted} != {k: v["unit"] for k, v in metrics.items()}:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
            for name, m in metrics.items():
                if not math.isfinite(m["value"]) or (trace == 0 and m["value"] == 0):
                    problems.append(f"{label}: {name} = {m['value']}")
            print(f"{label}: attempted {result['attempted']}, correct {result['correct']}", flush=True)

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "protocol", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without qscd sources the benchmark did not refuse to run")
    print(f"without qscd sources: exit {proc.returncode}")

    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
