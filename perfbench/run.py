"""Benchmark of qscd: one workload, end-to-end or traced, as one JSON line.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 10 --trace 0

Run it from the root of a qscd checkout; it imports qscd from src/ there.
Workloads are those of BENCHMARK.json (see README.md).
Every operation runs in fresh worker interpreters, one at a time, each
closing the loop on its own operations: a single client on one thread.

With ``--trace 0`` it starts the worker SETUP_STARTS times. One of them
also runs and checks the timed loop; the others stop after set-up.
``setup_s`` is the median set-up time of all starts; the other metrics
come from the timed one. With ``--trace 1`` it starts one worker under
``-X importtime`` for the import metrics and one worker that runs the
workload untraced and then traced, for the per-layer metrics.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A record of the run with the environment goes to perfbench/out/.
It exits 1 if a worker fails or overruns, and 2 if there are no qscd
sources to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = {"full": 7, "smoke": 1}
# A worker that has not finished by then is killed; a run must end within
# 180 s, and the traced reduction run is the longest (about 90 s).
WORKER_LIMIT_S = 170


class WorkerFailed(Exception):
    pass


def start_worker(args, mode: str, extra=(), python_flags=()):
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
           "--mode", mode, *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if python_flags else None, text=True)
    timer = threading.Timer(max(0.0, args.deadline - time.monotonic()), proc.kill)
    timer.start()
    return proc, started, timer


def finish_worker(proc, started, timer, want_result: bool):
    """(set-up seconds, raw and scaled to the nominal speed, result dict or None, stderr text or None)."""
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        probe = proc.stdout.readline().split()
        rest, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0 or probe[:1] != ["PROBE"]:
        raise WorkerFailed(f"worker exited with {proc.returncode} ({ready.strip() or 'no output'})")
    try:
        result = json.loads(rest.strip().splitlines()[-1]) if want_result else None
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"worker printed no result: {exc}") from exc
    return setup, speed.scale(setup, [float(probe[1])]), result, err


def import_times(stderr: str) -> dict[str, float]:
    """Import seconds of qscd, and of the scipy modules in it, from ``-X importtime``.

    The report lists each module after the modules it imported, indented one
    step deeper. scipy's lazy submodule loading leaves ``scipy.stats`` itself
    out of the list, so the scipy figure sums every scipy module that was
    imported from outside scipy.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:]
        rows.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(fields[1]) / 1e6))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    qscd_s = scipy_s = 0.0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name == "qscd":
            qscd_s = cumulative
        parent = next((row[1] for row in rows[i + 1:] if row[0] < depth), "")
        if is_scipy(name) and not is_scipy(parent):
            scipy_s += cumulative
    return {"setup.import_qscd_s": qscd_s, "setup.import_scipy_stats_s": scipy_s}


def commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def measure(args) -> dict:
    if args.trace == 0:
        # Set-up-only starts go before and after the timed one, so that the
        # median samples the machine's speed across the whole run.
        extra = SETUP_STARTS[args.size] - 1
        starts = [finish_worker(*start_worker(args, "setup"), want_result=False) for _ in range(extra // 2)]
        starts.append(finish_worker(*start_worker(args, "time"), want_result=True))
        starts += [finish_worker(*start_worker(args, "setup"), want_result=False) for _ in range(extra - extra // 2)]
        result = starts[extra // 2][2]
        result["metrics"]["setup_s"] = statistics.median(start[1] for start in starts)
        result["setup_samples_s"] = [start[1] for start in starts]
        result["raw_setup_samples_s"] = [start[0] for start in starts]
        return result
    _, _, _, err = finish_worker(*start_worker(args, "setup", python_flags=("-X", "importtime")), want_result=False)
    spans = OUT / f"{args.stamp}-spans.jsonl"
    _, _, result, _ = finish_worker(*start_worker(args, "trace", extra=("--spans", str(spans))), want_result=True)
    result["metrics"].update(import_times(err))
    result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=list(SETUP_STARTS), default="full",
                    help="smoke: a few seconds of every operation and check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qscd" / "__init__.py").is_file():
        print(f"no qscd sources under {ROOT / 'src'}; run from the root of a qscd checkout", file=sys.stderr)
        return 2
    args.deadline = time.monotonic() + WORKER_LIMIT_S
    args.stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(result["metrics"].items())}
    correct = result["error_count"] == 0
    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "commit": commit(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "correct": correct,
        **{k: v for k, v in result.items() if k != "metrics"}, "metrics": metrics,
    }
    (OUT / f"{args.stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
