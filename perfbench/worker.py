"""One workload in a fresh interpreter: set up, signal, time, check, report.

Started by run.py, never by hand. It probes the machine's speed (see
speed.py), imports qscd from the checkout's src/ before any other package,
builds the workload, and prints READY; run.py times set-up from the process
start to that line. It then prints the mean probe time around set-up, and in
``setup`` mode stops there. Otherwise it runs whole rounds of operations,
timing each one, checking each output untimed and probing the speed between
them, and prints one JSON line with the result.

``time`` mode runs rounds until --seconds have passed and the workload's
minimum is met. ``trace`` mode runs rounds untraced for half of --seconds,
then as many fresh rounds traced, and reports per-layer figures per round.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_qscd():
    if not (SRC / "qscd" / "__init__.py").is_file():
        raise SystemExit(f"no qscd sources at {SRC}: run from the root of a qscd checkout")
    sys.path.insert(0, str(SRC))
    import qscd

    if Path(qscd.__file__).resolve().parent != (SRC / "qscd").resolve():
        raise SystemExit(f"imported qscd from {qscd.__file__}, not from {SRC}")
    return qscd


class Loop:
    """Times operations round by round and collects check failures."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.probes: list[tuple[int, float]] = []  # (operations timed before it, seconds)
        self._since_probe = 0.0
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, r: int, ops) -> float:
        busy = 0.0
        for i, op in enumerate(ops):
            self.tracer.op = r * self.workload.ops_per_round + i
            self.attempted += 1
            start = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed operation, run continues
                self.failed += 1
                self.errors.append(f"round {r} {op.kind}: raised {exc!r}")
                continue
            elapsed = perf_counter() - start
            busy += elapsed
            self.latencies.append(elapsed)
            self._since_probe += elapsed
            while self._since_probe >= speed.PROBE_EVERY_S:
                self.probes.append((len(self.latencies), speed.probe()))
                self._since_probe -= speed.PROBE_EVERY_S
            self.by_kind.setdefault(op.kind, []).append(elapsed)
            problem = op.check(out)
            if problem:
                self.errors.append(f"round {r} {op.kind}: {problem}")
        return busy

    def run(self, seconds: float, min_rounds: int, ops) -> tuple[int, float]:
        """Rounds from the first (`ops`) on until both limits are met; (rounds, busy seconds)."""
        start = perf_counter()
        r, busy = 0, 0.0
        while True:
            busy += self.run_round(r, ops)
            r += 1
            if r >= min_rounds and perf_counter() - start >= seconds:
                return r, busy
            ops = self.workload.round(r)


def end_to_end(loop: Loop, tail_q: float, windows: int = 20) -> tuple[dict, dict]:
    """(scaled, raw) throughput, median and tail, with times in ms.

    Each operation's time is scaled by the speed the probes measured in its
    twentieth of the run (see speed.py).
    """
    import numpy as np

    raw = np.array(loop.latencies) * 1e3
    probe_at = np.array([i for i, _ in loop.probes], dtype=int)
    probe_s = np.array([s for _, s in loop.probes])
    scaled = raw.copy()
    for window in np.array_split(np.arange(len(raw)), min(windows, len(raw))):
        near = probe_s[(probe_at > window[0]) & (probe_at <= window[-1] + 1)]
        scaled[window] = speed.scale(raw[window], near if len(near) else probe_s)
    return tuple(
        {
            "ops_per_s": 1e3 * len(lat) / lat.sum(),
            "op_p50_ms": float(np.median(lat)),
            "op_tail_ms": float(np.percentile(lat, 100 * tail_q)),
        }
        for lat in (scaled, raw)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=["setup", "time", "trace"], required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    before = speed.setup_probe()
    qscd = import_qscd()
    import numpy as np

    import tracing
    import workloads

    state = {"tracer": tracing.OFF}
    workload = workloads.build(args.workload, qscd, args.seed, args.size, lambda: state["tracer"])
    first_ops = workload.round(0)
    print("READY", flush=True)
    print(f"PROBE {(before + speed.setup_probe()) / 2!r}", flush=True)
    if args.mode == "setup":
        return 0

    loop = Loop(workload, tracing.OFF)
    result = {}
    if args.mode == "time":
        rounds, _ = loop.run(args.seconds, workload.min_rounds, first_ops)
        result["metrics"], result["raw_metrics"] = end_to_end(loop, workload.tail_quantile())
        result["probe_median_s"] = float(np.median([s for _, s in loop.probes]))
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["tail_quantile"] = workload.tail_quantile()
        result["samples"] = len(loop.latencies)
        result["probes"] = len(loop.probes)
        result["kind_p50_ms"] = {k: float(np.median(v)) * 1e3 for k, v in sorted(loop.by_kind.items())}
    else:
        rounds, plain = loop.run(args.seconds / 2, 1, first_ops)
        tracer = tracing.Tracer()
        loop.tracer = tracer
        state["tracer"] = tracer
        rounds_ops = [workload.round(r) for r in range(rounds, 2 * rounds)]
        plain_probes = len(loop.probes)
        tracer.install()
        try:
            traced = sum(loop.run_round(r, ops) for r, ops in enumerate(rounds_ops, start=rounds))
        finally:
            tracer.uninstall()
            state["tracer"] = tracing.OFF
        metrics = tracer.layer_metrics(rounds)
        # Both passes at the nominal speed, each scaled by its own probes.
        probes = [seconds for _, seconds in loop.probes]
        overhead = speed.scale(traced, probes[plain_probes:]) - speed.scale(plain, probes[:plain_probes])
        metrics["trace.overhead_s"] = overhead / rounds
        result["metrics"] = metrics
        if args.spans:
            tracer.write_spans(args.spans)
    result["rounds"] = rounds
    result["ops_per_round"] = workload.ops_per_round
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed
    errors = loop.errors + workload.finish()
    result["errors"] = errors[:20]
    result["error_count"] = len(errors)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
