"""Format of the BENCH files at the repo root (ROADMAP item 23).

Each ``BENCH_<pr>.json`` records one change's alternating parent/change
benchmark pairs. This checks the schema only and gates no speed.

A file marked ``"source": "CHANGES.md"`` was copied afterwards from the
prose of that change's CHANGES.md entry, which records only some figures:
there a metric, its ``won``, a side, a quartile or the claim may be missing.
Every figure that is present is checked as in any other file.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s")
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_bench_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_format(path):
    bench = json.loads(path.read_text())
    partial = bench.get("source") == "CHANGES.md"
    assert "source" not in bench or partial, bench["source"]

    def fields(record, keys):
        # the keys of record that are present, each of them required unless partial
        if not partial:
            assert all(k in record for k in keys), (path.name, keys)
        return [k for k in keys if k in record]

    assert path.name == f"BENCH_{bench['pr']}.json"
    assert isinstance(bench["parent"], str) and bench["parent"]
    assert isinstance(bench["env"], dict)
    assert bench["workloads"]
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert isinstance(pairs, int) and pairs >= 1, name
        metrics = fields(workload, METRICS)
        assert metrics, name
        for metric in metrics:
            figures = workload[metric]
            if fields(figures, ("won",)):
                assert 0 <= figures["won"] <= pairs, (name, metric)
            sides = fields(figures, ("parent", "change"))
            assert sides, (name, metric)
            for side in sides:
                present = [figures[side][k] for k in fields(figures[side], ("q1", "median", "q3"))]
                assert "median" in figures[side], (name, metric, side)
                assert present == sorted(present), (name, metric, side)
    fields(bench, ("claim",))
    claim = bench.get("claim")
    if claim is not None:
        # "<workload>.<metric>", backed by at least ten pairs
        name, metric = claim.split(".")
        assert metric in METRICS
        assert bench["workloads"][name]["pairs"] >= 10
