"""Format of the BENCH files at the repo root (ROADMAP item 23).

Each ``BENCH_<pr>.json`` records one change's alternating parent/change
benchmark pairs. This checks the schema only and gates no speed.
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
    assert path.name == f"BENCH_{bench['pr']}.json"
    assert isinstance(bench["parent"], str) and bench["parent"]
    assert isinstance(bench["env"], dict)
    assert bench["workloads"]
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert isinstance(pairs, int) and pairs >= 1, name
        for metric in METRICS:
            figures = workload[metric]
            assert 0 <= figures["won"] <= pairs, (name, metric)
            for side in ("parent", "change"):
                q1, median, q3 = (figures[side][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3, (name, metric, side)
    claim = bench["claim"]
    if claim is not None:
        # "<workload>.<metric>", backed by at least ten pairs
        name, metric = claim.split(".")
        assert metric in METRICS
        assert bench["workloads"][name]["pairs"] >= 10
