"""The acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output). The underlying checks live in qscd.selftest so the CLI
selftest command and this module exercise identical code.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from qscd import cli
from qscd.graphauto import Graph
from qscd.permgroup import Permutation, compose
from qscd.qstate import SparseState
from qscd.selftest import (
    CRITERIA,
    RIGID7A,
    RIGID7B,
    _chisquare_pvalue,
    _has_nontrivial_automorphism,
    criterion_conjugation,
    run_selftest,
)

from oracles import RIGID6, has_nontrivial_automorphism

SEED = 20260810
# sha256 of the stdout of `qscd selftest --seed 20260810`, pinned so that a
# change to any report byte fails here rather than going unnoticed. The
# batch state engine of ROADMAP item 4 changes the order of random draws and
# may change it once; such a change updates this value and says so in
# CHANGES.md.
SELFTEST_SHA256 = "67155577194b148958edb9e54efe116645aa88ecbe7b7fa7a5029c7e22ef4c9c"
# Further seeds for criteria 1-9 at the same thresholds, in the slow mark,
# which the default run deselects: pytest -m slow
EXTRA_SEEDS = (1, 2, 3)
# Runtime budgets in seconds at SEED; a criterion not named here has none.
BUDGETS = {1: 30, 2: 30, 4: 5, 5: 300, 7: 60}


def report(number: int, name: str, ok: bool, detail: str, elapsed: float | None = None) -> None:
    verdict = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {name}: {verdict}{timing} {detail}")


def run_timed(number, name, fn, budget=None):
    start = time.monotonic()
    ok, detail = fn(SEED)
    elapsed = time.monotonic() - start
    report(number, name, ok, detail, elapsed)
    assert ok, detail
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"


def gating_test(number, name, fn):
    """The Tier-1 test of one criterion at SEED, named after it as
    test_criterion_<number>_<name>."""

    def test():
        run_timed(number, name, fn, BUDGETS.get(number))

    test.__name__ = test.__qualname__ = f"test_criterion_{number}_{name.replace('-', '_')}"
    return test


globals().update((test.__name__, test) for test in (gating_test(*c) for c in CRITERIA))


def test_criterion_10_selftest_determinism():
    first, ok_first = run_selftest(SEED)
    second, ok_second = run_selftest(SEED)
    ok = ok_first and ok_second and first == second
    report(10, "selftest-determinism", ok, f"bytes={len(first)} identical={first == second}")
    assert ok_first and ok_second
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == SELFTEST_SHA256


def test_criterion_4_fails_when_translation_is_broken(monkeypatch):
    # Criterion 4 checks the shipped reduction: if right translation leaves
    # a draw where it is, the key never moves and the criterion fails.
    monkeypatch.setattr(SparseState, "translate", lambda self, tau: self)
    ok, detail = criterion_conjugation(SEED)
    assert not ok
    assert detail.startswith("exhaustive_48x15=no "), detail


def test_criterion_4_fails_when_a_key_leaves_k6(monkeypatch):
    # A translation that hides a 3-cycle, outside K_6, must fail the
    # criterion with p = 0: the key is neither dropped nor a crash.
    three_cycle = Permutation((2, 3, 1, 4, 5, 6))

    def translate(self, tau):
        support = [(0, tau), (0, compose(tau, three_cycle))]
        return SparseState(6, 1, dict.fromkeys(support, 1 / math.sqrt(2)))

    monkeypatch.setattr(SparseState, "translate", translate)
    ok, detail = criterion_conjugation(SEED)
    assert not ok
    assert detail == "exhaustive_48x15=no chisq_p=0.000000"


@pytest.mark.parametrize("points", [1, 3])
def test_selftest_reports_a_draw_of_another_size(monkeypatch, capsys, points):
    # A translation whose draw does not have two points hides no key of
    # K_6: criterion 4 fails, and the selftest still reports every
    # criterion and exits 4. No other criterion translates.
    swaps = [Permutation((2, 1, 3, 4, 5, 6)), Permutation((3, 2, 1, 4, 5, 6))]

    def translate(self, tau):
        support = [(0, tau), *((0, compose(tau, swap)) for swap in swaps)][:points]
        return SparseState(6, 1, dict.fromkeys(support, 1 / math.sqrt(points)))

    monkeypatch.setattr(SparseState, "translate", translate)
    assert cli.run(["selftest", "--seed", str(SEED)]) == cli.EXIT_TOLERANCE
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == ""
    verdicts = [line.split()[:3] for line in lines[1:-1]]
    assert verdicts == [[f"criterion={number}", f"name={name}", f"pass={'no' if number == 4 else 'yes'}"]
                        for number, name, _ in CRITERIA]
    assert lines[4].endswith(" exhaustive_48x15=no chisq_p=0.000000"), lines[4]
    assert lines[-1] == "selftest result=fail"


@pytest.mark.slow
@pytest.mark.parametrize("seed", EXTRA_SEEDS)
@pytest.mark.parametrize(
    "number, name, fn", CRITERIA, ids=[f"{number}-{fn.__name__}" for number, _, fn in CRITERIA]
)
def test_criterion_on_extra_seed(number, name, fn, seed):
    ok, detail = fn(seed)
    report(number, f"seed-{seed}", ok, detail)
    assert ok, detail


class TestChisquarePvalue:
    def test_matches_the_chi2_tail(self):
        # Every odd number of counts from 3 to 31, against scipy's tail at
        # the statistic computed here.
        rng = np.random.default_rng(80)
        for length in range(3, 32, 2):
            for _ in range(50):
                counts = rng.integers(0, int(rng.integers(1, 2000)) + 1, length)
                counts[0] += 1  # never all zero
                mean = counts.mean()
                statistic = ((counts - mean) ** 2 / mean).sum()
                want = stats.chi2.sf(statistic, length - 1)
                assert abs(_chisquare_pvalue(counts.tolist()) - want) <= 1e-12, counts

    @pytest.mark.parametrize("length", [2, 14, 16])
    def test_refuses_an_even_number_of_counts(self, length):
        with pytest.raises(ValueError, match="odd"):
            _chisquare_pvalue([10] * length)


def test_ground_truth_agrees_with_brute_force():
    # Criterion 5's ground truth against the oracles' scan of S_n, on every
    # graph of 1-5 nodes and on the rigid 6- and 7-node witnesses.
    graphs = [RIGID6, RIGID7A, RIGID7B]
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            graphs.append(Graph(n, frozenset(itertools.compress(pairs, bits))))
    assert len(graphs) == 3 + 1 + 2 + 8 + 64 + 1024
    answers = [_has_nontrivial_automorphism(g) for g in graphs]
    assert answers == [has_nontrivial_automorphism(g.node_count, g.edges) for g in graphs]
    assert answers[:4] == [False, False, False, False]  # the three witnesses and one node
