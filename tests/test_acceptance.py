"""The acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output). The underlying checks live in qscd.selftest so the CLI
selftest command and this module exercise identical code.
"""

import time

import pytest

from qscd.selftest import (
    criterion_attack,
    criterion_blindness,
    criterion_coincidence,
    criterion_conjugation,
    criterion_hybrid,
    criterion_koebler,
    criterion_labels,
    criterion_multibit,
    criterion_trapdoor,
    run_selftest,
)

SEED = 20260810
# Further seeds for criteria 1-9 at the same thresholds, in the slow mark,
# which the default run deselects: pytest -m slow
EXTRA_SEEDS = (1, 2, 3)


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


def test_criterion_1_trapdoor_determinism():
    run_timed(1, "trapdoor-determinism", criterion_trapdoor, budget=30)


def test_criterion_2_multibit_correctness():
    run_timed(2, "multibit-correctness", criterion_multibit, budget=30)


def test_criterion_3_ff_cyc_coincidence():
    run_timed(3, "ff-cyc-coincidence", criterion_coincidence)


def test_criterion_4_worst_to_average_uniformity():
    run_timed(4, "worst-to-average-uniformity", criterion_conjugation, budget=5)


def test_criterion_5_reduction_equivalence():
    run_timed(5, "reduction-equivalence", criterion_koebler, budget=300)


def test_criterion_6_label_arithmetic():
    run_timed(6, "label-arithmetic", criterion_labels)


def test_criterion_7_attack_pipeline():
    run_timed(7, "attack-pipeline", criterion_attack, budget=60)


def test_criterion_8_hybrid_bound():
    run_timed(8, "hybrid-bound", criterion_hybrid)


def test_criterion_9_blindness():
    run_timed(9, "blindness", criterion_blindness)


def test_criterion_10_selftest_determinism():
    first, ok_first = run_selftest(SEED)
    second, ok_second = run_selftest(SEED)
    ok = ok_first and ok_second and first == second
    report(10, "selftest-determinism", ok, f"bytes={len(first)} identical={first == second}")
    assert ok_first and ok_second
    assert first == second


@pytest.mark.slow
@pytest.mark.parametrize("seed", EXTRA_SEEDS)
@pytest.mark.parametrize(
    "number, fn",
    [
        (1, criterion_trapdoor),
        (2, criterion_multibit),
        (3, criterion_coincidence),
        (4, criterion_conjugation),
        (5, criterion_koebler),
        (6, criterion_labels),
        (7, criterion_attack),
        (8, criterion_hybrid),
        (9, criterion_blindness),
    ],
)
def test_criterion_on_extra_seed(number, fn, seed):
    ok, detail = fn(seed)
    report(number, f"seed-{seed}", ok, detail)
    assert ok, detail
