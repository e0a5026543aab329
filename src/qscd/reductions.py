"""Security reductions as executable transformations over distinguishers.

Everything here operates on the oracle abstraction: a source draws a tuple
of bare states, and a distinguisher sees that tuple and an RNG handle, never
the key behind it. The module provides the worst-to-average randomization,
the search-to-distinction attack pipeline, the plus-vs-iota hybrid, and an
empirical advantage estimator with Hoeffding confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .graphauto import PromiseInstance, coset_sample
from .permgroup import Permutation, random_permutation, sign
from .qscdcyc import gen_cyc
from .qscdff import Distinguisher, convert, distinguish, gen_iota, gen_plus
from .qstate import SparseState

TupleSource = Callable[[np.random.Generator], tuple[SparseState, ...]]

# Trials whose generators estimate_advantage spawns at once.
SPAWN_CHUNK = 256


@dataclass(frozen=True)
class DistinguisherReport:
    """Empirical acceptance counts for two sources plus a Hoeffding interval."""

    trials0: int
    trials1: int
    acc0: int
    acc1: int
    confidence: float = 0.01

    def __post_init__(self):
        if self.trials0 < 1 or self.trials1 < 1:
            raise ValueError("need at least one trial per side")
        if not 0 <= self.acc0 <= self.trials0 or not 0 <= self.acc1 <= self.trials1:
            raise ValueError("acceptance counts out of range")
        if not 0 < self.confidence < 1:  # NaN fails too
            raise ValueError("confidence must be in (0, 1)")

    @property
    def advantage(self) -> float:
        return abs(self.acc0 / self.trials0 - self.acc1 / self.trials1)

    @property
    def ci_halfwidth(self) -> float:
        return math.sqrt(math.log(2.0 / self.confidence) / (2.0 * min(self.trials0, self.trials1)))

    def report_lines(self, seed: int, params: str) -> list[str]:
        """One key per line plus a single-line summary, stable for diffing."""
        return [
            f"trials0={self.trials0}",
            f"trials1={self.trials1}",
            f"acc0={self.acc0}",
            f"acc1={self.acc1}",
            f"advantage={self.advantage:.6f}",
            f"ci={self.ci_halfwidth:.6f}",
            f"confidence={self.confidence:.6f}",
            f"seed={seed}",
            f"params={params}",
            f"summary trials={self.trials0}/{self.trials1} "
            f"advantage={self.advantage:.6f} ci={self.ci_halfwidth:.6f}",
        ]


@dataclass(frozen=True)
class AttackParams:
    """Tuple shape (k challenges, l key copies) and counts for the attack.

    The analysis sizes the pipeline as 8 p^2 n tuples per side with
    acceptance threshold 4 p n for a nominal polynomial value p; desk-scale
    runs override both. ``formula_tuples``/``formula_threshold`` echo the
    analysis values so reports can record requested and nominal sizes.
    """

    k: int
    p: int
    tuples_per_side: int
    threshold: int
    l: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need k >= 1 samples per tuple")
        if self.p < 1:
            raise ValueError("nominal polynomial value must be >= 1")
        if not 0 < self.threshold < self.tuples_per_side:
            raise ValueError("need 0 < threshold < tuples_per_side")
        if self.l < 0:
            raise ValueError("need l >= 0")

    def formula_tuples(self, n: int) -> int:
        return 8 * self.p * self.p * n

    def formula_threshold(self, n: int) -> int:
        return 4 * self.p * n


def plus_source(pi: Permutation, k: int = 1) -> TupleSource:
    return lambda rng: tuple(gen_plus(pi, rng) for _ in range(k))


def minus_source(pi: Permutation, k: int = 1) -> TupleSource:
    return lambda rng: tuple(convert(gen_plus(pi, rng)) for _ in range(k))


def iota_source(n: int, k: int = 1) -> TupleSource:
    return lambda rng: tuple(gen_iota(n, rng) for _ in range(k))


def cyc_source(pi: Permutation, s: int, m: int, k: int = 1) -> TupleSource:
    return lambda rng: tuple(gen_cyc(pi, s, m, rng) for _ in range(k))


def omniscient_distinguisher(pi: Permutation) -> Distinguisher:
    """The trapdoor ceiling: holds the hidden key, accepts plus states."""

    def run(states: Sequence[SparseState], rng: np.random.Generator) -> int:
        return distinguish(states[0], pi, rng)

    return run


def coin_distinguisher() -> Distinguisher:
    def run(states: Sequence[SparseState], rng: np.random.Generator) -> int:
        return int(rng.integers(2))

    return run


def basis_measure_distinguisher() -> Distinguisher:
    """Measures the first sample in the computational basis, accepts even permutations."""

    def run(states: Sequence[SparseState], rng: np.random.Generator) -> int:
        _, perm = states[0].measure_full(rng)
        return 1 if sign(perm) == 0 else 0

    return run


def randomize_to_average(
    states: Sequence[SparseState], rng: np.random.Generator
) -> tuple[SparseState, ...]:
    """Rerandomize one fixed hidden key into a uniform one.

    Draws a single uniform tau and right-translates every state by it,
    which conjugates the hidden key by tau without touching support sizes or
    amplitude magnitudes. Over uniform tau the conjugate is uniform over the
    whole key class.
    """
    tau = random_permutation(states[0].n, rng)
    return tuple(state.translate(tau) for state in states)


def ga_attack(
    inst: PromiseInstance,
    dist: Distinguisher,
    params: AttackParams,
    rng: np.random.Generator,
) -> int:
    """Decide a promise instance by feeding coset draws to a distinguisher.

    A tuple holds ``params.k`` challenge draws followed by ``params.l`` plus
    draws standing in for encryption-key copies. The minus side sends its
    challenges through ``convert``. Answers YES when the acceptance counts
    over tuples_per_side tuples a side differ by at least the threshold. On
    a NO instance every draw is iota, which ``convert`` fixes up to a global
    sign, so the counts concentrate together.
    """

    def make_tuple(minus: bool) -> list[SparseState]:
        draws = [coset_sample(inst, rng) for _ in range(params.k + params.l)]
        if minus:
            draws[:params.k] = [convert(draw) for draw in draws[:params.k]]
        return draws

    r_plus = sum(dist(make_tuple(False), rng) for _ in range(params.tuples_per_side))
    r_minus = sum(dist(make_tuple(True), rng) for _ in range(params.tuples_per_side))
    return 1 if abs(r_plus - r_minus) >= params.threshold else 0


def hybrid_to_iota(dist: Distinguisher) -> Distinguisher:
    """Distinguisher against (plus vs iota) built from one against (plus vs minus).

    Per invocation, a coin chooses between running the given distinguisher
    directly and running it on the sign-converted tuple with the answer
    complemented. Conversion maps plus draws to minus draws and fixes iota,
    and the complement keeps the two branches' acceptance gaps aligned
    instead of letting them cancel, so the combined plus-vs-iota gap is
    exactly half the original plus-vs-minus gap.
    """

    def hybrid(states: Sequence[SparseState], rng: np.random.Generator) -> int:
        if rng.integers(2) == 0:
            return dist(states, rng)
        converted = [convert(state) for state in states]
        return 1 - dist(converted, rng)

    return hybrid


def estimate_advantage(
    dist: Distinguisher,
    source_a: TupleSource,
    source_b: TupleSource,
    trials: int,
    rng: np.random.Generator,
    confidence: float = 0.01,
) -> DistinguisherReport:
    """Empirical acceptance gap of a distinguisher between two tuple sources.

    Every trial runs on its own generator spawned from ``rng``, so the
    aggregate is independent of trial order. The generators are spawned
    SPAWN_CHUNK trials at a time, which gives the same children as one
    spawn of all of them while memory stays flat in the trial count.
    """
    report = DistinguisherReport(trials, trials, 0, 0, confidence)  # checks inputs before any spawn
    acc0 = acc1 = 0
    for start in range(0, trials, SPAWN_CHUNK):
        children = rng.spawn(2 * min(SPAWN_CHUNK, trials - start))
        for gen_a, gen_b in zip(children[0::2], children[1::2]):
            acc0 += dist(source_a(gen_a), gen_a)
            acc1 += dist(source_b(gen_b), gen_b)
    return replace(report, acc0=acc0, acc1=acc1)
